"""Enumeration of factor-pairings of operator products into normal
constituents, the graph representation with the seven drawing rules, fermion
sign bookkeeping, and process classification by external lines.

Every pairing is one fermion option (a set of psi_bar-psi pairs) combined
with one photon matching, and its sign depends on the fermion option alone.
``enumerate_pairings`` therefore enumerates the two factors by brute force
and returns a read-only ``PairingSequence`` over their Cartesian product,
fermion-major; a ``Pairing`` is built only when an item is read, so counting
the pairings costs no more than enumerating the two factors.

Purely combinatorial: no amplitude is evaluated.  Each internal line carries
the momentum-space factor it would contribute as metadata.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import DomainError

PSI_BAR = "psi_bar"
PSI = "psi"
PHOTON = "photon"
EXTERNAL_POTENTIAL = "ext_potential"   # classical factor, never paired

FERMION_KINDS = (PSI_BAR, PSI)

PHOTON_LINE_FACTOR = "1/k^2"
ELECTRON_LINE_FACTOR = "1/(kslash - i mu)"
VERTEX_FACTOR = "(2 pi)^4 delta4(k1 + k2 + k3)"


@dataclass(frozen=True)
class Factor:
    kind: str
    vertex: int

    def __post_init__(self):
        if self.kind not in (PSI_BAR, PSI, PHOTON, EXTERNAL_POTENTIAL):
            raise DomainError(f"unknown factor kind {self.kind!r}")


class OperatorProduct:
    """Ordered sequence of field factors at labeled vertices."""

    def __init__(self, factors):
        self.factors = [f if isinstance(f, Factor) else Factor(*f) for f in factors]

    def __len__(self):
        return len(self.factors)

    @classmethod
    def current_product(cls, n_vertices: int) -> "OperatorProduct":
        """(psibar Aslash psi)(x1) ... (psibar Aslash psi)(xn)."""
        factors = []
        for v in range(1, n_vertices + 1):
            factors += [Factor(PSI_BAR, v), Factor(PHOTON, v), Factor(PSI, v)]
        return cls(factors)

    @classmethod
    def photons(cls, n: int) -> "OperatorProduct":
        """n photon factors at n distinct vertices."""
        return cls([Factor(PHOTON, v) for v in range(1, n + 1)])

    @classmethod
    def external_potential_second_order(cls) -> "OperatorProduct":
        """(psibar Aslash^e psi)(x) (psibar Aslash psi)(x1) (psibar Aslash psi)(x2)."""
        factors = [Factor(PSI_BAR, 0), Factor(EXTERNAL_POTENTIAL, 0), Factor(PSI, 0)]
        for v in (1, 2):
            factors += [Factor(PSI_BAR, v), Factor(PHOTON, v), Factor(PSI, v)]
        return cls(factors)


@dataclass(frozen=True, slots=True)
class Pairing:
    """Disjoint index pairs; fermion pairs join one psi_bar with one psi,
    photon pairs join two photon factors, never at the same vertex."""

    fermion_pairs: tuple   # ((i_psibar, j_psi), ...) indices into the product
    photon_pairs: tuple    # ((i, j), ...) with i < j

    @property
    def pairs(self):
        return self.fermion_pairs + self.photon_pairs


def _photon_matchings(photons, vertices):
    """All partial pairings of photon slots (including empty), no same-vertex
    pairs."""
    def rec(slots):
        if len(slots) < 2:
            yield ()
            return
        first, rest = slots[0], slots[1:]
        # first stays unpaired
        for tail in rec(rest):
            yield tail
        # first pairs with a later slot
        for i, other in enumerate(rest):
            if vertices[first] == vertices[other]:
                continue
            remaining = rest[:i] + rest[i + 1:]
            for tail in rec(remaining):
                yield ((first, other),) + tail

    return list(rec(tuple(photons)))


def _permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def _fermion_sign(pos, fermion_pairs) -> int:
    """Parity of the permutation of fermion factors from written order to
    the pairs-first order (each pair in written order, unpaired factors
    after in written order).  ``pos`` maps each fermion slot of the product,
    in written order, to its position among the fermion factors.  Moving a
    pair past another pair is an even permutation, so the order in which the
    pairs are listed does not change the sign."""
    perm = []
    for (i, j) in fermion_pairs:
        perm += (pos[i], pos[j]) if i < j else (pos[j], pos[i])
    paired = {i for pair in fermion_pairs for i in pair}
    perm += [n for slot, n in pos.items() if slot not in paired]
    return _permutation_sign(perm)


class PairingSequence(Sequence):
    """Read-only sequence of ``(Pairing, sign)``: every fermion option
    combined with every photon matching, fermion-major (item ``i`` is
    fermion option ``i // len(photons)`` with photon matching
    ``i % len(photons)``).  Each ``Pairing`` is built when it is read."""

    __slots__ = ("_fermions", "_signs", "_photons")

    def __init__(self, fermions, signs, photons):
        self._fermions = fermions
        self._signs = signs
        self._photons = photons

    def __len__(self):
        return len(self._fermions) * len(self._photons)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("pairing index out of range")
        f, p = divmod(i, len(self._photons))
        return Pairing(self._fermions[f], self._photons[p]), self._signs[f]

    def __iter__(self):
        for fpairs, sign in zip(self._fermions, self._signs):
            for ppairs in self._photons:
                yield Pairing(fpairs, ppairs), sign


def enumerate_pairings(prod: OperatorProduct) -> PairingSequence:
    """All factor-pairings of the product (empty pairing included), each with
    its fermion-permutation sign, as a lazy ``PairingSequence`` in
    fermion-major order: every photon matching of the first fermion option,
    then of the next.  Pairs join one psi_bar with one psi (stored as
    ``(psi_bar_index, psi_index)``) or two photon factors; factors at the
    same vertex are never paired (rule 7); external-potential factors are
    classical and never pair."""
    bars = [i for i, f in enumerate(prod.factors) if f.kind == PSI_BAR]
    psis = [i for i, f in enumerate(prod.factors) if f.kind == PSI]
    photons = [i for i, f in enumerate(prod.factors) if f.kind == PHOTON]
    vertices = {i: f.vertex for i, f in enumerate(prod.factors)}

    fermion_options = [()]
    for size in range(1, min(len(bars), len(psis)) + 1):
        for bar_subset in itertools.combinations(bars, size):
            for psi_perm in itertools.permutations(psis, size):
                pairs = tuple(zip(bar_subset, psi_perm))
                if all(vertices[b] != vertices[p] for b, p in pairs):
                    fermion_options.append(pairs)

    pos = {slot: n for n, slot in enumerate(sorted(bars + psis))}
    signs = [_fermion_sign(pos, fpairs) for fpairs in fermion_options]
    return PairingSequence(fermion_options, signs, _photon_matchings(photons, vertices))


@dataclass
class ExternalLeg:
    vertex: int
    kind: str          # "electron_out" (unpaired psi_bar), "electron_in"
                       # (unpaired psi), "photon", "potential"


@dataclass
class PairingGraph:
    """Vertices, directed internal electron lines (psi_bar vertex -> psi
    vertex), undirected internal photon lines, and external legs."""

    vertices: list
    electron_lines: list = field(default_factory=list)   # (from_v, to_v, factor)
    photon_lines: list = field(default_factory=list)     # (v1, v2, factor)
    external: list = field(default_factory=list)
    sign: int = 1

    def vertex_degree(self, v: int) -> int:
        deg = sum((a == v) + (b == v) for a, b, _ in self.electron_lines)
        deg += sum((a == v) + (b == v) for a, b, _ in self.photon_lines)
        deg += sum(leg.vertex == v for leg in self.external
                   if leg.kind != "potential")
        return deg

    def has_self_loop(self) -> bool:
        return any(a == b for a, b, _ in self.electron_lines + self.photon_lines)

    def external_signature(self):
        fermions = sum(leg.kind in ("electron_in", "electron_out")
                       for leg in self.external)
        photons = sum(leg.kind == "photon" for leg in self.external)
        return fermions, photons

    def connected_components(self):
        adj = {v: set() for v in self.vertices}
        for a, b, _ in self.electron_lines + self.photon_lines:
            adj[a].add(b)
            adj[b].add(a)
        seen, comps = set(), []
        for v in self.vertices:
            if v in seen:
                continue
            stack, comp = [v], set()
            while stack:
                cur = stack.pop()
                if cur in comp:
                    continue
                comp.add(cur)
                stack.extend(adj[cur] - comp)
            seen |= comp
            comps.append(comp)
        return comps

    def has_disconnected_closed_part(self) -> bool:
        """A component with no external legs at all (vacuum sub-part), or a
        component whose legs are all at other components."""
        legs_at = {leg.vertex for leg in self.external}
        return any(comp.isdisjoint(legs_at) for comp in self.connected_components())


def to_graph(pairing: Pairing, prod: OperatorProduct, sign: int = 1) -> PairingGraph:
    """Draw the graph: internal lines from pairs, external legs from unpaired
    factors, electron arrows from the psi_bar vertex to the psi vertex."""
    vertices = sorted({f.vertex for f in prod.factors})
    graph = PairingGraph(vertices=vertices, sign=sign)
    paired = set()
    for (ib, ip) in pairing.fermion_pairs:
        paired |= {ib, ip}
        graph.electron_lines.append((prod.factors[ib].vertex,
                                     prod.factors[ip].vertex,
                                     ELECTRON_LINE_FACTOR))
    for (i, j) in pairing.photon_pairs:
        paired |= {i, j}
        graph.photon_lines.append((prod.factors[i].vertex,
                                   prod.factors[j].vertex,
                                   PHOTON_LINE_FACTOR))
    for i, f in enumerate(prod.factors):
        if i in paired:
            continue
        if f.kind == PSI_BAR:
            graph.external.append(ExternalLeg(f.vertex, "electron_out"))
        elif f.kind == PSI:
            graph.external.append(ExternalLeg(f.vertex, "electron_in"))
        elif f.kind == PHOTON:
            graph.external.append(ExternalLeg(f.vertex, "photon"))
        else:
            graph.external.append(ExternalLeg(f.vertex, "potential"))
    return graph


def classify(graph: PairingGraph) -> set:
    """Process tags by external-leg signature."""
    fermions, photons = graph.external_signature()
    tags = set()
    if fermions == 4 and photons == 0:
        tags.add("moller")
    if fermions == 2 and photons == 2:
        tags.add("compton")
    if fermions == 2 and photons == 0 and graph.photon_lines:
        tags.add("one-electron")
    if fermions == 0 and photons == 0 and not any(
            leg.kind == "potential" for leg in graph.external):
        tags.add("vacuum")
    if not tags:
        tags.add("other")
    return tags


def count_graphs_order2_external_potential() -> int:
    """Graphs for the second-order radiative correction to scattering in an
    external potential: one unpaired psi_bar, one unpaired psi, the external
    potential factor unpaired, both photon operators paired."""
    return len(order2_external_potential_graphs())


def order2_external_potential_graphs():
    prod = OperatorProduct.external_potential_second_order()
    out = []
    for pairing, sign in enumerate_pairings(prod):
        if len(pairing.photon_pairs) != 1:
            continue
        if len(pairing.fermion_pairs) != 2:
            continue
        out.append(to_graph(pairing, prod, sign))
    return out


def full_photon_pairings(n_photons: int):
    """Complete pairings of 2n photon factors at distinct vertices; there
    are (2n-1)!! of them."""
    prod = OperatorProduct.photons(n_photons)
    return [p for p, _ in enumerate_pairings(prod)
            if len(p.photon_pairs) * 2 == n_photons]


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def to_dot(graph: PairingGraph, name: str = "pairing") -> str:
    """DOT text export: directed electron edges, dotted photon edges,
    point-shaped external stubs."""
    lines = [f"digraph {name} {{"]
    for v in graph.vertices:
        lines.append(f'  x{v} [label="x{v}" shape=circle];')
    for n, leg in enumerate(graph.external):
        style = {"photon": "dotted", "potential": "dashed"}.get(leg.kind, "solid")
        lines.append(f'  ext{n} [label="{leg.kind}" shape=point];')
        if leg.kind == "electron_in":
            lines.append(f"  ext{n} -> x{leg.vertex} [style={style}];")
        elif leg.kind == "electron_out":
            lines.append(f"  x{leg.vertex} -> ext{n} [style={style}];")
        else:
            lines.append(f"  x{leg.vertex} -> ext{n} [style={style} dir=none];")
    for a, b, factor in graph.electron_lines:
        lines.append(f'  x{a} -> x{b} [label="{factor}"];')
    for a, b, factor in graph.photon_lines:
        lines.append(f'  x{a} -> x{b} [style=dotted dir=none label="{factor}"];')
    lines.append(f'  meta [label="vertex factor: {VERTEX_FACTOR}" shape=none];')
    lines.append("}")
    return "\n".join(lines)


def unlabeled_topology_count(graphs) -> int:
    """Convenience view: count graphs up to vertex-label permutation."""
    seen = set()
    for g in graphs:
        perms = itertools.permutations(g.vertices)
        best = None
        for perm in perms:
            relabel = dict(zip(g.vertices, perm))
            key = (tuple(sorted((relabel[a], relabel[b]) for a, b, _ in g.electron_lines)),
                   tuple(sorted(tuple(sorted((relabel[a], relabel[b])))
                                for a, b, _ in g.photon_lines)),
                   tuple(sorted((relabel[leg.vertex], leg.kind) for leg in g.external)))
            if best is None or key < best:
                best = key
        seen.add(best)
    return len(seen)
