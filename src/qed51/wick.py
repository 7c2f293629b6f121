"""Enumeration of factor-pairings of operator products into normal
constituents, the graph representation with the seven drawing rules, fermion
sign bookkeeping, and process classification by external lines.

Every pairing is one fermion option (a set of psi_bar-psi pairs) combined
with one photon matching, and its sign depends on the fermion option alone.
``enumerate_pairings`` therefore enumerates the two factors by brute force
and returns a ``PairingSequence``, a sized iterable over their Cartesian
product, fermion-major; a ``Pairing`` is built only when the iteration
reaches it, so counting the pairings costs no more than enumerating the two
factors.

The fermion options come from a depth-first search that gives each chosen
psi_bar a psi in ascending order, skipping used psis and psis at its own
vertex, so a bad prefix is cut once rather than filtered in every completion.
Each pair (a, b) flips the sign once for every still-unpaired fermion factor
written strictly between a and b: the inversion count of the permutation to
the pairs-first order, taken one pair at a time.

Purely combinatorial: no amplitude is evaluated.  Each internal line carries
the momentum-space factor it would contribute as metadata.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import DomainError

PSI_BAR = "psi_bar"
PSI = "psi"
PHOTON = "photon"
EXTERNAL_POTENTIAL = "ext_potential"   # classical factor, never paired

PHOTON_LINE_FACTOR = "1/k^2"
ELECTRON_LINE_FACTOR = "1/(kslash - i mu)"
VERTEX_FACTOR = "(2 pi)^4 delta4(k1 + k2 + k3)"


class Factor(namedtuple("Factor", "kind vertex")):
    __slots__ = ()

    def __new__(cls, kind: str, vertex: int):
        if kind not in (PSI_BAR, PSI, PHOTON, EXTERNAL_POTENTIAL):
            raise DomainError(f"unknown factor kind {kind!r}")
        return super().__new__(cls, kind, vertex)


class OperatorProduct:
    """Ordered sequence of field factors at labeled vertices."""

    def __init__(self, factors):
        self.factors = [f if isinstance(f, Factor) else Factor(*f) for f in factors]

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


class Pairing(namedtuple("Pairing", "fermion_pairs photon_pairs")):
    """Disjoint index pairs; fermion pairs join one psi_bar with one psi,
    photon pairs join two photon factors, never at the same vertex.
    fermion_pairs is ((i_psibar, j_psi), ...), indices into the product;
    photon_pairs is ((i, j), ...) with i < j."""

    __slots__ = ()

    @property
    def pairs(self):
        return self.fermion_pairs + self.photon_pairs


def _photon_matchings(photons, vertices):
    """All partial pairings of photon slots (including empty), no same-vertex
    pairs."""
    out = []
    _match_photons(tuple(photons), vertices, (), out)
    return out


def _match_photons(slots, vertices, prefix, out):
    """Append to ``out`` every partial matching of ``slots`` after ``prefix``:
    first those leaving ``slots[0]`` unpaired, then those pairing it with
    each later slot in turn."""
    if len(slots) < 2:
        out.append(prefix)
        return
    first, rest = slots[0], slots[1:]
    _match_photons(rest, vertices, prefix, out)
    for i, other in enumerate(rest):
        if vertices[first] != vertices[other]:
            _match_photons(rest[:i] + rest[i + 1:], vertices,
                           prefix + ((first, other),), out)


def _pair_bars(candidates, k, prefix, free, sign, options, signs):
    """Append to ``options`` and ``signs`` every completion of ``prefix`` that
    gives the bars of ``candidates[k:]`` one psi each, psis in ascending
    order.  ``free`` is the bitmask of the fermion slots not yet paired, and
    a candidate is ``(pair, mask, between)``: the pair, its two slots' bits,
    and the bits of the slots strictly between them."""
    last = k == len(candidates) - 1
    for pair, mask, between in candidates[k]:
        if ~free & mask:
            continue
        s = -sign if (between & free).bit_count() & 1 else sign
        if last:
            options.append(prefix + (pair,))
            signs.append(s)
        else:
            _pair_bars(candidates, k + 1, prefix + (pair,), free ^ mask, s,
                       options, signs)


class PairingSequence:
    """Sized, re-iterable view of ``(Pairing, sign)``: every fermion option
    combined with every photon matching, fermion-major.  Each ``Pairing``
    is built when the iteration reaches it."""

    __slots__ = ("_fermions", "_signs", "_photons")

    def __init__(self, fermions, signs, photons):
        self._fermions = fermions
        self._signs = signs
        self._photons = photons

    def __len__(self):
        return len(self._fermions) * len(self._photons)

    def __iter__(self):
        for fpairs, sign in zip(self._fermions, self._signs):
            for ppairs in self._photons:
                yield Pairing(fpairs, ppairs), sign


def enumerate_pairings(prod: OperatorProduct) -> PairingSequence:
    """All factor-pairings of the product (empty pairing included), each with
    its fermion-permutation sign, as a lazy ``PairingSequence`` (a sized
    iterable) in fermion-major order: every photon matching of the first
    fermion option, then of the next.  Pairs join one psi_bar with one psi
    (stored as ``(psi_bar_index, psi_index)``) or two photon factors;
    factors at the same vertex are never paired (rule 7); external-potential
    factors are classical and never pair."""
    bars = [i for i, f in enumerate(prod.factors) if f.kind == PSI_BAR]
    psis = [i for i, f in enumerate(prod.factors) if f.kind == PSI]
    photons = [i for i, f in enumerate(prod.factors) if f.kind == PHOTON]
    vertices = {i: f.vertex for i, f in enumerate(prod.factors)}

    # bit n stands for the n-th fermion factor in written order; with
    # lo < hi two such bits, hi - 2 * lo holds every bit strictly between
    bit = {slot: 1 << n for n, slot in enumerate(sorted(bars + psis))}
    candidates = {b: [] for b in bars}
    for b in bars:
        for p in psis:
            if vertices[b] != vertices[p]:
                lo, hi = sorted((bit[b], bit[p]))
                candidates[b].append(((b, p), lo | hi, hi - 2 * lo))
    fermion_options, signs = [()], [1]
    free = (1 << len(bit)) - 1
    for size in range(1, min(len(bars), len(psis)) + 1):
        for bar_subset in itertools.combinations(bars, size):
            _pair_bars([candidates[b] for b in bar_subset], 0, (), free, 1,
                       fermion_options, signs)

    return PairingSequence(fermion_options, signs, _photon_matchings(photons, vertices))


class ExternalLeg:
    """An unpaired factor's vertex and kind: "electron_out" (unpaired
    psi_bar), "electron_in" (unpaired psi), "photon" or "potential"."""

    __slots__ = ("vertex", "kind")

    def __init__(self, vertex: int, kind: str):
        self.vertex = vertex
        self.kind = kind

    def __repr__(self):
        return f"ExternalLeg(vertex={self.vertex!r}, kind={self.kind!r})"


class PairingGraph:
    """Vertices, directed internal electron lines (psi_bar vertex -> psi
    vertex), undirected internal photon lines, and external legs.  Each
    line is a tuple (from_v, to_v, factor) or (v1, v2, factor); the lists
    start empty unless given."""

    __slots__ = ("vertices", "electron_lines", "photon_lines", "external", "sign")

    def __init__(self, vertices: list, electron_lines: list | None = None,
                 photon_lines: list | None = None, external: list | None = None,
                 sign: int = 1):
        self.vertices = vertices
        self.electron_lines = [] if electron_lines is None else electron_lines
        self.photon_lines = [] if photon_lines is None else photon_lines
        self.external = [] if external is None else external
        self.sign = sign

    def __repr__(self):
        return (f"PairingGraph(vertices={self.vertices!r}, "
                f"electron_lines={self.electron_lines!r}, photon_lines={self.photon_lines!r}, "
                f"external={self.external!r}, sign={self.sign!r})")

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
