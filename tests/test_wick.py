import gc
import itertools
import math

import pytest

from qed51 import wick
from qed51.errors import DomainError


def test_single_factor_has_only_empty_pairing():
    prod = wick.OperatorProduct([(wick.PSI, 1)])
    pairings = wick.enumerate_pairings(prod)
    assert len(pairings) == 1
    [(pairing, sign)] = pairings
    assert pairing.pairs == ()
    assert sign == 1


def test_two_vertex_current_has_eight_constituents():
    prod = wick.OperatorProduct.current_product(2)
    assert len(wick.enumerate_pairings(prod)) == 8


def test_rule7_no_same_vertex_pairs():
    prod = wick.OperatorProduct.current_product(3)
    for pairing, _ in wick.enumerate_pairings(prod):
        for i, j in pairing.pairs:
            assert prod.factors[i].vertex != prod.factors[j].vertex
    for pairing, sign in wick.enumerate_pairings(prod):
        g = wick.to_graph(pairing, prod, sign)
        assert not g.has_self_loop()


def test_fermion_pairs_join_bar_with_psi():
    prod = wick.OperatorProduct.current_product(2)
    for pairing, _ in wick.enumerate_pairings(prod):
        for ib, ip in pairing.fermion_pairs:
            assert prod.factors[ib].kind == wick.PSI_BAR
            assert prod.factors[ip].kind == wick.PSI


def test_photon_double_factorial_counts():
    # complete pairings of 2n photon factors at distinct vertices: (2n-1)!!
    for n in (1, 2, 3, 4):
        pairings = wick.enumerate_pairings(wick.OperatorProduct.photons(2 * n))
        full = sum(len(p.photon_pairs) == n for p, _ in pairings)
        assert full == math.prod(range(2 * n - 1, 0, -2))


def test_pairing_count_convolution_identity():
    # total pairings = (photon partial matchings) x (fermion partial matchings)
    prod = wick.OperatorProduct.current_product(3)
    bars = sum(f.kind == wick.PSI_BAR for f in prod.factors)
    photons = [f for f in prod.factors if f.kind == wick.PHOTON]
    photon_count = len(wick._photon_matchings(
        tuple(i for i, f in enumerate(prod.factors) if f.kind == wick.PHOTON),
        {i: f.vertex for i, f in enumerate(prod.factors)}))
    fermion_count = len(wick.enumerate_pairings(
        wick.OperatorProduct([f for f in prod.factors if f.kind != wick.PHOTON])))
    assert len(wick.enumerate_pairings(prod)) == photon_count * fermion_count


def test_brute_force_bitmask_count_small_product():
    # independent enumeration for psibar A psi at two vertices
    prod = wick.OperatorProduct.current_product(2)
    factors = prod.factors
    n = len(factors)
    count = 0
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask & (1 << i)]
        if len(chosen) % 2:
            continue
        # try to partition chosen into valid pairs; count perfect matchings
        def matchings(slots):
            if not slots:
                return 1
            first, rest = slots[0], slots[1:]
            total = 0
            for idx, other in enumerate(rest):
                a, b = factors[first], factors[other]
                if a.vertex == b.vertex:
                    continue
                kinds = {a.kind, b.kind}
                if kinds == {wick.PSI_BAR, wick.PSI} or kinds == {wick.PHOTON}:
                    total += matchings(rest[:idx] + rest[idx + 1:])
            return total
        count += matchings(tuple(chosen))
    assert count == len(wick.enumerate_pairings(prod))


def test_signs_flip_when_separated_fermions_swap():
    # Reversing two adjacent fermion factors in the input flips the sign of
    # exactly those pairings that treat them separately: the source order
    # changes by one transposition, while the pairs-first target order only
    # follows suit when the two factors are paired together or both unpaired.
    prod = wick.OperatorProduct([(wick.PSI_BAR, 1), (wick.PSI, 2),
                                 (wick.PSI_BAR, 2), (wick.PSI, 1)])
    swapped = wick.OperatorProduct([(wick.PSI_BAR, 1), (wick.PSI_BAR, 2),
                                    (wick.PSI, 2), (wick.PSI, 1)])
    a_key, b_key = ("psi", 2), ("psi_bar", 2)  # the two swapped factors

    def keyed(product):
        ident = [(f.kind, f.vertex) for f in product.factors]
        out = {}
        for pairing, sign in wick.enumerate_pairings(product):
            key = frozenset(frozenset((ident[i], ident[j]))
                            for i, j in pairing.fermion_pairs)
            out[key] = sign
        return out

    base, flipped = keyed(prod), keyed(swapped)
    assert set(base) == set(flipped)
    for key, sign in base.items():
        paired_together = frozenset((a_key, b_key)) in key
        in_some_pair = {x for pair in key for x in pair}
        both_unpaired = a_key not in in_some_pair and b_key not in in_some_pair
        if paired_together or both_unpaired:
            assert flipped[key] == sign
        else:
            assert flipped[key] == -sign


def test_graph_external_signatures_for_current_squared():
    prod = wick.OperatorProduct.current_product(2)
    signatures = []
    for pairing, sign in wick.enumerate_pairings(prod):
        g = wick.to_graph(pairing, prod, sign)
        signatures.append(g.external_signature())
    # G1 all-external: 4 fermion externals + 2 photons
    assert (4, 2) in signatures
    # G8 fully paired: no externals
    assert (0, 0) in signatures
    # the Moller constituent: 4 fermion externals, no photon externals
    assert (4, 0) in signatures
    # Compton constituents: 2 fermion + 2 photon externals, twice
    assert signatures.count((2, 2)) == 2


def test_classification_tags():
    prod = wick.OperatorProduct.current_product(2)
    tags = []
    for pairing, sign in wick.enumerate_pairings(prod):
        g = wick.to_graph(pairing, prod, sign)
        tags.append(frozenset(wick.classify(g)))
    assert frozenset({"moller"}) in tags
    assert tags.count(frozenset({"compton"})) == 2
    assert tags.count(frozenset({"one-electron"})) == 2  # G5, G6
    assert frozenset({"vacuum"}) in tags


def test_empty_pairing_all_external():
    prod = wick.OperatorProduct.current_product(2)
    empty = [p for p, _ in wick.enumerate_pairings(prod) if not p.pairs][0]
    g = wick.to_graph(empty, prod)
    assert not g.electron_lines and not g.photon_lines
    assert len(g.external) == 6


def test_vertex_degree_three_with_orientation():
    for prod in (wick.OperatorProduct.current_product(2),
                 wick.OperatorProduct.current_product(3)):
        for pairing, sign in wick.enumerate_pairings(prod):
            g = wick.to_graph(pairing, prod, sign)
            for v in g.vertices:
                assert g.vertex_degree(v) == 3
                # exactly one incoming and one outgoing electron line (internal
                # lines run psi_bar vertex -> psi vertex), one photon line
                outgoing = sum(a == v for a, _, _ in g.electron_lines) + sum(
                    leg.vertex == v and leg.kind == "electron_out"
                    for leg in g.external)
                incoming = sum(b == v for _, b, _ in g.electron_lines) + sum(
                    leg.vertex == v and leg.kind == "electron_in"
                    for leg in g.external)
                photons = sum((a == v) + (b == v) for a, b, _ in g.photon_lines) + sum(
                    leg.vertex == v and leg.kind == "photon" for leg in g.external)
                assert (outgoing, incoming, photons) == (1, 1, 1)


def test_order2_external_potential_count_is_nine():
    assert wick.count_graphs_order2_external_potential() == 9


def test_order2_disconnected_flag():
    graphs = wick.order2_external_potential_graphs()
    disconnected = [g for g in graphs if g.has_disconnected_closed_part()]
    assert len(disconnected) == 1  # the G5-analogue with the closed x1-x2 loop
    g5 = disconnected[0]
    fermions, photons = g5.external_signature()
    assert fermions == 2 and photons == 0
    assert all(leg.vertex == 0 for leg in g5.external)


def test_order2_label_interchange_doubling():
    # interchanging the x1 <-> x2 labels pairs the connected graphs
    graphs = wick.order2_external_potential_graphs()
    connected = [g for g in graphs if not g.has_disconnected_closed_part()]
    assert len(connected) == 8
    assert wick.unlabeled_topology_count(connected) == 4


def test_dot_export_structure():
    prod = wick.OperatorProduct.current_product(2)
    pairing, sign = list(wick.enumerate_pairings(prod))[3]
    g = wick.to_graph(pairing, prod, sign)
    dot = wick.to_dot(g, "G4")
    assert dot.startswith("digraph G4 {")
    assert dot.rstrip().endswith("}")
    assert "x1" in dot and "x2" in dot
    assert wick.VERTEX_FACTOR in dot
    if g.photon_lines:
        assert wick.PHOTON_LINE_FACTOR in dot
    if g.electron_lines:
        assert wick.ELECTRON_LINE_FACTOR in dot


def test_factor_validation():
    with pytest.raises(DomainError):
        wick.Factor("graviton", 1)


def _nested_loop_reference(prod):
    """The pairings built eagerly by a nested fermion x photon loop, each
    sign from the pairs-first permutation of the fermion factors."""
    factors = prod.factors
    bars = [i for i, f in enumerate(factors) if f.kind == wick.PSI_BAR]
    psis = [i for i, f in enumerate(factors) if f.kind == wick.PSI]
    photons = [i for i, f in enumerate(factors) if f.kind == wick.PHOTON]
    vertices = {i: f.vertex for i, f in enumerate(factors)}
    fermion_slots = [i for i, f in enumerate(factors) if f.kind in (wick.PSI_BAR, wick.PSI)]

    fermion_options = [()]
    for size in range(1, min(len(bars), len(psis)) + 1):
        for bar_subset in itertools.combinations(bars, size):
            for psi_perm in itertools.permutations(psis, size):
                pairs = tuple(zip(bar_subset, psi_perm))
                if all(vertices[b] != vertices[p] for b, p in pairs):
                    fermion_options.append(pairs)

    def sign_of(fpairs):
        target, paired = [], set()
        for i, j in sorted(fpairs, key=min):
            target += sorted((i, j))
            paired |= {i, j}
        target += [i for i in fermion_slots if i not in paired]
        perm = [fermion_slots.index(slot) for slot in target]
        inversions = sum(perm[a] > perm[b]
                         for a in range(len(perm)) for b in range(a + 1, len(perm)))
        return -1 if inversions % 2 else 1

    out = []
    for fpairs in fermion_options:
        sign = sign_of(fpairs)
        for ppairs in wick._photon_matchings(photons, vertices):
            out.append((wick.Pairing(fermion_pairs=fpairs, photon_pairs=ppairs), sign))
    return out


REFERENCE_PRODUCTS = {
    **{f"current^{n}": wick.OperatorProduct.current_product(n) for n in (2, 3, 4, 5)},
    "current^6 fermions": wick.OperatorProduct(
        [f for f in wick.OperatorProduct.current_product(6).factors if f.kind != wick.PHOTON]),
    "second-order-potential": wick.OperatorProduct.external_potential_second_order(),
    **{f"photons:{n}": wick.OperatorProduct.photons(n) for n in range(7)},
    "single-psi": wick.OperatorProduct([(wick.PSI, 1)]),
}


@pytest.mark.parametrize("name", REFERENCE_PRODUCTS)
def test_pairings_match_nested_loop_reference(name):
    prod = REFERENCE_PRODUCTS[name]
    pairings = wick.enumerate_pairings(prod)
    reference = _nested_loop_reference(prod)
    assert len(pairings) == len(reference)
    assert list(pairings) == reference


def test_enumeration_leaves_no_garbage_cycle():
    # a self-referencing closure or generator would keep every call's option
    # tuples alive until a full collection
    prod = wick.OperatorProduct.current_product(6)
    gc.collect()
    gc.disable()
    try:
        pairings = wick.enumerate_pairings(prod)
        del pairings
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pairings_iterate_again_in_the_same_order():
    # the benchmark's wick_graphs op walks one enumeration twice
    pairings = wick.enumerate_pairings(wick.OperatorProduct.current_product(4))
    first = list(pairings)
    assert len(first) == len(pairings) == 1080
    assert list(pairings) == first


def test_counting_current6_builds_no_pairing(monkeypatch):
    built, original = [], wick.Pairing

    def counting_pairing(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(wick, "Pairing", counting_pairing)
    pairings = wick.enumerate_pairings(wick.OperatorProduct.current_product(6))
    assert len(pairings) == 501600
    assert built == []
    next(iter(pairings))
    assert built == [1]


def test_current7_count_is_telephone_times_fermion_count():
    # T(7) = 232 partial photon matchings (OEIS A000085); F(7) partial
    # psi_bar-psi matchings with no same-vertex pair, by inclusion-exclusion
    n = 7
    telephone = [1, 1]
    for m in range(2, n + 1):
        telephone.append(telephone[-1] + (m - 1) * telephone[-2])
    fermion = sum((-1) ** j * math.comb(n, j) * math.comb(n - j, k - j) ** 2
                  * math.factorial(k - j)
                  for k in range(n + 1) for j in range(k + 1))
    assert (telephone[n], fermion) == (232, 63840)
    assert len(wick.enumerate_pairings(wick.OperatorProduct.current_product(n))) \
        == 232 * 63840 == 14810880
