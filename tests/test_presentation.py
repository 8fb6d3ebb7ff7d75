import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import random_element, random_vector
from extremal_lie import linalg
from extremal_lie.fields import DEFAULT_PRIME, PrimeField, QQ
from extremal_lie.graphs import (FAMILY_MIN_N, build_family_graph, catalog,
                                 expected_catalog_size, graph_from_edges)
from extremal_lie.linalg import SpanSolver
from extremal_lie.presentation import (GradedLieAlgebra, TruncatedAtCap,
                                       build_L0, evaluate_monomial)


def test_single_edge_is_heisenberg():
    L = build_L0(graph_from_edges(2, [(1, 2)]), QQ)
    assert L.dim == 3
    x1, x2 = L.generators()
    z = L.bracket(x1, x2)
    assert not L.is_zero(z)
    assert L.is_zero(L.bracket(x1, z)) and L.is_zero(L.bracket(x2, z))


def test_path_c4_dimension():
    L = build_L0(build_family_graph("C", 4), QQ)
    assert L.dim == 10


def test_graded_profile_d5():
    L = build_L0(build_family_graph("D", 5), QQ)
    assert L.dim == 45
    assert [d for d in L.degrees if d] == [5, 6, 8, 8, 8, 6, 4]


def test_dimensions_over_prime_field_agree():
    F = PrimeField(DEFAULT_PRIME)
    for family, n, want in (("A", 4, 15), ("B", 5, 36), ("C", 6, 21)):
        assert build_L0(build_family_graph(family, n), F).dim == want


def test_truncation_cap():
    with pytest.raises(TruncatedAtCap):
        build_L0(build_family_graph("D", 5), QQ, cap=4)


def test_extremality_relations_hold():
    L = build_L0(build_family_graph("A", 4), QQ)
    rng = random.Random(0)
    for x in L.generators():
        v = [QQ(rng.randint(-3, 3)) for _ in range(L.dim)]
        w = L.bracket(x, L.bracket(x, v))
        # [x,[x,v]] must be a multiple of x (here: zero, as the form
        # vanishes identically on the graded quotient)
        assert L.is_zero(w)


def test_jacobi_on_random_elements():
    L = build_L0(build_family_graph("B", 5), QQ)
    rng = random.Random(1)
    for _ in range(5):
        u, v, w = ([QQ(rng.randint(-2, 2)) for _ in range(L.dim)]
                   for _ in range(3))
        s = L.lincomb([(1, L.bracket(u, L.bracket(v, w))),
                       (1, L.bracket(v, L.bracket(w, u))),
                       (1, L.bracket(w, L.bracket(u, v)))])
        assert L.is_zero(s)


def test_evaluate_monomial_right_nested():
    L = build_L0(build_family_graph("A", 4), QQ)
    gens = L.generators()
    # indices (3, 2, 1) mean [x3, [x2, x1]]
    direct = L.bracket(gens[2], L.bracket(gens[1], gens[0]))
    assert evaluate_monomial(L.bracket, gens, (3, 2, 1)) == direct
    assert evaluate_monomial(L.bracket, gens, (2,)) == gens[1]


def test_structure_constants_text_round_trip():
    L = build_L0(graph_from_edges(2, [(1, 2)]), QQ)
    text = L.structure_constants_text()
    assert text.splitlines() == ["0 1 2 1"]


def test_structure_constants_antisymmetry_consistency():
    L = build_L0(build_family_graph("C", 4), QQ)
    table = L.structure_constants()
    for (i, j), entries in table.items():
        bij = L.pair_bracket(i, j)
        bji = L.pair_bracket(j, i)
        assert bij == entries
        assert all(bji[k] == -v for k, v in entries.items())


def test_lincomb_matches_add_scale_fold(kernel_field):
    F = kernel_field
    L = build_L0(build_family_graph("A", 4), F)
    rng = random.Random(23)
    for _ in range(10):
        vecs = [random_vector(F, rng, L.dim)
                for _ in range(rng.randint(1, 4))]
        # a zero coefficient, and a term that cancels the first one
        terms = [(random_element(F, rng), v) for v in vecs]
        terms += [(F.zero, vecs[0]), (-terms[0][0], vecs[0])]
        want = [F.zero] * L.dim
        for c, v in terms:
            want = [x + c * y for x, y in zip(want, v)]
        assert L.external(L.lincomb(terms)) == want
    assert L.lincomb([]) == {}
    v = random_vector(F, rng, L.dim, zero_rate=0)
    assert L.lincomb([(F(3), v), (F(-3), v)]) == {}


@pytest.mark.parametrize("family", "ABCD")
@pytest.mark.parametrize("n", [5, 6])
def test_prime_field_presentation_is_the_rational_one_mod_p(family, n):
    """Graded nilpotent-quotient cross-check: over GF(p) the graded
    profile, the basis monomials and every structure constant are those
    over Q reduced mod p."""
    graph = build_family_graph(family, n)
    L = build_L0(graph, QQ)
    text = L.structure_constants_text()
    lines = [line.split() for line in text.splitlines()]
    for p in (DEFAULT_PRIME, 10007):
        F = PrimeField(p)
        M = build_L0(graph, F)
        assert (M.degrees, M.labels) == (L.degrees, L.labels)
        want = [f"{i} {j} {k} {F(Fraction(c))}" for i, j, k, c in lines
                if F(Fraction(c))]
        assert M.structure_constants_text().splitlines() == want


@pytest.mark.parametrize("family", "DBAC")
def test_presentation_at_n_12_has_the_catalog_dimension(family):
    """At every rank from max(4, the family's least) up to 12, over
    GF(p), dim L(Gamma, 0) is the catalog size, and the catalog
    monomials, evaluated in L, are independent: they are a basis of
    L(Gamma, 0)."""
    F = PrimeField(DEFAULT_PRIME)
    for n in range(max(4, FAMILY_MIN_N[family]), 13):
        L = build_L0(build_family_graph(family, n), F)
        assert L.dim == expected_catalog_size(family, n), n
        gens = L.generators()
        span = SpanSolver(F, L.vector_dim)
        for entry in catalog(family, n):
            image = evaluate_monomial(L.bracket, gens, entry.indices)
            assert span.add(L.vector(image)), (n, entry.indices)


@pytest.mark.parametrize("family,n", [("D", 9), ("B", 9), ("A", 10)])
def test_build_l0_memoises_no_pair_of_a_dead_multidegree(family, n):
    """A bracket memoised while a degree was built, whose multidegree
    no basis element has, is zero and is dropped from the memo."""
    L = build_L0(build_family_graph(family, n), QQ)
    md, live = L.md, L.md_set
    assert L._pair_cache
    assert all(md[a] + md[b] in live for a, b in L._pair_cache)


@pytest.mark.parametrize("family,n", [("D", 6), ("B", 6), ("A", 7)])
def test_structure_constants_skip_pairs_vanishing_by_degree(family, n):
    """The export visits exactly the pairs whose multidegree sum is the
    multidegree of a basis element, memoises no other pair (so none
    whose degrees sum past the top degree), and gives the all-pairs
    table."""
    L = build_L0(build_family_graph(family, n), QQ)
    md, live = L.md, L.md_set
    before = set(L._pair_cache)
    table = L.structure_constants()
    top = L.top_degree
    added = set(L._pair_cache) - before
    assert added
    assert all(md[a] + md[b] in live for a, b in added)
    assert all(len(L.labels[a]) + len(L.labels[b]) <= top
               for a, b in added)
    admissible = [(i, j) for i in range(L.dim) for j in range(i + 1, L.dim)
                  if md[i] + md[j] in live]
    assert list(L._live_pairs()) == admissible
    every_pair = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            entries = L.pair_bracket(i, j)
            if entries:
                every_pair[(i, j)] = entries
    assert table == every_pair


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(2, 6))
    pairs = list(combinations(range(1, n + 1), 2))
    return graph_from_edges(n, sorted(draw(st.sets(st.sampled_from(pairs)))))


def _length_only_export(graph, cap):
    """structure_constants_text() of build_L0(graph, QQ, cap), or None if
    it is truncated at the cap, under the trivial grading, every
    multidegree 0, with the cutoff by total degree alone: a bracket
    vanishes only when its degree exceeds the top degree, and every
    relation row, pair and bracket term is formed."""
    init = GradedLieAlgebra.__init__

    def trivial_grading(self, graph, field, cap):
        init(self, graph, field, cap)
        self._unit = [0] * graph.n
        self.md[:] = [0] * len(self.md)
        self.md_set = {0}

    def by_length(self, a, b):
        return len(self.labels[a]) + len(self.labels[b]) > self.top_degree

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GradedLieAlgebra, "__init__", trivial_grading)
        mp.setattr(GradedLieAlgebra, "_vanishes", by_length)
        try:
            return build_L0(graph, QQ, cap).structure_constants_text()
        except TruncatedAtCap:
            return None


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          phases=(Phase.generate, Phase.shrink))   # a failure reports fast
@given(graph=_small_graphs())
def test_multidegree_rule_matches_the_length_cutoff(graph):
    """The presentation skipping every bracket and relation row that
    its multidegree makes zero exports the structure constants of the
    one built with the total-degree cutoff alone, and every nonzero
    c_ij^k has md(k) = md(i) + md(j)."""
    cap = 6
    want = _length_only_export(graph, cap)
    try:
        L = build_L0(graph, QQ, cap)
    except TruncatedAtCap:
        assert want is None
        return
    assert L.structure_constants_text() == want
    md = L.md
    for (i, j), entries in L.structure_constants().items():
        assert all(md[k] == md[i] + md[j] for k in entries)


#: sha256 of structure_constants_text() of presentations the benchmark
#: does not build: another family over QQ, a small and the default prime
#: field, a cycle, a star and a complete graph
PRESENT_DIGESTS = [
    ("C8-QQ", build_family_graph("C", 8), QQ,
     "84c5c158e4b08513eb87390113c9a217f0e4b581b2082f9a0ce335fca8f65ef3"),
    ("D6-GF(101)", build_family_graph("D", 6), PrimeField(101),
     "830dcf0a074bf2c5c84d4c93899f2a0f22abf70f271dbfdda1dce8a351d2945a"),
    ("A7-GF(p)", build_family_graph("A", 7), PrimeField(DEFAULT_PRIME),
     "9e82250241c215410841aaf19cce55a804d3e5338fe2f4c310de0bb26c79f8b5"),
    ("5-cycle-QQ",
     graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), QQ,
     "c81fdd89f72ff0ce510a86c60c9dd455d52bd18751c3d1656b37a96c4bfa6d08"),
    ("star-QQ", graph_from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5)]), QQ,
     "8bd4580f153b4644ae3e9519197beb4f5eb0bfbfc84227f612ebb45ab26eb601"),
    ("K4-QQ", graph_from_edges(4, list(combinations(range(1, 5), 2))), QQ,
     "e7576279c006855c88c554d9a7b1b640fe67bd02936db4abe0a38c9629aad1d1"),
]


@pytest.mark.parametrize("graph,field,digest",
                         [case[1:] for case in PRESENT_DIGESTS],
                         ids=[case[0] for case in PRESENT_DIGESTS])
def test_structure_constants_digests(graph, field, digest):
    text = build_L0(graph, field).structure_constants_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("field,digest", [
    (PrimeField(DEFAULT_PRIME),
     "a0ec7e5c56490f9fd5820012256f0cfcc1534ad61a5d5c634b5653b37fe05386"),
    (QQ, "6eb6c7c8c764e8fea160838c3b860ff71d695ba576d71006c4ed12f6c5ed191c"),
], ids=["GF(p)", "QQ"])
def test_complete_graph_k5(field, digest):
    """K5 outgrows the default cap 9; with cap 40 it stops at degree 15.
    Its 2 883 relation rows of two or more entries are eliminated, where
    the family graphs' relations are mostly one entry long."""
    L = build_L0(graph_from_edges(5, list(combinations(range(1, 6), 2))),
                 field, cap=40)
    assert (L.dim, L.top_degree) == (548, 15)
    text = L.structure_constants_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_echelon_divides_only_for_the_rows_it_eliminates(monkeypatch):
    """On D9 over GF(p), 1 014 of the 1 162 pivots of the relations are
    the columns of one-entry rows, which `echelon` takes as they are:
    it divides once per other pivot, 148 times."""
    F = PrimeField(DEFAULT_PRIME)
    div, echelon = F.div, linalg.echelon
    counts = {"div": 0, "pivots": 0, "units": 0}

    def counting_div(a, b):
        counts["div"] += 1
        return div(a, b)

    def counting_echelon(field, rows):
        F.div = counting_div
        try:
            reduced, pivots = echelon(field, rows)
        finally:
            del F.div
        counts["pivots"] += len(pivots)
        counts["units"] += len({c for v in rows if len(v) == 1 for c in v})
        return reduced, pivots

    monkeypatch.setattr(linalg, "echelon", counting_echelon)
    build_L0(build_family_graph("D", 9), F)
    assert counts == {"div": 148, "pivots": 1162, "units": 1014}


@pytest.mark.parametrize("family,n", [("D", 9), ("B", 9), ("D", 12)])
def test_integral_rational_payloads_are_ints(family, n):
    """A relation row with lead +-2 is scaled by a Fraction; the
    integral entries it leaves reach the algebra as ints."""
    L = build_L0(build_family_graph(family, n), QQ)
    L.structure_constants_text()
    assert all(type(x) is int for cols in L.leftmult for col in cols
               for x in col.values())
    assert all(type(x) is int for v in L._pair_cache.values()
               for x in v.values())


@pytest.mark.parametrize("family", "AD")
def test_pair_memo_holds_negatives_in_either_order(family):
    """Two fresh tables, one asked every live pair as (j, i) first and
    one as (i, j) first: a pair asked first is computed, through the
    label of its first element, and its mirror is the negation of the
    memoised pair.  Both tables hold exact negatives for every pair and
    export the same structure constants."""
    graph = build_family_graph(family, 6)
    tables = []
    for swap in (True, False):
        L = build_L0(graph, QQ)
        for i, j in L._live_pairs():
            first, second = ((j, i), (i, j)) if swap else ((i, j), (j, i))
            L.pair(*first)
            L.pair(*second)
        tables.append(L)
    for L in tables:
        for i, j in L._live_pairs():
            assert L._pair_cache[j, i] == {k: -x for k, x in
                                           L._pair_cache[i, j].items()}
    late, early = tables
    assert all(late.pair(i, j) == early.pair(i, j)
               for i, j in early._live_pairs())
    assert late.structure_constants_text() == early.structure_constants_text()
