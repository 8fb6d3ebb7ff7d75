import dataclasses
import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import KERNEL_FIELDS, lift_closure, random_element
from extremal_lie import certify, linalg
from extremal_lie.certify import (ConditionViolated, FormMismatch,
                                  NoRootInField, PsiVector,
                                  StructureMismatch,
                                  certify_family, check_genericity,
                                  graph_realization_check,
                                  long_monomial_indices, match_algebras,
                                  normalize_generators, psi, solve_param_B,
                                  solve_params_D)
from extremal_lie.extremal import (NotExtremal, check_premet, exp_ad,
                                   extremal_form_value)
from extremal_lie.fields import (DEFAULT_PRIME, FieldElement, NoSquareRoot,
                                 PrimeField, QQ, lift_element, tower_maps)
from extremal_lie.graphs import (build_family_graph, catalog,
                                 expected_catalog_size)
from extremal_lie.presentation import MonomialTable
from extremal_lie.realizations import (MatrixLieAlgebra, build_generators,
                                       lie_closure)

F = PrimeField(DEFAULT_PRIME)
GF2 = KERNEL_FIELDS["GF(p)(rt d)"]


def closure_of(family, n, params=()):
    mats, _ = build_generators(family, n, F,
                               tuple(F(p) for p in params))
    return lie_closure(mats, F), mats


@pytest.fixture(scope="module")
def b5():
    return closure_of("B", 5, (1,))


@pytest.fixture(scope="module")
def d5():
    return closure_of("D", 5, (2, 3))


def test_psi_vector_length_validation():
    with pytest.raises(ValueError):
        PsiVector("D", 5, (F(1),) * 8)  # needs n + 4 = 9
    PsiVector("B", 5, (F(1),) * 7)
    PsiVector("A", 5, (F(1),) * 6)
    PsiVector("C", 6, (F(1),) * 5)


def test_psi_vector_compares_only_with_psi_vectors():
    vec = PsiVector("C", 6, (F(1),) * 5)
    assert vec == PsiVector("C", 6, (F(1),) * 5)
    assert vec != PsiVector("C", 6, (F(1),) * 4 + (F(2),))
    for other in (None, 1, (F(1),) * 5, "C"):
        assert vec != other and other != vec
        assert not vec == other


def test_long_monomial_indices():
    assert long_monomial_indices(5) == (3, 5, 4, 3, 2)
    assert long_monomial_indices(6) == (3, 4, 6, 5, 4, 3, 2)


def test_psi_deterministic(d5):
    alg, mats = d5
    v1 = psi("D", alg, mats)
    v2 = psi("D", alg, mats)
    assert v1 == v2 and len(v1.values) == 9


def test_psi_family_c():
    alg, mats = closure_of("C", 6)
    vec = psi("C", alg, mats)
    assert len(vec.values) == 5
    for i, v in enumerate(vec.values):
        assert v == extremal_form_value(alg, mats[i], mats[i + 1])


def test_graph_realization_check_reports_witnesses(b5):
    alg, mats = b5
    flags = [True] * len(mats)
    ok, witnesses = graph_realization_check(
        alg, mats, build_family_graph("B", 5), flags)
    assert ok and witnesses == []
    bad_ok, bad_witnesses = graph_realization_check(
        alg, mats, build_family_graph("D", 5), flags)
    assert not bad_ok and bad_witnesses
    flags[3] = False
    assert graph_realization_check(
        alg, mats, build_family_graph("B", 5), flags) == (
            False, ["generator 4 not extremal"])


def test_certify_family_runs_is_extremal_once_per_generator(monkeypatch):
    calls = []
    is_extremal = certify.is_extremal
    monkeypatch.setattr(certify, "is_extremal",
                        lambda ctx, x: calls.append(x) or is_extremal(ctx, x))
    report = certify_family("A", 4, (), field=F, seed=0,
                            identity_samples=2, spanning_samples=2)
    assert report.extremal == [True] * 4 and report.graph_match
    assert len(calls) == 4


def test_check_genericity_flags(d5):
    alg, mats = d5
    flags = check_genericity("D", alg, mats, params=(F(2), F(3)))
    assert flags["triangle123"] and flags["triangle_end"]
    assert flags["chain_nonzero"]
    assert flags["param_open"] and flags["lambda_open"]


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("params", [(-2, 3), (2, -1)],
                         ids=["alpha=-2", "beta=-1"])
def test_check_genericity_reports_closed_d_parameters(n, params):
    """At alpha = -2 or beta = -1 the D parameters leave their open set,
    where lambda is undefined: both flags are False, with no exception
    from the lambda formula."""
    alg, mats = closure_of("D", n, (2, 3))
    flags = check_genericity("D", alg, mats,
                             params=tuple(F(p) for p in params))
    assert flags["param_open"] is False and flags["lambda_open"] is False
    assert list(flags)[-2:] == ["param_open", "lambda_open"]


def test_check_genericity_takes_no_root_of_one_plus_beta_at_odd_rank(d5):
    """At odd n lambda = alpha/(alpha+2) takes no root of 1 + beta, so
    beta = 5, with 6 no square mod p, gets its flags; at even n lambda
    takes the root, and its absence raises NoSquareRoot."""
    alg, mats = d5
    assert not F(6).has_sqrt()
    flags = check_genericity("D", alg, mats, params=(F(2), F(5)))
    assert flags["param_open"] is True and flags["lambda_open"] is True
    alg6, mats6 = closure_of("D", 6, (2, 3))
    with pytest.raises(NoSquareRoot):
        check_genericity("D", alg6, mats6, params=(F(2), F(5)))


def test_normalize_generators_reaches_canonical_gauge(b5):
    alg, mats = b5
    ctx, g = normalize_generators("B", alg, mats)
    K = ctx.field
    f = lambda i, j: extremal_form_value(ctx, g[i - 1], g[j - 1])
    assert f(1, 2) == K(-8)
    assert f(1, 3) == K(1)
    assert f(2, 3) == K(2)
    assert f(3, 4) == K(2)
    assert f(3, 5) == K(2)
    assert extremal_form_value(
        ctx, g[0], ctx.bracket(g[1], g[2])).is_zero()


def test_solve_param_b_round_trip(b5):
    alg, mats = b5
    ctx, g = normalize_generators("B", alg, mats)
    f_long = psi("B", ctx, g).values[-1]
    assert solve_param_B(f_long, 5) == ctx.field(1)


def test_solve_param_b_excluded_values():
    with pytest.raises(ConditionViolated):
        solve_param_B(F(0), 5)
    with pytest.raises(ConditionViolated):
        solve_param_B(F(8), 5)
    with pytest.raises(ConditionViolated):
        solve_param_B(F(-8), 6)
    with pytest.raises(ConditionViolated):
        solve_param_B(F(-4), 6)  # pole of the even-rank relation


def test_solve_params_d_odd_round_trip(d5):
    alg, mats = d5
    ctx, g = normalize_generators("D", alg, mats)
    vec = psi("D", ctx, g)
    cands = solve_params_D(vec.values[-1], vec.values[1], 5)
    for alpha, beta in cands:
        # forward relations of the canonical gauge
        assert vec.values[-1] == 4 * alpha * (1 + beta) + 8
        s = vec.values[1] * vec.values[1]
        assert s == -(2 * alpha + 4) ** 2 * (1 + beta)


def test_solve_params_d_special_branch():
    f_short = F(4)
    got = solve_params_D(F(8), f_short, 5)
    assert got == [(F(0), -1 - f_short * f_short / 16)]


def test_certify_family_report_schema():
    report = certify_family("A", 5, (), field=F, seed=0,
                            identity_samples=5, spanning_samples=10)
    d = report.to_dict()
    assert list(d) == ["family", "n", "field", "params", "extremal",
                      "graph_match", "dim", "dim_expected", "catalog_rank",
                      "spanning_samples", "psi", "genericity",
                      "identities", "verdict"]
    assert d["verdict"] == "pass"
    assert json.loads(report.to_json()) == d


@pytest.mark.parametrize("family,params", [("D", (2, 3)), ("B", (1,))])
def test_certify_family_at_n8(family, params):
    """The first rung of the scale ladder past the benchmark's n = 5, 6:
    N = 16 for D8 and 15 for B8, the widest packed bracket slots."""
    report = certify_family(family, 8, params, field=F, seed=0)
    want = expected_catalog_size(family, 8)
    assert report.verdict == "pass"
    assert report.dim == report.catalog_rank == want


def test_certify_family_deterministic():
    r1 = certify_family("C", 6, (), field=F, seed=3,
                        identity_samples=5, spanning_samples=10)
    r2 = certify_family("C", 6, (), field=F, seed=3,
                        identity_samples=5, spanning_samples=10)
    assert r1.to_json() == r2.to_json()


def test_match_identity_certificate(b5):
    alg, mats = b5
    cert = match_algebras(alg, mats, alg, mats, "B")
    assert cert.verdict == "pass"
    assert cert.params1 == cert.params2
    assert cert.pairs_checked == alg.dim * (alg.dim - 1) // 2


def test_match_rejects_dimension_mismatch(b5):
    alg, mats = b5
    other, others = closure_of("D", 5, (2, 3))
    with pytest.raises(FormMismatch):
        match_algebras(alg, mats, other, others, "B")


def test_match_rejects_realizations_over_different_fields(b5):
    alg, mats = b5
    G = PrimeField(101)
    others, _ = build_generators("B", 5, G, (G(1),))
    with pytest.raises(FormMismatch,
                       match="^realizations over different fields$"):
        match_algebras(alg, mats, lie_closure(others, G), others, "B")


def _exp_conjugated(family, n):
    """Criterion 9's A5 and C6 pairs, the first also the A5 job of the
    benchmark at seed 0: the standard generators and their conjugate by
    exp(3 ad x_1) then exp(-2 ad x_3)."""
    alg, mats = closure_of(family, n)
    mats = alg.generators_list
    conj = [exp_ad(alg, F(3), mats[0], g) for g in mats]
    conj = [exp_ad(alg, F(-2), mats[2], g) for g in conj]
    return alg, mats, lie_closure(conj, F), conj


def _param_pair(family, n, field, params1, params2):
    out = []
    for params in (params1, params2):
        mats, _ = build_generators(family, n, field,
                                   tuple(field(p) for p in params))
        out += [lie_closure(mats, field), mats]
    return out


#: sha256 of the sorted-key JSON of each full MatchCertificate,
#: basis_map included
MATCH_DIGESTS = {
    "D5": "dd6225711bdd833466d42009ddbf01b9aa426ee506a0bd325719541943e0ad8a",
    "B6": "6b615fcd617d76d5d51a1966f5d37bcd565f533efdca7e3e2ca06f1e1e37db32",
    "C6-conj":
        "ada04f05e74c064d6c0ccd86c85bf5133d89194570763d2b564b72f5b7a942d4",
    "D5-QQ":
        "f4e251ac822f6978feb9d55ad5b332acbb57a518486d7ad1884efba1e858c7b0",
}


@pytest.mark.parametrize("name", list(MATCH_DIGESTS))
def test_match_certificate_digests(name):
    """D5 (2,3) vs (4,8) over GF(p) and over QQ, B6 gamma 1 vs 2 over
    GF(101) and criterion 9's conjugated C6 give bit-identical
    certificates.  The QQ match ends over a tower of two quadratic
    extensions, QQ(rt 1/8)(rt -64)."""
    if name in ("D5", "D5-QQ"):
        sides = _param_pair("D", 5, F if name == "D5" else QQ, (2, 3),
                            (4, 8))
        family = "D"
    elif name == "B6":
        sides = _param_pair("B", 6, PrimeField(101), (1,), (2,))
        family = "B"
    else:
        sides, family = _exp_conjugated("C", 6), "C"
    cert = match_algebras(*sides, family)
    text = json.dumps(dataclasses.asdict(cert), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MATCH_DIGESTS[name]


@pytest.mark.parametrize("name,family,n,field,params", [
    ("D5", "D", 5, F, ((2, 3), (4, 8))),
    ("B6", "B", 6, PrimeField(101), ((1,), (2,))),
], ids=["D5", "B6"])
def test_generators_only_contexts_give_the_closure_certificate(
        name, family, n, field, params):
    """A match reads no basis: generators-only contexts give the
    certificate of the closures, pinned above, dim included."""
    sides = []
    for p in params:
        mats, _ = build_generators(family, n, field,
                                   tuple(field(x) for x in p))
        sides += [MatrixLieAlgebra(field, len(mats[0]), [], mats), mats]
    cert = match_algebras(*sides, family)
    assert cert.dim == expected_catalog_size(family, n)
    text = json.dumps(dataclasses.asdict(cert), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MATCH_DIGESTS[name]


def labels_of(family, n):
    return [e.indices for e in catalog(family, n)]


def table_of(family, n, alg, mats, name="self"):
    """(images, span, table) of the catalog basis the generators build."""
    return certify._catalog_table(alg, mats, labels_of(family, n), name)


def _dense_fold(alg, terms):
    """sum c*m over the terms (c, m) with FieldElement matrix
    arithmetic."""
    n = alg.ambient_dim
    out = [[alg.field.zero] * n for _ in range(n)]
    for c, m in terms:
        out = [[x + c * y for x, y in zip(r, s)]
               for r, s in zip(out, alg.external(m))]
    return out


def _first_bad_pair(alg, basis, span, target, pairs):
    """The first of `pairs` (i, j) where a_i -> target_i fails to
    intertwine the brackets, found with FieldElement matrix
    arithmetic."""
    for i, j in pairs:
        c = span.coords(alg.vector(alg.bracket(basis[i], basis[j])))
        rhs = _dense_fold(alg, zip(c, target))
        if alg.external(alg.bracket(target[i], target[j])) != rhs:
            return i, j
    return None


def test_catalog_tables_agree_on_every_pair():
    alg, mats = closure_of("A", 4)
    _, _, table = table_of("A", 4, alg, mats)
    _, _, again = table_of("A", 4, alg, list(mats))
    identity = [{i: F.one.v} for i in range(table.dim)]
    assert certify._check_composed_map(table, again, identity) == 105


@pytest.mark.parametrize("change", ["swap", "double"])
def test_catalog_table_rejects_changed_generators(b5, change):
    """Generators 4 and 5 swapped, or generator 2 doubled, on the model
    side: the induced catalog images stay a basis of the closure, and
    the model check fails at the first generator product (k, b), in
    order, where the brackets stop matching."""
    alg, mats = b5
    basis, span, table = table_of("B", 5, alg, mats)
    target = list(mats)
    if change == "swap":
        target[3], target[4] = target[4], target[3]
    else:
        target[1] = alg.lincomb([(F(2), target[1])])
    images = certify._catalog_images(alg, target, table.labels)
    products = [(table.label_index[(k,)], b) for k in range(1, 6)
                for b in range(table.dim)]
    pair = _first_bad_pair(alg, basis, span, images, products)
    assert pair is not None
    k, b = table.labels[pair[0]][0], pair[1]
    with pytest.raises(StructureMismatch) as info:
        certify._check_model(certify.ScaledContext(alg), target, table,
                             change)
    assert str(info.value) == (
        f"{change}: bracket tables differ at generator product ({k},{b})")


def test_model_check_refuses_every_perturbed_column(b5):
    """B5's own generators pass the model check against their table,
    and every single-column perturbation of it, 3 added at entry
    (b+5) % dim of the left multiplication [x_k, b], unit columns
    included, is refused at that generator product."""
    alg, mats = b5
    ctx = certify.ScaledContext(alg)
    _, _, table = table_of("B", 5, alg, mats)
    assert certify._check_model(ctx, mats, table, "B5").rank == table.dim
    dim = table.dim
    for k, lm in enumerate(table.leftmult, start=1):
        for b, col in enumerate(lm):
            lm[b] = dict(col)
            F.axpy(lm[b], F(-3).v, {(b + 5) % dim: F.one.v})
            with pytest.raises(StructureMismatch) as info:
                certify._check_model(ctx, mats, table, "B5")
            assert str(info.value) == (
                f"B5: bracket tables differ at generator product ({k},{b})")
            lm[b] = col


def test_model_check_refuses_a_coefficient_outside_the_model_field(b5):
    """B5's table embedded in GF(p^2) passes the model check of B5's
    own generators with scalars 1 in GF(p^2).  Adding 3 times the
    adjoined root to one coefficient of the first product that needs a
    bracket leaves the base parts, and so the base residual, unchanged,
    but the rescaled coefficient is no longer in GF(p): the check
    refuses that product."""
    alg, mats = b5
    ctx = certify.ScaledContext(alg, GF2)
    _, _, table = table_of("B", 5, alg, mats)
    lifted = certify._rescaled_table(table, [GF2.one.v] * 5, GF2)
    assert certify._check_model(ctx, mats, lifted, "B5").rank == table.dim
    k, b = next((k, b) for k in range(1, 6) for b in range(table.dim)
                if (k,) + table.labels[b] not in table.label_index
                and lifted.leftmult[k - 1][b])
    col = dict(lifted.leftmult[k - 1][b])
    j = min(col)
    col[j] = GF2.add(col[j], (GF2.root * 3).v)
    lifted.leftmult[k - 1][b] = col
    with pytest.raises(StructureMismatch) as info:
        certify._check_model(ctx, mats, lifted, "B5")
    assert str(info.value) == (
        f"B5: bracket tables differ at generator product ({k},{b})")


def test_catalog_table_rejects_a_bracket_outside_the_span(b5):
    alg, mats = b5
    with pytest.raises(StructureMismatch,
                       match="^first: bracket leaves the span$"):
        certify._catalog_table(alg, mats, [(i,) for i in range(1, 6)],
                               "first")


def test_composed_map_rejects_a_perturbed_glue_row(b5):
    """A perturbed glue row makes the composed map fail at the first
    generator product (k, j), in order, where direct matrix brackets
    stop matching."""
    alg, mats = b5
    basis, span, table = table_of("B", 5, alg, mats)
    glue = [{i: F.one.v} for i in range(table.dim)]
    glue[7] = {7: F.one.v, 2: F(3).v}
    phi = [alg.lincomb([(FieldElement(F, c), basis[a])
                        for a, c in row.items()]) for row in glue]
    products = [(table.label_index[(k,)], j) for k in range(1, 6)
                for j in range(table.dim)]
    pair = _first_bad_pair(alg, basis, span, phi, products)
    assert pair is not None
    k, j = table.labels[pair[0]][0], pair[1]
    with pytest.raises(StructureMismatch) as info:
        certify._check_composed_map(table, table, glue)
    assert str(info.value) == (
        f"composed map: bracket tables differ at generator product ({k},{j})")


def realization(family, n, field, params=()):
    """Closure and generators over GF(p), lifted to `field` if it is a
    quadratic extension of it."""
    mats, _ = build_generators(family, n, F, tuple(F(p) for p in params))
    alg = lie_closure(mats, F)
    if field is F:
        return alg, mats
    lifted = lift_closure(alg, field)
    return lifted, lifted.generators_list


def assert_table_matches_brackets(family, n, alg, mats, pairs=None):
    images, span, table = table_of(family, n, alg, mats)
    if pairs is None:
        pairs = [(i, j) for i in range(table.dim)
                 for j in range(i + 1, table.dim)]
    for i, j in pairs:
        direct = span.coords(alg.vector(alg.bracket(images[i], images[j])))
        assert direct is not None
        assert {k: c for k, c in enumerate(direct) if not c.is_zero()} == \
            table.pair_bracket(i, j), (i, j)


CASES_N5 = [("A", 5, ()), ("B", 5, (1,)), ("C", 6, ()), ("D", 5, (2, 3))]


@pytest.mark.parametrize("lift", [False, True], ids=["GF(p)", "GF(p^2)"])
@pytest.mark.parametrize("family,n,params", CASES_N5,
                         ids=[f"{f}{n}" for f, n, _ in CASES_N5])
def test_catalog_table_matches_direct_brackets(family, n, params, lift):
    alg, mats = realization(family, n, GF2 if lift else F, params)
    assert_table_matches_brackets(family, n, alg, mats)


PARAMS = {"A": [()], "C": [()], "B": [(1,), (2,), (3,)],
          "D": [(2, 3), (4, 8)]}


@st.composite
def table_cases(draw):
    family = draw(st.sampled_from("ABCD"))
    lo = {"A": 4, "B": 5, "C": 4, "D": 5}[family]
    n = draw(st.sampled_from([m for m in range(lo, 7)
                              if family != "C" or m % 2 == 0]))
    params = draw(st.sampled_from(PARAMS[family]))
    dim = expected_catalog_size(family, n)
    pairs = draw(st.lists(st.tuples(st.integers(0, dim - 1),
                                    st.integers(0, dim - 1)),
                          min_size=1, max_size=25))
    return family, n, params, draw(st.booleans()), pairs


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(table_cases())
def test_catalog_table_property_against_direct_brackets(case):
    family, n, params, lift, pairs = case
    alg, mats = realization(family, n, GF2 if lift else F, params)
    assert_table_matches_brackets(family, n, alg, mats, pairs)


def test_catalog_table_brackets_n_times_dim(d5, monkeypatch):
    """The images and the left multiplications take at most n * dim
    matrix brackets in all (225 for D5), not one per pair (990)."""
    alg, mats = d5
    calls = []
    bracket = alg.bracket
    monkeypatch.setattr(alg, "bracket",
                        lambda a, b: calls.append(1) or bracket(a, b))
    _, _, table = table_of("D", 5, alg, mats)
    assert len(calls) <= 5 * 45


@pytest.mark.parametrize("family,n,params1,params2",
                         [("B", 7, (1,), (2,)), ("D", 6, (2, 3), (4, 8)),
                          ("B", 8, (1,), (2,)), ("D", 7, (2, 3), (4, 8)),
                          ("D", 8, (2, 3), (4, 8))],
                         ids=["B7", "D6", "B8", "D7", "D8"])
def test_match_at_scale(family, n, params1, params2):
    alg1, mats1 = closure_of(family, n, params1)
    alg2, mats2 = closure_of(family, n, params2)
    cert = match_algebras(alg1, mats1, alg2, mats2, family)
    dim = expected_catalog_size(family, n)
    assert cert.verdict == "pass" and cert.dim == dim
    assert cert.pairs_checked == dim * (dim - 1) // 2


#: a reordering of the generators whose catalog images stay independent;
#: for A, C and D it is a graph automorphism that keeps the table
PERMUTED = {"A": [1, 0, 2, 3, 4], "B": [0, 1, 2, 4, 3],
            "C": [5, 4, 3, 2, 1, 0], "D": [0, 1, 2, 4, 3]}


def test_equal_left_multiplications_form_no_pair(monkeypatch):
    """The composed map, checked on the generator products, forms no
    pair of side 1's table."""
    alg, mats = closure_of("A", 4)
    _, _, table = table_of("A", 4, alg, mats)
    _, _, again = table_of("A", 4, alg, list(mats))
    calls = []
    pair = MonomialTable.pair
    monkeypatch.setattr(MonomialTable, "pair",
                        lambda t, a, b: calls.append(t) or pair(t, a, b))
    identity = [{i: F.one.v} for i in range(table.dim)]
    assert certify._check_composed_map(table, again, identity) == 105
    assert table not in calls


def test_composed_map_brackets_n_times_dim(b5, monkeypatch):
    """A passing composed map makes n * dim `bracket_with` calls on side
    2's table (5 * 36 for B5), one per generator and basis element, not
    one per ordered pair (1260); side 2's pairs are formed beforehand so
    that only the check's calls count."""
    alg, mats = b5
    _, _, table = table_of("B", 5, alg, mats)
    _, _, again = table_of("B", 5, alg, list(mats))
    for i in range(again.dim):
        for j in range(again.dim):
            again.pair(i, j)
    calls = []
    bracket_with = MonomialTable.bracket_with
    monkeypatch.setattr(MonomialTable, "bracket_with",
                        lambda t, a, v: calls.append(t)
                        or bracket_with(t, a, v))
    identity = [{i: F.one.v} for i in range(table.dim)]
    dim = table.dim
    assert certify._check_composed_map(table, again, identity) == \
        dim * (dim - 1) // 2
    assert len(calls) == 5 * dim and table not in calls


def _scan_composed_map(t_b1, t_b2, glue):
    """The reference for `certify._check_composed_map`: the composed map
    checked on every pair i < j, in order.  It intertwines the brackets
    at (i, j) when, in b2-coordinates,

        sum_{a,b} G_ia G_jb T(b2)_ab = sum_k T(b1)_ij^k G_k.

    Returns the first pair where it does not, or None."""
    axpy = t_b1.field.axpy
    for i in range(t_b1.dim - 1):
        # [b2_b, phi_i] for every b, once per i
        ad_i = [t_b2.bracket_with(b, glue[i]) for b in range(t_b2.dim)]
        for j in range(i + 1, t_b1.dim):
            # w = [phi_i, phi_j] - sum_k T(b1)_ij^k phi_k (axpy subtracts)
            w = {}
            for b, g in glue[j].items():
                axpy(w, g, ad_i[b])
            for k, c in t_b1.pair(i, j).items():
                axpy(w, c, glue[k])
            if w:
                return i, j
    return None


SMALL = [("A", 4), ("B", 5), ("C", 4), ("D", 5)]


def _glue_cases():
    """(family, n, glue): for A4, B5, C4 and D5 the identity glue, the
    identity glue onto the table of the `PERMUTED` generators, and the
    glue of the `PERMUTED` relabelling (the catalog images of the
    reordered generators in the basis of the others); and every
    single-row perturbation {i: 1, (i+5) % dim: 3} of the B5 identity
    glue, generator rows included."""
    cases = [(f, n, kind) for f, n in SMALL
             for kind in ("identity", "permuted", "relabelled")]
    dim = expected_catalog_size("B", 5)
    return cases + [("B", 5, row) for row in range(dim)]


@pytest.fixture(scope="module")
def glue_tables():
    """For each family of `SMALL` over GF(p): the catalog table, the
    table of the reordered generators, and the relabelling glue."""
    out = {}
    for family, n in SMALL:
        params = {"B": (1,), "D": (2, 3)}.get(family, ())
        alg, mats = closure_of(family, n, params)
        _, span, table = table_of(family, n, alg, mats)
        order = (PERMUTED[family][:n] if family != "C"
                 else list(range(n - 1, -1, -1)))
        images, _, permuted = table_of(family, n, alg,
                                       [mats[i] for i in order])
        relabel = [span.sparse_coords(alg.vector(img)) for img in images]
        out[family] = table, permuted, relabel
    return out


@pytest.mark.parametrize("family,n,kind", _glue_cases(),
                         ids=[f"{f}{n}-{k}" for f, n, k in _glue_cases()])
def test_composed_map_agrees_with_the_pair_scan(glue_tables, family, n,
                                                kind):
    """The generator-product check passes exactly when the pair scan
    finds no bad pair, and otherwise names a generator product."""
    table, permuted, relabel = glue_tables[family]
    dim = table.dim
    one = F.one.v
    t_b2, glue = table, [{i: one} for i in range(dim)]
    if kind == "permuted":
        t_b2 = permuted
    elif kind == "relabelled":
        glue = relabel
    elif kind != "identity":
        glue[kind] = {kind: one, (kind + 5) % dim: F(3).v}
    if _scan_composed_map(table, t_b2, glue) is None:
        assert certify._check_composed_map(table, t_b2, glue) == \
            dim * (dim - 1) // 2
    else:
        with pytest.raises(StructureMismatch, match=(
                r"^composed map: bracket tables differ at generator "
                r"product \(\d+,\d+\)$")):
            certify._check_composed_map(table, t_b2, glue)


@pytest.mark.parametrize("family,params1,params2",
                         [("B", (1,), (2,)), ("D", (2, 3), (4, 8))],
                         ids=["B5", "D5"])
def test_match_closes_no_model(family, params1, params2, monkeypatch):
    alg1, mats1 = closure_of(family, 5, params1)
    alg2, mats2 = closure_of(family, 5, params2)
    closures = []
    monkeypatch.setattr(certify, "lie_closure",
                        lambda *a, **k: closures.append(1) or
                        lie_closure(*a, **k))
    cert = match_algebras(alg1, mats1, alg2, mats2, family)
    assert cert.verdict == "pass" and not closures


@pytest.mark.parametrize("family,n,params",
                         [(f, n, p) for f, ps in (("B", [(1,), (2,)]),
                                                  ("D", [(2, 3), (4, 8)]))
                          for n in (5, 6) for p in ps],
                         ids=lambda v: str(v))
def test_rebuilt_models_close_to_the_catalog_dimension(family, n, params):
    """The standard model rebuilt from a side's form values, which is no
    longer closed while it is rebuilt, generates an algebra of the
    catalog dimension."""
    alg, mats = closure_of(family, n, params)
    ctx, gens = normalize_generators(family, alg, mats)
    _, mctx, model = certify._rebuild_model(family, n, ctx.field,
                                            psi(family, ctx, gens))
    closure = lie_closure([g.a for g in model], mctx.base.field)
    assert closure.dim == expected_catalog_size(family, n)


def test_random_element_draws_exactly_dim_values(b5):
    alg, _ = b5
    rng, ref = random.Random(5), random.Random(5)
    x = certify._random_element(alg, rng)
    want = _dense_fold(alg, [(F(ref.randint(-3, 3)), b)
                             for b in alg.basis()])
    assert rng.random() == ref.random()
    assert alg.external(x) == want


@pytest.mark.parametrize("seed", [0, 1, 5, 2024])
def test_draws_repeat_randint_and_randrange(seed):
    """certify._draws gives randint's values, and randrange's, on a twin
    generator and leaves it in the same state: widths 7, n and 2n - 3 of
    certify_family, and the powers of two 4 and 8, where bit_length
    overshoots and every draw above the range is redrawn; 4 860 draws
    per seed."""
    rng, ref = random.Random(seed), random.Random(seed)
    for n in (5, 6):
        for lo, hi in ((-3, 3), (1, n), (1, 2 * n - 3), (0, 3), (-4, 3)):
            for count in (1, 2, 3, 300):
                got = certify._draws(rng, lo, hi, count)
                assert got == [ref.randint(lo, hi) for _ in range(count)]
        for width in (n, 4, 8):
            got = certify._draws(rng, 0, width - 1, 300)
            assert got == [ref.randrange(width) for _ in range(300)]
    assert rng.random() == ref.random()


def test_draws_refuse_an_empty_range():
    with pytest.raises(ValueError):
        certify._draws(random.Random(0), 1, 0, 1)


def test_check_premet_brackets_each_product_once(monkeypatch):
    """P1/P2/P5/AS/SM need [x,y], [x,z], [y,z], [[x,y],[x,z]], [y,[x,z]]
    and [x,[y,[x,z]]], and the form values f(x,y), f(x,z), f(x,[y,z])
    and f(x,[y,[x,z]]).  Three of the values start from a bracket
    already formed and add one bracket each, f(x,[y,z]) two: 11 calls
    (14 when every form value formed its own first bracket)."""
    alg, mats = closure_of("A", 4)
    alg.form(mats[0], mats[1])      # calibrate the form before counting
    rng = random.Random(4)
    y, z = certify._random_element(alg, rng), certify._random_element(alg, rng)
    calls = []
    bracket = alg.bracket
    monkeypatch.setattr(alg, "bracket",
                        lambda a, b: calls.append((a, b)) or bracket(a, b))
    flags = check_premet(alg, mats[0], y, z)
    assert all(flags.values())
    assert len(calls) == 11


def test_quartic_identities_bracket_each_product_once(monkeypatch):
    """Q3/Q3a need six direct brackets: [xk,t], y = [xl,xm], [y,[xk,t]],
    the left side [xk,[y,[xk,t]]], [xk,y] and [[xk,y],t], which with
    [y,[xk,t]] sums to [xk,[y,t]] (Jacobi).  The form values f(xk,t),
    f(xk,y) and f(xk,[y,t]) start from [xk,t], [xk,y] and [xk,[y,t]],
    so they add one bracket each: 9 calls (14 when the left side was the
    two three-bracket chains m1 - m2 and f(xk,[y,t]) formed [y,t] and
    [xk,[y,t]], 16 when every form value formed its own first
    bracket)."""
    alg, mats = closure_of("A", 4)
    alg.form(mats[0], mats[1])      # calibrate the form before counting
    rng = random.Random(3)
    t, u = certify._random_element(alg, rng), certify._random_element(alg, rng)
    calls = []
    bracket = alg.bracket
    monkeypatch.setattr(alg, "bracket",
                        lambda a, b: calls.append((a, b)) or bracket(a, b))
    flags = certify.check_quartic_identities(alg, mats[0], mats[1], mats[2],
                                             t, u)
    assert flags == {"Q3": True, "Q3a": True}
    assert len(calls) == 9


def _six_bracket_quartic(ctx, xk, xl, xm, t, u):
    """Q3/Q3a evaluated literally: the left side as the two chains
    m1 - m2, each form value from its own brackets, Q3a's left side as
    f(u, m1) - f(u, m2)."""
    br = ctx.bracket
    half = ctx.field.one / 2
    m1 = br(xk, br(xl, br(xm, br(xk, t))))
    m2 = br(xk, br(xm, br(xl, br(xk, t))))
    y = br(xl, xm)
    fk_yt = extremal_form_value(ctx, xk, br(y, t))
    fk_t = extremal_form_value(ctx, xk, t)
    fk_y = extremal_form_value(ctx, xk, y)
    q3 = ctx.is_zero(ctx.lincomb([(1, m1), (-1, m2), (-half * fk_yt, xk),
                                  (half * fk_t, br(xk, y)),
                                  (half * fk_y, br(xk, t))]))
    lhs_a = ctx.form(u, m1) - ctx.form(u, m2)
    rhs_a = half * (fk_yt * ctx.form(u, xk)
                    - fk_t * ctx.form(u, br(xk, y))
                    - fk_y * ctx.form(u, br(xk, t)))
    return {"Q3": q3, "Q3a": lhs_a == rhs_a}


def _quartic_outcome(check, ctx, *args):
    try:
        return check(ctx, *args)
    except NotExtremal as exc:
        return ("NotExtremal", str(exc))


QUARTIC_FAMILIES = [("A", 4, ()), ("B", 5, (1,)), ("C", 4, ()),
                    ("D", 5, (2, 3))]


@functools.lru_cache(maxsize=None)
def quartic_context(family, n, params, name):
    """The family's closure over QQ or GF(p), or the GF(p) closure
    lifted to GF(p^2)."""
    fld = QQ if name == "QQ" else F
    mats, _ = build_generators(family, n, fld, tuple(fld(p) for p in params))
    alg = lie_closure(mats, fld)
    return (alg if name in ("QQ", "GF(p)")
            else lift_closure(alg, KERNEL_FIELDS[name]))


@pytest.mark.parametrize("name", ["QQ", "GF(p)", "GF(p)(rt d)"])
@pytest.mark.parametrize("family,n,params", QUARTIC_FAMILIES,
                         ids=lambda v: str(v))
def test_quartic_identities_match_the_six_bracket_expansion(
        monkeypatch, family, n, params, name):
    """On random elements (xk a random combination, which is not
    extremal, or a generator), the Jacobi-reduced left side
    [xk,[y,[xk,t]]] is m1 - m2 entry for entry, [[xk,y],t] + [y,[xk,t]]
    is [xk,[y,t]], and check_quartic_identities forms both (read off
    its brackets) and gives the flags, or the NotExtremal, of the
    literal six-bracket evaluation."""
    alg = quartic_context(family, n, params, name)
    gens = alg.generators_list
    rng = random.Random(f"{family}{n}{name}")

    def element():
        return alg.from_coords([random_element(alg.field, rng)
                                for _ in range(alg.dim)])

    def same(a, b):
        return alg.external(a) == alg.external(b)

    br = alg.bracket
    for xk, extremal in ((element(), False), (element(), False),
                         (gens[0], True), (gens[-1], True)):
        xl, xm, t, u = element(), element(), element(), element()
        y = br(xl, xm)
        m1 = br(xk, br(xl, br(xm, br(xk, t))))
        m2 = br(xk, br(xm, br(xl, br(xk, t))))
        left = alg.lincomb([(1, m1), (-1, m2)])
        assert not alg.is_zero(left)
        assert same(br(xk, br(y, br(xk, t))), left)
        xk_yt = br(xk, br(y, t))
        assert same(alg.lincomb([(1, br(br(xk, y), t)),
                                 (1, br(y, br(xk, t)))]), xk_yt)

        want = _quartic_outcome(_six_bracket_quartic, alg, xk, xl, xm, t, u)
        formed = []
        monkeypatch.setattr(alg, "bracket",
                            lambda a, b: formed.append((a, b)) or br(a, b))
        got = _quartic_outcome(certify.check_quartic_identities, alg,
                               xk, xl, xm, t, u)
        monkeypatch.undo()
        assert got == want
        assert (want == {"Q3": True, "Q3a": True} if extremal
                else want[0] == "NotExtremal")
        assert any(same(br(a, b), left) for a, b in formed)
        assert any(same(a, xk) and same(b, xk_yt) for a, b in formed)


@pytest.mark.parametrize("family,params1,params2",
                         [("B", (1,), (2,)), ("D", (2, 3), (4, 8))],
                         ids=["B5", "D5"])
def test_a_match_builds_no_matrix_context_over_an_extension(
        monkeypatch, family, params1, params2):
    """B5 gamma 1 vs 2 and D5 (2,3) vs (4,8) end over GF(p^2), yet every
    matrix context the match builds, the models' included, is over
    GF(p): the extension only holds scalars."""
    built = []
    init = MatrixLieAlgebra.__init__
    monkeypatch.setattr(MatrixLieAlgebra, "__init__",
                        lambda ctx, *a: built.append(ctx) or init(ctx, *a))
    alg1, mats1 = closure_of(family, 5, params1)
    alg2, mats2 = closure_of(family, 5, params2)
    cert = match_algebras(alg1, mats1, alg2, mats2, family)
    assert cert.verdict == "pass" and "rt" in cert.field
    assert built and all(ctx.field is F for ctx in built)


@pytest.mark.parametrize("family,n,params",
                         [("A", 6, ()), ("C", 6, ()), ("B", 6, (1,))])
def test_certify_family_rationals_agree_with_prime_field(family, n, params):
    """The realizations have integral structure constants, so the report
    over Q reduces mod p to the report over GF(p)."""
    over_q = certify_family(family, n, tuple(QQ(p) for p in params), QQ,
                            seed=0)
    over_p = certify_family(family, n, tuple(F(p) for p in params), F,
                            seed=0)
    assert over_q.verdict == over_p.verdict == "pass"
    assert over_q.dim == over_p.dim
    assert over_q.catalog_rank == over_p.catalog_rank
    assert (over_q.field, over_p.field) == (str(QQ), str(F))
    assert len(over_q.psi) == len(over_p.psi)
    assert [F.coerce(Fraction(v)) for v in over_q.psi] == \
        [int(v) for v in over_p.psi]


def test_match_builds_two_catalog_tables(monkeypatch):
    """Both sides get a table; model 2 is checked against side 2's table
    on its generator products and model 1 needs only its catalog
    images."""
    calls = []
    catalog_table = certify._catalog_table
    monkeypatch.setattr(certify, "_catalog_table",
                        lambda *a, **k: calls.append(1) or
                        catalog_table(*a, **k))
    alg1, mats1 = closure_of("B", 5, (1,))
    alg2, mats2 = closure_of("B", 5, (2,))
    assert match_algebras(alg1, mats1, alg2, mats2, "B").verdict == "pass"
    assert len(calls) == 2


def _wrong_models(monkeypatch, sides):
    """Make `_rebuild_model` return the standard B5 model of gamma = 2,
    the other parameter, for the first `sides` calls (side 1, then side
    2), and match B5 gamma = 1 with itself."""
    alg, mats = closure_of("B", 5, (1,))
    other_alg, other_mats = closure_of("B", 5, (2,))
    ctx, gens = normalize_generators("B", other_alg, other_mats)
    other = psi("B", ctx, gens)
    rebuild = certify._rebuild_model
    calls = []

    def wrong(family, n, fld, target, *base):
        calls.append(1)
        if len(calls) <= sides:
            target = certify._psi_in(other, fld)
        return rebuild(family, n, fld, target, *base)

    monkeypatch.setattr(certify, "_rebuild_model", wrong)
    return alg, mats


def test_a_wrong_model_for_both_sides_fails_side_2(monkeypatch):
    """The models agree with each other, so the composed map holds; only
    side 2 against its model can fail."""
    alg, mats = _wrong_models(monkeypatch, 2)
    with pytest.raises(StructureMismatch, match="^side 2 vs model: "):
        match_algebras(alg, mats, alg, mats, "B")


def test_a_wrong_model_for_side_1_fails_the_composed_map(monkeypatch):
    """Side 2 matches its model, so only the composed map can find that
    side 1 does not match its model."""
    alg, mats = _wrong_models(monkeypatch, 1)
    with pytest.raises(StructureMismatch, match="^composed map: "):
        match_algebras(alg, mats, alg, mats, "B")


def test_dependent_model_images_are_refused(monkeypatch):
    """Model 1's images must be independent for the glue matrix to be
    invertible.  With zero generators every glue row is zero and the
    composed map holds, so only that check refuses such a model."""
    alg, mats = closure_of("B", 5, (1,))
    rebuild = certify._rebuild_model
    calls = []

    def degenerate(*args):
        params, ctx, gens = rebuild(*args)
        calls.append(1)
        if len(calls) == 1:
            gens = [ctx.lincomb([(0, g)]) for g in gens]
        return params, ctx, gens

    monkeypatch.setattr(certify, "_rebuild_model", degenerate)
    with pytest.raises(StructureMismatch,
                       match="^catalog images are dependent$"):
        match_algebras(alg, mats, alg, mats, "B")


def _conjugated(family, n, params, seed=0):
    """The generators and their conjugates P g P^-1 by a random
    invertible P over GF(p): an isomorphic realization in other
    coordinates."""
    mats, _ = build_generators(family, n, F, tuple(F(p) for p in params))
    size = len(mats[0])
    rng = random.Random(seed)
    while True:
        p = [[F(rng.randrange(F.p)) for _ in range(size)]
             for _ in range(size)]
        unit = [[F(int(i == j)) for j in range(size)] for i in range(size)]
        reduced, pivots, _ = linalg.rref([r + u for r, u in zip(p, unit)])
        if pivots == list(range(size)):
            break
    p_inv = [row[size:] for row in reduced]

    def mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(size)), F.zero)
                 for j in range(size)] for i in range(size)]

    return mats, [mul(mul(p, m), p_inv) for m in mats]


CONJUGATED = [
    ("A", 5, ()), ("B", 5, (1,)), ("D", 5, (2, 3)),
    pytest.param("C", 6, (), marks=pytest.mark.xfail(
        strict=True, raises=StructureMismatch,
        reason="ROADMAP item 1: an A or C side is its own model, so "
               "side 1 must lie in side 2's matrix span"))]


@pytest.mark.parametrize("family,n,params", CONJUGATED,
                         ids=["A5", "B5", "D5", "C6"])
def test_match_a_randomly_conjugated_realization(family, n, params):
    mats, conj = _conjugated(family, n, params)
    cert = match_algebras(lie_closure(mats, F), mats, lie_closure(conj, F),
                          conj, family)
    dim = expected_catalog_size(family, n)
    assert cert.verdict == "pass"
    assert cert.pairs_checked == dim * (dim - 1) // 2


def _materialised(ctx, gens, field):
    """The normal form (ctx, gens) as the matrices lambda_k y_k over
    `field`: a generators-only context over it and its generators."""
    up = tower_maps(ctx.base.field, field)[0]
    mul = field.mul
    mats = []
    for g in gens:
        c = lift_element(g.c, field).v
        mats.append(tuple({j: mul(c, up(x)) for j, x in row.items()}
                          for row in g.a))
    return MatrixLieAlgebra(field, ctx.base.ambient_dim, [], mats), mats


RESCALE_CASES = {
    "A5-conj": lambda: ("A", _exp_conjugated("A", 5)),
    "B5": lambda: ("B", _param_pair("B", 5, F, (1,), (2,))),
    "C6-conj": lambda: ("C", _exp_conjugated("C", 6)),
    "D5": lambda: ("D", _param_pair("D", 5, F, (2, 3), (4, 8))),
    "D5-QQ": lambda: ("D", _param_pair("D", 5, QQ, (2, 3), (4, 8))),
}


@pytest.mark.parametrize("name", list(RESCALE_CASES))
def test_rescaled_tables_and_glue_equal_the_extension_ones(name,
                                                           monkeypatch):
    """The reference for the rescale: the tables T(b1), T(b2) and the
    glue a match builds over the base field and rescales equal
    `_catalog_table` and the glue solve run directly on the generators
    lambda_k y_k of the sides and models, materialised over the field
    the match reached (GF(p^2), QQ(rt 1/8)(rt -64), GF(p) for C6)."""
    family, sides = RESCALE_CASES[name]()
    forms, models, used = [], [], []
    normalize, rebuild = certify.normalize_generators, certify._rebuild_model
    check = certify._check_composed_map
    monkeypatch.setattr(certify, "normalize_generators",
                        lambda *a: forms.append(normalize(*a)) or forms[-1])
    monkeypatch.setattr(certify, "_rebuild_model",
                        lambda *a: models.append(rebuild(*a)) or models[-1])
    monkeypatch.setattr(certify, "_check_composed_map",
                        lambda *a: used.append(a) or check(*a))
    cert = match_algebras(*sides, family)
    t_b1, t_b2, glue = used[0]
    top = t_b1.field
    assert cert.verdict == "pass" and cert.field == str(top)
    assert ("rt" in cert.field) == (name != "C6-conj")
    labels = t_b1.labels
    for (ctx, gens), table in zip(forms[:2], (t_b1, t_b2)):
        _, _, direct = certify._catalog_table(
            *_materialised(ctx, gens, top), labels, "direct")
        assert table.field is top and table.leftmult == direct.leftmult
    model1, model2 = ([m[1:] for m in models] if models else forms[:2])
    ctx1, m1 = _materialised(*model1, top)
    ctx2, m2 = _materialised(*model2, top)
    span = certify._basis_span(top, ctx2.vector_dim, [
        ctx2.vector(img) for img in certify._catalog_images(ctx2, m2, labels)])
    assert glue == [span.sparse_coords(ctx1.vector(img))
                    for img in certify._catalog_images(ctx1, m1, labels)]
