import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (KERNEL_FIELDS, form_outcome, lift_closure, lift_rows,
                      random_combination)
from extremal_lie import certify, linalg
from extremal_lie.certify import (PSI_LENGTH, CertifyError,
                                  ConditionViolated, FormMismatch,
                                  PsiVector,
                                  StructureMismatch,
                                  certify_family, check_genericity,
                                  graph_realization_check,
                                  long_monomial_indices, match_algebras,
                                  normalize_generators, psi, solve_param_B,
                                  solve_params_D)
from extremal_lie.extremal import (HypothesisFailed, NotExtremal,
                                   bracket_form_value, check_premet, exp_ad,
                                   extremal_form_value)
from extremal_lie.fields import (DEFAULT_PRIME, FieldElement, NoSquareRoot,
                                 PrimeField, QQ, QuadraticExtension,
                                 lift_element, tower_maps)
from extremal_lie.graphs import (build_family_graph, catalog,
                                 expected_catalog_size)
from extremal_lie.presentation import evaluate_monomial
from extremal_lie.realizations import (ClassicalAlgebra, InvalidParameters,
                                       MatrixLieAlgebra, build_generators,
                                       classical_algebra, d_open_conditions,
                                       lie_closure)

F = PrimeField(DEFAULT_PRIME)
GF2 = KERNEL_FIELDS["GF(p)(rt d)"]


def closure_of(family, n, params=()):
    mats, _ = build_generators(family, n, F,
                               tuple(F(p) for p in params))
    return lie_closure(mats, F), mats


def classical_of(family, n, params=(), field=F):
    """The classical algebra of the family realization over `field`."""
    mats, extra = build_generators(family, n, field,
                                   tuple(field(p) for p in params))
    return classical_algebra(family, field, mats, extra)


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


@pytest.mark.parametrize("family,n,params,p,fails", [
    ("A", 4, (), DEFAULT_PRIME, False),
    ("D", 5, (2, 3), DEFAULT_PRIME, False),
    ("D", 5, (2, 3), 5, True)], ids=["A4", "D5", "D5-GF(5)"])
def test_certify_family_sweeps_extremality_only_on_a_grown_closure(
        family, n, params, p, fails, monkeypatch):
    """A realization is proved extremal from the structure of its
    generators (rank 1, or rank 2 in o(G)), with no sweep over a basis,
    and samples its classical algebra; over GF(5), D5 (2,3) fails (its
    catalog rank is 34), and it too grows no closure: no run sweeps."""
    calls, samples = [], []
    basis = ClassicalAlgebra.basis
    random_element = certify._random_element
    monkeypatch.setattr(ClassicalAlgebra, "basis",
                        lambda ctx: calls.append(ctx) or basis(ctx))
    monkeypatch.setattr(
        certify, "_random_element",
        lambda ctx, rng: samples.append(ctx) or random_element(ctx, rng))
    field = PrimeField(p)
    report = certify_family(family, n, tuple(field(x) for x in params),
                            field=field, seed=0)
    assert report.extremal == [True] * n and report.graph_match
    assert report.verdict == ("fail" if fails else "pass")
    assert not calls
    assert len(samples) == 4 * certify.IDENTITY_SAMPLES
    assert all(type(ctx) is ClassicalAlgebra for ctx in samples)


def test_check_genericity_flags(d5):
    alg, mats = d5
    flags = check_genericity(psi("D", alg, mats), params=(F(2), F(3)))
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
    flags = check_genericity(psi("D", alg, mats),
                             params=tuple(F(p) for p in params))
    assert flags["param_open"] is False and flags["lambda_open"] is False
    assert list(flags)[-2:] == ["param_open", "lambda_open"]


def test_check_genericity_takes_no_root_of_one_plus_beta_at_odd_rank(d5):
    """At odd n lambda = alpha/(alpha+2) takes no root of 1 + beta, so
    beta = 5, with 6 no square mod p, gets its flags; at even n lambda
    takes the root, and its absence raises NoSquareRoot."""
    alg, mats = d5
    assert not F(6).has_sqrt()
    flags = check_genericity(psi("D", alg, mats), params=(F(2), F(5)))
    assert flags["param_open"] is True and flags["lambda_open"] is True
    alg6, mats6 = closure_of("D", 6, (2, 3))
    with pytest.raises(NoSquareRoot):
        check_genericity(psi("D", alg6, mats6), params=(F(2), F(5)))


def _bracket_genericity(family, ctx, gens, params=None):
    """The flags of `check_genericity` evaluated from brackets of the
    generators, as it did before it read them off psi: the reference of
    the differential test below."""
    n = len(gens)
    f = lambda i, j: extremal_form_value(ctx, gens[i - 1], gens[j - 1])

    def triangle_open(x, y, z):
        fxy = extremal_form_value(ctx, x, y)
        fxz = extremal_form_value(ctx, x, z)
        fyz = extremal_form_value(ctx, y, z)
        fxyz = extremal_form_value(ctx, x, ctx.bracket(y, z))
        return not (fxyz * fxyz - 2 * fxy * fxz * fyz).is_zero()

    out = {}
    if family in ("D", "B", "A"):
        out["triangle123"] = triangle_open(gens[0], gens[1], gens[2])
    if family == "D":
        out["triangle_end"] = triangle_open(gens[n - 1], gens[n - 2],
                                            gens[n - 3])
    chain_stop = n - 1 if family == "B" else n
    out["chain_nonzero"] = all(
        not f(i, i + 1).is_zero() for i in range(1, chain_stop))
    if family == "B":
        out["cross_nonzero"] = not f(n - 2, n).is_zero()
    if family in ("D", "B"):
        z = evaluate_monomial(ctx.bracket, gens, long_monomial_indices(n))
        flong = extremal_form_value(ctx, gens[0], z)
        sign = ctx.field(1 if n % 2 else -1)
        if family == "B":
            out["long_nonzero"] = not flong.is_zero()
            out["long_generic"] = flong != 8 * sign
        elif n % 2:
            out["long_generic"] = flong != ctx.field(8)
    if family == "D" and params is not None:
        out["param_open"], out["lambda_open"] = d_open_conditions(n, *params)
    if family == "B" and params is not None:
        (gamma,) = params
        out["param_open"] = not (gamma * (gamma + 1)).is_zero()
    return out


def _grid(family, p):
    """Every parameter tuple of the family with entries in 0..p-1."""
    if family == "D":
        return [(a, b) for a in range(p) for b in range(p)]
    return [(g,) for g in range(p)]


GF7 = PrimeField(7)


@pytest.mark.parametrize("family,n,field,grid", [
    ("D", 5, GF7, _grid("D", 7)), ("D", 6, GF7, _grid("D", 7)),
    ("B", 5, GF7, _grid("B", 7)), ("B", 6, GF7, _grid("B", 7)),
    ("D", 5, QQ, [(1, 3), (2, 3)]),
], ids=["D5-GF7", "D6-GF7", "B5-GF7", "B6-GF7", "D5-QQ"])
def test_genericity_read_off_psi_equals_the_bracket_flags(family, n, field,
                                                          grid):
    """Every admissible parameter over GF(7), and over QQ the D5 points
    (1,3), which fails certification with every flag open, and (2,3),
    which passes: the flags read off psi equal those the brackets of
    the generators give, with the parameters and without them."""
    built = 0
    for params in grid:
        params = tuple(field(p) for p in params)
        try:
            mats, _ = build_generators(family, n, field, params)
        except InvalidParameters:
            continue
        built += 1
        ctx = MatrixLieAlgebra(field, len(mats[0]), [], mats)
        vec = psi(family, ctx, mats)
        for given in (params, None):
            got = check_genericity(vec, params=given)
            want = _bracket_genericity(family, ctx, mats, given)
            assert list(got.items()) == list(want.items()), params
    assert built


@pytest.mark.parametrize("family,n", [("D", 5), ("D", 6), ("B", 5),
                                      ("A", 5)])
def test_check_genericity_reads_each_flag_from_its_values(family, n):
    """On form values all 1 over GF(7) every flag is open; 3^2 = 2 =
    2*1*1*1 closes a triangle, and a zero closes the chain or the cross.
    The triangle flags are invariant under the gauge (scalings and the
    shifts of fixtriangle), so no realization of admissible parameters
    closes one: these values check where each flag reads."""
    ones = (GF7(1),) * PSI_LENGTH[family](n)
    links = n - 2 if family == "B" else n - 1

    def flags(at=None):
        values = list(ones)
        for i, v in (at or {}).items():
            values[i] = GF7(v)
        return check_genericity(PsiVector(family, n, tuple(values)))

    base = flags()
    assert all(v for k, v in base.items() if k != "long_generic")
    # psi holds the chain f(x_i, x_{i+1}), then f(x1,x3), f(x1,[x2,x3])
    assert flags({links + 1: 3}) == {**base, "triangle123": False}
    assert flags({links - 1: 0}) == {**base, "chain_nonzero": False}
    if family == "D":
        # then f(x_{n-2},x_n), f(x_{n-2},[x_{n-1},x_n]): the end triangle
        # on (x_{n-2}, x_{n-1}, x_n), with f(x_{n-1},x_n) last in the chain
        assert flags({links + 3: 3}) == {**base, "triangle_end": False}
        assert flags({links - 1: 2, links + 3: 2}) == {
            **base, "triangle_end": False}
    if family == "B":
        assert flags({links + 2: 0}) == {**base, "cross_nonzero": False}


@pytest.mark.parametrize("params2", [(2, 3), (4, 1)], ids=str)
@pytest.mark.parametrize("params1", [(0, 1), (0, 3), (1, 1)], ids=str)
def test_d6_matches_over_gf7_raise_only_certify_errors(params1, params2):
    """At even rank a solved D candidate carries the special-vector
    coordinate (kappa-1)/beta of the kappa it solved, and candidates
    with beta = 0 are dropped: no second kappa divides by beta = 0, so
    these matches end in a certificate or a CertifyError, never a field
    error."""
    sides = []
    for params in (params1, params2):
        mats, _ = build_generators("D", 6, GF7, tuple(GF7(p) for p in params))
        sides += [MatrixLieAlgebra(GF7, len(mats[0]), [], mats), mats]
    try:
        cert = match_algebras(*sides, "D")
    except CertifyError:
        return
    assert cert.verdict == "pass"


def test_solve_params_d_keeps_the_open_set_and_the_branch_coordinate():
    """Candidates have (alpha+2) beta (beta+1) != 0, and at even rank
    each one with alpha != 0 carries c = (kappa-1)/beta; the parameters
    of the realization are among them."""
    for params in ((2, 3), (4, 8), (0, 3)):
        alpha, beta = (F(p) for p in params)
        mats, _ = build_generators("D", 6, F, (alpha, beta))
        ctx, g = normalize_generators(
            "D", MatrixLieAlgebra(F, 12, [], mats), mats)
        vec = psi("D", ctx, g)
        cands = solve_params_D(vec.values[-1], vec.values[2], 6)
        for cand in cands:
            a, b = cand[:2]
            assert not ((a + 2) * b * (b + 1)).is_zero()
            assert len(cand) == (2 if a.is_zero() else 3)
        assert (lift_element(alpha, ctx.field),
                lift_element(beta, ctx.field)) in [c[:2] for c in cands]


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
    report = certify_family("A", 5, (), field=F, seed=0)
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
    r1 = certify_family("C", 6, (), field=F, seed=3)
    r2 = certify_family("C", 6, (), field=F, seed=3)
    assert r1.to_json() == r2.to_json()


def test_match_identity_certificate(b5):
    alg, mats = b5
    cert = match_algebras(alg, mats, alg, mats, "B")
    assert cert.verdict == "pass"
    assert cert.params1 == cert.params2
    assert cert.pairs_checked == alg.dim * (alg.dim - 1) // 2


def test_match_rejects_dimension_mismatch(b5):
    """B5 and D5 have as many generators, so the match runs: D5's
    generators give no B5 parameter."""
    alg, mats = b5
    other, others = closure_of("D", 5, (2, 3))
    with pytest.raises(ConditionViolated, match=r"^f_long = 8\*"):
        match_algebras(alg, mats, other, others, "B")


def test_match_rejects_a_different_number_of_generators(b5):
    alg, mats = b5
    with pytest.raises(FormMismatch,
                       match="^realizations have different numbers of "
                             "generators$"):
        match_algebras(alg, mats, alg, mats[:4], "B")


def test_a_closure_matches_a_generators_only_context(b5):
    """The side tables prove the dimension, so a closure and a
    generators-only context, in either order, give the certificate of
    two generators-only contexts."""
    alg, mats = b5
    others, _ = build_generators("B", 5, F, (F(2),))
    bare = [MatrixLieAlgebra(F, 9, [], m) for m in (mats, others)]
    want = match_algebras(bare[0], mats, bare[1], others, "B")
    assert want.verdict == "pass" and want.dim == alg.dim
    assert match_algebras(alg, mats, bare[1], others, "B") == want
    assert match_algebras(bare[0], mats, lie_closure(others, F), others,
                          "B") == want


def test_match_rejects_realizations_over_different_fields(b5):
    alg, mats = b5
    G = PrimeField(101)
    others, _ = build_generators("B", 5, G, (G(1),))
    with pytest.raises(FormMismatch,
                       match="^realizations over different fields$"):
        match_algebras(alg, mats, lie_closure(others, G), others, "B")


def _exp_conjugated(family, n, scalars=(3, -2), params=()):
    """Criterion 9's A5 and C6 pairs, the first also the A5 job of the
    benchmark at seed 0: the standard generators, at the family
    parameters `params`, and their conjugate by exp(s1 ad x_1) then
    exp(s2 ad x_3), (s1, s2) = `scalars`."""
    s1, s2 = scalars
    alg, mats = closure_of(family, n, params)
    mats = alg.generators_list
    conj = [exp_ad(alg, F(s1), mats[0], g) for g in mats]
    conj = [exp_ad(alg, F(s2), mats[2], g) for g in conj]
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
    "A6-conj":
        "44c30f4f28aaff6f52e5ba650f03ed8d7e56191c82e8c5427fc91a5d0957c204",
    "C8-conj":
        "72418da302c24b9021c8494467ec9b728280550854550d869e209b3c933ace53",
    "D5-QQ":
        "f4e251ac822f6978feb9d55ad5b332acbb57a518486d7ad1884efba1e858c7b0",
}


#: sha256 of CertReport.to_json() of certify_family over QQ at seed 0
CERTIFY_QQ_DIGESTS = {
    ("D", 5, (2, 3)):
        "20d0ec63efc38b2e285c8292d22fa8aa4b262f3be3c2858a06331f5ab5c8688c",
    ("D", 5, (1, 8)):
        "4203142289f769440b2a93ada25fd284cfb2640275ada694aef19fd63821f377",
    ("D", 7, (1, 8)):
        "be5865a42ecab4992f275b63e0cfe078a393bbe4fa69ddd125ed9966879b17ec",
    ("D", 7, (2, 3)):
        "cafca8dffc59e23b946221ea1e2f09ff52028fe722fe9ac32a209dcdbb06ac2a",
    ("B", 7, (2,)):
        "f459ea399d4a028dc8188cff559d051d3e778cb72a0c971b097cc6314dfc05c8",
    ("C", 6, ()):
        "2a7b3044e9d4dbd1ce3a4abd4c14b0cd7232ac1d0950efc0243798eed5f3f801",
    ("A", 5, ()):
        "92554a0a15879680b7abe9a57c9d8e2e87bfa89056396deef67e2c264dabf382",
}


@pytest.mark.parametrize("family,n,params", list(CERTIFY_QQ_DIGESTS),
                         ids=lambda v: str(v))
def test_certify_report_digests_over_qq(family, n, params):
    """certify_family over QQ gives bit-identical passing reports; the
    benchmark's digests cover GF(p) only."""
    report = certify_family(family, n, params, QQ, seed=0)
    assert report.verdict == "pass"
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == CERTIFY_QQ_DIGESTS[family, n, params]


#: sha256 of CertReport.to_json() of certify_family over GF(p) at seed 0:
#: passing points over GF(DEFAULT_PRIME), and points over small primes
#: whose catalog images span less than the catalog size, so the closure
#: is grown, each generator swept and each sample drawn from its basis
CERTIFY_GFP_DIGESTS = {
    ("D", 7, (2, 3), DEFAULT_PRIME):
        "fc94d7dd01c5512e319d51a20934844e1113ef6f4552ebefb01e6d4072f4e14c",
    ("B", 8, (2,), DEFAULT_PRIME):
        "cc51329228a978609e4eb551ea9f01478be36b0f98e885175c635d39ab0526f1",
    ("C", 8, (), DEFAULT_PRIME):
        "5110589e40631c037d37b7fb592741bda59e9fabb33e04e63cc04b8674458748",
    ("A", 8, (), DEFAULT_PRIME):
        "e0b8f6290954471be305f6cd3974a745e5f104a83d154e2dcdaa02fb4ec745a7",
    ("D", 5, (2, 3), 5):
        "d6bc8ccd1456a499fd7c2f7a898479e5e8a4571163879b8f90c5704ea3f41fe4",
    ("D", 5, (1, 3), 7):
        "e997b2721b4922306c45d74acf014449b182d7b5fdd3dfaed5f50984cf907458",
    ("D", 6, (5, 2), 11):
        "a7727ff55e99abc9a1e1cebb4b14ea533f57f0db90b49699342b2fc252733b43",
}


@pytest.mark.parametrize("family,n,params,p", list(CERTIFY_GFP_DIGESTS),
                         ids=lambda v: str(v))
def test_certify_report_digests_over_gfp(family, n, params, p):
    """certify_family over GF(p) gives bit-identical reports, on the
    proved closure and on a grown one alike."""
    field = PrimeField(p)
    report = certify_family(family, n, tuple(field(x) for x in params),
                            field, seed=0)
    assert report.verdict == ("pass" if p == DEFAULT_PRIME else "fail")
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == CERTIFY_GFP_DIGESTS[family, n, params, p]


@pytest.mark.parametrize("name", list(MATCH_DIGESTS))
def test_match_certificate_digests(name):
    """D5 (2,3) vs (4,8) over GF(p) and over QQ, B6 gamma 1 vs 2 over
    GF(101), criterion 9's conjugated C6 and the A6 and C8 conjugated
    the same way give bit-identical certificates.  The QQ match ends
    over a tower of two quadratic extensions, QQ(rt 1/8)(rt -64)."""
    if name in ("D5", "D5-QQ"):
        sides = _param_pair("D", 5, F if name == "D5" else QQ, (2, 3),
                            (4, 8))
        family = "D"
    elif name == "B6":
        sides = _param_pair("B", 6, PrimeField(101), (1,), (2,))
        family = "B"
    else:
        family = name[0]
        sides = _exp_conjugated(family, int(name[1:name.index("-")]))
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


class CombTable:
    """Structure constants on a tail-closed basis of bracket monomials,
    from the left multiplications by the generators: ``leftmult[k-1][b]``
    is [x_k, b] as a sparse payload vector over the basis.  A pair
    follows by the comb recursion through the label of the first,
    [[x_k, b'], c] = [x_k, [b', c]] - [b', [x_k, c]], which is the
    Jacobi identity: the reference the pair-level witnesses read, since
    a match stores no table."""

    def __init__(self, field, labels, leftmult):
        self.field = field
        self.labels = labels
        self.label_index = {lab: b for b, lab in enumerate(labels)}
        self.leftmult = leftmult
        self._pairs = {}

    @property
    def dim(self):
        return len(self.labels)

    def _fold(self, vectors, svec):
        """sum_b c_b vectors(b) over the entries b: c_b of svec."""
        neg, axpy = self.field.neg, self.field.axpy
        out = {}
        for b, c in svec.items():
            axpy(out, neg(c), vectors(b))
        return out

    def pair(self, a, b):
        """[a, b] for basis elements a, b, memoised."""
        if (a, b) not in self._pairs:
            k, *tail = self.labels[a]
            lm = self.leftmult[k - 1]
            if not tail:
                out = lm[b]
            else:
                ap = self.label_index[tuple(tail)]
                out = self._fold(lm.__getitem__, self.pair(ap, b))
                self.field.axpy(out, self.field.one.v,
                                self.bracket_with(ap, lm[b]))
            self._pairs[a, b] = out
        return self._pairs[a, b]

    def bracket_with(self, a, svec):
        """[basis a, sparse payload vector]."""
        return self._fold(lambda b: self.pair(a, b), svec)

    def pair_bracket(self, a, b):
        return {k: FieldElement(self.field, v)
                for k, v in self.pair(a, b).items()}


def table_of(family, n, alg, mats):
    """(images, span, table): the catalog images the generators build,
    their `SpanSolver`, and the `CombTable` whose left multiplications
    are solved from direct matrix brackets."""
    labels = labels_of(family, n)
    images, _, span = certify._independent_images(alg, mats, labels, "self")
    leftmult = [[span.sparse_coords(alg.vector(alg.bracket(g, img)))
                 for img in images] for g in mats]
    assert all(None not in lm for lm in leftmult)
    return images, span, CombTable(alg.field, labels, leftmult)


def _products(labels, n):
    """The generator products (k, b) a side pass brackets, in order: the
    non-unit ones, (k,) + label(b) not a label."""
    known = set(labels)
    return [(k, b) for k in range(1, n + 1) for b, lab in enumerate(labels)
            if (k,) + lab not in known]


def _perturbed_solve(monkeypatch, call, delta):
    """Make the `call`-th `SpanSolver.sparse_coords` (0-based) return
    its column with `delta(col)` applied to a copy."""
    solve = linalg.SpanSolver.sparse_coords
    calls = []

    def perturbed(span, v):
        col = solve(span, v)
        calls.append(1)
        if len(calls) - 1 == call and col is not None:
            col = dict(col)
            delta(col)
        return col

    monkeypatch.setattr(linalg.SpanSolver, "sparse_coords", perturbed)


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
        rhs = _dense_fold(alg, [(x, t) for x, t in zip(c, target)
                                if not x.is_zero()])
        if alg.external(alg.bracket(target[i], target[j])) != rhs:
            return i, j
    return None


def test_catalog_tables_agree_on_every_pair():
    """The same generators as side and as model pass the side's pass:
    their left multiplications agree, and so, a table's pairs being a
    function of those and the labels, the two tables agree on every
    pair.  The model's vectors are the side's own images."""
    alg, mats = closure_of("A", 4)
    ctx = certify.ScaledContext(alg)
    labels = labels_of("A", 4)
    vectors, span = certify._check_side(ctx, mats, labels, "A4",
                                        (ctx, list(mats), "model"))
    assert span.rank == len(labels)
    assert vectors == [alg.vector(img) for img in
                       certify._catalog_images(alg, mats, labels)]


@pytest.mark.parametrize("change", ["swap", "double"])
def test_catalog_table_rejects_changed_generators(b5, change):
    """Generators 4 and 5 swapped, or generator 2 doubled, on the model
    side: the induced catalog images stay a basis of the closure, and
    the side pass fails at the first generator product (k, b), in
    order, where the brackets stop matching."""
    alg, mats = b5
    labels = labels_of("B", 5)
    basis, _, span = certify._independent_images(alg, mats, labels, "B5")
    target = list(mats)
    if change == "swap":
        target[3], target[4] = target[4], target[3]
    else:
        target[1] = alg.lincomb([(F(2), target[1])])
    images = certify._catalog_images(alg, target, labels)
    products = [(labels.index((k,)), b) for k in range(1, 6)
                for b in range(len(labels))]
    pair = _first_bad_pair(alg, basis, span, images, products)
    assert pair is not None
    k, b = labels[pair[0]][0], pair[1]
    ctx = certify.ScaledContext(alg)
    with pytest.raises(StructureMismatch) as info:
        certify._check_side(ctx, mats, labels, change,
                            (ctx, target, "model"))
    assert str(info.value) == (
        f"{change} vs model: bracket tables differ at generator product "
        f"({k},{b})")


def test_scaled_form_values_are_the_materialised_ones(d5):
    """A ScaledContext over GF(p^2) reads f(c a, d b) as cd f(a, b) in
    its GF(p) base, and gives the value, or the NotExtremal, of the
    two-bracket definition on the matrices c a and d b over GF(p^2);
    d = 0 gives 0, and c = 0 ValueError.  a and b run over the D5
    generators, their shifts exp(ad x_{i+1}) x_i and a random closure
    element, which is not extremal."""
    alg, mats = d5
    ctx = certify.ScaledContext(alg, GF2)
    big = MatrixLieAlgebra(GF2, alg.ambient_dim, [], [])

    def materialised(s):
        return big.lincomb([(lift_element(s.c, GF2),
                             lift_rows(F, s.a, GF2))])

    rng = random.Random(5)
    gens = alg.generators_list
    base = (gens + [exp_ad(alg, F(1), gens[i + 1], gens[i])
                    for i in range(len(gens) - 1)]
            + [random_combination(alg, rng)])
    scalars = [F(1), GF2.root, GF2.root * 2 + 3, F(-5)]
    elements = [certify.Scaled(rng.choice(scalars), a) for a in base]
    kinds = set()
    for x in elements:
        for y in elements + [certify.Scaled(GF2.zero, base[0])]:
            got = form_outcome(extremal_form_value, ctx, x, y)
            want = form_outcome(bracket_form_value, big, materialised(x),
                                 materialised(y))
            assert got == want
            kinds.add(want[0] if isinstance(want, tuple) else "value")
    assert kinds == {"value", "NotExtremal"}
    zero = certify.Scaled(F(0), gens[0])
    assert form_outcome(extremal_form_value, ctx, zero, elements[0]) == (
        "ValueError", "x is zero")


def test_model_check_refuses_every_perturbed_column(b5, monkeypatch):
    """B5's own generators pass the side pass against themselves as the
    model, and every single-column perturbation of a solved product,
    3 added at entry (b+5) % dim of the coordinates of [x_k, b], is
    refused at that generator product.  A unit product is solved by no
    call: its column is the unit as built on both sides."""
    alg, mats = b5
    ctx = certify.ScaledContext(alg)
    labels = labels_of("B", 5)
    dim = len(labels)
    vectors, span = certify._check_side(ctx, mats, labels, "B5",
                                        (ctx, mats, "model"))
    assert span.rank == dim
    assert vectors == [alg.vector(img) for img in
                       certify._catalog_images(alg, mats, labels)]
    products = _products(labels, 5)
    assert len(products) == 5 * dim - (dim - 5)
    for call, (k, b) in enumerate(products):
        _perturbed_solve(monkeypatch, call, lambda col, b=b: F.axpy(
            col, F(-3).v, {(b + 5) % dim: F.one.v}))
        with pytest.raises(StructureMismatch) as info:
            certify._check_side(ctx, mats, labels, "B5",
                                (ctx, mats, "model"))
        assert str(info.value) == (
            f"B5 vs model: bracket tables differ at generator product "
            f"({k},{b})")


def test_model_check_refuses_a_coefficient_outside_the_model_field(
        b5, monkeypatch):
    """B5's generators as the side over GF(p^2), with side scalars 1
    but lambda_5 = the adjoined root r, checked against B5's own
    generators.  The ratio of a coefficient T_kb^j is r^e,
    e = [k = 5] + (x_5 in label b) - (x_5 in label j), so it leaves
    GF(p) exactly when e is odd.  With model scalar nu_5 = r too every
    ratio is 1 and the pass holds; with model scalars 1 it refuses the
    first product with an odd e.  A 3 e_(5,) term added to the first
    product that needs a bracket, an earlier one whose own ratios are
    all 1, is a coefficient of ratio 1/r there: that product is
    refused."""
    alg, mats = b5
    ctx = certify.ScaledContext(alg, GF2)
    labels = labels_of("B", 5)
    side = [certify.Scaled(GF2.root if k == 5 else GF2.one, m)
            for k, m in enumerate(mats, start=1)]
    assert certify._check_side(ctx, side, labels, "B5",
                               (ctx, side, "model"))[1].rank == len(labels)

    def refused():
        with pytest.raises(StructureMismatch) as info:
            certify._check_side(ctx, side, labels, "B5",
                                (ctx, mats, "model"))
        return str(info.value)

    images, _, span = certify._independent_images(alg, mats, labels, "B5")

    def column(k, b):
        return span.sparse_coords(alg.vector(alg.bracket(mats[k - 1],
                                                         images[b])))

    products = _products(labels, 5)
    k, b = next((k, b) for k, b in products if any(
        ((k == 5) + labels[b].count(5) - labels[j].count(5)) % 2
        for j in column(k, b)))
    assert refused() == (
        f"B5 vs model: bracket tables differ at generator product ({k},{b})")
    k0, b0 = products[0]
    assert (k0, b0) < (k, b) and k0 != 5
    assert all(5 not in labels[j] for j in (b0, *column(k0, b0)))
    _perturbed_solve(monkeypatch, 0, lambda col: F.axpy(
        col, F(-3).v, {labels.index((5,)): F.one.v}))
    assert refused() == (
        f"B5 vs model: bracket tables differ at generator product "
        f"({k0},{b0})")


def test_catalog_table_rejects_a_bracket_outside_the_span(b5):
    """With the catalog cut to the singletons, [x_1, x_2] leaves their
    span: a side pass refuses it by name, by membership when the side
    is its own model and by its coordinate solve otherwise."""
    alg, mats = b5
    ctx = certify.ScaledContext(alg)
    for model in (None, (ctx, mats, "model")):
        with pytest.raises(StructureMismatch,
                           match="^first: bracket leaves the span$"):
            certify._check_side(ctx, mats, [(i,) for i in range(1, 6)],
                                "first", model)


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
    """A side pass brackets exactly n * dim times on its side (225 for
    D5), not once per pair (990): dim - n brackets for the images and
    one for each of the n * dim - (dim - n) products that are not a
    catalog label.  A model checked in the same pass takes as many on
    its own matrices, and a side's images alone take dim - n."""
    alg, mats = d5
    n, dim = 5, expected_catalog_size("D", 5)
    labels = labels_of("D", 5)
    model = MatrixLieAlgebra(F, alg.ambient_dim, [], mats)
    calls = {"side": 0, "model": 0}

    def counted(name, bracket):
        def wrapper(a, b):
            calls[name] += 1
            return bracket(a, b)
        return wrapper

    for name, ctx in (("side", alg), ("model", model)):
        monkeypatch.setattr(ctx, "bracket", counted(name, ctx.bracket))
    side = certify.ScaledContext(alg)
    certify._check_side(side, mats, labels, "D5")
    assert calls == {"side": n * dim, "model": 0}
    certify._check_side(side, mats, labels, "D5",
                        (certify.ScaledContext(model), mats, "model"))
    assert calls == {"side": 2 * n * dim, "model": n * dim}
    certify._independent_images(model, mats, labels, "model")
    assert calls["model"] == n * dim + dim - n
    assert len(_products(labels, n)) == n * dim - (dim - n) == 185


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


def _scan_composed_map(t_b1, t_b2, glue):
    """The composed map b1_i -> phi_i = sum_a G_ia b2_a, G the sparse
    payload glue rows, checked on the tables pair by pair, i < j in
    order.  It intertwines the brackets at (i, j) when, in
    b2-coordinates,

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
    """For each family of `SMALL` over GF(p): the closure, the catalog
    images, their span and table, the images and table of the reordered
    generators, and the relabelling glue."""
    out = {}
    for family, n in SMALL:
        params = {"B": (1,), "D": (2, 3)}.get(family, ())
        alg, mats = closure_of(family, n, params)
        images, span, table = table_of(family, n, alg, mats)
        order = (PERMUTED[family][:n] if family != "C"
                 else list(range(n - 1, -1, -1)))
        moved, _, permuted = table_of(family, n, alg,
                                      [mats[i] for i in order])
        relabel = [span.sparse_coords(alg.vector(img)) for img in moved]
        out[family] = alg, (images, span, table), (moved, permuted), relabel
    return out


@pytest.mark.parametrize("family,n,kind", _glue_cases(),
                         ids=[f"{f}{n}-{k}" for f, n, k in _glue_cases()])
def test_composed_map_agrees_with_the_pair_scan(glue_tables, family, n,
                                                kind):
    """The pair scan on the tables, the reference the end-to-end
    witness below uses, finds the same first failing pair as direct
    matrix brackets on the composed map b1_i -> phi_i = sum_a G_ia b2_a,
    phi formed as matrices, and None exactly when it intertwines every
    pair: for the identity glue, and for A, C and D, whose reordering is
    a graph automorphism, for the other two."""
    alg, (images, span, table), (moved, permuted), relabel = \
        glue_tables[family]
    dim = table.dim
    one = F.one.v
    basis2, t_b2, glue = images, table, [{i: one} for i in range(dim)]
    if kind == "permuted":
        basis2, t_b2 = moved, permuted
    elif kind == "relabelled":
        glue = relabel
    elif kind != "identity":
        glue[kind] = {kind: one, (kind + 5) % dim: F(3).v}
    phi = [alg.lincomb([(FieldElement(F, c), basis2[a])
                        for a, c in row.items()]) for row in glue]
    bad = _scan_composed_map(table, t_b2, glue)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    assert bad == _first_bad_pair(alg, images, span, phi, pairs)
    assert (bad is None) == (kind == "identity" or family != "B"
                             and kind in ("permuted", "relabelled"))


@pytest.mark.parametrize("family,params1,params2",
                         [("B", (1,), (2,)), ("D", (2, 3), (4, 8))],
                         ids=["B5", "D5"])
def test_match_closes_no_model(family, params1, params2, monkeypatch):
    alg1, mats1 = closure_of(family, 5, params1)
    alg2, mats2 = closure_of(family, 5, params2)
    closures = []
    grow = linalg.bracket_closure
    monkeypatch.setattr(linalg, "bracket_closure",
                        lambda *a: closures.append(1) or grow(*a))
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
                                            psi(family, ctx, gens), F)
    closure = lie_closure([g.a for g in model], mctx.base.field)
    assert closure.dim == expected_catalog_size(family, n)


def test_random_element_draws_exactly_dim_values():
    alg = classical_of("B", 5, (1,))
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
    and f(x,[y,[x,z]]).  The generator x squares to zero, so the matrix
    context reads the four values from its rank factors: 6 calls (11
    when each value added the brackets of its definition on top of one
    already formed, 14 when every value formed both of its own)."""
    alg = classical_of("A", 4)
    mats = alg.generators_list
    rng = random.Random(4)
    y, z = certify._random_element(alg, rng), certify._random_element(alg, rng)
    calls = []
    bracket = alg.bracket
    monkeypatch.setattr(alg, "bracket",
                        lambda a, b: calls.append((a, b)) or bracket(a, b))
    flags = check_premet(alg, mats[0], y, z)
    assert all(flags.values())
    assert len(calls) == 6


def test_quartic_identities_bracket_each_product_once(monkeypatch):
    """Q3/Q3a need six direct brackets: [xk,t], y = [xl,xm], [y,[xk,t]],
    the left side [xk,[y,[xk,t]]], [xk,y] and [y,t].  The generator xk
    squares to zero, so the matrix context reads the form values
    f(xk,t), f(xk,y) and f(xk,[y,t]) from its rank factors: 6 calls (9
    when each value added a bracket to [xk,t], [xk,y] and a Jacobi sum
    for [xk,[y,t]], 14 when the left side was the two three-bracket
    chains m1 - m2, 16 when every form value formed its own first
    bracket)."""
    alg = classical_of("A", 4)
    mats = alg.generators_list
    rng = random.Random(3)
    t, u = certify._random_element(alg, rng), certify._random_element(alg, rng)
    calls = []
    bracket = alg.bracket
    monkeypatch.setattr(alg, "bracket",
                        lambda a, b: calls.append((a, b)) or bracket(a, b))
    flags = certify.check_quartic_identities(alg, mats[0], mats[1], mats[2],
                                             t, u)
    assert flags == {"Q3": True, "Q3a": True}
    assert len(calls) == 6


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
    """The family's classical algebra over QQ, GF(p) or GF(p^2)."""
    return classical_of(family, n, params, KERNEL_FIELDS[name])


@pytest.mark.parametrize("name", ["QQ", "GF(p)", "GF(p)(rt d)"])
@pytest.mark.parametrize("family,n,params", QUARTIC_FAMILIES,
                         ids=lambda v: str(v))
def test_quartic_identities_match_the_six_bracket_expansion(
        monkeypatch, family, n, params, name):
    """On random elements (xk a random combination, which is not
    extremal, or a generator), the Jacobi-reduced left side
    [xk,[y,[xk,t]]] is m1 - m2 entry for entry, [[xk,y],t] + [y,[xk,t]]
    is [xk,[y,t]], and check_quartic_identities forms the left side and
    [y,t] (read off its brackets) and gives the flags, or the
    NotExtremal, of the literal six-bracket evaluation."""
    alg = quartic_context(family, n, params, name)
    gens = alg.generators_list
    rng = random.Random(f"{family}{n}{name}")

    def element():
        return random_combination(alg, rng)

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
        assert any(same(a, y) and same(b, t) for a, b in formed)


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


@pytest.mark.parametrize("family,n", [("A", 5), ("C", 6)])
def test_a_and_c_sides_are_their_own_models(family, n, monkeypatch):
    """An A or C side is its own model: each side's catalog images are
    built once and no model check runs.  An exp-conjugated side 2 lies
    in sl_N or in the standard sp(G), which bounds its closure and
    proves its span closed with no pass."""
    sides = _exp_conjugated(family, n)
    images, passes = [], []
    catalog_images, check_side = certify._catalog_images, certify._check_side
    monkeypatch.setattr(certify, "_catalog_images",
                        lambda *a: images.append(1) or catalog_images(*a))
    monkeypatch.setattr(certify, "_check_side",
                        lambda *a: passes.append(a[3:]) or check_side(*a))
    assert match_algebras(*sides, family).verdict == "pass"
    assert len(images) == 2
    assert passes == []


def test_a_side_2_span_that_is_not_closed_is_refused(monkeypatch):
    """Side 2's table is the one closure proof a match runs when side 2
    is its own model.  With the catalog cut to the singletons (k,),
    B5 gamma 1 matched with itself has independent images, equal models
    and equal normal forms, yet [x_1, x_2] leaves their span: side 2's
    table refuses it."""
    monkeypatch.setattr(certify, "catalog", lambda *a: [
        e for e in catalog(*a) if len(e.indices) == 1])
    alg, mats = closure_of("B", 5, (1,))
    with pytest.raises(StructureMismatch,
                       match="^side 2: bracket leaves the span$"):
        match_algebras(alg, mats, alg, mats, "B")


def test_dependent_side_images_name_the_side():
    """D6 over GF(5) at (1,3) has dependent catalog images (closure and
    catalog rank 50 of 66), while (0,3) passes: the match names side
    2."""
    gf5 = PrimeField(5)
    sides = []
    for params in ((0, 3), (1, 3)):
        mats, _ = build_generators("D", 6, gf5, tuple(gf5(p) for p in params))
        sides += [MatrixLieAlgebra(gf5, len(mats[0]), [], mats), mats]
    with pytest.raises(StructureMismatch,
                       match="^side 2: catalog images are dependent$"):
        match_algebras(*sides, "D")


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
    """Side 2 is checked against its model first, so it is the one that
    fails."""
    alg, mats = _wrong_models(monkeypatch, 2)
    with pytest.raises(StructureMismatch, match="^side 2 vs model: "):
        match_algebras(alg, mats, alg, mats, "B")


def test_a_wrong_model_for_side_1_fails_side_1(monkeypatch):
    """Side 2 matches its model, so only the side 1 check can find that
    side 1 does not match its model."""
    alg, mats = _wrong_models(monkeypatch, 1)
    with pytest.raises(StructureMismatch, match="^side 1 vs model: "):
        match_algebras(alg, mats, alg, mats, "B")


def test_a_candidate_outside_the_sides_field_is_skipped(monkeypatch):
    """A model is built over the sides' field only.  With `solve_param_B`
    giving gamma = rt d, the root the B5 normal forms adjoin, in
    GF(p)(rt d) but not in GF(p), the one candidate is skipped: the
    match raises FormMismatch and builds no matrix context over the
    extension."""
    sides = _param_pair("B", 5, F, (1,), (2,))

    def outside(f_long, n):
        assert isinstance(f_long.field, QuadraticExtension)
        return f_long.field.root

    fields = []
    init = MatrixLieAlgebra.__init__
    monkeypatch.setattr(certify, "solve_param_B", outside)
    monkeypatch.setattr(MatrixLieAlgebra, "__init__", lambda self, field, *a:
                        fields.append(field) or init(self, field, *a))
    with pytest.raises(FormMismatch, match="^no solved parameter candidate"):
        match_algebras(*sides, "B")
    assert all(field.same(F) for field in fields)


def _degenerate_model(monkeypatch, call):
    """Make the `call`-th `_rebuild_model` (1 for model 1, 2 for model
    2) return zero generators, and match B5 gamma = 1 with itself."""
    rebuild = certify._rebuild_model
    calls = []

    def degenerate(*args):
        params, ctx, gens = rebuild(*args)
        calls.append(1)
        if len(calls) == call:
            gens = [ctx.lincomb([(0, g)]) for g in gens]
        return params, ctx, gens

    monkeypatch.setattr(certify, "_rebuild_model", degenerate)
    return closure_of("B", 5, (1,))


def test_dependent_model_images_are_refused(monkeypatch):
    """Model 1's images must be independent for the glue matrix to be
    invertible: the side 1 check refuses dependent model 1 images by
    name."""
    alg, mats = _degenerate_model(monkeypatch, 1)
    with pytest.raises(StructureMismatch,
                       match="^model 1: catalog images are dependent$"):
        match_algebras(alg, mats, alg, mats, "B")


def test_dependent_model_2_images_are_refused(monkeypatch):
    """The side 2 check refuses dependent model 2 images by name."""
    alg, mats = _degenerate_model(monkeypatch, 2)
    with pytest.raises(StructureMismatch,
                       match="^model 2: catalog images are dependent$"):
        match_algebras(alg, mats, alg, mats, "B")


def _conjugated(family, n, params, seed=0):
    """The generators and their conjugates P g P^-1 by a random
    invertible P over GF(p): an isomorphic realization in other
    coordinates."""
    mats, _ = build_generators(family, n, F, tuple(F(p) for p in params))
    return mats, _conjugator(len(mats[0]), seed)(mats)


def _conjugator(size, seed=0):
    """The map sending a list of size x size matrices over GF(p) to
    their conjugates P g P^-1, for one random invertible P."""
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

    return lambda mats: [mul(mul(p, m), p_inv) for m in mats]


CONJUGATED = [
    ("A", 5, ()), ("B", 5, (1,)), ("D", 5, (2, 3)),
    pytest.param("C", 6, (), marks=pytest.mark.xfail(
        strict=True, raises=StructureMismatch,
        reason="ROADMAP item 10: an A or C side is its own model, so "
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


#: the (side, model) of each `_check_side` call of a match whose two
#: sides are checked against their models
BOTH_CHECKED = [("side 2", "model 2"), ("side 1", "model 1")]


@pytest.mark.parametrize("family,n,params,passes", [
    ("A", 5, (), []), ("B", 5, (1,), BOTH_CHECKED),
    ("C", 6, (), [("side 2", None)]), ("D", 5, (2, 3), BOTH_CHECKED),
], ids=["A5", "B5", "C6", "D5"])
def test_a_side_outside_the_standard_algebra_takes_the_membership_pass(
        family, n, params, passes, monkeypatch):
    """`_exp_conjugated`'s two sides, conjugated again by one random
    invertible P, are a pair in other coordinates that share one matrix
    span.  A C side 2 is its own model but leaves the standard sp(G),
    so the classical bound fails and its one pass, with no model,
    proves its span closed.  An A side 2 stays traceless, so sl_N
    still proves it; B and D sides are checked against their models,
    side 2 first."""
    alg, mats, _, conj = _exp_conjugated(family, n, params=params)
    move = _conjugator(len(mats[0]))
    sides = [move([alg.external(g) for g in gs]) for gs in (mats, conj)]
    calls = []
    check_side = certify._check_side
    monkeypatch.setattr(certify, "_check_side", lambda *a: calls.append(
        (a[3], a[4] and a[4][2])) or check_side(*a))
    cert = match_algebras(lie_closure(sides[0], F), sides[0],
                          lie_closure(sides[1], F), sides[1], family)
    assert cert.verdict == "pass"
    assert calls == passes


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


def _conjugated_sides(family, n, params):
    """The closures and generators of `_conjugated`'s two sides."""
    mats, conj = _conjugated(family, n, params)
    return lie_closure(mats, F), mats, lie_closure(conj, F), conj


RESCALE_CASES = {
    "A5-conj": lambda: ("A", _exp_conjugated("A", 5)),
    "B5": lambda: ("B", _param_pair("B", 5, F, (1,), (2,))),
    "B5-conj": lambda: ("B", _conjugated_sides("B", 5, (1,))),
    "C6-conj": lambda: ("C", _exp_conjugated("C", 6)),
    "D5": lambda: ("D", _param_pair("D", 5, F, (2, 3), (4, 8))),
    "D5-QQ": lambda: ("D", _param_pair("D", 5, QQ, (2, 3), (4, 8))),
}

#: the sides each case checks against a model, in order.  A side that is
#: its own model is checked against none: every A or C side, both B5
#: gamma sides, side 1 of B5-conj and side 2 of D5, (4,8) rebuilt at
#: (4,8), while D5's side 1, (2,3), rebuilds at (0,15)
MODEL_CHECKS = {
    "A5-conj": [], "B5": [], "B5-conj": ["side 2"], "C6-conj": [],
    "D5": ["side 1"], "D5-QQ": ["side 1"],
}


@pytest.mark.parametrize("name", list(RESCALE_CASES))
def test_match_tables_side_1_only_when_it_is_checked(name, monkeypatch):
    """Side 2 gets a pass when it is checked against its model
    (`MODEL_CHECKS`); as its own model it is proved by its family's
    standard algebra, sl_N, o(G) or sp(G), with no pass.  Side 1 gets
    one only when it is checked against its model, and no model gets
    one of its own."""
    family, sides = RESCALE_CASES[name]()
    passes, bounds = [], []
    check_side, bound = certify._check_side, certify._classical_bound
    monkeypatch.setattr(certify, "_check_side",
                        lambda *a: passes.append(a[3]) or check_side(*a))
    monkeypatch.setattr(certify, "_classical_bound",
                        lambda *a: bounds.append(bound(*a)) or bounds[-1])
    assert match_algebras(*sides, family).verdict == "pass"
    checked = "side 2" in MODEL_CHECKS[name]
    assert bounds == ([] if checked else [True])
    assert passes == MODEL_CHECKS[name]


def _recorded_match(monkeypatch, family, sides):
    """Run the match with its normal forms, rebuilt models and model
    checks recorded.  Returns (cert, forms, models, checks): the sides'
    normal forms, the models' (the sides' for A and C), and the
    arguments of each `_check_side` call with a model, in order."""
    forms, models, checks = [], [], []
    normalize, rebuild = certify.normalize_generators, certify._rebuild_model
    check = certify._check_side
    monkeypatch.setattr(certify, "normalize_generators",
                        lambda *a: forms.append(normalize(*a)) or forms[-1])
    monkeypatch.setattr(certify, "_rebuild_model",
                        lambda *a: models.append(rebuild(*a)) or models[-1])

    def recorded(*a):
        if a[4] is not None:
            checks.append(a)
        return check(*a)

    monkeypatch.setattr(certify, "_check_side", recorded)
    cert = match_algebras(*sides, family)
    # a rebuild normalises its candidates too: the sides come first
    return (cert, forms[:2], [m[1:] for m in models] if models else
            forms[:2], checks)


def _direct_glue(models, field, labels):
    """The glue solved directly on the models' generators lambda_k y_k
    materialised over `field`: the coordinates of model 1's catalog
    images in model 2's, as sparse payload rows."""
    ctx1, m1 = _materialised(*models[0], field)
    ctx2, m2 = _materialised(*models[1], field)
    span = linalg.SpanSolver(field, ctx2.vector_dim)
    for img in certify._catalog_images(ctx2, m2, labels):
        assert span.add(ctx2.vector(img))
    return [span.sparse_coords(ctx1.vector(img))
            for img in certify._catalog_images(ctx1, m1, labels)]


def _formatted(field, glue):
    """Sparse glue rows as a certificate's `basis_map`."""
    return [[str(v) for v in linalg.dense(field, row, len(glue))]
            for row in glue]


def _rescaled(table, gens, field):
    """The left multiplications over `field` of the normal-form
    generators lambda_k y_k from `table`, the `CombTable` of the y_k:
    T(k,b)_j = lambda_k mu_b / mu_j T_base(k,b)_j, mu_b the product of
    the lambda along label b."""
    up = tower_maps(table.field, field)[0]
    lam = [lift_element(g.c, field) for g in gens]
    mu = [math.prod((lam[k - 1] for k in lab), start=field.one)
          for lab in table.labels]
    return [[{j: (lk * mu[b] / mu[j] * FieldElement(field, up(c))).v
              for j, c in col.items()} for b, col in enumerate(lm)]
            for lk, lm in zip(lam, table.leftmult)]


@pytest.mark.parametrize("name", list(RESCALE_CASES))
def test_rescaled_tables_and_glue_equal_the_extension_ones(name,
                                                           monkeypatch):
    """The reference for the rescale.  Each side a B or D match checks
    against a model is checked through the base table of its y_k, with
    the ratio rule of `_check_side`; rescaled here by the side's
    scalars into the model's field, that table equals the table of the
    side's generators lambda_k y_k materialised over that field, both
    built by the comb recursion from direct brackets: side 2's over
    model 2's field (B5-conj), side 1's over model 1's (D5, D5-QQ).
    The certificate's `basis_map` is the glue solved directly on the
    models' generators materialised over the field the match reached
    (GF(p^2), QQ(rt 1/8)(rt -64), GF(p) for C6).  A side that is its
    own model runs no check (`MODEL_CHECKS`), so only its glue is
    compared."""
    family, sides = RESCALE_CASES[name]()
    cert, forms, models, checks = _recorded_match(monkeypatch, family, sides)
    top = models[1][0].field
    assert cert.verdict == "pass" and cert.field == str(top)
    assert ("rt" in cert.field) == (name != "C6-conj")
    n = cert.n
    assert [a[3] for a in checks] == MODEL_CHECKS[name]
    for ctx, side, labels, check, (mctx, _, _) in checks:
        form = forms[int(check[5]) - 1]
        assert ctx is form[0] and side is form[1]
        assert labels == labels_of(family, n)
        base = table_of(family, n, ctx.base, [g.a for g in side])[2]
        direct = table_of(family, n,
                          *_materialised(ctx, side, mctx.field))[2]
        assert _rescaled(base, side, mctx.field) == direct.leftmult
    assert cert.basis_map == _formatted(
        top, _direct_glue(models, top, labels_of(family, n)))


WITNESS_CASES = ["A5-conj", "C6-conj", "B5", "B5-conj", "D5"]


@pytest.mark.parametrize("name", WITNESS_CASES)
def test_the_certificate_map_intertwines_the_side_tables(name,
                                                         monkeypatch):
    """End to end over GF(p): the certificate's map b1_i -> sum_a G_ia
    b2_a, G its `basis_map`, intertwines the brackets of the two sides'
    tables, built directly on their generators lambda_k y_k over the
    certificate's field, on every pair (`_scan_composed_map`).  With one
    glue row perturbed, 3 b2_5 added to the image of x_1, it does
    not."""
    family, sides = RESCALE_CASES[name]()
    cert, forms, models, _ = _recorded_match(monkeypatch, family, sides)
    top = models[1][0].field
    labels = labels_of(family, cert.n)
    glue = _direct_glue(models, top, labels)
    assert cert.basis_map == _formatted(top, glue)
    t_b1, t_b2 = (table_of(family, cert.n,
                           *_materialised(ctx, gens, top))[2]
                  for ctx, gens in forms)
    assert _scan_composed_map(t_b1, t_b2, glue) is None
    glue[0] = dict(glue[0])
    top.axpy(glue[0], top(-3).v, {5: top.one.v})
    assert _scan_composed_map(t_b1, t_b2, glue) is not None


def test_the_extension_holds_scalars_only(monkeypatch):
    """No vector work runs in a quadratic extension: with its `axpy`
    failing the test, a B5 gamma 1 vs 2, a D5 (2,3) vs (4,8) and an
    A5-conj match over GF(p), each ending over GF(p^2), pass, and so
    does `certify_family` D5."""
    def refuse(*args):
        raise AssertionError("axpy over a quadratic extension")

    monkeypatch.setattr(QuadraticExtension, "axpy", refuse)
    for name in ("B5", "D5", "A5-conj"):
        family, sides = RESCALE_CASES[name]()
        cert = match_algebras(*sides, family)
        assert cert.verdict == "pass" and "rt" in cert.field
    assert certify_family("D", 5, (2, 3), F).verdict == "pass"


@pytest.mark.parametrize("name", WITNESS_CASES)
def test_b_and_d_matches_check_side_2_then_side_1(name, monkeypatch):
    """A B or D match checks side 2 against model 2, then side 1 against
    model 1, each only when the side is not its own model: B5 gamma 1
    vs 2 runs no check, B5-conj checks side 2 and D5 (2,3) vs (4,8)
    side 1.  An A or C match, each side its own model, runs none."""
    family, sides = RESCALE_CASES[name]()
    checks = _recorded_match(monkeypatch, family, sides)[3]
    assert [(a[3], a[4][2]) for a in checks] == [
        (side, "model " + side[5]) for side in MODEL_CHECKS[name]]


def test_a_model_with_a_doubled_scalar_is_checked(monkeypatch):
    """Equal base matrices do not make a side its own model: with model
    1's first scalar doubled, side 1 of B5 gamma 1 vs 2 is checked and
    refused."""
    rebuild = certify._rebuild_model
    calls = []

    def doubled(*args):
        params, ctx, gens = rebuild(*args)
        calls.append(1)
        if len(calls) == 1:
            gens = [certify.Scaled(gens[0].c * 2, gens[0].a)] + gens[1:]
        return params, ctx, gens

    monkeypatch.setattr(certify, "_rebuild_model", doubled)
    sides = _param_pair("B", 5, F, (1,), (2,))
    with pytest.raises(StructureMismatch, match=r"^side 1 vs model: bracket "
                       r"tables differ at generator product \(\d+,\d+\)$"):
        match_algebras(*sides, "B")


@pytest.mark.parametrize("family,n,field,params1,params2", [
    ("B", 5, F, (1,), (2,)), ("B", 5, F, (1,), (3,)),
    ("B", 6, PrimeField(101), (1,), (2,)), ("D", 5, F, (4, 8), (1, 8)),
], ids=["B5-1-2", "B5-1-3", "B6-GF101", "D5-48-18"])
def test_checking_every_side_gives_the_same_certificate(
        family, n, field, params1, params2, monkeypatch):
    """The differential test of `_own_model`: with no side its own
    model, so that both model checks run, each certificate equals the
    default one, which skips at least one check."""
    sides = _param_pair(family, n, field, params1, params2)
    checks = []
    check = certify._check_side

    def recorded(*a):
        if a[4] is not None:
            checks.append(a[3])
        return check(*a)

    monkeypatch.setattr(certify, "_check_side", recorded)
    default = match_algebras(*sides, family)
    assert len(checks) < 2
    checks.clear()
    monkeypatch.setattr(certify, "_own_model", lambda *a: False)
    assert match_algebras(*sides, family) == default
    assert checks == ["side 2", "side 1"]


#: the conjugation scalars of the benchmark's A5 match job and the gamma
#: pairs of its B5 job (A_SCALARS and B_GAMMAS of perfbench/workloads.py)
A_SCALARS = ((3, -2), (2, 5), (-4, 7), (6, -5))
B_GAMMAS = ((1, 2), (1, 3), (1, 4), (1, 6))

#: entry 0 of each pool is a `RESCALE_CASES` case, A5-conj or B5
BOUND_CASES = {
    **RESCALE_CASES,
    **{"A5-conj({},{})".format(*s): functools.partial(
        lambda s: ("A", _exp_conjugated("A", 5, s)), s)
       for s in A_SCALARS[1:]},
    **{"B5({},{})".format(*g): functools.partial(
        lambda g: ("B", _param_pair("B", 5, F, g[:1], g[1:])), g)
       for g in B_GAMMAS[1:]},
}


def _outcomes_with_and_without_bound(monkeypatch, family, sides):
    """(default, forced, proved): the match's outcome, its outcome with
    `_classical_bound` refusing every side, so that an own-model side 2
    takes the membership pass, and how many sides the bound proved in
    the default run.  An outcome is the certificate, or the type and
    message of the refusal."""
    proved, outcomes = [], []
    bound = certify._classical_bound
    for patch in (lambda *a: proved.append(bound(*a)) or proved[-1],
                  lambda *a: False):
        monkeypatch.setattr(certify, "_classical_bound", patch)
        try:
            outcomes.append(match_algebras(*sides, family))
        except (CertifyError, HypothesisFailed) as exc:
            outcomes.append((type(exc), str(exc)))
    monkeypatch.undo()
    return (*outcomes, sum(proved))


@pytest.mark.parametrize("name", list(BOUND_CASES))
def test_the_classical_bound_gives_the_certificate_of_the_pass(
        name, monkeypatch):
    """The differential test of `_classical_bound`: with it refusing,
    every side 2 that is its own model takes the membership pass, and
    each certificate equals the default one, in which the bound proves
    every own-model side 2 (not a side 2 checked against its model)."""
    family, sides = BOUND_CASES[name]()
    default, forced, proved = _outcomes_with_and_without_bound(
        monkeypatch, family, sides)
    assert default.verdict == "pass" and forced == default
    checked = "side 2" in MODEL_CHECKS.get(name, [])
    assert proved == (not checked)


#: sides over GF(7) and GF(11), as (family, params) of their standard
#: generators, whose ordered pairs include certificates and refusals: a
#: D generator set matched as a B side gives f_long = 8 or dependent
#: images, D5 (2,1) over GF(7) and (2,2) over GF(11) solve to no
#: parameter, and D5 (1,3) has dependent images over both fields,
#: refused on side 2 before the bound and on side 1 after it
SMALL_PRIME_SIDES = {
    ("B", 7): [("B", (1,)), ("B", (2,)), ("D", (2, 3)), ("D", (1, 3))],
    ("B", 11): [("B", (1,)), ("B", (9,)), ("D", (2, 3)), ("D", (1, 3))],
    ("D", 7): [("D", (0, 1)), ("D", (2, 3)), ("D", (1, 3)), ("D", (2, 1))],
    ("D", 11): [("D", (0, 1)), ("D", (2, 3)), ("D", (1, 3)), ("D", (2, 2))],
}


@pytest.mark.parametrize("family,p", list(SMALL_PRIME_SIDES),
                         ids=lambda v: str(v))
def test_small_prime_matches_do_not_depend_on_the_classical_bound(
        family, p, monkeypatch):
    """Every ordered pair of `SMALL_PRIME_SIDES` gives the same
    certificate, or the same refusal type and message, with
    `_classical_bound` refusing every side as with it on; the bound
    proves side 2 in some pairs, and some pairs are refused."""
    field = PrimeField(p)
    sides = []
    for fam, params in SMALL_PRIME_SIDES[family, p]:
        mats, _ = build_generators(fam, 5, field,
                                   tuple(field(x) for x in params))
        sides.append((MatrixLieAlgebra(field, len(mats[0]), [], mats), mats))
    kinds, proved = set(), 0
    for side1, side2 in itertools.product(sides, repeat=2):
        default, forced, count = _outcomes_with_and_without_bound(
            monkeypatch, family, side1 + side2)
        assert forced == default
        kinds.add(type(default))
        proved += count
    assert kinds == {certify.MatchCertificate, tuple} and proved


def _bound_arguments(monkeypatch, name):
    """The arguments of the one `_classical_bound` call of the match of
    `RESCALE_CASES[name]`."""
    family, sides = RESCALE_CASES[name]()
    calls = []
    bound = certify._classical_bound
    monkeypatch.setattr(certify, "_classical_bound",
                        lambda *a: calls.append(a) or bound(*a))
    match_algebras(*sides, family)
    monkeypatch.undo()
    (args,) = calls
    return args


@pytest.mark.parametrize("name", ["A5-conj", "B5", "C6-conj", "D5"])
def test_the_classical_bound_fails_when_a_condition_fails(name,
                                                          monkeypatch):
    """The bound holds for side 2 as the match forms it, and fails when
    one of its conditions does: the dimension one off, or one base
    generator y_k plus the identity, for each k in turn, which has
    trace N != 0 (A) and leaves o(G) or sp(G), X = 1 giving
    X^T G + G X = 2G (B, C, D)."""
    family, ctx, gens, dim = _bound_arguments(monkeypatch, name)
    bound = certify._classical_bound
    assert bound(family, ctx, gens, dim)
    assert not bound(family, ctx, gens, dim - 1)
    assert not bound(family, ctx, gens, dim + 1)
    base, one = ctx.base, ctx.base.field.one
    unit = tuple({i: one.v} for i in range(base.ambient_dim))
    for k, g in enumerate(gens):
        moved = list(gens)
        moved[k] = certify.Scaled(g.c, base.lincomb([(one, g.a),
                                                     (one, unit)]))
        assert not bound(family, ctx, moved, dim)

