import random

import pytest

from conftest import random_element, random_vector
from extremal_lie.extremal import (HypothesisFailed, NotProportional,
                                   check_premet, classify_pair, exp_ad,
                                   extremal_form_value, fixtriangle,
                                   is_extremal, proportionality,
                                   subalgebra_closure_dim, triangle_open)
from extremal_lie.fields import (DEFAULT_PRIME, DescriptorMismatch,
                                 FieldElement, PrimeField)
from extremal_lie.graphs import build_family_graph
from extremal_lie.presentation import build_L0
from extremal_lie.realizations import (MatrixLieAlgebra, build_generators,
                                       lie_closure, transvection)

F = PrimeField(DEFAULT_PRIME)


@pytest.fixture(scope="module")
def sl5():
    mats, _ = build_generators("A", 5, F)
    return lie_closure(mats, F), mats


def test_generators_are_extremal(sl5):
    alg, mats = sl5
    for g in mats:
        ok, cert = is_extremal(alg, g)
        assert ok and len(cert.values) == alg.dim


def test_generic_element_is_not_extremal(sl5):
    alg, mats = sl5
    h = alg.lincomb([(1, mats[0]), (1, mats[2])])  # non-commuting sum is not extremal
    ok, cert = is_extremal(alg, h)
    assert not ok and cert is None


def test_proportionality(sl5):
    alg, mats = sl5
    assert proportionality(alg, mats[0],
                           alg.lincomb([(F(7), mats[0])])) == F(7)
    assert proportionality(alg, mats[0], alg.lincomb([])) == F(0)
    with pytest.raises(NotProportional):
        proportionality(alg, mats[0], mats[1])
    G = PrimeField(101)
    other = [[G(x.v) for x in row] for row in mats[0]]
    for x, w in ((mats[0], other), (other, mats[0])):
        with pytest.raises(DescriptorMismatch):
            proportionality(alg, x, w)


def _reference_proportionality(x, w):
    """The FieldElement scan over flattened x and w."""
    t = next((b / a for a, b in zip(x, w) if not a.is_zero()), None)
    if t is None:
        raise ValueError("x is zero")
    if any(not (b - t * a).is_zero() for a, b in zip(x, w)):
        raise NotProportional("element is not a multiple of x")
    return t


def _flat(ctx, a):
    return [x for row in ctx.external(a) for x in row]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def test_proportionality_matches_reference(kernel_field):
    K, n = kernel_field, 3
    ctx = MatrixLieAlgebra(K, n, [], [])
    rng = random.Random(29)
    for _ in range(40):
        x = [random_vector(K, rng, n) for _ in range(n)]
        w = ctx.lincomb([(random_element(K, rng), x)])
        moved = ctx.external(w)
        i, j = rng.randrange(n), rng.randrange(n)
        moved[i][j] = moved[i][j] + K.one
        other = [random_vector(K, rng, n) for _ in range(n)]
        zero = ctx.lincomb([])
        for x_, w_ in ((x, w), (x, moved), (x, other), (x, zero),
                       (zero, w)):
            got = _outcome(proportionality, ctx, x_, w_)
            want = _outcome(_reference_proportionality, _flat(ctx, x_),
                            _flat(ctx, w_))
            assert got == want
            if isinstance(want, FieldElement):
                assert got.field is K


def test_extremal_form_against_calibrated_trace(sl5):
    alg, mats = sl5
    for g in mats:
        for b in alg.basis():
            assert extremal_form_value(alg, g, b) == alg.form(g, b)


def test_exp_ad_is_an_automorphism(sl5):
    alg, mats = sl5
    rng = random.Random(0)
    a = mats[1]
    t = F(5)
    for _ in range(10):
        u = alg.from_coords([F(rng.randint(-3, 3))
                             for _ in range(alg.dim)])
        v = alg.from_coords([F(rng.randint(-3, 3))
                             for _ in range(alg.dim)])
        lhs = exp_ad(alg, t, a, alg.bracket(u, v))
        rhs = alg.bracket(exp_ad(alg, t, a, u), exp_ad(alg, t, a, v))
        assert lhs == rhs


def test_exp_ad_requires_nilpotency(sl5):
    alg, mats = sl5
    h = alg.bracket(mats[0], mats[1])  # acts semisimply on the pair
    with pytest.raises(HypothesisFailed):
        exp_ad(alg, F(1), h, mats[0])


def test_classify_pair_kinds(sl5):
    alg, mats = sl5
    e = lambda i: [F(1) if k == i else F(0) for k in range(5)]
    x = transvection(e(0), e(1))
    assert classify_pair(alg, x, alg.lincomb([(F(3), x)])) == "Proportional"
    assert classify_pair(alg, x, transvection(e(2), e(3))) == "Abelian2"
    assert classify_pair(alg, x, transvection(e(1), e(2))) == "Heisenberg"
    assert classify_pair(alg, x, transvection(e(1), e(0))) == "Sl2"


def test_subalgebra_closure_dims(sl5):
    alg, mats = sl5
    e = lambda i: [F(1) if k == i else F(0) for k in range(5)]
    x = transvection(e(0), e(1))
    y = transvection(e(1), e(0))
    assert subalgebra_closure_dim(alg, [x]) == 1
    assert subalgebra_closure_dim(alg, [x, y]) == 3


@pytest.mark.parametrize("family,n,params", [
    ("A", 5, ()), ("C", 6, ()), ("B", 5, (1,))])
def test_subalgebra_closure_dim_matches_lie_closure(family, n, params):
    mats, _ = build_generators(family, n, F, tuple(F(p) for p in params))
    alg = lie_closure(mats, F)
    assert subalgebra_closure_dim(alg, mats) == alg.dim


def test_subalgebra_closure_dim_on_graded_algebra():
    L = build_L0(build_family_graph("C", 4), F)
    assert subalgebra_closure_dim(L, L.generators()) == L.dim == 10


@pytest.mark.parametrize("kind", ["graded", "matrix"])
def test_a_context_vector_may_be_reduced_in_place(kind, sl5):
    """`vector(a)` is a new dict each call: reducing it in place, as
    `certify._check_model` does, leaves the element as it was."""
    if kind == "graded":
        ctx = build_L0(build_family_graph("C", 4), F)
        x, y = ctx.generators()[:2]
    else:
        ctx, mats = sl5
        x, y = (ctx.element(m) for m in mats[:2])
    e = ctx.lincomb([(1, x), (3, y), (2, ctx.bracket(x, y))])
    before = ctx.external(e)
    v = ctx.vector(e)
    F.axpy(v, F.one.v, dict(v))
    assert v == {}
    assert ctx.external(e) == before


def test_check_premet_all_identities(sl5):
    alg, mats = sl5
    rng = random.Random(1)
    for _ in range(20):
        x = mats[rng.randrange(5)]
        y = alg.from_coords([F(rng.randint(-3, 3))
                             for _ in range(alg.dim)])
        z = alg.from_coords([F(rng.randint(-3, 3))
                             for _ in range(alg.dim)])
        assert all(check_premet(alg, x, y, z).values())


def test_fixtriangle_contract(sl5):
    alg, mats = sl5
    x, y, z = mats[0], mats[1], mats[2]
    fxy = extremal_form_value(alg, x, y)
    fyz = extremal_form_value(alg, y, z)
    fxz = extremal_form_value(alg, x, z)
    fxyz = extremal_form_value(alg, x, alg.bracket(y, z))
    fxzh = fxz - fxyz * fxyz / (2 * fxy * fyz)
    targets = (fxy * fxzh * fyz, F(1), F(1))
    xt, yt, zt, s = fixtriangle(alg, x, y, z, targets)
    assert extremal_form_value(alg, xt, yt) == targets[0]
    assert extremal_form_value(alg, xt, zt) == targets[1]
    assert extremal_form_value(alg, yt, zt) == targets[2]
    assert extremal_form_value(alg, xt, alg.bracket(yt, zt)).is_zero()
    assert s == fxyz / (fxy * fyz)


def test_fixtriangle_rejects_degenerate_triples(sl5):
    alg, mats = sl5
    # x1 and x4 commute: f(x1, x4) = 0 violates the hypotheses
    with pytest.raises(HypothesisFailed):
        fixtriangle(alg, mats[3], mats[0], mats[1],
                    (F(1), F(1), F(1)))


def test_triangle_open_is_the_fixtriangle_condition():
    """f(x,[y,z])^2 != 2 f(x,y) f(x,z) f(y,z): over GF(7), 3^2 = 2."""
    G = PrimeField(7)
    assert not triangle_open(G(1), G(1), G(1), G(3))
    assert not triangle_open(G(2), G(4), G(1), G(4))
    assert triangle_open(G(1), G(1), G(1), G(2))
    assert triangle_open(G(1), G(0), G(1), G(1))
