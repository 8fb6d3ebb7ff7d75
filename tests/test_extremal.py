import random

import pytest

from conftest import (KERNEL_FIELDS, form_outcome, lift_closure,
                      random_combination, random_element, random_payload,
                      random_vector)
from extremal_lie import linalg
from extremal_lie.extremal import (HypothesisFailed, NotProportional,
                                   bracket_form_value, check_premet,
                                   classify_pair, exp_ad,
                                   extremal_form_value, fixtriangle,
                                   is_extremal, proportionality,
                                   subalgebra_closure_dim, triangle_open)
from extremal_lie.fields import (DEFAULT_PRIME, DescriptorMismatch,
                                 FieldElement, PrimeField, QQ)
from extremal_lie.graphs import build_family_graph
from extremal_lie.presentation import build_L0
from extremal_lie.realizations import (MatrixLieAlgebra, build_generators,
                                       classical_algebra, lie_closure,
                                       transvection)

F = PrimeField(DEFAULT_PRIME)


@pytest.fixture(scope="module")
def sl5():
    """sl_5 as the classical algebra of the A5 generators, and them."""
    mats, _ = build_generators("A", 5, F)
    return classical_algebra("A", F, mats), mats


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
    ctx = MatrixLieAlgebra(K, n, [])
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
        u = alg.from_coords([rng.randint(-3, 3) for _ in range(alg.dim)])
        v = alg.from_coords([rng.randint(-3, 3) for _ in range(alg.dim)])
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
    `certify._check_side` does, leaves the element as it was."""
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
        y = alg.from_coords([rng.randint(-3, 3) for _ in range(alg.dim)])
        z = alg.from_coords([rng.randint(-3, 3) for _ in range(alg.dim)])
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


def _gl_element(K, n, rng, zero_rate):
    """A random n x n matrix over K as payload rows: an element of gl_n,
    in general outside the closure."""
    rows = []
    for _ in range(n):
        row = {}
        for j in range(n):
            v = random_payload(K, rng, zero_rate)
            if not K.is_zero(v):
                row[j] = v
        rows.append(row)
    return linalg.Rows(rows)


def _not_square_zero(alg, rng):
    """Elements x with x^2 != 0: a random closure element, a random
    matrix, a rank-one a b^T with b(a) != 0 and the identity, which is
    central in gl_N, so extremal with f = 0 although x^2 != 0."""
    K, n = alg.field, alg.ambient_dim
    a = b = None
    while a is None or linalg.dot(b, a).is_zero():
        a, b = random_vector(K, rng, n, 0.3), random_vector(K, rng, n, 0.3)
    return [random_combination(alg, rng),
            _gl_element(K, n, rng, 0.3),
            [[ai * bj for bj in b] for ai in a],
            [[K.one if i == j else K.zero for j in range(n)]
             for i in range(n)]]


VALUE_FAMILIES = [("A", 4, ()), ("B", 5, (1,)), ("C", 4, ()),
                  ("D", 5, (2, 3))]


@pytest.mark.parametrize("name", ["QQ", "GF(p)", "GF(p)(rt d)"])
@pytest.mark.parametrize("family,n,params", VALUE_FAMILIES,
                         ids=lambda v: str(v))
def test_extremal_value_is_the_two_bracket_value(family, n, params, name):
    """The matrix context's extremal_value, read from the rank factors
    of a square-zero x, gives the value or the NotExtremal of the
    two-bracket definition, and ValueError for x = 0.  x runs over the
    generators, their shifts exp(c ad x_j) x_i and their multiples, all
    square-zero, and over elements with x^2 != 0, which take the
    definition.  y runs over random closure elements, random matrices
    of gl_N at several densities (sparse ones give the Siegel elements
    of B and D an r x r block M = R y U with equal diagonal entries and
    a nonzero off-diagonal one), x itself and 0."""
    fld = QQ if name == "QQ" else F
    mats, _ = build_generators(family, n, fld, tuple(fld(p) for p in params))
    alg = lie_closure(mats, fld)
    if name == "GF(p)(rt d)":
        alg = lift_closure(alg, KERNEL_FIELDS[name])
    K, size = alg.field, alg.ambient_dim
    rng = random.Random(f"{family}{n}{name}")
    gens = alg.generators_list
    c = random_element(K, rng, 0)
    square_zero = (gens + [exp_ad(alg, c, gens[i + 1], gens[i])
                           for i in range(len(gens) - 1)]
                   + [alg.lincomb([(c, g)]) for g in gens])
    others = _not_square_zero(alg, rng)
    assert all(linalg.Rows(alg.element(x)).factors(K) is not None
               for x in square_zero)
    assert all(linalg.Rows(alg.element(x)).factors(K) is None
               for x in others)
    ys = ([random_combination(alg, rng) for _ in range(3)]
          + [_gl_element(K, size, rng, rate)
             for rate in (0.5, 0.9, 0.9, 0.95, 0.95) for _ in range(2)])
    kinds = set()
    for x in square_zero + others:
        for y in ys + [x, alg.lincomb([])]:
            want = form_outcome(bracket_form_value, alg, x, y)
            got = form_outcome(extremal_form_value, alg, x, y)
            assert got == want
            if isinstance(want, FieldElement):
                assert got.field is K
            kinds.add(want[0] if isinstance(want, tuple) else "value")
    assert kinds == {"value", "NotExtremal"}
    zero = alg.lincomb([])
    for y in ys[:1] + [zero]:
        assert form_outcome(extremal_form_value, alg, zero, y) == (
            "ValueError", "x is zero")
        assert form_outcome(bracket_form_value, alg, zero, y) == (
            "ValueError", "x is zero")


def test_graded_context_takes_the_two_bracket_definition():
    """In L(Gamma, 0) every generator is extremal with f = 0, and the
    sum of two generators whose bracket is nonzero is not extremal."""
    L = build_L0(build_family_graph("C", 4), F)
    gens = L.generators()
    for g in gens:
        ok, cert = is_extremal(L, g)
        assert ok and all(v.is_zero() for v in cert.values)
    x, y = next((x, y) for x in gens for y in gens
                if not L.is_zero(L.bracket(x, y)))
    s = L.lincomb([(1, x), (1, y)])
    assert is_extremal(L, s) == (False, None)
    assert any(form_outcome(extremal_form_value, L, s, b)
               == ("NotExtremal", "[x,[x,y]] is not a multiple of x")
               for b in L.basis())
