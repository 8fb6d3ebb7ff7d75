import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import KERNEL_FIELDS, random_element, random_vector
from extremal_lie.fields import (_RAT, DEFAULT_PRIME, DescriptorMismatch,
                                 FieldElement, NoSquareRoot, NotInvertible,
                                 PrimeField, QuadraticExtension, QQ,
                                 lift_element, quadratic_roots)


@pytest.fixture
def F():
    return PrimeField(DEFAULT_PRIME)


def test_prime_field_arithmetic(F):
    a, b = F(7), F(-3)
    assert a + b == F(4)
    assert a * b == F(-21)
    assert (a / b) * b == a
    assert -a + a == F(0)
    assert a ** 3 == F(343)
    assert F(DEFAULT_PRIME) == F(0)


def test_prime_field_division_by_zero(F):
    with pytest.raises(NotInvertible):
        F(1) / F(0)


def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValueError):
        PrimeField(91)


def test_prime_field_sqrt_roundtrip(F):
    for k in range(2, 40):
        sq = F(k) * F(k)
        r = sq.sqrt()
        assert r * r == sq


def test_prime_field_sqrt_canonical_branch(F):
    # the returned root is a deterministic representative
    r1 = (F(5) * F(5)).sqrt()
    r2 = (F(5) * F(5)).sqrt()
    assert r1 == r2 and r1 in (F(5), F(-5))


def test_no_square_root_carries_element(F):
    bad = next(F(k) for k in range(2, 50) if not F(k).has_sqrt())
    with pytest.raises(NoSquareRoot) as info:
        bad.sqrt()
    assert info.value.element == bad


def test_rational_field():
    assert QQ(3) / QQ(4) == QQ("3/4")
    assert QQ("9/4").sqrt() == QQ("3/2")
    with pytest.raises(NoSquareRoot):
        QQ(2).sqrt()
    with pytest.raises(NoSquareRoot):
        QQ(-1).sqrt()


def test_quadratic_extension_adjoins_root(F):
    d = next(F(k) for k in range(2, 50) if not F(k).has_sqrt())
    E = QuadraticExtension(F, d)
    r = E.root
    assert r * r == lift_element(d, E)


def test_quadratic_extension_sqrt_of_base_values(F):
    d = next(F(k) for k in range(2, 50) if not F(k).has_sqrt())
    E = QuadraticExtension(F, d)
    # GF(p^2) contains a square root of every element of GF(p)
    for k in range(1, 20):
        v = lift_element(F(k), E)
        s = v.sqrt()
        assert s * s == v


def test_lift_element_walks_extension_towers(F):
    d = next(F(k) for k in range(2, 50) if not F(k).has_sqrt())
    E1 = QuadraticExtension(F, d)
    # base-field elements are all squares in GF(p^2); a non-square must
    # involve the adjoined root
    d2 = next(v for v in (E1.root * k + 1 for k in range(1, 80))
              if not v.has_sqrt())
    E2 = QuadraticExtension(E1, d2)
    v = lift_element(F(7), E2)
    assert v == lift_element(lift_element(F(7), E1), E2)


def test_descriptor_mismatch(F):
    G = PrimeField(101)
    with pytest.raises(DescriptorMismatch):
        F(G(1))


def test_field_equality_and_zero(F):
    assert F.zero.is_zero()
    assert not F.one.is_zero()
    assert bool(F.one) and not bool(F.zero)


def test_hash_agrees_with_equality():
    x, y = PrimeField(DEFAULT_PRIME)(3), PrimeField(DEFAULT_PRIME)(3)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    base = PrimeField(DEFAULT_PRIME)
    d = next(k for k in range(2, 50) if not base(k).has_sqrt())
    a = QuadraticExtension(PrimeField(DEFAULT_PRIME), d)((3, 5))
    b = QuadraticExtension(PrimeField(DEFAULT_PRIME), d)((3, 5))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(["QQ", "GF(p)", "GF(p)(rt d)"]),
       st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 9))
def test_equal_elements_hash_alike(name, x, y, d):
    """Equal implies equal hash, for elements built in different ways
    over QQ, GF(p) and GF(p^2), and against ints: an element equals no
    int, so a set of elements never holds one."""
    field = KERNEL_FIELDS[name]
    t = getattr(field, "root", field.one)
    a = field(x) / field(d) + t * field(y)
    b = field(Fraction(x, d)) + field(y + DEFAULT_PRIME * d) * t
    c = field(x) + field(0)
    for u in (a, b, c):
        for v in (a, b, c, field(x), field(y)):
            assert (u == v) == (v == u)
            if u == v:
                assert hash(u) == hash(v) and len({u, v}) == 1
        for k in (x, y, d, x * d, 0, 1, -1):
            assert u != k and k != u
            assert k not in {u} and u not in {k}
    # y + p*d is y in GF(p) and GF(p^2), not in QQ
    assert (a == b) == (name != "QQ")


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(["QQ", "GF(p)", "GF(p)(rt d)"]),
       st.lists(st.integers(-9, 9), min_size=6, max_size=6), st.booleans())
def test_quadratic_roots_solve_in_canonical_order(name, ints, factored):
    """Over QQ, GF(p) and GF(p^2) the roots of a t^2 + b t + c solve it
    and come in the canonical order, (-b + r)/2a first for r the
    deterministic root of the discriminant, so a (t_0 - t_1) = r.  A
    polynomial a (t - u)(t - v) built from its roots gets {u, v} back;
    a non-square discriminant raises NoSquareRoot."""
    field = KERNEL_FIELDS[name]
    t = getattr(field, "root", field.one)
    e = lambda x, y: field(x) + t * field(y)
    if factored:
        a, u, v = field(ints[0]), e(*ints[2:4]), e(*ints[4:6])
        b, c = -a * (u + v), a * u * v
    else:
        a, b, c = e(*ints[0:2]), e(*ints[2:4]), e(*ints[4:6])
    disc = b * b - 4 * a * c
    if not a.is_zero() and not disc.has_sqrt():
        with pytest.raises(NoSquareRoot):
            quadratic_roots(a, b, c)
        return
    roots = quadratic_roots(a, b, c)
    assert all(((a * x + b) * x + c).is_zero() for x in roots)
    if a.is_zero():
        assert roots == ([] if b.is_zero() else [-c / b])
        return
    if disc.is_zero():
        assert roots == [-b / (2 * a)]
    else:
        assert len(roots) == 2 and a * (roots[0] - roots[1]) == disc.sqrt()
    if factored:
        assert set(roots) == {u, v}


def _extension_of(field):
    """A quadratic extension of `field` by the first non-square of the
    form 1 + k*t, t its adjoined root (or 1 over a prime or rational
    base field)."""
    t = getattr(field, "root", field.one)
    d = next(v for v in (field(1) + t * k for k in range(1, 80))
             if not v.has_sqrt())
    return QuadraticExtension(field, d)


EXTENSIONS = {name: _extension_of(field)
              for name, field in KERNEL_FIELDS.items()}


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(list(KERNEL_FIELDS)), st.integers(-60, 60),
       st.integers(-60, 60), st.integers(1, 9))
def test_extension_root_of_a_base_square_is_the_base_root(name, x, y, d):
    """Over QQ, QQ(rt 2), GF(p), GF(p^2) and the GF(p) tower, the root
    an extension takes of an embedded base square is the embedded base
    root: a root taken before and after a field is adjoined agrees."""
    base = KERNEL_FIELDS[name]
    ext = EXTENSIONS[name]
    t = getattr(base, "root", base.one)
    a = base(x) / base(d) + t * base(y)
    square = a * a
    root = lift_element(square, ext).sqrt()
    assert root == lift_element(square.sqrt(), ext)
    assert root * root == lift_element(square, ext)


def _sparse(vec):
    return {i: x.v for i, x in enumerate(vec) if not x.is_zero()}


def _axpy_cases(field, seed, trials=200, length=8):
    """(v, c, row, expected) with v, row sparse payload vectors and the
    expected v - c*row computed entry by entry on FieldElements; every
    third index of v is set to cancel exactly."""
    rng = random.Random(seed)
    for _ in range(trials):
        a = random_vector(field, rng, length)
        b = random_vector(field, rng, length)
        c = random_element(field, rng, zero_rate=0.1)
        for k in range(0, length, 3):
            a[k] = c * b[k]
        yield (_sparse(a), c.v, _sparse(b),
               _sparse([x - c * y for x, y in zip(a, b)]))


def test_axpy_agrees_with_element_arithmetic(kernel_field):
    for v, c, row, want in _axpy_cases(kernel_field, seed=7):
        kernel_field.axpy(v, c, row)
        assert v == want
        assert all(not kernel_field.is_zero(x) for x in v.values())


def test_prime_base_axpy_agrees_with_generic():
    E = KERNEL_FIELDS["GF(p)(rt d)"]
    for v, c, row, want in _axpy_cases(E, seed=8):
        generic = dict(v)
        QuadraticExtension.axpy(E, generic, c, row)
        E.axpy(v, c, row)
        assert v == generic == want


# ---------------------------------------------------------------------------
# rational payloads: an int when integral, `_RAT` otherwise, mixed freely
# ---------------------------------------------------------------------------

_SMALL = st.integers(-50, 50)
# ints, integral rationals and non-integral rationals
QQ_PAYLOADS = st.one_of(
    _SMALL, _SMALL.map(_RAT),
    st.builds(_RAT, _SMALL, st.integers(2, 9)).filter(
        lambda x: x.denominator != 1))
QQ_PROPERTY = settings(max_examples=200, deadline=None, database=None,
                       derandomize=True)


@QQ_PROPERTY
@given(QQ_PAYLOADS, QQ_PAYLOADS)
def test_rational_payload_arithmetic_matches_fractions(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert Fraction(QQ.add(a, b)) == fa + fb
    assert Fraction(QQ.sub(a, b)) == fa - fb
    assert Fraction(QQ.mul(a, b)) == fa * fb
    assert Fraction(QQ.neg(a)) == -fa
    if b:
        q = QQ.div(a, b)
        assert Fraction(q) == fa / fb
        assert type(q) in (int, _RAT)
        if type(a) is int and type(b) is int and (fa / fb).denominator == 1:
            assert type(q) is int
    else:
        with pytest.raises(NotInvertible):
            QQ.div(a, b)


@QQ_PROPERTY
@given(st.dictionaries(st.integers(0, 5), QQ_PAYLOADS, max_size=6),
       QQ_PAYLOADS,
       st.dictionaries(st.integers(0, 5), QQ_PAYLOADS, max_size=6))
def test_rational_axpy_matches_fractions(v, c, row):
    v = {k: x for k, x in v.items() if x}
    row = {k: x for k, x in row.items() if x}
    want = {k: Fraction(v.get(k, 0)) - Fraction(c) * Fraction(row.get(k, 0))
            for k in set(v) | set(row)}
    QQ.axpy(v, c, row)
    assert v == {k: x for k, x in want.items() if x}
    assert all(x for x in v.values())


@QQ_PROPERTY
@given(QQ_PAYLOADS)
def test_rational_coerce_keeps_integral_values_as_ints(x):
    v = QQ.coerce(x)
    assert v == x and type(v) in (int, _RAT)
    assert (type(v) is int) == (Fraction(x).denominator == 1)
    assert QQ.coerce(str(Fraction(x))) == v


@QQ_PROPERTY
@given(_SMALL)
def test_integral_payload_types_are_interchangeable(n):
    a, b = FieldElement(QQ, n), FieldElement(QQ, _RAT(n))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert str(a) == str(b) and a.sort_key() == b.sort_key()


def test_rational_coerce_and_roots_give_ints():
    assert type(QQ(True).v) is int and QQ(True).v == 1
    assert type(QQ(False).v) is int and QQ(False).v == 0
    six_thirds = QQ("6/3").v
    assert six_thirds == 2 and type(six_thirds) is int
    assert type(QQ(Fraction(8, 4)).v) is int
    assert type(QQ(9).sqrt().v) is int and QQ(9).sqrt() == QQ(3)
    assert type(QQ("9/4").sqrt().v) is _RAT
    assert type((QQ(6) / QQ(3)).v) is int
    assert (QQ(1) / QQ(2)).v == _RAT(1, 2)
