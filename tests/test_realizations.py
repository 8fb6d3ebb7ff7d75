import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mat_vec, random_vector
from extremal_lie import linalg
from extremal_lie.fields import DEFAULT_PRIME, PrimeField, QQ
from extremal_lie.realizations import (InvalidParameters, MatrixLieAlgebra,
                                       NotIsotropic,
                                       basis_vector, build_generators,
                                       classical_algebra,
                                       classify_siegel_pair,
                                       classify_transvection_pair,
                                       exp_siegel_action, lie_closure,
                                       orthogonal_form_even,
                                       orthogonal_form_odd, siegel,
                                       siegel_apply, standard_form,
                                       symplectic_form,
                                       symplectic_transvection, transvection)

F = PrimeField(DEFAULT_PRIME)


@pytest.mark.parametrize("family,n,params,want", [
    ("C", 6, (), 21),
    ("A", 5, (), 24),
    ("B", 5, (1,), 36),
    ("D", 5, (2, 3), 45),
])
def test_closure_dimensions(family, n, params, want):
    mats, _ = build_generators(family, n, F,
                               tuple(F(p) for p in params))
    assert lie_closure(mats, F).dim == want


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("params", [(1, 8), (4, 8)], ids=str)
def test_integral_rational_payloads_are_ints(n, params):
    """The D special vector leaves integral Fractions (44 of the D7
    (1,8) generator entries); as payload rows every integral entry is
    an int, so the brackets of a realization run in int arithmetic."""
    mats, _ = build_generators("D", n, QQ, tuple(QQ(p) for p in params))
    ctx = MatrixLieAlgebra(QQ, len(mats[0]), [], mats)
    assert not [v for g in ctx.generators_list for row in g
                for v in row.values()
                if type(v) is not int and v.denominator == 1]


@pytest.mark.parametrize("family,n,params", [
    ("B", 5, (1,)), ("B", 6, (2,)), ("C", 6, ()), ("C", 8, ()),
    ("D", 5, (2, 3)), ("D", 6, (4, 8)),
])
def test_the_standard_form_is_the_form_of_the_generators(family, n, params):
    mats, (form, _) = build_generators(family, n, F,
                                       tuple(F(p) for p in params))
    want = standard_form(family, F, len(mats[0]))
    assert (want.dim, want.entries) == (form.dim, form.entries)


def test_invalid_parameters():
    with pytest.raises(InvalidParameters):
        build_generators("D", 5, F, (F(-2), F(3)))  # alpha = -2
    with pytest.raises(InvalidParameters):
        build_generators("D", 5, F, (F(2), F(-1)))  # beta = -1
    with pytest.raises(InvalidParameters):
        build_generators("B", 5, F, (F(0),))  # gamma = 0
    with pytest.raises(InvalidParameters):
        build_generators("B", 5, F, (F(-1),))  # gamma = -1
    with pytest.raises(InvalidParameters):
        build_generators("C", 5, F)  # odd n


def test_d_needs_a_root_of_one_plus_beta_only_at_even_rank():
    """6 is no square mod p: beta = 5 builds D5, whose lambda needs no
    root of 1 + beta, and is refused at D6."""
    assert not F(6).has_sqrt()
    mats, _ = build_generators("D", 5, F, (F(2), F(5)))
    assert lie_closure(mats, F).dim == 45
    with pytest.raises(InvalidParameters,
                       match="^1 \\+ beta must be a square in the field$"):
        build_generators("D", 6, F, (F(2), F(5)))


def test_only_the_classical_algebra_has_a_form():
    """A generators-only context and a grown closure have no form; the
    classical algebra that holds them has a nonzero one."""
    mats, extra = build_generators("D", 5, F, (F(2), F(3)))
    for ctx in (MatrixLieAlgebra(F, len(mats[0]), [], mats),
                lie_closure(mats, F)):
        assert not hasattr(ctx, "form")
    classical = classical_algebra("D", F, mats, extra)
    assert not classical.form(mats[0], mats[1]).is_zero()


def test_transvection_matrix():
    e = lambda i: basis_vector(F, 3, i)
    m = transvection(e(0), e(1))
    assert m[0][1] == F(1)
    assert sum(1 for row in m for v in row if not v.is_zero()) == 1


def test_siegel_matrices_preserve_the_form():
    form = orthogonal_form_even(F, 4)
    e = lambda i: basis_vector(F, 8, i)
    u, v = e(0), e(1)
    T = siegel(form, u, v)
    # T is in the orthogonal algebra: B(Tx, y) + B(x, Ty) = 0
    rng = random.Random(0)
    for _ in range(10):
        x = [F(rng.randint(-5, 5)) for _ in range(8)]
        y = [F(rng.randint(-5, 5)) for _ in range(8)]
        assert (form.apply(mat_vec(T, x), y)
                + form.apply(x, mat_vec(T, y))).is_zero()
    assert siegel_apply(form, u, v, e(5)) == mat_vec(T, e(5))


FORM_FIELDS = {"QQ": QQ, "GF(p)": F, "GF(5)": PrimeField(5)}
#: each form builder, with the sign of B(f_i, e_i) and whether it adds
#: the vector g with B(g, g) = 2
FORMS = {"symplectic": (symplectic_form, -1, False),
         "orthogonal-even": (orthogonal_form_even, 1, False),
         "orthogonal-odd": (orthogonal_form_odd, 1, True)}


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(list(FORM_FIELDS)), st.sampled_from(list(FORMS)),
       st.integers(1, 5), st.integers(0, 2 ** 32))
def test_forms_pair_as_the_explicit_formula(field_name, kind, m, seed):
    """apply(u, v) and dot(covector(u), v) both equal
    sum(u_i v_{m+i} +- u_{m+i} v_i), plus 2 u_{2m} v_{2m} for the odd
    form; the orthogonal forms are symmetric, the symplectic one
    alternating."""
    field = FORM_FIELDS[field_name]
    make, sign, odd = FORMS[kind]
    form = make(field, m)
    dim = 2 * m + odd
    assert (form.field, form.dim) == (field, dim)
    rng = random.Random(seed)
    u = random_vector(field, rng, dim)
    v = random_vector(field, rng, dim)
    want = field.zero
    for i in range(m):
        want = want + u[i] * v[m + i] + u[m + i] * v[i] * sign
    if odd:
        want = want + u[2 * m] * v[2 * m] * 2
    assert form.apply(u, v) == want
    assert linalg.dot(form.covector(u), v) == want
    if sign == 1:
        assert form.apply(v, u) == want
    else:
        assert form.apply(u, u).is_zero() and form.apply(v, v).is_zero()
        assert form.apply(v, u) == -want


def test_siegel_requires_isotropic_line():
    form = orthogonal_form_even(F, 4)
    e = lambda i: basis_vector(F, 8, i)
    with pytest.raises(NotIsotropic):
        siegel(form, e(0), e(4))  # B(e1, f1) = 1


def test_symplectic_transvection_in_sp():
    form = symplectic_form(F, 3)
    y = [F(k) for k in (1, 2, 0, -1, 3, 1)]
    T = symplectic_transvection(form, y)
    rng = random.Random(1)
    for _ in range(10):
        a = [F(rng.randint(-5, 5)) for _ in range(6)]
        b = [F(rng.randint(-5, 5)) for _ in range(6)]
        assert (form.apply(mat_vec(T, a), b)
                + form.apply(a, mat_vec(T, b))).is_zero()


def test_form_calibration_symmetric_and_associative():
    mats, extra = build_generators("B", 5, F, (F(1),))
    alg = classical_algebra("B", F, mats, extra)
    rng = random.Random(2)
    for _ in range(5):
        a, b, c = (alg.from_coords([rng.randint(-2, 2)
                                    for _ in range(alg.dim)])
                   for _ in range(3))
        assert alg.form(a, b) == alg.form(b, a)
        assert alg.form(alg.bracket(a, b), c) == alg.form(a, alg.bracket(b, c))


def test_classify_transvection_pair_cases():
    e = lambda i: basis_vector(F, 4, i)
    assert classify_transvection_pair(e(0), e(1), e(0), e(1)) == "Proportional"
    assert classify_transvection_pair(e(0), e(1), e(0), e(2)) == "Abelian2"
    assert classify_transvection_pair(e(0), e(1), e(2), e(3)) == "Abelian2"
    assert classify_transvection_pair(e(0), e(1), e(1), e(2)) == "Heisenberg"
    assert classify_transvection_pair(e(0), e(1), e(1), e(0)) == "Sl2"


def test_classify_siegel_pair_cases():
    form = orthogonal_form_even(F, 5)
    e = lambda i: basis_vector(F, 10, i - 1)
    f = lambda i: basis_vector(F, 10, 4 + i)
    l1 = (e(1), e(2))
    assert classify_siegel_pair(form, l1, (e(2), e(1))) == "Proportional"
    assert classify_siegel_pair(form, l1, (e(1), e(3))) == "Abelian2"
    assert classify_siegel_pair(form, l1, (e(3), e(4))) == "Abelian2"
    assert classify_siegel_pair(form, l1, (e(3), f(1))) == "Heisenberg"
    assert classify_siegel_pair(form, l1, (f(1), f(2))) == "Sl2"


def test_exp_siegel_action_keeps_lines_isotropic():
    form = orthogonal_form_even(F, 5)
    e = lambda i: basis_vector(F, 10, i - 1)
    line = (e(1), e(2))
    by = (e(3), e(4))
    moved = exp_siegel_action(form, F(7), by, line)
    u, v = moved
    assert form.apply(u, u).is_zero()
    assert form.apply(v, v).is_zero()
    assert form.apply(u, v).is_zero()
    siegel(form, u, v)  # does not raise


def test_lie_closure_basis_is_deterministic():
    mats, _ = build_generators("A", 5, F)
    a1 = lie_closure(mats, F)
    a2 = lie_closure(mats, F)
    assert all(x == y for x, y in zip(a1.basis(), a2.basis()))


def test_from_coords_needs_one_coordinate_per_basis_element():
    mats, extra = build_generators("A", 4, F)
    alg = classical_algebra("A", F, mats, extra)
    coords = [k % 5 - 2 for k in range(alg.dim)]
    want = [[F.zero] * 4 for _ in range(4)]
    for c, b in zip(coords, alg.basis()):
        want = [[x + c * y for x, y in zip(r, s)]
                for r, s in zip(want, alg.external(b))]
    got = alg.from_coords(coords)
    assert alg.external(got) == want
    for bad in (coords[:-1], coords + [1], []):
        with pytest.raises(ValueError):
            alg.from_coords(bad)


def test_lie_closure_of_payload_generators_needs_the_field():
    mats, _ = build_generators("A", 4, F)
    alg = lie_closure(mats, F)
    assert lie_closure(alg.generators_list, F).basis() == alg.basis()
    with pytest.raises(TypeError, match="field"):
        lie_closure(alg.generators_list)


def test_matrix_context_refuses_matrices_of_the_wrong_size():
    mats, _ = build_generators("D", 5, F, (F(2), F(3)))
    rows = MatrixLieAlgebra(F, 10, [], mats).generators_list
    # 10 x 10, as FieldElement matrices and as payload rows; 5 rows of
    # 10 columns, in both forms; a wrong basis element
    for basis, gens in (([], mats), ([], rows),
                        ([], [m[:5] for m in mats]),
                        ([], [m[:5] for m in rows]),
                        (rows[:1], [])):
        with pytest.raises(ValueError, match="not 5 x 5"):
            MatrixLieAlgebra(F, 5, basis, gens)
    assert MatrixLieAlgebra(F, 5, [], []).generators_list == []
