import random

import pytest

from extremal_lie import linalg
from extremal_lie.fields import DEFAULT_PRIME, PrimeField, QQ


@pytest.fixture
def F():
    return PrimeField(DEFAULT_PRIME)


def _rand_matrix(F, rng, rows, cols, lo=-9, hi=9):
    return [[F(rng.randint(lo, hi)) for _ in range(cols)]
            for _ in range(rows)]


def test_rref_idempotent_and_rank(F):
    rng = random.Random(1)
    m = _rand_matrix(F, rng, 5, 7)
    r, pivots, rank = linalg.rref(m)
    r2, _, rank2 = linalg.rref(r)
    assert r == r2 and rank == rank2 == len(pivots)


def test_solve_consistent_and_inconsistent(F):
    rng = random.Random(3)
    m = _rand_matrix(F, rng, 4, 4)
    x = [F(rng.randint(-9, 9)) for _ in range(4)]
    rhs = linalg.mat_vec(m, x)
    got = linalg.solve(m, rhs)
    assert got is not None and linalg.vec_eq(linalg.mat_vec(m, got), rhs)
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.solve(singular, [F(0), F(1)]) is None


def test_rational_rref_exact():
    m = [[QQ(1), QQ("1/2")], [QQ("1/3"), QQ("1/6")]]
    _, _, rank = linalg.rref(m)
    assert rank == 1  # second row is a third of the first


def test_span_solver_incremental(F):
    ss = linalg.SpanSolver(F, 3)
    assert ss.add([F(1), F(0), F(1)])
    assert ss.add([F(0), F(1), F(0)])
    assert not ss.add([F(2), F(3), F(2)])
    assert ss.rank == 2
    assert ss.contains([F(5), F(-1), F(5)])
    assert not ss.contains([F(0), F(0), F(1)])


def test_span_solver_coords_reconstruct(F):
    rng = random.Random(4)
    vecs = [[F(rng.randint(-5, 5)) for _ in range(6)] for _ in range(4)]
    ss = linalg.SpanSolver(F, 6)
    added = [v for v in vecs if ss.add(v)]
    target = added[0]
    for v in added[1:]:
        target = linalg.vec_add(target, linalg.vec_scale(v, F(3)))
    coords = ss.coords(target)
    assert coords is not None
    rebuilt = [F(0)] * 6
    for c, v in zip(coords, added):
        rebuilt = linalg.vec_add(rebuilt, linalg.vec_scale(v, c))
    assert linalg.vec_eq(rebuilt, target)
    assert ss.coords([F(0)] * 5 + [F(1)]) is None or ss.rank == 6


def test_span_solver_coords_skip_rejected_vectors(F):
    u = [F(1), F(2), F(0), F(3)]
    v = [F(0), F(1), F(1), F(0)]
    w = [F(2), F(0), F(5), F(1)]
    ss = linalg.SpanSolver(F, 4)
    assert ss.add(u)
    assert not ss.add(linalg.vec_scale(u, F(7)))
    assert ss.add(v)
    assert not ss.add(linalg.vec_add(u, v))
    assert ss.add(w)
    target = [F(2) * a - F(3) * b + F(5) * c for a, b, c in zip(u, v, w)]
    coords = ss.coords(target)
    assert len(coords) == ss.rank == 3
    assert coords == [F(2), F(-3), F(5)]
    rebuilt = [F(0)] * 4
    for c, x in zip(coords, (u, v, w)):
        rebuilt = linalg.vec_add(rebuilt, linalg.vec_scale(x, c))
    assert linalg.vec_eq(rebuilt, target)


def test_matrix_helpers(F):
    a = [[F(1), F(2)], [F(3), F(4)]]
    b = [[F(0), F(1)], [F(1), F(0)]]
    assert linalg.trace(a) == F(5)
    br = linalg.mat_bracket(a, b)
    assert linalg.mat_eq(
        br, linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a)))


def test_lift_matrix_preserves_products(F):
    from extremal_lie.fields import QuadraticExtension
    d = next(F(k) for k in range(2, 50) if not F(k).has_sqrt())
    E = QuadraticExtension(F, d)
    a = [[F(1), F(2)], [F(3), F(4)]]
    la = linalg.lift_matrix(a, E)
    assert linalg.mat_eq(linalg.mat_mul(la, la),
                         linalg.lift_matrix(linalg.mat_mul(a, a), E))
