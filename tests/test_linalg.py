import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import (KERNEL_FIELDS, lift_rows, mat_vec, random_element,
                      random_vector)
from extremal_lie import linalg
from extremal_lie.fields import (DEFAULT_PRIME, DescriptorMismatch,
                                 FieldElement, NotInvertible, PrimeField,
                                 QQ, QuadraticExtension)
from extremal_lie.realizations import (MatrixLieAlgebra, build_generators,
                                       lie_closure)


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
    rhs = mat_vec(m, x)
    got = linalg.solve(m, rhs)
    assert got is not None and mat_vec(m, got) == rhs
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
    assert rebuilt == target
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
    assert rebuilt == target


def _rows(field, m):
    """The payload rows of a FieldElement matrix."""
    return tuple(linalg.sparse(field, row) for row in m)


def _matrix(field, rows):
    """The FieldElement matrix of payload rows."""
    return [linalg.dense(field, row, len(rows)) for row in rows]


def _reference_mul(a, b):
    """The FieldElement triple loop."""
    zero = a[0][0].field.zero
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def _reference_bracket(a, b):
    ab, ba = _reference_mul(a, b), _reference_mul(b, a)
    return [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]


def test_matrix_helpers(F):
    a = [[F(1), F(2)], [F(3), F(4)]]
    b = [[F(0), F(1)], [F(1), F(0)]]
    one = [[F(1), F(0)], [F(0), F(1)]]
    assert linalg.trace_product(F, _rows(F, a), _rows(F, one)) == F(5)
    br = linalg.mat_bracket(F, _rows(F, a), _rows(F, b))
    assert br == _rows(F, _reference_bracket(a, b))


def test_lift_matrix_preserves_products(F):
    from extremal_lie.fields import QuadraticExtension
    d = next(F(k) for k in range(2, 50) if not F(k).has_sqrt())
    E = QuadraticExtension(F, d)
    a = [[F(1), F(2)], [F(3), F(4)]]
    la = _matrix(E, lift_rows(F, _rows(F, a), E))
    assert _rows(E, _reference_mul(la, la)) == \
        lift_rows(F, _rows(F, _reference_mul(a, a)), E)


def test_mat_mul_and_bracket_match_reference(kernel_field):
    K = kernel_field
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        c = [random_vector(K, rng, n) for _ in range(n)]
        d = [random_vector(K, rng, n) for _ in range(n)]
        assert linalg.mat_bracket(K, _rows(K, c), _rows(K, d)) == \
            _rows(K, _reference_bracket(c, d))
        # commuting arguments: every row of the bracket cancels exactly
        s = random_element(K, rng, zero_rate=0)
        rows = _rows(K, c)
        assert not any(linalg.mat_bracket(
            K, rows, linalg.mat_lincomb(K, [(s, rows)], n)))


def _combination(field, coeffs, vectors, length):
    out = [field.zero] * length
    for c, v in zip(coeffs, vectors):
        out = [x + c * y for x, y in zip(out, v)]
    return out


def test_span_solver_round_trip(kernel_field):
    """add/contains/coords against rref ranks, with dependent vectors
    offered between the independent ones."""
    F, dim = kernel_field, 6
    rng = random.Random(13)
    ss = linalg.SpanSolver(F, dim)
    accepted = []
    for _ in range(16):
        if accepted and rng.random() < 0.4:
            coeffs = [random_element(F, rng) for _ in accepted]
            offered = _combination(F, coeffs, accepted, dim)
        else:
            offered = random_vector(F, rng, dim)
        independent = linalg.rref(accepted + [offered])[2] > len(accepted)
        assert ss.add(offered) == independent
        if independent:
            accepted.append(offered)
        assert ss.rank == len(accepted)
        coeffs = [random_element(F, rng) for _ in accepted]
        target = _combination(F, coeffs, accepted, dim)
        assert ss.contains(target)
        assert ss.coords(target) == coeffs
        other = random_vector(F, rng, dim, zero_rate=0.2)
        inside = linalg.rref(accepted + [other])[2] == len(accepted)
        assert ss.contains(other) == inside
        assert (ss.coords(other) is not None) == inside


def test_mixed_fields_raise(F):
    G = PrimeField(101)
    ss = linalg.SpanSolver(F, 2)
    assert ss.add([F(1), F(2)])
    for vec in ([G(1), G(0)], [F(0), G(1)]):
        with pytest.raises(DescriptorMismatch):
            ss.add(vec)
        with pytest.raises(DescriptorMismatch):
            ss.coords(vec)
    a = [[F(1), F(2)], [F(0), F(1)]]
    b = [[G(1), G(0)], [G(3), G(1)]]
    # the payload kernels (bracket, trace form) take matrices in through
    # a context's `element`, which checks every entry
    ctx = MatrixLieAlgebra(F, 2, [])
    with pytest.raises(DescriptorMismatch):
        ctx.bracket(a, b)
    with pytest.raises(DescriptorMismatch):
        ctx.bracket(b, a)
    for x in (b, [[F(1), F(2)], [G(0), F(1)]]):
        with pytest.raises(DescriptorMismatch):
            ctx.element(x)
    rows = _rows(F, a)
    with pytest.raises(DescriptorMismatch):
        linalg.mat_lincomb(F, [(G(2), rows)], 2)


def _fold(field, terms, size):
    """sum c*m by the dense FieldElement fold."""
    out = [[field.zero] * size for _ in range(size)]
    for c, m in terms:
        out = [[x + c * y for x, y in zip(r, s)] for r, s in zip(out, m)]
    return out


PACKED_PRIMES = {"GF(5)": PrimeField(5), "GF(p)": PrimeField(DEFAULT_PRIME),
                 "GF(2^61-1)": PrimeField(2 ** 61 - 1)}


@pytest.mark.parametrize("name", list(PACKED_PRIMES))
def test_packed_kernels_at_the_slot_width_bound(name):
    """Entries p - 1 throughout, so the packed slots hold sums of
    products (p-1)*(p-1): a 16 x 16 bracket (up to 2N = 32 terms per
    slot) and `mat_lincomb` with every coefficient p - 1 over a D8
    basis (dim terms), against the dense FieldElement reference; then
    the slot-width rule at its bound, T such products in every slot."""
    K = PACKED_PRIMES[name]
    p, n = K.p, 16
    top = K(p - 1)
    full = [[top] * n for _ in range(n)]
    ones = [[K.one] * n for _ in range(n)]
    tri = [[top if j >= i else K.one for j in range(n)] for i in range(n)]
    for a, b in ((full, full), (full, ones), (ones, full), (full, tri),
                 (tri, full)):
        assert linalg.mat_bracket(K, _rows(K, a), _rows(K, b)) == \
            _rows(K, _reference_bracket(a, b))
    mats, _ = build_generators("D", 8, K, (K(2), K(3)))
    alg = lie_closure(mats, K)
    coords = [top] * alg.dim
    want = _fold(K, [(c, alg.external(b))
                     for c, b in zip(coords, alg.basis())], n)
    for cs in (coords, [p - 1] * alg.dim):
        assert linalg.mat_lincomb(K, list(zip(cs, alg.basis())), n) == \
            _rows(K, want)
    # mat_lincomb at T = 2N + 4 terms (the shared slot width) and at
    # T + 1 (a wider one), every term a product (p-1)*(p-1), on operands
    # that keep their packed rows from call to call and from kernel to
    # kernel
    a, b = linalg.Rows(_rows(K, full)), linalg.Rows(_rows(K, tri))
    t = linalg._shared_terms(n)
    for count in (t, t + 1, t):
        for ops in ((a,) * count, (a, b) * (count // 2) + (a,) * (count % 2)):
            terms = [(top, m) for m in ops]
            assert linalg.mat_lincomb(K, terms, n) == _rows(
                K, _fold(K, [(top, _matrix(K, m)) for m in ops], n))
        assert linalg.mat_bracket(K, a, b) == \
            _rows(K, _reference_bracket(full, tri))
    for terms in (1, 2 * n, alg.dim):
        w = linalg._slot_width(p, terms)
        row = linalg._pack({k: p - 1 for k in range(n)}, w)
        assert linalg._unpack((p - 1) * terms * row, w, p) == \
            {k: terms * (p - 1) ** 2 % p for k in range(n)
             if terms % p}
    with pytest.raises(DescriptorMismatch):
        linalg.mat_lincomb(K, list(zip([PrimeField(101)(1)] + coords[1:],
                                       alg.basis())), n)
    # mat_vanishes on the same operands, with slots at the bound T of the
    # shared width: a bracket term (2N products) and up to three more
    # terms, and T terms c*(p-1) whose sum is 0 mod p
    c = linalg.mat_bracket(K, a, b)
    for terms, zero in (([(1, (a, b)), (1, (b, a))], True),
                        ([(1, (a, b)), (-1, c), (top, a), (1, a)], True),
                        ([(1, (a, b)), (-1, c), (top, a)], False),
                        ([(top, a)] * (t - 1) + [(t - 1, a)], True),
                        ([(top, a)] * t, t % p == 0)):
        assert linalg.mat_vanishes(K, terms, n) == zero
        assert linalg.mat_lincomb(K, terms, n) == _rows(
            K, _fold(K, [(K(k), _matrix(K, linalg.mat_bracket(K, *m)
                                     if linalg.is_pair(m) else m))
                         for k, m in terms], n))


def test_mat_lincomb_matches_fold(kernel_field):
    F = kernel_field
    rng = random.Random(17)
    for _ in range(20):
        size = rng.randint(1, 5)
        mats = [[random_vector(F, rng, size) for _ in range(size)]
                for _ in range(rng.randint(1, 4))]
        # a zero coefficient, and a term that cancels the first one
        terms = [(random_element(F, rng), m) for m in mats]
        terms += [(F.zero, mats[0]), (-terms[0][0], mats[0])]
        got = linalg.mat_lincomb(
            F, [(c, _rows(F, m)) for c, m in terms], size)
        assert got == _rows(F, _fold(F, terms, size))
    zero = _rows(F, [[F.zero] * 3 for _ in range(3)])
    assert linalg.mat_lincomb(F, [], 3) == zero
    m = [random_vector(F, rng, 3, zero_rate=0) for _ in range(3)]
    c = random_element(F, rng, zero_rate=0)
    rows = _rows(F, m)
    assert linalg.mat_lincomb(F, [(c, rows), (-c, rows)], 3) == zero


def _unit_row_matrix(n, row):
    """The n x n payload matrix with `row` as row 0 and zeros below."""
    return tuple(row if i == 0 else {} for i in range(n))


@pytest.mark.parametrize("p", [3, 5, DEFAULT_PRIME, 2 ** 61 - 1])
def test_mat_vanishes_on_crafted_rows(p):
    """A single entry (q = 0, seen only by the remainder), a row whose
    packed sum p divides although its slots are not 0 mod p (seen only
    by the mask), and exact cancellations c*m - c*m and [a,b] + [b,a]
    with and without one perturbed entry."""
    K, n = PrimeField(p), 10
    w = linalg._slot_width(p, linalg._shared_terms(n))
    single = _unit_row_matrix(n, {0: 1})
    assert not linalg.mat_vanishes(K, [(1, single)], n)
    x = -(1 << w) % p                  # x + 2^w is 0 mod p, x and 1 not
    crafted = _unit_row_matrix(n, {0: x, 1: 1})
    assert x and (x + (1 << w)) % p == 0
    assert not linalg.mat_vanishes(K, [(1, crafted)], n)
    rng = random.Random(p)
    a, b = ([{j: rng.randrange(1, p) for j in range(n)} for _ in range(n)]
            for _ in range(2))
    c = K(rng.randrange(1, p))
    for extra, zero in (([], True), ([(1, single)], False),
                        ([(p - 1, crafted)], False)):
        assert linalg.mat_vanishes(
            K, [(c, a), (-c, a), (1, (a, b)), (1, (b, a))] + extra,
            n) == zero


def test_the_zero_test_is_exact_on_every_pair_of_slots():
    """Over GF(3) at N = 10 (T = 24, whose slots need the guard bit:
    without it 3*(2^w' - 1) = 189 passes 2^7), every pair of slot values
    up to T*(p-1)^2 is called zero exactly when both are 0 mod 3."""
    p, n = 3, 10
    t = linalg._shared_terms(n)
    w = linalg._slot_width(p, t)
    top = t * (p - 1) ** 2
    for v0 in range(top + 1):
        for v1 in range(top + 1):
            assert linalg._vanish_mod(p, [v0 + (v1 << w)], w, t, n) == (
                v0 % p == v1 % p == 0), (v0, v1)


def test_trace_product_matches_trace_of_product(kernel_field):
    F = kernel_field
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = [random_vector(F, rng, n) for _ in range(n)]
        b = [random_vector(F, rng, n) for _ in range(n)]
        ab = _reference_mul(a, b)
        assert (linalg.trace_product(F, _rows(F, a), _rows(F, b))
                == sum((ab[i][i] for i in range(n)), F.zero))


def test_span_solver_rejects_a_vector_of_the_wrong_length(F):
    ss = linalg.SpanSolver(F, 3)
    assert ss.add([F(1), F(0), F(2)])
    for bad in ([F(1), F(0)], [F(1), F(0), F(2), F(0)]):
        for method in (ss.add, ss.contains, ss.coords):
            with pytest.raises(ValueError):
                method(bad)
    assert ss.rank == 1


def test_span_solver_rejects_a_payload_key_outside_the_space(F):
    ss = linalg.SpanSolver(F, 3)
    assert ss.add({0: F.one.v, 2: F(2).v})
    for bad in ({3: F.one.v}, {-1: F.one.v}, {1: F.one.v, 7: F.one.v}):
        for method in (ss.add, ss.contains, ss.coords):
            with pytest.raises(ValueError):
                method(bad)
    assert ss.rank == 1
    v = {1: F.one.v}
    assert ss.add(v) and v == {1: F.one.v}     # the input is not modified


def _reference_rref(matrix):
    """Dense FieldElement Gauss-Jordan: leftmost pivot column, first
    nonzero row within it."""
    m = [list(row) for row in matrix]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if not m[i][c].is_zero()),
                  None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots, r


def _echelon_cases(F, rng):
    """Random matrices of every shape the kernel meets: full and
    deficient rank, repeated rows, rows that are combinations of
    earlier ones, zero rows and an all-zero matrix."""
    cases = [[[F.zero] * 4 for _ in range(3)], [[F.zero] * 3]]
    for _ in range(20):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = [random_vector(F, rng, cols) for _ in range(rows)]
        if rng.random() < 0.5:
            m.append(list(m[0]))
        if len(m) > 2:
            coeffs = [random_element(F, rng) for _ in m[:2]]
            m.insert(rng.randrange(len(m) + 1),
                     _combination(F, coeffs, m[:2], cols))
        if rng.random() < 0.3:
            m.append([F.zero] * cols)
        cases.append(m)
    return cases


def test_echelon_matches_dense_gauss_jordan(kernel_field):
    F = kernel_field
    assert linalg.echelon(F, []) == ([], [])
    for m in _echelon_cases(F, random.Random(29)):
        want, want_pivots, rank = _reference_rref(m)
        rows = [linalg.sparse(F, row) for row in m]
        copies = [dict(row) for row in rows]
        reduced, pivots = linalg.echelon(F, rows)
        assert rows == copies                 # the input is not modified
        assert pivots == want_pivots
        assert reduced == [linalg.sparse(F, row) for row in want[:rank]]
        assert linalg.rref(m) == (want, want_pivots, rank)


def test_echelon_applies_the_leads_a_step_creates(kernel_field):
    """The third row meets only kept row 0, whose step leaves an entry
    at the lead of kept row 1; that row must be applied too, and the
    third row then reduces to zero."""
    F = kernel_field
    one = F.one.v
    rows = [{0: one, 2: one}, {2: one}, {0: one}]
    assert linalg.echelon(F, rows) == ([{0: one}, {2: one}], [0, 2])


def test_rref_and_solve_wrapper_shapes(kernel_field):
    F = kernel_field
    assert linalg.rref([]) == ([], [], 0)
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(0), F(1)]]
    red, pivots, rank = linalg.rref(m)
    assert len(red) == 3 and all(len(row) == 3 for row in red)
    assert (pivots, rank) == ([0, 2], 2)
    assert red[2] == [F.zero] * 3
    # rows 1 and 2 of m force x0 + 2 x1 + 3 x2 = 1 and = 1/2
    assert linalg.solve(m, [F(1), F(1), F(0)]) is None
    # free x1 is set to zero: x = (1, 0, 0)
    assert linalg.solve(m, [F(1), F(2), F(0)]) == [F(1), F.zero, F.zero]
    rng = random.Random(31)
    for m in _echelon_cases(F, rng):
        x = random_vector(F, rng, len(m[0]))
        rhs = mat_vec(m, x)
        got = linalg.solve(m, rhs)
        assert got is not None and len(got) == len(m[0])
        assert mat_vec(m, got) == rhs
        red, pivots, rank = _reference_rref([row + [b]
                                             for row, b in zip(m, rhs)])
        want = [F.zero] * len(m[0])
        for r, pc in enumerate(pivots):
            want[pc] = red[r][-1]
        assert got == want


# ---------------------------------------------------------------------------
# property tests of the payload matrix kernels
# ---------------------------------------------------------------------------

def _payloads(field):
    """Payloads of `field` with small numerators and denominators."""
    if isinstance(field, QuadraticExtension):
        base = _payloads(field.base)
        return st.tuples(base, base)
    # every denominator is invertible: 1..4, without 3 over GF(3)
    return st.builds(lambda a, b: field.coerce(Fraction(a, b)),
                     st.integers(-9, 9), st.integers(1, 4).filter(
                         lambda b: not isinstance(field, PrimeField)
                         or b % field.p))


@st.composite
def payload_matrices(draw, field, count):
    """(n, matrices): `count` random sparse n x n payload matrices over
    `field`, n <= 7."""
    n = draw(st.integers(1, 7))
    row = st.dictionaries(st.integers(0, n - 1), _payloads(field),
                          max_size=n)
    mats = []
    for _ in range(count):
        rows = draw(st.lists(row, min_size=n, max_size=n))
        mats.append(tuple({j: v for j, v in r.items()
                           if not field.is_zero(v)} for r in rows))
    return n, mats


# no shrink phase: a broken kernel reports its first failing example
# at once, not after minutes of shrinking
PROPERTY = settings(max_examples=15, deadline=None, database=None,
                    derandomize=True, phases=(Phase.generate,))
# the shared kernel fields plus the smallest and a 61-bit prime, whose
# packed GF(p) slots are the narrowest and the widest; every drawn
# denominator (1..4) is invertible mod 5
PROPERTY_FIELDS = {**KERNEL_FIELDS, "GF(5)": PrimeField(5),
                   "GF(2^61-1)": PrimeField(2 ** 61 - 1)}
FIELD_NAMES = pytest.mark.parametrize("name", list(PROPERTY_FIELDS))


#: rationals (int and Fraction payloads), a small and a large prime field
#: and a quadratic extension
ECHELON_FIELDS = {"QQ": QQ, "GF(7)": PrimeField(7),
                  "GF(p)": KERNEL_FIELDS["GF(p)"],
                  "GF(p)(rt d)": KERNEL_FIELDS["GF(p)(rt d)"]}


@st.composite
def sparse_rows(draw, field):
    """(cols, rows): up to 9 sparse payload rows over `field` with at
    most 4 entries each, in at most 8 columns, so that rows often share
    leads and a reduction step often meets a later lead."""
    cols = draw(st.integers(1, 8))
    entry = _payloads(field).filter(lambda x: not field.is_zero(x))
    row = st.dictionaries(st.integers(0, cols - 1), entry, max_size=4)
    return cols, draw(st.lists(row, max_size=9))


@pytest.mark.parametrize("name", list(ECHELON_FIELDS))
@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          phases=(Phase.generate, Phase.shrink))   # a failure reports fast
@given(data=st.data())
def test_echelon_property_against_dense_gauss_jordan(name, data):
    K = ECHELON_FIELDS[name]
    cols, rows = data.draw(sparse_rows(K))
    copies = [dict(row) for row in rows]
    reduced, pivots = linalg.echelon(K, rows)
    assert rows == copies                     # the input is not modified
    want, want_pivots, rank = _reference_rref(
        [linalg.dense(K, row, cols) for row in rows])
    assert pivots == want_pivots
    assert reduced == [linalg.sparse(K, row) for row in want[:rank]]


@st.composite
def unit_heavy_rows(draw, field):
    """(cols, rows): sparse payload rows over `field` in 2 to 6
    columns, most of them one entry long: units, a unit repeated at its
    column with another payload, rows of two to four entries (which
    often hold a unit's column), and a longer row followed by itself
    plus z e_c, which reduces to the unit z e_c."""
    cols = draw(st.integers(2, 6))
    entry = _payloads(field).filter(lambda x: not field.is_zero(x))
    col = st.integers(0, cols - 1)
    longer = st.dictionaries(col, entry, min_size=2, max_size=4)

    def and_unit(row, c, z):
        x = field.add(row.get(c, field.zero.v), z)
        rest = {k: y for k, y in row.items() if k != c}
        return [row, rest if field.is_zero(x) else {**rest, c: x}]

    parts = draw(st.lists(st.one_of(
        st.builds(lambda c, x: [{c: x}], col, entry),
        st.builds(lambda c, x, y: [{c: x}, {c: y}], col, entry, entry),
        longer.map(lambda row: [row]),
        st.builds(and_unit, longer, col, entry)), max_size=6))
    return cols, draw(st.permutations([row for p in parts for row in p]))


UNIT_FIELDS = {**KERNEL_FIELDS, **ECHELON_FIELDS}


@pytest.mark.parametrize("name", list(UNIT_FIELDS))
@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          phases=(Phase.generate, Phase.shrink))
@given(data=st.data())
def test_echelon_unit_rows_against_dense_gauss_jordan(name, data):
    """The one-entry rows `echelon` takes off first give the reduced
    row echelon form all the same, and over QQ an integral payload of
    the result is an int."""
    K = UNIT_FIELDS[name]
    cols, rows = data.draw(unit_heavy_rows(K))
    copies = [dict(row) for row in rows]
    reduced, pivots = linalg.echelon(K, rows)
    assert rows == copies                     # the input is not modified
    want, want_pivots, rank = _reference_rref(
        [linalg.dense(K, row, cols) for row in rows])
    assert pivots == want_pivots
    assert reduced == [linalg.sparse(K, row) for row in want[:rank]]
    if K is QQ:
        assert not any(type(x) is Fraction and x.denominator == 1
                       for row in reduced for x in row.values())


@pytest.mark.parametrize("name", ["QQ", "GF(p)", "GF(p)(rt d)"])
def test_echelon_refuses_a_row_holding_only_a_zero(name):
    """A one-entry row is a unit only when its payload is nonzero; a
    stored zero, which no payload row holds, is still refused."""
    K = KERNEL_FIELDS[name]
    with pytest.raises(NotInvertible):
        linalg.echelon(K, [{0: K.zero.v}])


@FIELD_NAMES
@PROPERTY
@given(data=st.data())
def test_mat_bracket_property_against_dense_reference(name, data):
    K = PROPERTY_FIELDS[name]
    n, (a, b) = data.draw(payload_matrices(K, 2))
    assert linalg.mat_bracket(K, a, b) == _rows(
        K, _reference_bracket(_matrix(K, a), _matrix(K, b)))


@FIELD_NAMES
@PROPERTY
@given(data=st.data())
def test_mat_bracket_property_antisymmetry_and_jacobi(name, data):
    K = PROPERTY_FIELDS[name]
    n, (a, b, c) = data.draw(payload_matrices(K, 3))
    br = lambda x, y: linalg.mat_bracket(K, x, y)
    assert not any(linalg.mat_lincomb(K, [(1, br(a, b)), (1, br(b, a))], n))
    assert not any(linalg.mat_lincomb(
        K, [(1, br(a, br(b, c))), (1, br(b, br(c, a))),
            (1, br(c, br(a, b)))], n))


@FIELD_NAMES
@PROPERTY
@given(data=st.data())
def test_mat_lincomb_property_against_dense_fold(name, data):
    """Several calls on the same three operands, each of which may occur
    in several terms, with brackets between them: over GF(p) the
    operands keep their packed rows across calls and kernels, and up to
    9 terms on n <= 7 rows cross the bracket's 2N terms for small n."""
    K = PROPERTY_FIELDS[name]
    n, mats = data.draw(payload_matrices(K, 3))
    mats = [linalg.Rows(m) for m in mats]
    for _ in range(3):
        picks = data.draw(st.lists(st.tuples(st.integers(-5, 5),
                                             st.integers(0, 2)),
                                   min_size=1, max_size=9))
        terms = [(K(c), mats[i]) for c, i in picks]
        assert linalg.mat_lincomb(K, terms, n) == _rows(
            K, _fold(K, [(c, _matrix(K, m)) for c, m in terms], n))
        assert linalg.mat_bracket(K, mats[0], mats[1]) == _rows(
            K, _reference_bracket(_matrix(K, mats[0]), _matrix(K, mats[1])))


VANISH_FIELDS = {"GF(3)": PrimeField(3),
                 **{name: PROPERTY_FIELDS[name] for name in (
                     "GF(5)", "GF(p)", "GF(2^61-1)", "QQ", "GF(p)(rt d)")}}


@pytest.mark.parametrize("name", list(VANISH_FIELDS))
@PROPERTY
@given(data=st.data())
def test_mat_vanishes_property_against_mat_lincomb(name, data):
    """mat_vanishes is `not any(mat_lincomb(...))` with every bracket
    term formed by mat_bracket, and mat_lincomb takes bracket terms as
    their brackets, on combinations that often cancel exactly (each
    c*m by -c*m, each [a,b] by [b,a]) and then may get one perturbed
    entry."""
    K = VANISH_FIELDS[name]
    n, mats = data.draw(payload_matrices(K, 3))
    mats = [linalg.Rows(m) for m in mats]
    picks = data.draw(st.lists(st.tuples(st.integers(-5, 5),
                                         st.integers(0, 2)), max_size=4))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 2),
                                         st.integers(0, 2)), max_size=2))
    terms = [(K(c), mats[i]) for c, i in picks]
    brackets = [(1, (mats[i], mats[j])) for i, j in pairs]
    if data.draw(st.booleans()):
        terms += [(-c, m) for c, m in terms]
        brackets += [(1, (b, a)) for _, (a, b) in brackets]
    terms += brackets
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        v = data.draw(_payloads(K).filter(lambda v: not K.is_zero(v)))
        terms.append((1, tuple({j: v} if r == i else {} for r in range(n))))
    formed = [(c, linalg.mat_bracket(K, *m) if linalg.is_pair(m) else m)
              for c, m in terms]
    want = linalg.mat_lincomb(K, formed, n)
    assert linalg.mat_lincomb(K, terms, n) == want
    assert linalg.mat_vanishes(K, terms, n) == (not any(want))


@FIELD_NAMES
@PROPERTY
@given(data=st.data())
def test_matrix_context_edge_property(name, data):
    """external(element(m)) == m, and `vector` is the row-major
    flattening."""
    K = PROPERTY_FIELDS[name]
    n, (a,) = data.draw(payload_matrices(K, 1))
    ctx = MatrixLieAlgebra(K, n, [])
    m = _matrix(K, a)
    assert ctx.element(m) == a
    assert ctx.external(ctx.element(m)) == m
    assert ctx.element(a) is a
    # an element passes `element` as itself, and so keeps its packed rows
    e = ctx.element(m)
    for x in (e, ctx.bracket(e, e), ctx.lincomb([(2, e)])):
        assert isinstance(x, linalg.Rows) and ctx.element(x) is x
    assert ctx.vector(m) == linalg.sparse(K, [x for row in m for x in row])
    assert all(isinstance(x, FieldElement) and x.field is K
               for row in ctx.external(a) for x in row)


def test_echelon_and_span_solver_skip_empty_rows(kernel_field):
    F = kernel_field
    rng = random.Random(37)
    for m in _echelon_cases(F, rng):
        rows = [linalg.sparse(F, row) for row in m]
        nonempty = [row for row in rows if row]
        mixed = []
        for row in rows:
            mixed += [{}] * rng.randint(0, 2) + [row]
        mixed.append({})
        assert linalg.echelon(F, mixed) == linalg.echelon(F, nonempty)
        ss = linalg.SpanSolver(F, len(m[0]))
        for row in rows:
            ss.add(row)
        rank = ss.rank
        assert not ss.add({}) and ss.rank == rank
        assert ss.contains({})
        assert ss.sparse_coords({}) == {}
    assert linalg.echelon(F, [{}, {}]) == ([], [])


def test_reduce_stops_scanning_once_the_vector_is_zero(F):
    def rows_then_fail(rows):
        yield from rows
        raise AssertionError("scanned past a zero vector")

    one = F.one.v
    linalg._reduce(F.axpy, {}, rows_then_fail([]), rows_then_fail([]))
    v, hits = {0: 3}, []
    linalg._reduce(F.axpy, v, rows_then_fail([{0: one}]),
                   rows_then_fail([0]), hits)
    assert v == {} and hits == [(0, 3)]


# ---------------------------------------------------------------------------
# SpanSolver with expressions built on demand, and the kernels' fast paths
# ---------------------------------------------------------------------------

SPAN_FIELDS = pytest.mark.parametrize("name", ["QQ", "GF(p)", "GF(p)(rt d)"])


def _as_columns(vectors, dim):
    """The dim x len(vectors) FieldElement matrix with the vectors as its
    columns."""
    return [[v[i] for v in vectors] for i in range(dim)]


@FIELD_NAMES
@PROPERTY
@given(data=st.data())
def test_span_solver_property_interleaved(name, data):
    """Interleaved add / contains / coords: every coordinate vector
    recombines the accepted vectors to the vector asked about, exactly,
    and equals the unique solution `solve` finds.  A second span that
    gets the same add and contains calls but is never asked for
    coordinates answers the same and holds no expression row.  Over
    GF(5) the deferred sums are the smallest, and over GF(2^61 - 1) the
    widest."""
    K = PROPERTY_FIELDS[name]
    dim = data.draw(st.integers(1, 6))
    entry = _payloads(K).map(lambda x: FieldElement(K, x))
    raw = st.lists(entry, min_size=dim, max_size=dim)
    ss, plain = linalg.SpanSolver(K, dim), linalg.SpanSolver(K, dim)
    accepted = []
    for _ in range(data.draw(st.integers(1, 12))):
        if accepted and data.draw(st.booleans()):
            coeffs = data.draw(st.lists(entry, min_size=len(accepted),
                                        max_size=len(accepted)))
            v = _combination(K, coeffs, accepted, dim)
        else:
            v = data.draw(raw)
        offered = linalg.sparse(K, v) if data.draw(st.booleans()) else v
        op = data.draw(st.sampled_from(("add", "contains", "coords")))
        inside = linalg.rref(accepted + [v])[2] == len(accepted)
        if op == "add":
            assert ss.add(offered) == plain.add(offered) == (not inside)
            if not inside:
                accepted.append(v)
        elif op == "contains":
            assert ss.contains(offered) == plain.contains(offered) == inside
        else:
            assert plain.contains(offered) == inside
            c = ss.coords(offered)
            if not inside:
                assert c is None
                continue
            assert len(c) == ss.rank == len(accepted)
            assert _combination(K, c, accepted, dim) == v
            assert c == linalg.solve(_as_columns(accepted, dim), v)
            assert len(ss.expr) == ss.rank
    assert ss.rank == plain.rank == len(accepted)
    assert plain.expr == []


@SPAN_FIELDS
def test_span_solver_expressions_match_eager_reduction(name):
    """The expression rows replayed from the recorded steps are those an
    eager reduction builds alongside each accepted row, bit for bit,
    with each row's lead at its largest column as in `SpanSolver.add`."""
    K = KERNEL_FIELDS[name]
    rng = random.Random(41)
    dim = 7
    ss = linalg.SpanSolver(K, dim)
    rows, leads, exprs = [], [], []
    for _ in range(12):
        v = linalg.sparse(K, random_vector(K, rng, dim))
        accepted = ss.add(v)
        v, hits, e = dict(v), [], {}
        linalg._reduce(K.axpy, v, rows, leads, hits)
        assert bool(v) == accepted
        if not v:
            continue
        for k, c in hits:
            K.axpy(e, c, exprs[k])
        lc = max(v)
        inv = K.div(K.one.v, v[lc])
        e[len(rows)] = K.one.v
        rows.append(linalg._scaled(K, v, inv))
        leads.append(lc)
        exprs.append(linalg._scaled(K, e, inv))
        if rng.random() < 0.3:
            assert ss.sparse_coords({}) == {}
    assert ss.rows == rows
    ss.sparse_coords({})
    assert ss.expr == exprs
    assert [list(e) for e in ss.expr] == [list(e) for e in exprs]


def test_span_solver_over_gf5_reads_leads_mod_5():
    """Rows u0 = (0, 3, 1) (lead 2) and u1 = (1, 1, 0) (lead 1).  Row 0
    is hit with c = 2 and leaves the int y - 6 at column 1, the lead of
    row 1: for y = 1 that is -5, a nonzero int that is zero mod 5, so
    row 1 is not hit; for y = 2 it is -4, so row 1 is hit with c = 1,
    not -4.  The recorded steps are the eager ones, and add, contains
    and sparse_coords agree with rref and solve."""
    K = PrimeField(5)
    vectors = [{1: 3, 2: 1}, {0: 1, 1: 1}]
    ss = linalg.SpanSolver(K, 3)
    assert all(ss.add(u) for u in vectors) and ss.lead == [2, 1]
    dense = [linalg.dense(K, u, 3) for u in vectors]
    columns = _as_columns(dense, 3)
    cases = [({1: 1, 2: 2}, [(0, 2)]),
             ({0: 1, 1: 1, 2: 2}, [(0, 2)]),
             ({0: 3, 1: 1, 2: 2}, [(0, 2)]),
             ({0: 1, 1: 2, 2: 2}, [(0, 2), (1, 1)]),
             ({1: 2, 2: 2}, [(0, 2), (1, 1)])]
    for v, want in cases:
        deferred, eager, hits, eager_hits = dict(v), dict(v), [], []
        linalg._reduce_mod(5, deferred, ss.rows, ss.lead, hits)
        linalg._reduce(K.axpy, eager, ss.rows, ss.lead, eager_hits)
        assert hits == eager_hits == want and deferred == eager
        dense_v = linalg.dense(K, v, 3)
        inside = linalg.rref(dense + [dense_v])[2] == 2
        assert ss.contains(v) == inside == (not eager)
        coords = ss.sparse_coords(v)
        solution = linalg.solve(columns, dense_v)
        if inside:
            assert linalg.dense(K, coords, 2) == solution
        else:
            assert coords is None and solution is None
    assert ss.add({1: 2, 2: 2}) and ss.steps[-1] == ([(0, 2), (1, 1)], 4)
    assert ss.rank == 3 and ss.lead == [2, 1, 0]


def test_mat_bracket_with_a_zero_operand(kernel_field):
    """A zero operand on either side gives N empty rows, each its own
    dict, on every field kind."""
    K = kernel_field
    rng = random.Random(43)
    for n in (1, 3, 6):
        a = _rows(K, [random_vector(K, rng, n, zero_rate=0.2)
                      for _ in range(n)])
        zero = tuple({} for _ in range(n))
        for x, y in ((a, zero), (zero, a), (zero, zero)):
            got = linalg.mat_bracket(K, x, y)
            assert got == zero and len({id(row) for row in got}) == n
            assert got == _rows(K, _reference_bracket(_matrix(K, x),
                                                      _matrix(K, y)))


@pytest.mark.parametrize("name", list(PACKED_PRIMES))
def test_trace_product_over_gf_p_matches_dense_trace(name):
    """The GF(p) trace form sums int products and reduces once; it
    equals the FieldElement trace of the product, with entries p - 1 and
    p - 2 throughout and mixed with random residues."""
    K = PACKED_PRIMES[name]
    p, rng = K.p, random.Random(47)
    for n in (1, 4, 9):
        high = [[K(p - 1 - (i + j) % 2) for j in range(n)] for i in range(n)]
        mixed = [[K(rng.choice((p - 1, p - 2, 0, rng.randrange(p))))
                  for _ in range(n)] for _ in range(n)]
        for a, b in ((high, high), (high, mixed), (mixed, mixed)):
            ab = _reference_mul(a, b)
            got = linalg.trace_product(K, _rows(K, a), _rows(K, b))
            assert got == sum((ab[i][i] for i in range(n)), K.zero)
            assert isinstance(got.v, int) and 0 <= got.v < p


def test_a_gf_p_matrix_is_packed_once(F, monkeypatch):
    """Bracketing the same two elements again, and combining elements
    already packed, make no `_pack` call: each element keeps its packed
    rows.  The context's generators are elements from the start."""
    mats, _ = build_generators("D", 5, F, (F(2), F(3)))
    ctx = MatrixLieAlgebra(F, 10, mats)
    x, y = ctx.generators_list[:2]
    assert all(isinstance(g, linalg.Rows) for g in ctx.generators_list)
    packs = []
    pack = linalg._pack
    monkeypatch.setattr(linalg, "_pack",
                        lambda v, w: packs.append(w) or pack(v, w))
    xy = ctx.bracket(x, y)
    x_xy = ctx.bracket(x, xy)
    assert packs
    packs.clear()
    assert ctx.bracket(x, y) == xy and ctx.bracket(x, xy) == x_xy
    assert ctx.bracket(y, x) == ctx.lincomb([(-1, xy)])
    combo = ctx.lincomb([(2, x), (-1, y), (3, xy), (1, x)])
    assert packs == []
    want = _fold(F, [(F(c), ctx.external(m))
                     for c, m in ((3, x), (-1, y), (3, xy))], 10)
    assert combo == _rows(F, want)
