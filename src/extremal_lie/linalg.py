"""Exact linear algebra over the fields in :mod:`extremal_lie.fields`.

Vectors and matrices cross the API as FieldElements: a vector is a list
of FieldElement, a matrix a list of rows.  All pivoting is deterministic
(leftmost pivot column, first nonzero row), so reduced forms, solutions
and span tests are reproducible bit for bit.

The hot loops (`SpanSolver`, `mat_mul`, `mat_bracket`, the linear
combination `mat_lincomb` and the trace form `trace_product`) convert
their inputs once with `sparse` and then work on sparse payload vectors
``{index: payload}``, mostly through the field's ``axpy(v, c, row)``
kernel, which sets ``v -= c*row`` in place and deletes entries that
become zero (see :mod:`extremal_lie.fields`).

Row reduction has one kernel, `echelon`, which takes sparse payload rows
and returns their reduced row echelon form.  Its forward pass is the
reduction `SpanSolver` runs (`_reduce`); `rref` and `solve` are its
FieldElement wrappers, and `presentation.build_L0` calls it directly.
"""

from .fields import DescriptorMismatch, FieldElement, lift_element


def zeros(field, rows, cols):
    z = field.zero
    return [[z] * cols for _ in range(rows)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def sparse(field, vec):
    """The sparse payload vector {index: payload} of a FieldElement
    vector.  Raises DescriptorMismatch on an element of another field."""
    zero = field.zero.v
    out = {}
    for i, x in enumerate(vec):
        if x.field is not field and not field.same(x.field):
            raise DescriptorMismatch(
                f"cannot combine elements of {field} and {x.field}")
        if x.v != zero:
            out[i] = x.v
    return out


def dense(field, v, length):
    """The FieldElement vector of a sparse payload vector."""
    zero = field.zero
    return [FieldElement(field, v[j]) if j in v else zero
            for j in range(length)]


def mat_mul(a, b):
    field = a[0][0].field
    neg, axpy = field.neg, field.axpy
    brows = [sparse(field, row) for row in b]
    out = []
    for row in a:
        acc = {}
        for t, x in sparse(field, row).items():
            axpy(acc, neg(x), brows[t])
        out.append(dense(field, acc, len(b[0])))
    return out


def mat_lincomb(field, terms, size):
    """The size x size matrix sum c*m over the terms (c, rows), where c
    is a FieldElement or int and rows are the sparse payload rows
    (`sparse`) of m.  Raises DescriptorMismatch on a coefficient of
    another field."""
    neg, axpy, is_zero = field.neg, field.axpy, field.is_zero
    scaled = []
    for c, rows in terms:
        c = field(c).v
        if not is_zero(c):
            scaled.append((neg(c), rows))
    out = []
    for i in range(size):
        acc = {}
        for nc, rows in scaled:
            if rows[i]:
                axpy(acc, nc, rows[i])
        out.append(dense(field, acc, size))
    return out


def mat_vec(a, v):
    field = v[0].field
    zero = field.zero
    out = []
    for row in a:
        s = zero
        for c, x in zip(row, v):
            if not c.is_zero() and not x.is_zero():
                s = s + c * x
        out.append(s)
    return out


def mat_bracket(a, b):
    """ab - ba, each row accumulated in one sparse vector."""
    field = a[0][0].field
    neg, axpy = field.neg, field.axpy
    arows = [sparse(field, row) for row in a]
    brows = [sparse(field, row) for row in b]
    out = []
    for arow, brow in zip(arows, brows):
        acc = {}
        for t, x in arow.items():
            axpy(acc, neg(x), brows[t])
        for t, x in brow.items():
            axpy(acc, x, arows[t])
        out.append(dense(field, acc, len(b[0])))
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a):
    s = a[0][0]
    for i in range(1, len(a)):
        s = s + a[i][i]
    return s


def trace_product(a, b):
    """trace(ab), summed over the nonzero entries a_ik b_ki only, without
    forming the product."""
    field = a[0][0].field
    add, mul = field.add, field.mul
    brows = [sparse(field, row) for row in b]
    s = field.zero.v
    for i, row in enumerate(a):
        for k, x in sparse(field, row).items():
            y = brows[k].get(i)
            if y is not None:
                s = add(s, mul(x, y))
    return FieldElement(field, s)


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if not (x - y).is_zero():
                return False
    return True


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def vec_scale(u, c):
    return [c * x for x in u]


def vec_neg(u):
    return [-x for x in u]


def vec_is_zero(u):
    return all(x.is_zero() for x in u)


def vec_eq(u, v):
    return len(u) == len(v) and all((x - y).is_zero() for x, y in zip(u, v))


def dot(u, v):
    s = u[0].field.zero
    for x, y in zip(u, v):
        if not x.is_zero() and not y.is_zero():
            s = s + x * y
    return s


def flatten(a):
    return [x for row in a for x in row]


def lift_matrix(a, field):
    return [[lift_element(x, field) for x in row] for row in a]


def _reduce(axpy, v, rows, leads, e=None, exprs=()):
    """Reduce the sparse v in place against semi-echelon rows: row k
    holds the payload one at its lead leads[k] and is zero at the leads
    of the rows before it.  With e given, apply the same steps to e
    through the matching exprs."""
    if e is None:
        for row, lc in zip(rows, leads):
            c = v.get(lc)
            if c is not None:
                axpy(v, c, row)
        return
    for row, lc, ex in zip(rows, leads, exprs):
        c = v.get(lc)
        if c is not None:
            axpy(v, c, row)
            axpy(e, c, ex)


def _scaled(field, v, c):
    """The sparse v times the payload c."""
    mul = field.mul
    return {k: mul(c, x) for k, x in v.items()}


def echelon(field, rows):
    """The reduced row echelon form of the sparse payload rows (which are
    not modified): (reduced, pivots), the nonzero reduced rows in pivot
    order and their pivot columns, ascending.

    Each row is reduced against the rows kept so far and kept, scaled to
    a leading one at its smallest column, if anything is left (a
    semi-echelon form); back substitution, from the rightmost pivot
    leftwards, then clears every pivot column of the other rows.  The
    reduced row echelon form of a row space is unique, so the result
    does not depend on the elimination order."""
    axpy, div, one = field.axpy, field.div, field.one.v
    kept, leads = [], []
    for v in rows:
        v = dict(v)
        _reduce(axpy, v, kept, leads)
        if v:
            lc = min(v)
            kept.append(_scaled(field, v, div(one, v[lc])))
            leads.append(lc)
    order = sorted(range(len(kept)), key=leads.__getitem__, reverse=True)
    done = {}
    for r in order:
        row, lc = kept[r], leads[r]
        for pc in [k for k in row if k in done]:
            axpy(row, row[pc], done[pc])
        done[lc] = row
    pivots = sorted(done)
    return [done[pc] for pc in pivots], pivots


def rref(matrix):
    """Reduced row echelon form of a FieldElement matrix.

    Returns (reduced, pivot_cols, rank): the `echelon` rows as
    FieldElement rows, padded with zero rows to the input's row count.
    The input is not modified."""
    if not matrix or not matrix[0]:
        return [list(row) for row in matrix], [], 0
    field = matrix[0][0].field
    n_cols = len(matrix[0])
    reduced, pivots = echelon(field, [sparse(field, row) for row in matrix])
    out = [dense(field, row, n_cols) for row in reduced]
    out += [[field.zero] * n_cols for _ in range(len(matrix) - len(out))]
    return out, pivots, len(pivots)


def solve(matrix, rhs):
    """One exact solution of matrix @ x = rhs, or None if inconsistent.

    Free variables are set to zero (deterministic particular solution).
    """
    field = rhs[0].field
    n_cols = len(matrix[0]) if matrix else 0
    aug = [sparse(field, list(row) + [b]) for row, b in zip(matrix, rhs)]
    reduced, pivots = echelon(field, aug)
    if n_cols in pivots:
        return None  # pivot in the rhs column: inconsistent
    return dense(field, {pc: row[n_cols] for pc, row in zip(pivots, reduced)
                         if n_cols in row}, n_cols)


class SpanSolver:
    """Incremental span membership / coordinate solver.

    Maintains an echelon basis of the span of the accepted vectors (those
    `add` found independent) together with the expression of each echelon
    row in terms of them, so `coords` recovers exact coordinates with
    respect to the accepted vectors, in the order they were added.

    Rows and expressions are sparse payload vectors; a row's leading
    column is its smallest index and holds the payload one.  Every
    vector offered must have `ambient_dim` entries (ValueError
    otherwise).
    """

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = []        # echelon rows (normalised leading 1)
        self.lead = []        # leading column of each row
        self.expr = []        # expression of each row in accepted vectors

    @property
    def rank(self):
        return len(self.rows)

    def _sparse(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector of length {len(v)} offered to a span "
                             f"in dimension {self.ambient_dim}")
        return sparse(self.field, v)

    def add(self, v):
        """Add a vector; returns True if it increased the rank."""
        field = self.field
        v, e = self._sparse(v), {}
        _reduce(field.axpy, v, self.rows, self.lead, e, self.expr)
        if not v:
            return False
        lc = min(v)
        inv = field.div(field.one.v, v[lc])
        e[self.rank] = field.one.v
        self.rows.append(_scaled(field, v, inv))
        self.lead.append(lc)
        self.expr.append(_scaled(field, e, inv))
        return True

    def contains(self, v):
        v = self._sparse(v)
        _reduce(self.field.axpy, v, self.rows, self.lead)
        return not v

    def coords(self, v):
        """Coordinates of v with respect to the accepted vectors (`rank`
        of them), or None if v is not in the span."""
        c = self.sparse_coords(v)
        return None if c is None else dense(self.field, c, self.rank)

    def sparse_coords(self, v):
        """`coords` as a sparse payload vector {k: payload}, or None."""
        field = self.field
        v, e = self._sparse(v), {}
        _reduce(field.axpy, v, self.rows, self.lead, e, self.expr)
        if v:
            return None
        neg = field.neg
        return {k: neg(x) for k, x in e.items()}


def bracket_closure(generators, bracket, flatten, field):
    """Basis of the span of `generators` closed under `bracket`: the
    independent generators in order, then round by round every
    independent bracket [g, v] of a generator g with an element v new in
    the previous round.

    The subalgebra generated by a set is spanned by the right-nested
    brackets [g_{i_k}, [..., [g_{i_2}, g_{i_1}]]] (Jacobi rewrites any
    bracket monomial into such terms), so it suffices to bracket the
    generators against the current frontier."""
    span = SpanSolver(field, len(flatten(generators[0])))
    basis = [g for g in generators if span.add(flatten(g))]
    frontier = list(basis)
    while frontier:
        new = []
        for g in generators:
            for v in frontier:
                w = bracket(g, v)
                if span.add(flatten(w)):
                    new.append(w)
        basis.extend(new)
        frontier = new
    return basis
