"""Exact linear algebra over the fields in :mod:`extremal_lie.fields`.

The kernels work on payloads, the raw values inside FieldElements: a
vector is a sparse payload vector ``{index: payload}`` holding its
nonzero entries only, and an N x N matrix is a tuple of N sparse payload
rows ``({col: payload}, ...)``.  Every matrix a kernel returns is a
`Rows`, the tuple subclass that is the element type of the matrix Lie
context (`realizations.MatrixLieAlgebra`).  The rows of a matrix are
never modified once it is made, by the kernels or by their callers.
Most loops go through the field's ``axpy(v, c, row)`` kernel, which
sets ``v -= c*row`` in place and deletes entries that become zero (see
:mod:`extremal_lie.fields`).  The matrix kernels are the bracket
`mat_bracket`, the linear combination `mat_lincomb`, the trace form
`trace_product` and the row-major flattening `mat_vector`;
`bracket_closure` grows the Lie span of a set of elements.  A
square-zero matrix x also has rank factors x = U R (`Rows.factors`,
kept on the `Rows` like its packed rows), and `sandwich` forms the
r x r matrix R y U from which `MatrixLieAlgebra.extremal_value` reads
f_x(y) without a bracket.

Over GF(p) `mat_bracket` and `mat_lincomb` run on packed rows instead
of `axpy`: a row of residues becomes one Python int holding a slot of
w bits per column, an output row is a sum of (residue) x (packed row)
multiply-adds done by C big-int arithmetic, and one unpack reads it
back with one ``% p`` per slot.  A slot summing T products of residues
holds at most T*(p-1)^2, so the slot width w = (T*(p-1)^2).bit_length()
keeps every slot below 2^w and the sums exact; a subtracted term is
written with p - x, so no slot borrows.  The bracket sums T = 2N terms
per slot for N x N matrices, and `mat_lincomb` as many as it has terms
and at least 2N.  Since rows never change, a `Rows` packs its rows once and keeps them with their slot
width (`Rows.packed`): a matrix that is an operand again, as the
generators and the sampled elements of an identity check are many
times, is not packed again, and only a combination of more than 2N
terms, at a wider slot, repacks it.  Rationals stay on `axpy` because
fractions cannot be packed, and quadratic extensions because a match
brackets over the base field and keeps only scalars in the extension.
On every field a bracket with a zero operand returns N empty rows at
once, and over GF(p) `trace_product` sums its residue products as ints
and reduces mod p once.  All pivoting is deterministic, so reduced
forms, solutions and span tests are reproducible bit for bit: `echelon`
pivots on the leftmost column and the first nonzero row, and
`SpanSolver` on the last column of each row it keeps.

Row reduction has one kernel, `echelon`, which takes sparse payload rows
and returns their reduced row echelon form; `rref` and `solve` are its
FieldElement wrappers, and `presentation.build_L0` calls it directly.
Both `echelon` and `SpanSolver` reduce a vector against semi-echelon
rows, each with the loop that suits its vectors.  `echelon` is driven
by the entries of the row it reduces, on `axpy`: a map from lead to
kept row names the rows the row meets.  The 5 800 nonempty relation
rows of one `present-qq` pass hold about 1.2 entries each against up
to 98 kept rows, so a scan over the kept rows makes 231 000 lookups;
the entry-driven loop reduces the same rows in about 0.6 of the time
(CPython 3.11).  `SpanSolver` scans its rows (`_reduce`): its vectors
are matrices with dozens to hundreds of entries, and the entry-driven
loop on them measured 3-5% slower on the `certify-gfp` and
`match-gfp2` benchmark workloads.  Over GF(p) the span reduction, and
the combination that turns its steps into coordinates, run as
`_reduce_mod` and `_combine_mod`: they sum plain ints and reduce mod p
only where they read a lead, and once at the end.
`SpanSolver` builds the expressions of its rows in the accepted
vectors only when coordinates are first asked for, by replaying the
reduction steps `add` recorded, so the many spans that only test
membership or count a rank do no expression work.  A match makes one
pass over the generator products of each side it proves
(`certify._check_side`): a product is solved to coordinates, once,
only when a model check applies them, and a side that is its own model
but outside its family's standard classical algebra tests membership
(`contains`), since nothing reads its coordinates.
A zero row costs O(1): `echelon` drops empty input rows before it
copies them, and `_reduce` stops scanning the kept rows as soon as the
vector it reduces is empty.  Most relation rows of the graded
presentation are empty or reduce to zero.

FieldElement vectors (lists) and matrices (lists of rows) remain at the
edge only.  `sparse` and `dense` convert between the two forms; they
serve `rref`, `solve`, `SpanSolver` (FieldElement input and the output
of `coords`), the Lie contexts' `element` and `external`, and the glue
rows of `certify.match_algebras`.  The realization
builders in :mod:`extremal_lie.realizations` assemble the generating
matrices from vectors and the covectors of bilinear forms with the
FieldElement vector helpers `dot`, `vec_add`, `vec_sub` and
`vec_scale`.
"""

import operator
from fractions import Fraction
from functools import partial

from .fields import DescriptorMismatch, FieldElement, PrimeField, RationalField


def sparse(field, vec):
    """The sparse payload vector {index: payload} of a FieldElement
    vector.  Over the rationals an integral `Fraction` payload becomes
    its int: int * Fraction stays a Fraction, so one such entry of a
    generator would keep every bracket it enters in Fraction
    arithmetic.  Raises DescriptorMismatch on an element of another
    field."""
    zero = field.zero.v
    out = {}
    for i, x in enumerate(vec):
        if x.field is not field and not field.same(x.field):
            raise DescriptorMismatch(
                f"cannot combine elements of {field} and {x.field}")
        if x.v != zero:
            out[i] = x.v
    if isinstance(field, RationalField):
        for i, v in out.items():
            if type(v) is Fraction and v.denominator == 1:
                out[i] = v.numerator
    return out


def dense(field, v, length):
    """The FieldElement vector of a sparse payload vector."""
    zero = field.zero
    return [FieldElement(field, v[j]) if j in v else zero
            for j in range(length)]


class Rows(tuple):
    """An N x N matrix as a tuple of N sparse payload rows, which are
    not modified once it is made.  Over GF(p) it keeps its rows packed
    at the slot width of their last packing, and over every field its
    rank factors once asked for them (`factors`)."""

    width = None      # the slot width of `_ints`, once packed
    _over = None      # the field of `_factors`, once factored

    def packed(self, w):
        """The rows packed at slot width w, an empty row as 0: packed
        the first time, and again only at another width."""
        if self.width != w:
            self._ints = tuple([_pack(row, w) if row else 0
                                for row in self])
            self.width = w
        return self._ints

    def factors(self, field):
        """The rank factors (R, U) of a square-zero matrix x = U R over
        `field`, or None when x^2 != 0.  R is the nonzero rows of
        `echelon` of x, r of them, and U the r columns of x at their
        pivots, as sparse payload columns {row: payload}: row i of x is
        sum_k x_{i,pivot k} R_k.  U is injective and R onto, so
        x^2 = U (RU) R vanishes exactly when the r x r product RU does
        (`sandwich` of the identity), which needs im x inside ker x, so
        r <= N/2.  Factored the first time, and again only over another
        field."""
        if self._over is not field:
            n = len(self)
            rows, pivots = echelon(field, self)
            cols = [{i: row[pc] for i, row in enumerate(self) if pc in row}
                    for pc in pivots]
            unit = [{i: field.one.v} for i in range(n)]
            square_zero = 2 * len(rows) <= n and not any(
                not field.is_zero(v)
                for line in sandwich(field, (rows, cols), unit)
                for v in line)
            self._factors = (rows, cols) if square_zero else None
            self._over = field
        return self._factors


def sandwich(field, factors, y):
    """The r x r payload matrix R y U of the rank factors (R, U)
    (`Rows.factors`) and a matrix y given as payload rows.  Entry (k, l)
    sums R_ki y_ij U_jl over the supports of row k of R and column l of
    U only; over GF(p) as ints, reduced once."""
    rows, cols = factors
    prime = isinstance(field, PrimeField)
    add, mul, zero = ((operator.add, operator.mul, 0) if prime
                      else (field.add, field.mul, field.zero.v))
    out = []
    for row in rows:
        line = []
        for col in cols:
            s = zero
            for i, r in row.items():
                yi = y[i]
                for j, u in col.items():
                    b = yi.get(j)
                    if b is not None:
                        s = add(s, mul(r, mul(b, u)))
            line.append(s)
        out.append(line)
    return [[s % field.p for s in line] for line in out] if prime else out


def _packed(m, w):
    """`Rows.packed` of m, which may also be a plain tuple of rows."""
    return (m if isinstance(m, Rows) else Rows(m)).packed(w)


def mat_bracket(field, a, b):
    """ab - ba of two matrices given as payload rows.  A zero operand
    gives N empty rows at once.  Over GF(p) each output row is a sum of
    packed rows (`_packed_bracket`); over other fields it is
    accumulated in one sparse vector through `axpy`."""
    if not any(a) or not any(b):
        return Rows([{} for _ in a])
    if isinstance(field, PrimeField):
        return _packed_bracket(field.p, a, b)
    neg, axpy = field.neg, field.axpy
    out = []
    for arow, brow in zip(a, b):
        acc = {}
        for t, x in arow.items():
            if b[t]:
                axpy(acc, neg(x), b[t])
        for t, x in brow.items():
            if a[t]:
                axpy(acc, x, a[t])
        out.append(acc)
    return Rows(out)


def mat_lincomb(field, terms, size):
    """The size x size matrix sum c*m over the terms (c, m), where c is
    a FieldElement or int and m is given as payload rows.  Raises
    DescriptorMismatch on a coefficient of another field.  Over GF(p)
    output row i is the sum of c * (packed row i of m), at the bracket
    slot width for up to 2N terms, so the operands' packed rows serve
    both kernels."""
    payload, is_zero = field.payload, field.is_zero
    if isinstance(field, PrimeField):
        p = field.p
        w = _slot_width(p, max(len(terms), 2 * size))
        acc = [0] * size
        for c, m in terms:
            c = payload(c)
            if c:
                for i, r in enumerate(_packed(m, w)):
                    if r:
                        acc[i] += c * r
        return Rows([_unpack(s, w, p) for s in acc])
    neg, axpy = field.neg, field.axpy
    out = [{} for _ in range(size)]
    for c, rows in terms:
        c = payload(c)
        if is_zero(c):
            continue
        nc = neg(c)
        for acc, row in zip(out, rows):
            if row:
                axpy(acc, nc, row)
    return Rows(out)


# ---------------------------------------------------------------------------
# packed GF(p) rows: slot k of the int sum x_k * 2^(k*w) holds the
# residue x_k (see the module docstring for the slot-width rule)
# ---------------------------------------------------------------------------

def _slot_width(p, terms):
    """Bits per slot for a packed sum of `terms` residue products."""
    return (terms * (p - 1) ** 2).bit_length()


def _pack(v, w):
    """The sparse residue vector v as one int with slot width w."""
    s = 0
    for k, x in v.items():
        s += x << (k * w)
    return s


def _unpack(s, w, p):
    """The sparse residue vector of the packed int s: every slot reduced
    mod p, zeros dropped."""
    mask = (1 << w) - 1
    out, k = {}, 0
    while s:
        x = (s & mask) % p
        if x:
            out[k] = x
        s >>= w
        k += 1
    return out


def _packed_bracket(p, a, b):
    """`mat_bracket` over GF(p): row i of ab - ba is
    sum_t a_it * (row t of b) + sum_t (p - b_it) * (row t of a), at most
    2N packed terms for N x N matrices."""
    w = _slot_width(p, 2 * len(a))
    pa, pb = _packed(a, w), _packed(b, w)
    out = []
    for arow, brow in zip(a, b):
        s = 0
        for t, x in arow.items():
            s += x * pb[t]
        for t, x in brow.items():
            s += (p - x) * pa[t]
        out.append(_unpack(s, w, p))
    return Rows(out)


def mat_vector(a):
    """The row-major sparse payload vector {i*N + j: payload} of an
    N x N matrix given as payload rows."""
    n = len(a)
    return {i * n + j: x for i, row in enumerate(a) for j, x in row.items()}


def trace_product(field, a, b):
    """trace(ab) of two matrices given as payload rows, summed over the
    nonzero entries a_ik b_ki only, without forming the product.  Over
    GF(p) the residue products are summed as ints and reduced once."""
    if isinstance(field, PrimeField):
        s = 0
        for i, row in enumerate(a):
            for k, x in row.items():
                y = b[k].get(i)
                if y is not None:
                    s += x * y
        return FieldElement(field, s % field.p)
    add, mul = field.add, field.mul
    s = field.zero.v
    for i, row in enumerate(a):
        for k, x in row.items():
            y = b[k].get(i)
            if y is not None:
                s = add(s, mul(x, y))
    return FieldElement(field, s)


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def vec_scale(u, c):
    return [c * x for x in u]


def dot(u, v):
    s = u[0].field.zero
    for x, y in zip(u, v):
        if not x.is_zero() and not y.is_zero():
            s = s + x * y
    return s


def _reduce(axpy, v, rows, leads, hits=None):
    """Reduce the sparse v in place against semi-echelon rows: row k
    holds the payload one at its lead leads[k] and is zero at the leads
    of the rows before it.  With a list `hits` given, append (k, c) for
    each step v -= c*(row k), in order.  Once v is empty no row
    applies, so the scan stops there: a zero vector costs O(1).  Only
    this invariant is used, so any rule for choosing the leads will do
    (`SpanSolver` takes the largest column of a row).  This is the
    reduction of `SpanSolver` over fields other than GF(p); `echelon`
    applies the same rows in the same order, found from the entries of
    v instead of by a scan."""
    if not v:
        return
    for k, (row, lc) in enumerate(zip(rows, leads)):
        c = v.get(lc)
        if c is not None:
            axpy(v, c, row)
            if hits is not None:
                hits.append((k, c))
            if not v:
                return


def _reduce_mod(p, v, rows, leads, hits=None):
    """`_reduce` over GF(p) with the reductions deferred: v holds plain
    int sums, congruent mod p to the entries the eager `_reduce` holds
    after the same rows.  A lead is read as c = v[lead] % p, a hit is
    recorded only when c != 0 (so the hits are the eager ones), and the
    lead entry, then zero mod p, is deleted after its row.  The scan
    stops once v is empty; at the end every entry is reduced once and
    the zeros dropped.  Each hit adds less than p^2 to an entry, so the
    ints stay a few words wide, and one `%` per lead read replaces one
    per entry touched."""
    if not v:
        return
    get = v.get
    for k, (row, lc) in enumerate(zip(rows, leads)):
        c = get(lc)
        if c is None:
            continue
        c %= p
        if c:
            for j, b in row.items():
                v[j] = get(j, 0) - c * b
            if hits is not None:
                hits.append((k, c))
        del v[lc]
        if not v:
            return
    red = {j: y for j, x in v.items() if (y := x % p)}
    v.clear()
    v.update(red)


def _combine(field, hits, vectors):
    """sum c * vectors[k] over the pairs (k, c) of `hits`."""
    axpy, neg = field.axpy, field.neg
    e = {}
    for k, c in hits:
        axpy(e, neg(c), vectors[k])
    return e


def _combine_mod(p, hits, vectors):
    """`_combine` over GF(p): plain int sums, reduced once at the end."""
    e = {}
    get = e.get
    for k, c in hits:
        for j, x in vectors[k].items():
            e[j] = get(j, 0) + c * x
    return {j: y for j, x in e.items() if (y := x % p)}


def _kernels(field):
    """The (reduce, combine) kernels of a `SpanSolver` over a field:
    over GF(p) the deferred ones, elsewhere those on `axpy`.  A span
    chooses once, when it is made, so no vector pays for the choice."""
    if isinstance(field, PrimeField):
        return partial(_reduce_mod, field.p), partial(_combine_mod, field.p)
    return partial(_reduce, field.axpy), partial(_combine, field)


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
    semi-echelon form).  The reduction is driven by the row's own
    entries: a map from each lead to its kept row names the rows the
    row meets, and each step applies the one kept first.  A kept row is
    zero at the leads of the rows kept before it, so a step can only
    add leads of later rows, and the rows applied and their order are
    those of a scan over all kept rows (`_reduce`), at the cost of the
    row's entries rather than of the kept rows.  Back substitution,
    from the rightmost pivot leftwards, then clears every pivot column
    of the other rows.  The reduced row echelon form of a row space is
    unique, so the result does not depend on the elimination order."""
    axpy, div, one = field.axpy, field.div, field.one.v
    kept, leads, at = [], [], {}     # at: lead column -> its kept row
    for v in rows:
        if not v:
            continue
        v = dict(v)
        while met := [at[c] for c in v if c in at]:
            k = min(met)
            axpy(v, v[leads[k]], kept[k])
        if v:
            lc = min(v)
            at[lc] = len(kept)
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
    `add` found independent), so `coords` recovers exact coordinates
    with respect to the accepted vectors, in the order they were added.
    Each coordinate solve combines the expressions of the echelon rows
    in the accepted vectors.  They are built on demand: `add` records
    only the steps (row index, coefficient) that reduced an accepted
    vector, and the first coordinate solve replays them in order, so a
    span that is never asked for coordinates (a closure, a rank, an
    independence test) builds no expression.

    Rows and expressions are sparse payload vectors.  A row's lead is
    the largest index of the reduced vector it was made from and holds
    the payload one, and each row is zero at the leads of the rows
    before it (`_reduce`).  The last column is chosen for fill: on a
    match, leading there rather than on the smallest index halves the
    row entries a reduction applies, 101 -> 54 per reduction of a
    nonzero vector on a B5 match and 1218 -> 596 on a D10 one.  No
    answer depends on the rule: rank and membership are those of the
    span, and coordinates in independent vectors are unique, so only
    the rows and the recorded steps differ.  Over GF(p) the reductions
    are deferred (`_reduce_mod`, `_combine_mod`); the kernels are chosen
    once, when the span is made.  A vector is
    offered as a sparse payload vector, which is not modified, or as a
    FieldElement vector; it must lie in the coordinate space of
    dimension `ambient_dim` (ValueError on a key outside
    range(ambient_dim) or on a list of another length).
    """

    def __init__(self, field, ambient_dim):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = []        # semi-echelon rows (normalised leading 1)
        self.lead = []        # leading column of each row
        self.steps = []       # (reduction hits, inv) per row, then None
        self.expr = []        # expressions of the first rows, built so far
        self._reduce, self._combine = _kernels(field)

    @property
    def rank(self):
        return len(self.rows)

    def _sparse(self, v):
        """A sparse payload copy of v, to reduce in place."""
        dim = self.ambient_dim
        if isinstance(v, dict):
            if v and (min(v) < 0 or max(v) >= dim):
                raise ValueError(f"payload vector with a key outside "
                                 f"range({dim}) offered to a span")
            return dict(v)
        if len(v) != dim:
            raise ValueError(f"vector of length {len(v)} offered to a span "
                             f"in dimension {dim}")
        return sparse(self.field, v)

    def add(self, v):
        """Add a vector; returns True if it increased the rank."""
        field = self.field
        v, hits = self._sparse(v), []
        self._reduce(v, self.rows, self.lead, hits)
        if not v:
            return False
        lc = max(v)
        inv = field.div(field.one.v, v[lc])
        self.rows.append(_scaled(field, v, inv))
        self.lead.append(lc)
        self.steps.append((hits, inv))
        return True

    def contains(self, v):
        v = self._sparse(v)
        self._reduce(v, self.rows, self.lead)
        return not v

    def coords(self, v):
        """Coordinates of v with respect to the accepted vectors (`rank`
        of them), or None if v is not in the span."""
        c = self.sparse_coords(v)
        return None if c is None else dense(self.field, c, self.rank)

    def sparse_coords(self, v):
        """`coords` as a sparse payload vector {k: payload}, or None."""
        v, hits = self._sparse(v), []
        self._reduce(v, self.rows, self.lead, hits)
        if v:
            return None
        return self._combine(hits, self._exprs())

    def _exprs(self):
        """The expression of every echelon row in the accepted vectors:
        row r is inv * (accepted vector r - sum c*(row k) over its
        hits), so its expression replays the hits on the expressions of
        the rows before it."""
        field, expr = self.field, self.expr
        for r in range(len(expr), self.rank):
            hits, inv = self.steps[r]
            e = _scaled(field, self._combine(hits, expr), field.neg(inv))
            e[r] = inv
            expr.append(e)
            self.steps[r] = None
        return expr


def bracket_closure(field, generators, bracket, vector, vector_dim):
    """Basis of the span of `generators` closed under `bracket`: the
    independent generators in order, then round by round every
    independent bracket [g, v] of a generator g with an element v new in
    the previous round.  `vector` gives the sparse payload coordinates
    of an element, in a space of dimension `vector_dim`.

    The subalgebra generated by a set is spanned by the right-nested
    brackets [g_{i_k}, [..., [g_{i_2}, g_{i_1}]]] (Jacobi rewrites any
    bracket monomial into such terms), so it suffices to bracket the
    generators against the current frontier."""
    span = SpanSolver(field, vector_dim)
    basis = [g for g in generators if span.add(vector(g))]
    frontier = list(basis)
    while frontier:
        new = []
        for g in generators:
            for v in frontier:
                w = bracket(g, v)
                if span.add(vector(w)):
                    new.append(w)
        basis.extend(new)
        frontier = new
    return basis
