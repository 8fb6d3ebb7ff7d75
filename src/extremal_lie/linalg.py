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
`mat_bracket`, the linear combination `mat_lincomb` and its zero test
`mat_vanishes`, the trace form `trace_product` and the row-major
flattening `mat_vector`;
`bracket_closure` grows the Lie span of a set of elements: a matrix
context, which is made from its generators, calls it the first time
its basis is read (`MatrixLieAlgebra.basis`), and
`extremal.subalgebra_closure_dim` on the elements it is given.  A
square-zero matrix x also has rank factors x = U R (`Rows.factors`,
kept on the `Rows` like its packed rows), and `sandwich` forms the
r x r matrix R y U from which `MatrixLieAlgebra.extremal_value` reads
f_x(y) without a bracket.

Over GF(p) `mat_bracket`, `mat_lincomb` and `mat_vanishes` run on
packed rows instead of `axpy`: a row of residues becomes one Python int
holding a slot of w bits per column, an output row is a sum of
(residue) x (packed row) multiply-adds done by C big-int arithmetic,
and one unpack reads it back with one ``% p`` per slot.  A slot summing
T products of residues holds at most T*(p-1)^2, so the slot width
w = (2*T*(p-1)^2).bit_length() keeps every slot below 2^(w-1) and the
sums exact, with the one guard bit the zero test needs; a subtracted
term is written with p - x, so no slot borrows.  A combination's terms
are matrices times coefficients, or bracket terms (1, (a, b)) standing
for [a, b], whose 2N products per slot are added into the sum as the
bracket forms them (`_accumulate`), so an identity residual forms its
outer bracket and never unpacks it.  Every kernel packs for
T = 2N + 4 products at least, a bracket's 2N and a residual's bracket
and three more terms, and `mat_lincomb` for more when its terms need
it.  `mat_lincomb` unpacks the row sums; `mat_vanishes` reads them
with one divmod and one mask per row, exact by the two width
conditions proved at `_vanish_mod`.  Since rows never change, a `Rows`
packs its rows once and keeps them with their slot width
(`Rows.packed`): a matrix that is an operand again, as the generators
and the sampled elements of an identity check are many times, is not
packed again, and only a combination of more than 2N + 4 products, at
a wider slot, repacks it.  Rationals stay on `axpy` because fractions
cannot be packed, and quadratic extensions because a match brackets
over the base field and keeps only scalars in the extension; there a
bracket term is formed by `mat_bracket` and the combination tested.
On every field a bracket with a zero operand returns N empty rows at
once, and over GF(p) `trace_product` sums its residue products as ints
and reduces mod p once.  All pivoting is deterministic, so reduced
forms, solutions and span tests are reproducible bit for bit: `echelon`
returns the reduced row echelon form, which is unique, and `SpanSolver`
pivots on the last column of each row it keeps.

Row reduction has one kernel, `echelon`, which takes sparse payload rows
and returns their reduced row echelon form; `rref` and `solve` are its
FieldElement wrappers, and `presentation.build_L0` calls it directly.
`echelon` first takes the unit rows off, the rows of one nonzero
entry: each is its own reduced row, so its column is a pivot, and the
other rows only lose their entries there.  Of the 5 837 relation rows of one `present-qq`
pass, 4 839 are units at 2 647 of the 2 998 pivots, so `echelon`
divides 351 times instead of 2 998 and calls `axpy` 538 times instead
of 4 179, in about a third of the time (0.0047 against 0.0142 s of a
0.034 against 0.043 s pass, CPython 3.11).  Both `echelon` and
`SpanSolver` reduce a vector against semi-echelon rows, each with the
loop that suits its vectors.  `echelon` is driven by the entries of
the row it reduces, on `axpy`: a map from lead to kept row names the
rows the row meets.  On the complete graph K5 over the rationals,
whose presentation has 2 883 relation rows of two or more entries, a
scan over the kept rows makes 430 000 lookups and takes 0.052 s
against the map's 0.044 s.  `SpanSolver` scans its rows (`_reduce`):
its vectors are matrices with dozens to hundreds of entries, and the
entry-driven loop on them measured 3-5% slower on the `certify-gfp` and
`match-gfp2` benchmark workloads.  Over GF(p) the span reduction, and
the combination that turns its steps into coordinates, run as
`_reduce_mod` and `_combine_mod`: they sum plain ints and reduce mod p
only where they read a lead, and once at the end.
`SpanSolver` builds the expressions of its rows in the accepted
vectors only when coordinates are first asked for, by replaying the
reduction steps `add` recorded, so the many spans that only test
membership or count a rank do no expression work.  A match makes one
pass over the generator products of each side it checks against a
model (`certify._check_side`), solving a product to coordinates once;
an own-model side 2 that `certify.catalog_closure` does not prove
closed takes the same pass with no model, which tests membership
(`contains`), since nothing reads its coordinates.
A zero row costs O(1): `echelon` drops empty input rows before it
copies them, and `_reduce` stops scanning the kept rows as soon as the
vector it reduces is empty.

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
    return _integral(out) if isinstance(field, RationalField) else out


def _integral(v):
    """The rational sparse v with each integral `Fraction` payload
    made its int, in place."""
    for i, x in v.items():
        if type(x) is Fraction and x.denominator == 1:
            v[i] = x.numerator
    return v


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
    packed rows (`_bracket_sums`); over other fields it is accumulated
    in one sparse vector through `axpy`."""
    if not any(a) or not any(b):
        return Rows([{} for _ in a])
    if isinstance(field, PrimeField):
        p = field.p
        w = _slot_width(p, _shared_terms(len(a)))
        return Rows([_unpack(s, w, p) for s in _bracket_sums(p, a, b, w)])
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
    a FieldElement or int and m is given as payload rows, or is a pair
    (a, b) of them standing for [a, b] with c = 1 (ValueError
    otherwise).  Raises DescriptorMismatch on a coefficient of another
    field.  Over GF(p) the packed row sums of `_accumulate` are
    unpacked; over other fields a pair is bracketed (`mat_bracket`)."""
    if isinstance(field, PrimeField):
        sums, w, _ = _accumulate(field, terms, size)
        return Rows([_unpack(s, w, field.p) for s in sums])
    payload, is_zero = field.payload, field.is_zero
    neg, axpy = field.neg, field.axpy
    out = [{} for _ in range(size)]
    for c, rows in terms:
        c = payload(c)
        if is_pair(rows):
            _check_bracket_term(field, c)
            rows = mat_bracket(field, *rows)
        if is_zero(c):
            continue
        nc = neg(c)
        for acc, row in zip(out, rows):
            if row:
                axpy(acc, nc, row)
    return Rows(out)


def mat_vanishes(field, terms, size):
    """Whether `mat_lincomb` of the terms is the zero matrix.  Over
    GF(p) the packed row sums of `_accumulate` are tested without
    unpacking them (`_vanish_mod`, one divmod and one mask per row, the
    first nonzero row ending the test); over other fields the pairs are
    bracketed and the combination formed and tested."""
    if not isinstance(field, PrimeField):
        return not any(mat_lincomb(field, terms, size))
    sums, w, t = _accumulate(field, terms, size)
    return _vanish_mod(field.p, sums, w, t, size)


def is_pair(m):
    """Whether the second entry m of a combination term is a pair
    (a, b) standing for [a, b]: a tuple whose first entry is a matrix,
    not a payload row ``{col: payload}``."""
    return isinstance(m, tuple) and not isinstance(m[0], dict)


def _check_bracket_term(field, c):
    """ValueError unless the payload c of a pair term is one: the
    packed slot bound counts each of its 2N products once."""
    if c != field.one.v:
        raise ValueError("a bracket term must have coefficient 1")


# ---------------------------------------------------------------------------
# packed GF(p) rows: slot k of the int sum x_k * 2^(k*w) holds the
# residue x_k (see the module docstring for the slot-width rule)
# ---------------------------------------------------------------------------

def _shared_terms(size):
    """T = 2N + 4, the products per slot every GF(p) kernel packs for
    at least: a bracket's 2N, and an identity residual's bracket and
    three more terms, so operands keep one packed width."""
    return 2 * size + 4


def _slot_width(p, terms):
    """Bits per slot for a packed sum of `terms` residue products, one
    guard bit above their largest sum (see `_vanish_mod`)."""
    return (2 * terms * (p - 1) ** 2).bit_length()


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


def _bracket_sums(p, a, b, w):
    """The packed row sums of ab - ba over GF(p), at slot width w: row
    i is sum_t a_it * (row t of b) + sum_t (p - b_it) * (row t of a), at
    most 2N products per slot for N x N matrices."""
    pa, pb = _packed(a, w), _packed(b, w)
    out = []
    for arow, brow in zip(a, b):
        s = 0
        for t, x in arow.items():
            s += x * pb[t]
        for t, x in brow.items():
            s += (p - x) * pa[t]
        out.append(s)
    return out


def _accumulate(field, terms, size):
    """(sums, w, T): the packed row sums of sum c*m over the terms of
    `mat_lincomb` over GF(p), at slot width w for T products per slot,
    T the count of the terms (2N per pair) and at least
    `_shared_terms`.  A pair's rows are `_bracket_sums` added as they
    are."""
    p, payload = field.p, field.payload
    t = max(sum(2 * size if is_pair(m) else 1 for _, m in terms),
            _shared_terms(size))
    w = _slot_width(p, t)
    acc = [0] * size
    for c, m in terms:
        c = payload(c)
        if is_pair(m):
            _check_bracket_term(field, c)
            acc = [x + s for x, s in zip(acc, _bracket_sums(p, *m, w))]
        elif c:
            for i, r in enumerate(_packed(m, w)):
                if r:
                    acc[i] += c * r
    return acc, w, t


def _vanish_mod(p, sums, w, t, size):
    """Whether every slot of every packed row sum is 0 mod p, for rows
    of `size` slots of width w = `_slot_width`(p, t) summing at most t
    residue products each.  A sum s holds slots
    0 <= v_k <= t*(p-1)^2 in base 2^w, and every v_k is 0 mod p exactly
    when p divides s and no w-bit digit of q = s // p reaches 2^w', for
    w' = (t*(p-1)^2 // p).bit_length().  The widths meet two
    conditions: (1) 2*t*(p-1)^2 < 2^w, the guard bit of `_slot_width`,
    and (2) t*(p-1)^2 // p < 2^w', by the choice of w'.
    If every v_k = p*q_k, then q_k <= t*(p-1)^2 // p < 2^w' by (2), so
    s = p * sum q_k 2^(k*w) with every q_k < 2^w: p divides s, and the
    digits of s // p are the q_k, all below 2^w'.
    Conversely, if s = p*q and every digit d_k of q is below 2^w', then
    2^(w'-1) <= t*(p-1)^2 / p gives p*d_k < p*2^w' <= 2*t*(p-1)^2 < 2^w
    by (1), so p*q = sum (p*d_k) 2^(k*w) has no carries; the base-2^w
    digits of s being unique, v_k = p*d_k."""
    digit = (1 << w) - 1
    low = (t * (p - 1) ** 2 // p).bit_length()
    # the bits at or above w' of each of the `size` slots
    high = (digit ^ ((1 << low) - 1)) * (((1 << (size * w)) - 1) // digit)
    for s in sums:
        q, r = divmod(s, p)
        if r or q & high:
            return False
    return True


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

    The unit rows go first: a row of one nonzero entry, at column c,
    puts e_c in the row space, so c is a pivot and its reduced row is
    exactly {c: one}.  Every other row loses its unit columns, which
    reduces it by those rows, and is then reduced against the rows kept
    so far and kept, scaled to a leading one at its smallest column, if
    anything is left (a semi-echelon form).  The reduction is driven by
    the row's own entries: a map from each lead to its kept row names
    the rows the row meets, and each step applies the one kept first.
    A kept row is zero at the leads of the rows kept before it, so a
    step can only add leads of later rows, and the rows applied and
    their order are those of a scan over all kept rows (`_reduce`), at
    the cost of the row's entries rather than of the kept rows.  Back
    substitution, from the rightmost pivot leftwards, then clears every
    pivot column of the other kept rows; they hold no unit column.
    The reduced row echelon form of a row space is unique, so the
    result does not depend on the elimination order.  Over the
    rationals an integral payload of the result is an int."""
    axpy, div, one, zero = field.axpy, field.div, field.one.v, field.zero.v
    units, rest = set(), []
    for v in rows:
        if len(v) == 1:
            (c, x), = v.items()
            if x != zero:
                units.add(c)
                continue
        if v:
            rest.append(v)
    kept, leads, at = [], [], {}     # at: lead column -> its kept row
    for v in rest:
        v = {c: x for c, x in v.items() if c not in units}
        while met := [at[c] for c in v if c in at]:
            k = min(met)
            axpy(v, v[leads[k]], kept[k])
        if v:
            lc = min(v)
            at[lc] = len(kept)
            kept.append(_scaled(field, v, div(one, v[lc])))
            leads.append(lc)
    order = sorted(range(len(kept)), key=leads.__getitem__, reverse=True)
    done = {c: {c: one} for c in units}
    for r in order:
        row, lc = kept[r], leads[r]
        for pc in [k for k in row if k in done]:
            axpy(row, row[pc], done[pc])
        done[lc] = row
    if isinstance(field, RationalField):
        for row in kept:
            _integral(row)
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
