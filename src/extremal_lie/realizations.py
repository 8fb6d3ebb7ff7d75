"""Matrix realizations of the classical algebras by (infinitesimal)
transvections and Siegel elements.

* family "A": sl_n, generated by rank-one nilpotents x (x) h^T with
  h(x) = 0 ("transvections"),
* family "C": sp_n (n even), generated by symplectic transvections
  y y^T M for the symplectic form M,
* families "B"/"D": o_{2n-1} / o_{2n}, generated by Siegel elements
  T_{u,v}: w -> B(u,w) v - B(v,w) u attached to isotropic lines <u, v>.

A :class:`MatrixLieAlgebra` is the Lie context of the matrices that
generate it, and grows their closure the first time its basis is read
(:func:`lie_closure`); no verdict of the package reads that closure.  A
bilinear form is its nonzero Gram entries, and the builders make every
generator and special vector from FieldElement vectors and the form's
covectors B(u, .): a generator is a sum of outer products a b^T, built
from the supports of a and b; the context converts each generator once
into sparse payload rows.  Every generator squares to zero, and so
does every conjugate and multiple of one, so the context reads their
extremal form values from rank factors x = U R, r = rank x at most 2,
instead of two brackets (`MatrixLieAlgebra.extremal_value`).
:func:`classical_algebra` reads the sl_N, o(G) or sp(G) that holds a
realization's generators from their traces or from the family's
standard form G, which depends on the family and N alone
(`standard_form`): a :class:`ClassicalAlgebra`, the matrix context of
those generators with the classical dimension.  It proves an element
extremal from its rank factors, samples its standard basis in O(N^2)
and has a fixed form scale, so a realization's closure, which it
holds, needs no grown basis and no calibration.
"""

from . import linalg
from .extremal import NotExtremal, bracket_form_value
from .fields import FieldElement, NoSquareRoot, PrimeField, quadratic_roots
from .graphs import check_family_n
from .linalg import (Rows, SpanSolver, dense, is_pair, mat_bracket,
                     mat_lincomb, mat_vanishes, mat_vector, sandwich, sparse,
                     trace_product)


class InvalidParameters(ValueError):
    """Realization parameters violate a validity condition."""


class NotIsotropic(ValueError):
    """The vectors handed to a Siegel element do not span an isotropic
    line (or are dependent)."""


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------

class BilinearForm:
    """A bilinear form on F^dim, stored as its nonzero Gram entries
    {(i, j): g_ij}: B(u, v) = sum g_ij u_i v_j."""

    def __init__(self, field, dim, entries):
        self.field = field
        self.dim = dim
        self.entries = entries

    def covector(self, u):
        """The covector B(u, .) = u^T G, as a FieldElement vector."""
        out = [self.field.zero] * self.dim
        for (i, j), g in self.entries.items():
            x = u[i]
            if not x.is_zero():
                out[j] = out[j] + g * x
        return out

    def apply(self, u, v):
        return linalg.dot(self.covector(u), v)


def _hyperbolic(field, m, sign):
    """The Gram entries of the pairing B(e_i, f_i) = 1,
    B(f_i, e_i) = sign on the basis e_1..e_m, f_1..f_m of F^{2m}."""
    one = field.one
    back = one * sign
    entries = {}
    for i in range(m):
        entries[i, m + i] = one
        entries[m + i, i] = back
    return entries


def symplectic_form(field, m):
    """The 2m x 2m form [[0, I], [-I, 0]]."""
    return BilinearForm(field, 2 * m, _hyperbolic(field, m, -1))


def orthogonal_form_even(field, m):
    """The 2m x 2m symmetric form [[0, I], [I, 0]] (hyperbolic basis
    e_1..e_m, f_1..f_m)."""
    return BilinearForm(field, 2 * m, _hyperbolic(field, m, 1))


def orthogonal_form_odd(field, m):
    """The (2m+1) x (2m+1) form with hyperbolic part [[0,I],[I,0]] and an
    extra vector g with B(g, g) = 2."""
    entries = _hyperbolic(field, m, 1)
    entries[2 * m, 2 * m] = field.one * 2
    return BilinearForm(field, 2 * m + 1, entries)


def standard_form(family, field, size):
    """The form of the standard realizations of `family` on F^size, as
    `generators_C`, `generators_D` and `generators_B` build it: None for
    A.  A size of the wrong parity gives a form of another size."""
    if family == "A":
        return None
    build = {"C": symplectic_form, "D": orthogonal_form_even,
             "B": orthogonal_form_odd}[family]
    return build(field, size // 2)


def basis_vector(field, dim, idx):
    v = [field.zero] * dim
    v[idx] = field.one
    return v


def _chain_vectors(field, dim, shift, count):
    """The chain pairs (u_i, v_i), 1 <= i <= count, in F^dim, as the
    lists (us, vs): u_1 = e_1 - e_2, v_1 = e'_1 + e'_2, then
    u_i = e_{i-1} + e_i, v_i = e'_{i-1} - e'_i, where e'_i = e_{shift+i}."""
    e = lambda i: basis_vector(field, dim, i - 1)
    us = [linalg.vec_sub(e(1), e(2))]
    vs = [linalg.vec_add(e(shift + 1), e(shift + 2))]
    for i in range(2, count + 1):
        us.append(linalg.vec_add(e(i - 1), e(i)))
        vs.append(linalg.vec_sub(e(shift + i - 1), e(shift + i)))
    return us, vs


# ---------------------------------------------------------------------------
# the generating matrices
# ---------------------------------------------------------------------------

def _outer_sum(field, dim, pairs):
    """The dim x dim FieldElement matrix sum a b^T over the vector pairs
    (a, b), built from the supports of a and b: every other entry is
    the field's zero."""
    zero = field.zero
    m = [[zero] * dim for _ in range(dim)]
    for a, b in pairs:
        bs = [(j, y) for j, y in enumerate(b) if not y.is_zero()]
        for x, row in zip(a, m):
            if not x.is_zero():
                for j, y in bs:
                    row[j] = row[j] + x * y
    return m


def transvection(x, h):
    """The rank-one matrix x h^T; requires h(x) = 0 (so it is nilpotent
    of square zero and traceless)."""
    if not linalg.dot(h, x).is_zero():
        raise InvalidParameters("transvection needs h(x) = 0")
    return _outer_sum(x[0].field, len(x), [(x, h)])


def symplectic_transvection(form, y):
    """u(y) = y (y^T M): v -> B(y, v) y for the symplectic form M."""
    return _outer_sum(form.field, form.dim, [(y, form.covector(y))])


def siegel(form, u, v):
    """T_{u,v}: w -> B(u,w) v - B(v,w) u, as the matrix
    v (Bu)^T - u (Bv)^T.  Requires <u, v> to be a 2-dimensional totally
    isotropic subspace."""
    bu = form.covector(u)
    bv = form.covector(v)
    dot = linalg.dot
    if not (dot(bu, u).is_zero() and dot(bu, v).is_zero()
            and dot(bv, v).is_zero()):
        raise NotIsotropic("the line <u,v> is not totally isotropic")
    ss = SpanSolver(form.field, form.dim)
    ss.add(u)
    if not ss.add(v):
        raise NotIsotropic("u and v are linearly dependent")
    return _outer_sum(form.field, form.dim, [(v, bu), ([-x for x in u], bv)])


def siegel_apply(form, u, v, w):
    """T_{u,v} applied to a vector."""
    B = form.apply
    return linalg.vec_sub(linalg.vec_scale(v, B(u, w)),
                          linalg.vec_scale(u, B(v, w)))


# ---------------------------------------------------------------------------
# generator families
# ---------------------------------------------------------------------------

def generators_A(n, field):
    """Transvection generators x_i (x) h_i in gl_n:
    x_1 = e_1 - e_2, h_1 = f_1 + f_2;
    x_i = e_{i-1} + e_i, h_i = f_{i-1} - f_i for 1 < i <= n.
    Returns (matrices, (xs, hs))."""
    xs, hs = _chain_vectors(field, n, 0, n)
    mats = [transvection(x, h) for x, h in zip(xs, hs)]
    return mats, (xs, hs)


def generators_C(n, field):
    """Symplectic transvection generators in sp_n (n even):
    x_{2l-1} = e_l (1 <= l <= n/2), x_{2l} = e_{l+n/2} + e_{l+n/2+1}
    (1 <= l < n/2), x_n = e_n.  Returns (matrices, (form, vectors))."""
    if n % 2:
        raise InvalidParameters("need even n")
    m = n // 2
    form = symplectic_form(field, m)
    e = lambda i: basis_vector(field, n, i - 1)
    vecs = [None] * n
    for l in range(1, m + 1):
        vecs[2 * l - 2] = e(l)
    for l in range(1, m):
        vecs[2 * l - 1] = linalg.vec_add(e(l + m), e(l + m + 1))
    vecs[n - 1] = e(n)
    mats = [symplectic_transvection(form, y) for y in vecs]
    return mats, (form, vecs)


def derive_special_vector(n, beta, field, alpha, force_c=None):
    """The auxiliary vector t with, writing B for the hyperbolic form on
    F^{2n} and u_i, v_i for the family-D line vectors (v_1 taken without
    its t-component):

        B(t, u_3) = 1,   B(t, u_i) = 0 for i != 3,
        B(t, v_i) = 0 for i != 3,
        B(t, t)   = 0.

    The remaining pairing B(t, v_3) is not prescribed: the linear system
    above leaves it as a one-parameter degree of freedom, and the
    isotropy condition cuts that down to (at most) two solutions.  Each
    solution makes the completed line vectors (v_1 = f_1 + f_2 + alpha*t)
    degenerate for exactly one value of alpha (for even n these are
    alpha = -kappa and alpha = +kappa, kappa a square root of 1 + beta;
    for odd n one solution fails only at the excluded alpha = -2 and the
    other exactly at alpha = 2), so we return the first solution, in the
    canonical root order of the field, whose line vectors span all of
    F^{2n} -- only then is the generated algebra the full o_{2n}.
    `force_c` instead fixes B(t, v_3) and only checks isotropy."""
    form = orthogonal_form_even(field, n)
    us, vs = _d_line_vectors(n, beta, field)
    rows, rhs0, rhs1 = [], [], []
    for i, u in enumerate(us, start=1):
        rows.append(form.covector(u))
        rhs0.append(field.one if i == 3 else field.zero)
        rhs1.append(field.one if i == 3 else field.zero)
    for i, v in enumerate(vs, start=1):
        rows.append(form.covector(v))
        rhs0.append(field.zero)
        rhs1.append(field.one if i == 3 else field.zero)
    t0 = linalg.solve(rows, rhs0)
    t1 = linalg.solve(rows, rhs1)
    if t0 is None or t1 is None:
        raise InvalidParameters("no special vector for these parameters")
    tdir = linalg.vec_sub(t1, t0)
    # t(c) = t0 + c*tdir has all required pairings and B(t, v_3) = c;
    # impose isotropy: q2 c^2 + q1 c + q0 = 0.
    B = form.apply
    if force_c is not None:
        t = linalg.vec_add(t0, linalg.vec_scale(tdir, field(force_c)))
        if not B(t, t).is_zero():
            raise NotIsotropic("forced special vector is not isotropic")
        return t
    try:
        roots = quadratic_roots(B(tdir, tdir), 2 * B(t0, tdir), B(t0, t0))
    except NoSquareRoot:
        raise InvalidParameters(
            "isotropy discriminant is not a square in the field") from None
    if not roots:
        raise InvalidParameters(
            "no isotropic special vector for these parameters")
    for c in roots:
        t = linalg.vec_add(t0, linalg.vec_scale(tdir, c))
        solver = SpanSolver(field, 2 * n)
        for w in us:
            solver.add(w)
        for i, w in enumerate(vs):
            if i == 0:
                w = linalg.vec_add(w, linalg.vec_scale(t, alpha))
            solver.add(w)
        if solver.rank == 2 * n:
            return t
    raise InvalidParameters(
        "every isotropic special vector leaves the line vectors degenerate")


def _d_line_vectors(n, beta, field):
    """The u_i and v_i of family D *before* adding the t-component to
    v_1.  Ambient F^{2n} with basis e_1..e_n, f_1..f_n."""
    e = lambda i: basis_vector(field, 2 * n, i - 1)
    f = lambda i: basis_vector(field, 2 * n, n + i - 1)
    us, vs = _chain_vectors(field, 2 * n, n, n - 1)
    un = linalg.vec_add(linalg.vec_add(e(n - 2),
                                       linalg.vec_scale(f(n - 1), beta)),
                        e(n))
    vn = linalg.vec_sub(linalg.vec_add(f(n - 2), e(n - 1)),
                        linalg.vec_scale(f(n), 1 + beta))
    us.append(un)
    vs.append(vn)
    return us, vs


def d_open_conditions(n, alpha, beta):
    """The open conditions on the family-D parameters, as the flags
    (param_open, lambda_open): (alpha+2) * beta * (beta+1) != 0, and
    lambda*(2 - beta + lambda*beta) != 1 for the derived parameter
    lambda = alpha/(alpha+2) (n odd) or
    -alpha*kappa/((alpha+2)(1+beta+kappa)) (n even), kappa the square
    root of 1 + beta.  lambda is defined only where the first condition
    holds, so lambda_open is False wherever param_open is.  Only even n
    takes kappa: there it raises NoSquareRoot when the first condition
    holds and 1 + beta is not a square."""
    if ((alpha + 2) * beta * (beta + 1)).is_zero():
        return False, False
    if n % 2:
        lam = alpha / (alpha + 2)
    else:
        kappa = (1 + beta).sqrt()
        lam = -alpha * kappa / ((alpha + 2) * (1 + beta + kappa))
    return True, not (lam * (2 - beta + lam * beta) - 1).is_zero()


def generators_D(n, field, alpha, beta, force_special_c=None):
    """Siegel generators T_{u_i, v_i} in o_{2n} (hyperbolic form).

    Requires the open conditions of `d_open_conditions` and, at even
    n, a square root of 1 + beta in the field.
    Returns (matrices, (form, lines)) with lines the (u_i, v_i) pairs."""
    alpha = field(alpha)
    beta = field(beta)
    try:
        param_open, lambda_open = d_open_conditions(n, alpha, beta)
    except NoSquareRoot:
        raise InvalidParameters(
            "1 + beta must be a square in the field") from None
    if not param_open:
        raise InvalidParameters("(alpha+2) * beta * (beta+1) must be nonzero")
    if not lambda_open:
        raise InvalidParameters("lambda*(2 - beta + lambda*beta) = 1")
    form = orthogonal_form_even(field, n)
    us, vs = _d_line_vectors(n, beta, field)
    t = derive_special_vector(n, beta, field, alpha, force_special_c)
    vs[0] = linalg.vec_add(vs[0], linalg.vec_scale(t, alpha))
    lines = list(zip(us, vs))
    mats = [siegel(form, u, v) for u, v in lines]
    return mats, (form, lines)


def generators_B(n, field, gamma):
    """Siegel generators T_{u_i, v_i} in o_{2n-1} (odd orthogonal form
    on F^{2(n-1)+1}).  Requires gamma * (gamma + 1) != 0.
    Returns (matrices, (form, lines))."""
    gamma = field(gamma)
    if (gamma * (gamma + 1)).is_zero():
        raise InvalidParameters("gamma * (gamma+1) must be nonzero")
    k = n - 1
    dim = 2 * k + 1
    form = orthogonal_form_odd(field, k)
    e = lambda i: basis_vector(field, dim, i - 1)
    f = lambda i: basis_vector(field, dim, k + i - 1)
    g = basis_vector(field, dim, 2 * k)
    us, vs = _chain_vectors(field, dim, k, n - 1)
    un = [gamma * (a + b) + c - d
          for a, b, c, d in zip(e(n - 2), e(n - 1), f(n - 2), f(n - 1))]
    vn = [a - b + (1 - gamma) * c + d
          for a, b, c, d in zip(e(n - 2), f(n - 2), e(n - 1), g)]
    us.append(un)
    vs.append(vn)
    lines = list(zip(us, vs))
    mats = [siegel(form, u, v) for u, v in lines]
    return mats, (form, lines)


def build_generators(family, n, field, params=()):
    """Uniform entry point.  params: () for A/C, (gamma,) for B,
    (alpha, beta) for D.  Returns (matrices, extra); raises as
    `graphs.check_family_n` first."""
    check_family_n(family, n)
    if family == "A":
        return generators_A(n, field)
    if family == "C":
        return generators_C(n, field)
    if family == "B":
        return generators_B(n, field, *params)
    return generators_D(n, field, *params)


# ---------------------------------------------------------------------------
# matrix Lie algebra context
# ---------------------------------------------------------------------------

class MatrixLieAlgebra:
    """The Lie algebra generated by N x N matrices, as a Lie context.

    Elements are tuples of N sparse payload rows ``({col: payload}, ...)``
    (see :mod:`extremal_lie.linalg`), never modified once made; the
    generators, the basis and every bracket and combination are
    `linalg.Rows`, which over GF(p) keep their packed rows.  `element`
    takes FieldElement matrices in and `external` gives them out.  A
    context is its generators: it brackets and combines at once, which
    is all `normalize_generators` and a match need, and grows the
    closure of the generators the first time `basis` or `dim` is read.
    It has no form: `ClassicalAlgebra`, the context of a realization's
    closure, adds its fixed one.  Every generator must be N x N
    (ValueError otherwise)."""

    def __init__(self, field, ambient_dim, generators):
        self.field = field
        self.ambient_dim = ambient_dim
        self.vector_dim = ambient_dim * ambient_dim
        self.generators_list = [self._square(g) for g in generators]
        self._basis = None

    def _square(self, x):
        """x as a `linalg.Rows`, after checking that it is N x N."""
        n = self.ambient_dim
        if isinstance(x, tuple):   # payload rows {col: payload}
            ok = all(0 <= k < n for row in x for k in row)
        else:
            ok = all(len(row) == n for row in x)
        if not ok or len(x) != n:
            raise ValueError(f"a matrix that is not {n} x {n}")
        x = self.element(x)
        return x if isinstance(x, Rows) else Rows(x)

    # -- context interface (see extremal_lie.extremal.LieContext) ----------
    def element(self, x):
        """x as payload rows: payload rows (a tuple, such as the `Rows`
        every kernel returns) unchanged, so a `Rows` keeps its packed
        rows; a FieldElement matrix converted (DescriptorMismatch on an
        entry of another field)."""
        if isinstance(x, tuple):
            return x
        field = self.field
        return Rows([sparse(field, row) for row in x])

    def external(self, a):
        """a as a FieldElement matrix."""
        field, n = self.field, self.ambient_dim
        return [dense(field, row, n) for row in self.element(a)]

    def bracket(self, a, b):
        return mat_bracket(self.field, self.element(a), self.element(b))

    def lincomb(self, terms):
        """sum c*m over the terms (c, m)."""
        element = self.element
        return mat_lincomb(self.field, [(c, element(m)) for c, m in terms],
                           self.ambient_dim)

    def vanishes(self, terms):
        """Whether sum c*m over the terms is zero (`linalg.mat_vanishes`),
        a term (c, m) or a bracket term (1, (a, b)) for [a, b]
        (`linalg.is_pair`)."""
        element = self.element
        return mat_vanishes(self.field, [
            (c, (element(m[0]), element(m[1])) if is_pair(m) else element(m))
            for c, m in terms], self.ambient_dim)

    def is_zero(self, a):
        return not any(self.element(a))

    def vector(self, a):
        """The row-major sparse payload vector {i*N + j: payload}, a new
        dict each call, which the caller may modify."""
        return mat_vector(self.element(a))

    def basis(self):
        """The closure of the generators, grown on the first call."""
        if self._basis is None:
            self._basis = linalg.bracket_closure(
                self.field, self.generators_list, self.bracket, self.vector,
                self.vector_dim)
        return self._basis

    @property
    def dim(self):
        return len(self.basis())

    def extremal_value(self, x, y):
        """f_x(y), from the rank factors x = U R of a square-zero x
        (`Rows.factors`): [x, [x, y]] = -2xyx = -2 U M R with
        M = R y U (`linalg.sandwich`), r x r for r = rank x.  U is
        injective and R onto, so [x, [x, y]] is a multiple of x = U R
        exactly when M = t 1, and then f_x(y) = -2t.  An x with
        x^2 != 0 takes the two-bracket definition
        (`extremal.bracket_form_value`).  Raises NotExtremal when
        [x, [x, y]] is not a multiple of x, ValueError for x = 0."""
        field = self.field
        x = self.element(x)
        factors = (x if isinstance(x, Rows) else Rows(x)).factors(field)
        if factors is None:
            return bracket_form_value(self, x, y)
        if not factors[0]:
            raise ValueError("x is zero")
        m = sandwich(field, factors, self.element(y))
        t, zero = m[0][0], field.zero.v
        if any(v != (t if k == l else zero)
               for k, line in enumerate(m) for l, v in enumerate(line)):
            raise NotExtremal("[x,[x,y]] is not a multiple of x")
        return FieldElement(field, t) * -2


def lie_closure(generators, field):
    """The context of N x N matrices over `field` (FieldElement matrices
    or payload rows), N read off the first.  No command calls it: a
    family realization's closure, a match's own-model side 2 included,
    is its classical algebra (`certify.catalog_closure`)."""
    return MatrixLieAlgebra(field, len(generators[0]), generators)


# ---------------------------------------------------------------------------
# the classical algebra of a realization
# ---------------------------------------------------------------------------

#: c of the form c * trace(ab) of `ClassicalAlgebra`, by family
FORM_SCALE = {"A": -2, "B": -1, "C": -2, "D": -1}


class ClassicalAlgebra(MatrixLieAlgebra):
    """sl_N (family A), o(G) (B, D) or sp(G) (C) over `field`, G the
    Gram matrix of the family's standard form on F^N (`standard_form`,
    N odd for B and even for C and D; `gram`, payload rows), as the Lie
    context of the realization `generators` it holds
    (`classical_algebra`), of dimension `dim`, the family's N^2 - 1,
    N(N-1)/2 or N(N+1)/2.  It holds the closure of the realization,
    and is that closure when `dim` is the rank of the catalog images
    (`certify.catalog_closure`).  It brackets and combines as a
    `MatrixLieAlgebra`, with no standard basis, and no G^-1, until a
    sample is drawn (`from_coords`) and no basis of elements until a
    sweep asks for one (`basis`).  Its form is c * trace(ab) with c
    fixed, not calibrated: for x = a b^T of rank 1, f_x(y) =
    -2 b^T y a = -2 trace(xy), so c = -2 (A, C); for a Siegel element
    x = T_{u,v}, f_x(y) = -2 B(u, yv) and trace(xy) = 2 B(u, yv), so
    c = -1 (B, D).  Both hold for every y in the algebra.  They, and
    the rank-2 rule of `extremal`, need characteristic != 2, which
    every field here has (`PrimeField` refuses p = 2)."""

    def __init__(self, family, field, generators):
        super().__init__(field, len(generators[0]), generators)
        self.family, self.gram = family, None
        n = self.ambient_dim
        if family != "A":
            self.gram = [{} for _ in range(n)]
            for (i, j), g in standard_form(family, field, n).entries.items():
                self.gram[i][j] = g.v
        self._dim = (n * n - 1 if family == "A" else
                     n * (n + 1) // 2 if family == "C" else n * (n - 1) // 2)
        self.form_scale = field(FORM_SCALE[family])
        self._table = None      # `from_coords`' positions, once drawn

    @property
    def dim(self):
        return self._dim

    def form(self, a, b):
        """The associative symmetric extremal form, c * trace(ab)."""
        return self.form_scale * trace_product(
            self.field, self.element(a), self.element(b))

    def basis(self):
        """The standard basis, `from_coords` of each unit vector, made
        the first time a sweep asks for it."""
        if not self._basis:
            units = range(self.dim)
            self._basis = [self.from_coords([int(i == j) for j in units])
                           for i in units]
        return self._basis

    def holds(self, x):
        """Whether the payload rows x lie in the algebra: trace 0 (A),
        else X^T G + G X = 0.  O(nnz) for G a signed permutation."""
        field = self.field
        zero, add, mul = field.zero.v, field.add, field.mul
        if self.family == "A":
            t = zero
            for i, row in enumerate(x):
                t = add(t, row.get(i, zero))
            return field.is_zero(t)
        s = {}      # X^T G + G X
        for i, grow in enumerate(self.gram):
            for k, g in grow.items():
                for j, v in x[k].items():       # (G X)_ij += g_ik x_kj
                    s[i, j] = add(s.get((i, j), zero), mul(g, v))
                for j, v in x[i].items():       # (X^T G)_jk += x_ij g_ik
                    s[j, k] = add(s.get((j, k), zero), mul(v, g))
        return all(field.is_zero(v) for v in s.values())

    def extremal(self, x):
        """Whether the structure of x, an element of the algebra, proves
        it extremal there, with no sweep.  x must square to zero
        (`Rows.factors`, which gives its rank r too), so
        [x, [x, y]] = -2xyx.  r = 1: x = a b^T, b^T a = 0, and
        xyx = (b^T y a) x for every y in gl_N.  r = 2 in o(G): G x is
        antisymmetric of rank 2, so x is a Siegel element
        T_{u,v}: w -> B(u, w) v - B(v, w) u; B(xv, xw) = -B(v, x^2 w) = 0
        makes im x = <u, v> totally isotropic, and xyx = B(u, yv) x for
        every y in o(G).  False for every other x, such as a rank-2
        element of sp(G) or a sum of orthogonal Siegel elements, which
        are not extremal.  The rule is exact on the algebra, so a miss
        could only turn a pass into a fail."""
        x = self._square(x)
        factors = x.factors(self.field)
        if factors is None:
            return False
        rank = len(factors[0])
        return rank == 1 or (rank == 2 and self.family in ("B", "D")
                             and self.holds(x))

    def from_coords(self, coords):
        """sum c_i e_i over the standard basis (`_standard_basis`), for
        `dim` int coordinates: the traceless matrix with the c_i as its
        entries but the last diagonal one, or G^-1 A for A
        antisymmetric (B, D) or symmetric (C) with the c_i as its
        entries A_ij, i < j or i <= j, row by row.  The entries are
        placed through a table built from the standard basis, and G^-1,
        on the first call (`_position_table`): for G a signed
        permutation, or the odd form's with its 1/2, each entry of
        G^-1 A is g c_i for one i, and only the last diagonal entry of
        sl_N is a sum.  Over GF(p) an entry is an int product or sum,
        reduced once."""
        if len(coords) != self.dim:
            raise ValueError(f"{len(coords)} coordinates for an algebra "
                             f"of dimension {self.dim}")
        field, n = self.field, self.ambient_dim
        if self._table is None:
            self._table = _position_table(
                _standard_basis(self.family, field, n, self.gram), n)
        singles, sums = self._table
        rows = []
        if isinstance(field, PrimeField):
            p = field.p
            for line in singles:
                row = {}
                for j, i, g in line:
                    if v := coords[i] * g % p:
                        row[j] = v
                rows.append(row)
            for r, j, parts in sums:
                v = 0
                for i, g in parts:
                    v += coords[i] * g
                if v := v % p:
                    rows[r][j] = v
            return Rows(rows)
        add, mul, is_zero = field.add, field.mul, field.is_zero
        coords = [field.coerce(c) for c in coords]
        for line in singles:
            row = {}
            for j, i, g in line:
                if not is_zero(v := mul(coords[i], g)):
                    row[j] = v
            rows.append(row)
        for r, j, parts in sums:
            v = field.zero.v
            for i, g in parts:
                v = add(v, mul(coords[i], g))
            if not is_zero(v):
                rows[r][j] = v
        return Rows(rows)


def _position_table(entries, size):
    """The entries (k, g) of the standard basis elements i
    (`_standard_basis`) by position k = r*N + j, as (singles, sums):
    singles[r] lists the (j, i, g) of the positions of row r that one
    element i touches, in column order, and sums the (r, j, ((i, g),
    ...)) of those that several touch."""
    at = {}
    for i, element in enumerate(entries):
        for k, g in element:
            at.setdefault(k, []).append((i, g))
    singles, sums = [[] for _ in range(size)], []
    for k in sorted(at):
        r, j = divmod(k, size)
        if len(at[k]) == 1:
            singles[r].append((j, *at[k][0]))
        else:
            sums.append((r, j, tuple(at[k])))
    return singles, sums


def _standard_basis(family, field, size, gram):
    """The standard basis, each element a list of its entries
    (i*N + j, payload): E_ij for (i, j) != (N, N), E_ii taking -E_NN
    with it (A); G^-1 (E_ij - E_ji), i < j (B, D); G^-1 (E_ij + E_ji),
    i < j, and G^-1 E_ii (C); row by row.  Column j of G^-1 E_ij is
    column i of G^-1, which `linalg.echelon` of [G | 1] gives (`gram`,
    payload rows, non-degenerate)."""
    one = field.one.v
    if family == "A":
        last = size * size - 1
        minus = [(last, field.neg(one))]
        return [[(k, one)] + (minus if k % (size + 1) == 0 else [])
                for k in range(last)]
    reduced, _ = linalg.echelon(
        field, [{**row, size + i: one} for i, row in enumerate(gram)])
    cols = [[] for _ in range(size)]        # the columns of G^-1
    for r, row in enumerate(reduced):
        for k, g in row.items():
            if k >= size:
                cols[k - size].append((r * size, g))
    neg = (lambda g: g) if family == "C" else field.neg
    out = []
    for i in range(size):
        for j in range(i if family == "C" else i + 1, size):
            element = [(r + j, g) for r, g in cols[i]]
            if j != i:
                element += [(r + i, neg(g)) for r, g in cols[j]]
            out.append(element)
    return out


def classical_algebra(family, field, mats):
    """The classical algebra that holds every generator (N x N) of a
    realization, as its Lie context, or None when a check fails: sl_N
    (A) when every generator is traceless, o(G) (B, D) or sp(G) (C),
    G the family's standard form on F^N (`standard_form`), when
    X^T G + G X = 0 for every generator X.  N must be odd for B and
    even for C and D, the sizes the family's forms have."""
    size = len(mats[0])
    if family != "A" and size % 2 != (family == "B"):
        return None
    alg = ClassicalAlgebra(family, field, mats)
    return alg if all(alg.holds(x) for x in alg.generators_list) else None


# ---------------------------------------------------------------------------
# geometric pair classification
# ---------------------------------------------------------------------------

def classify_transvection_pair(x, h, y, k):
    """Geometric classification of (x (x) h, y (x) k):

    * lines equal and kernels equal            -> Proportional
    * exactly one of those two coincidences    -> Abelian2
    * both h(y) = 0 and k(x) = 0 (proper)      -> Abelian2
    * exactly one of h(y), k(x) vanishes       -> Heisenberg
    * neither vanishes                          -> Sl2
    """
    same_line = _dependent(x, y)
    same_kernel = _dependent(h, k)
    if same_line and same_kernel:
        return "Proportional"
    if same_line or same_kernel:
        return "Abelian2"
    hy = linalg.dot(h, y)
    kx = linalg.dot(k, x)
    if hy.is_zero() and kx.is_zero():
        return "Abelian2"
    if hy.is_zero() or kx.is_zero():
        return "Heisenberg"
    return "Sl2"


def _dependent(u, v):
    ss = SpanSolver(u[0].field, len(u))
    ss.add(u)
    return not ss.add(v)


def classify_siegel_pair(form, line1, line2):
    """Geometric classification of two Siegel elements by their isotropic
    lines l = <u1,v1> and m = <u2,v2>:

    * l = m                                    -> Proportional
    * l and m intersect in a point, or every
      point of l is perpendicular to all of m  -> Abelian2
    * exactly one point of l perpendicular to
      all of m (and symmetrically)             -> Heisenberg
    * every point of l perpendicular to
      exactly one point of m                   -> Sl2
    """
    u1, v1 = line1
    u2, v2 = line2
    sub = SpanSolver(u1[0].field, len(u1))
    for w in (u1, v1, u2, v2):
        sub.add(w)
    if sub.rank == 2:
        return "Proportional"
    if sub.rank == 3:
        return "Abelian2"
    B = form.apply
    gram = [[B(u1, u2), B(u1, v2)], [B(v1, u2), B(v1, v2)]]
    _, _, rank = linalg.rref(gram)
    if rank == 0:
        return "Abelian2"
    if rank == 1:
        return "Heisenberg"
    return "Sl2"


def exp_siegel_action(form, t, uv, wx):
    """The exponential action law on lines:
    exp(t ad T_{u,v}) T_{w,x} = T_{w + t T_{u,v} w, x + t T_{u,v} x}."""
    u, v = uv
    w, x = wx
    w2 = linalg.vec_add(w, linalg.vec_scale(siegel_apply(form, u, v, w), t))
    x2 = linalg.vec_add(x, linalg.vec_scale(siegel_apply(form, u, v, x), t))
    return (w2, x2)
