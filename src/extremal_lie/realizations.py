"""Matrix realizations of the classical algebras by (infinitesimal)
transvections and Siegel elements.

* family "A": sl_n, generated by rank-one nilpotents x (x) h^T with
  h(x) = 0 ("transvections"),
* family "C": sp_n (n even), generated by symplectic transvections
  y y^T M for the symplectic form M,
* families "B"/"D": o_{2n-1} / o_{2n}, generated by Siegel elements
  T_{u,v}: w -> B(u,w) v - B(v,w) u attached to isotropic lines <u, v>.

:func:`lie_closure` grows the Lie span of a generating set and wraps it
in a :class:`MatrixLieAlgebra` context usable by the generic extremal
machinery.  The builders work on FieldElement vectors and matrices;
the context converts each generator once into sparse payload rows.
"""

from . import linalg
from .extremal import extremal_form_value
from .fields import NoSquareRoot, quadratic_roots
from .graphs import check_family_n
from .linalg import (SpanSolver, basis_lincomb, dense, mat_bracket,
                     mat_lincomb, mat_vec, mat_vector, sparse, trace_product,
                     zeros)


class InvalidParameters(ValueError):
    """Realization parameters violate a validity condition."""


class NotIsotropic(ValueError):
    """The vectors handed to a Siegel element do not span an isotropic
    line (or are dependent)."""


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------

class BilinearForm:
    """A bilinear form given by its Gram matrix."""

    def __init__(self, gram):
        self.gram = gram
        self.dim = len(gram)
        self.field = gram[0][0].field

    def apply(self, u, v):
        return linalg.dot(u, mat_vec(self.gram, v))


def symplectic_form(field, m):
    """The 2m x 2m form [[0, I], [-I, 0]]."""
    g = zeros(field, 2 * m, 2 * m)
    one = field.one
    for i in range(m):
        g[i][m + i] = one
        g[m + i][i] = -one
    return BilinearForm(g)


def orthogonal_form_even(field, m):
    """The 2m x 2m symmetric form [[0, I], [I, 0]] (hyperbolic basis
    e_1..e_m, f_1..f_m)."""
    g = zeros(field, 2 * m, 2 * m)
    one = field.one
    for i in range(m):
        g[i][m + i] = one
        g[m + i][i] = one
    return BilinearForm(g)


def orthogonal_form_odd(field, m):
    """The (2m+1) x (2m+1) form with hyperbolic part [[0,I],[I,0]] and an
    extra vector g with B(g, g) = 2."""
    g = zeros(field, 2 * m + 1, 2 * m + 1)
    one = field.one
    for i in range(m):
        g[i][m + i] = one
        g[m + i][i] = one
    g[2 * m][2 * m] = one * 2
    return BilinearForm(g)


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

def transvection(x, h):
    """The rank-one matrix x h^T; requires h(x) = 0 (so it is nilpotent
    of square zero and traceless)."""
    if not linalg.dot(h, x).is_zero():
        raise InvalidParameters("transvection needs h(x) = 0")
    return [[xi * hj for hj in h] for xi in x]


def symplectic_transvection(form, y):
    """u(y) = y (y^T M): v -> B(y, v) y for the symplectic form M."""
    my = mat_vec(linalg.transpose(form.gram), y)
    return [[yi * mj for mj in my] for yi in y]


def siegel(form, u, v):
    """T_{u,v}: w -> B(u,w) v - B(v,w) u, as the matrix
    v (Bu)^T - u (Bv)^T.  Requires <u, v> to be a 2-dimensional totally
    isotropic subspace."""
    B = form.apply
    if not (B(u, u).is_zero() and B(u, v).is_zero() and B(v, v).is_zero()):
        raise NotIsotropic("the line <u,v> is not totally isotropic")
    ss = SpanSolver(form.field, form.dim)
    ss.add(u)
    if not ss.add(v):
        raise NotIsotropic("u and v are linearly dependent")
    bu = mat_vec(linalg.transpose(form.gram), u)
    bv = mat_vec(linalg.transpose(form.gram), v)
    dim = len(u)
    return [[v[i] * bu[j] - u[i] * bv[j] for j in range(dim)]
            for i in range(dim)]


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
        rows.append(mat_vec(linalg.transpose(form.gram), u))
        rhs0.append(field.one if i == 3 else field.zero)
        rhs1.append(field.one if i == 3 else field.zero)
    for i, v in enumerate(vs, start=1):
        rows.append(mat_vec(linalg.transpose(form.gram), v))
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
    """The Lie span of a set of N x N matrices, as a Lie context.

    Elements are tuples of N sparse payload rows ``({col: payload}, ...)``
    (see :mod:`extremal_lie.linalg`); `element` takes FieldElement
    matrices in and `external` gives them out.  The associative
    symmetric form is c * trace(a b), with c calibrated against the
    extremal functional of the first generator (and verified on a second
    value) over the basis.  A context made with an empty basis holds
    generators only: it brackets and combines, but has no form; that is
    all `normalize_generators` and a match need.  Every basis element
    and generator must be N x N (ValueError otherwise)."""

    def __init__(self, field, ambient_dim, basis, generators):
        self.field = field
        self.ambient_dim = ambient_dim
        self.vector_dim = ambient_dim * ambient_dim
        self._basis = [self._square(b) for b in basis]
        self.generators_list = [self._square(g) for g in generators]
        self.dim = len(self._basis)
        self._form_scale = None
        self._combine = None    # linalg.basis_lincomb of the basis

    def _square(self, x):
        """`element(x)`, after checking that x is N x N."""
        n = self.ambient_dim
        if type(x) is tuple:   # payload rows {col: payload}
            ok = all(0 <= k < n for row in x for k in row)
        else:
            ok = all(len(row) == n for row in x)
        if not ok or len(x) != n:
            raise ValueError(f"a matrix that is not {n} x {n}")
        return self.element(x)

    # -- context interface (see extremal_lie.extremal.LieContext) ----------
    def element(self, x):
        """x as payload rows: payload rows unchanged, a FieldElement
        matrix converted (DescriptorMismatch on an entry of another
        field)."""
        if type(x) is tuple:
            return x
        field = self.field
        return tuple([sparse(field, row) for row in x])

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

    def is_zero(self, a):
        return not any(self.element(a))

    def vector(self, a):
        """The row-major sparse payload vector {i*N + j: payload}."""
        return mat_vector(self.element(a))

    def basis(self):
        return self._basis

    def from_coords(self, coords):
        """sum c_i b_i over the basis; needs exactly `dim` coordinates."""
        if len(coords) != self.dim:
            raise ValueError(f"{len(coords)} coordinates for an algebra "
                             f"of dimension {self.dim}")
        if self._combine is None:
            self._combine = basis_lincomb(self.field, self.basis(),
                                          self.ambient_dim)
        return self._combine(coords)

    def form(self, a, b):
        """The associative symmetric extremal form, c * trace(ab)."""
        if self._form_scale is None:
            self._form_scale = self._calibrate_form()
        return self._form_scale * trace_product(
            self.field, self.element(a), self.element(b))

    def _calibrate_form(self):
        if not self._basis:
            raise RuntimeError("cannot calibrate the form: the context "
                               "has an empty basis (it holds generators "
                               "only)")
        field = self.field
        x = self.generators_list[0]
        for b in self.basis():
            t = trace_product(field, x, b)
            if not t.is_zero():
                c = extremal_form_value(self, x, b) / t
                break
        else:
            raise RuntimeError("cannot calibrate the form: x is trace-"
                               "orthogonal to the whole algebra")
        # verify against a second extremal generator on all basis elements
        y = self.generators_list[-1]
        for b in self.basis():
            want = extremal_form_value(self, y, b)
            if want != c * trace_product(field, y, b):
                raise RuntimeError("trace form calibration inconsistent")
        return c


def lie_closure(generators, field):
    """Close a list of matrices over `field` (FieldElement matrices or
    payload rows) under the bracket; returns a MatrixLieAlgebra whose
    basis is the deterministic closure basis.  A match needs no closure:
    generators-only contexts, ``MatrixLieAlgebra(field, N, [], gens)``,
    are enough for it."""
    n = len(generators[0])
    gens = MatrixLieAlgebra(field, n, [], generators)
    basis = linalg.bracket_closure(field, gens.generators_list, gens.bracket,
                                   gens.vector, gens.vector_dim)
    return MatrixLieAlgebra(field, n, basis, gens.generators_list)


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
