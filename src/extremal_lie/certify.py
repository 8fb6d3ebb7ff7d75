"""Certification pipeline for graph realizations by extremal elements.

Given a set of matrix generators realizing one of the family graphs,
this module

* verifies the realization (commutation pattern, extremality, closure
  dimension, catalog basis, sampled identities),
* normalises the generators to a canonical gauge with `fixtriangle`
  and exact scalings, reads off the vector of extremal-form values,
* recovers the defining parameters of the standard realization from
  the two gauge-invariant form values, and
* certifies that two realizations of the same family are isomorphic by
  an explicit basis correspondence whose bracket tables are proven to
  agree on every pair of basis elements.

The bracket tables are structure constants on the catalog bases (see
`_catalog_table`).  A catalog is tail-closed, every monomial being
[x_k, b'] with b' in the catalog too, so a table follows from the left
multiplications by the generators: a unit vector when (k,) + label(b)
is a catalog label, otherwise one matrix bracket and one exact
coordinate solve, which fails if the span is not closed.  Every other
pair comes from the comb recursion of `presentation.MonomialTable`,
[[x_k, b'], c] = [x_k, [b', c]] - [b', [x_k, c]], which is the Jacobi
identity and so exact for matrix commutators.  With independent bases,
a_i -> b_i is an isomorphism exactly when the two tables agree on every
pair.

A match builds two tables, T(b1) and T(b2) of the sides, and runs two
checks on the n * dim generator products.  Side 2 against its model
(`_check_model`) finds the left multiplications of T(b2) on model 2's
catalog images c2, which proves T(b2) = T(c2) with no T(c2) built.  The
composed map b1_i -> sum_a G_ia b2_a, checked on the tables through the
glue matrix G of model 1's images c1 in the basis c2, proves T(b1) is
T(b2) in the basis G gives.  G is invertible, the c1 being independent and in
the closed span of as many c2, so T(c1) is T(c2) in that basis too and
T(b1) = T(c1) follows: side 1 needs no check against its model, nor
model 1 a table.  The composed map is checked on the n * dim products
[x_k, b1_j] of the generators only: the elements on which a linear map
intertwines every bracket form a subalgebra (Jacobi), and the x_k
generate the basis, so that proves it on every pair.  A failure names
the first generator product that fails, as the side 2 check does.

No model is closed: model 2's independent images, closed under every
generator, span its closure and prove its dimension.

All computation is exact.  The canonical gauge is reached by `exp_ad`
shifts with base-field coefficients and by scalings, so a normalised
generator is lambda_k y_k, y_k over the base field and lambda_k a
scalar (`ScaledContext`).  A square root the field lacks is adjoined
where the normalisation needs it, and only the scalars move into the
quadratic extension; the pipeline fails with a diagnostic after
MAX_LIFTS extensions.  A catalog image is its base image times the
product of the scalars along its label, so the tables, the model check
and the glue solve run over the base field and the extension only
rescales them; the composed map is checked in the extension.
"""

import json
import random
from dataclasses import asdict, dataclass

from . import linalg
from .fields import (FieldElement, NoSquareRoot, QuadraticExtension,
                     lift_element, QQ, quadratic_roots, restrict, tower,
                     tower_maps)
from .graphs import (FAMILY_PARAMS, build_family_graph, catalog,
                     expected_catalog_size)
from .presentation import MonomialTable, evaluate_monomial
from .extremal import (_form_of_bracket, extremal_form_value, is_extremal,
                       fixtriangle, check_premet, HypothesisFailed)
from .realizations import (MatrixLieAlgebra, lie_closure, build_generators,
                           InvalidParameters, d_open_conditions,
                           generators_D, generators_B)


class CertifyError(Exception):
    """Base class for certification failures."""


class NoRootInField(CertifyError):
    """A parameter equation has no root in the working field (a field
    extension may help)."""


class ConditionViolated(CertifyError):
    """A Zariski-open hypothesis of the matching theorems fails."""


class NormalizationFailed(CertifyError):
    """The canonical gauge could not be reached (a required square root
    is missing even after the allowed quadratic extensions)."""


class FormMismatch(CertifyError):
    """After normalisation the form vectors disagree: the two algebras
    are not matched by this recipe."""


class StructureMismatch(CertifyError):
    """Form vectors agree but bracket tables differ under the basis
    correspondence (this would be a genuine finding)."""


# ---------------------------------------------------------------------------
# form-value vectors
# ---------------------------------------------------------------------------

PSI_LENGTH = {"D": lambda n: n + 4, "B": lambda n: n + 2,
              "A": lambda n: n + 1, "C": lambda n: n - 1}


@dataclass
class PsiVector:
    """The ordered tuple of extremal-form values that pins down a
    realization of the family graph up to isomorphism."""
    family: str
    n: int
    values: tuple

    def __post_init__(self):
        want = PSI_LENGTH[self.family](self.n)
        if len(self.values) != want:
            raise ValueError(
                f"family {self.family} at n={self.n} needs {want} "
                f"form values, got {len(self.values)}")


def long_monomial_indices(n):
    """Index word of the long monomial x_{3 up n-2} x_{n down 2}
    (outermost factor first)."""
    return tuple(range(3, n - 1)) + tuple(range(n, 1, -1))


def psi(family, ctx, gens):
    """Evaluate the form-value vector of the (extremal) generators."""
    n = len(gens)
    f = lambda i, j: extremal_form_value(ctx, gens[i - 1], gens[j - 1])
    fm = lambda i, m: extremal_form_value(ctx, gens[i - 1], m)
    chain_stop = n - 1 if family == "B" else n
    values = [f(i, i + 1) for i in range(1, chain_stop)]
    if family in ("D", "B", "A"):
        values.append(f(1, 3))
        values.append(fm(1, ctx.bracket(gens[1], gens[2])))
    if family in ("D", "B"):
        values.append(f(n - 2, n))
    if family == "D":
        values.append(fm(n - 2, ctx.bracket(gens[n - 2], gens[n - 1])))
    if family in ("D", "B"):
        z = evaluate_monomial(ctx.bracket, gens, long_monomial_indices(n))
        values.append(fm(1, z))
    return PsiVector(family, n, tuple(values))


# ---------------------------------------------------------------------------
# graph and genericity checks
# ---------------------------------------------------------------------------

def graph_realization_check(ctx, gens, graph, extremal):
    """Adjacency must coincide with non-commutation, and every generator
    must be extremal in the closure: `extremal` holds the flag
    `is_extremal` gave each generator.  Returns (flag, witnesses)."""
    n = len(gens)
    witnesses = []
    if graph.n != n:
        return False, [f"graph has {graph.n} vertices, {n} generators"]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            commutes = ctx.is_zero(ctx.bracket(gens[i - 1], gens[j - 1]))
            if commutes == graph.has_edge(i, j):
                kind = "commuting edge" if commutes else "non-commuting non-edge"
                witnesses.append(f"{kind} {{{i},{j}}}")
    for i, ok in enumerate(extremal, start=1):
        if not ok:
            witnesses.append(f"generator {i} not extremal")
    return not witnesses, witnesses


def _triangle_open(ctx, x, y, z):
    fxy = extremal_form_value(ctx, x, y)
    fxz = extremal_form_value(ctx, x, z)
    fyz = extremal_form_value(ctx, y, z)
    fxyz = extremal_form_value(ctx, x, ctx.bracket(y, z))
    return not (fxyz * fxyz - 2 * fxy * fxz * fyz).is_zero()


def check_genericity(family, ctx, gens, params=None):
    """Evaluate the Zariski-open matching hypotheses on the generators
    as given.  Returns an ordered dict of named flags."""
    n = len(gens)
    f = lambda i, j: extremal_form_value(ctx, gens[i - 1], gens[j - 1])
    out = {}
    if family in ("D", "B", "A"):
        out["triangle123"] = _triangle_open(ctx, gens[0], gens[1], gens[2])
    if family == "D":
        out["triangle_end"] = _triangle_open(
            ctx, gens[n - 1], gens[n - 2], gens[n - 3])
    chain_stop = n - 1 if family == "B" else n
    out["chain_nonzero"] = all(
        not f(i, i + 1).is_zero() for i in range(1, chain_stop))
    if family == "B":
        out["cross_nonzero"] = not f(n - 2, n).is_zero()
    if family in ("D", "B"):
        z = evaluate_monomial(ctx.bracket, gens, long_monomial_indices(n))
        flong = extremal_form_value(ctx, gens[0], z)
        sign = ctx.field(1 if n % 2 else -1)
        if family == "B":
            out["long_nonzero"] = not flong.is_zero()
            out["long_generic"] = flong != 8 * sign
        elif n % 2:
            out["long_generic"] = flong != ctx.field(8)
    if family == "D" and params is not None:
        out["param_open"], out["lambda_open"] = d_open_conditions(n, *params)
    if family == "B" and params is not None:
        (gamma,) = params
        out["param_open"] = not (gamma * (gamma + 1)).is_zero()
    return out


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

#: quadratic extensions one normal form may adjoin before giving up
MAX_LIFTS = 2


class Scaled:
    """The element c * a of a `ScaledContext`: c a FieldElement of a
    level of its field's tower, a an element of its base context."""

    __slots__ = ("c", "a")

    def __init__(self, c, a):
        self.c = c
        self.a = a


class ScaledContext:
    """The Lie context of scalar multiples c * a of the elements a of a
    base context, c in `field`, a quadratic-extension tower over the
    base field that grows as `root` adjoins roots.  Every element a
    normalisation forms is such a multiple, so its matrix work stays in
    the base field: [c a, d b] = cd [a, b] is one base bracket, and a
    combination is its first coefficient times a base combination
    (ValueError when a ratio of coefficients is not in the base field).
    Coordinate vectors are scaled into `field`, where form values are
    read.  It holds generators only, with no basis and no form; `lifts`
    lists each radicand adjoined, in order, with the step that needed
    it."""

    def __init__(self, base, field=None):
        self.base = base
        self.field = base.field if field is None else field
        self.vector_dim = base.vector_dim
        self.lifts = []
        # payload maps between the base field and `field`
        self._up, self._down = tower_maps(base.field, self.field)

    def _scalar(self, c):
        """c, an int or an element of a level of the tower, in `field`."""
        if isinstance(c, int):
            return self.field(c)
        return c if c.field is self.field else lift_element(c, self.field)

    def element(self, x):
        """x unchanged if it is Scaled, else 1 * x."""
        if isinstance(x, Scaled):
            return x
        return Scaled(self.field.one, self.base.element(x))

    def bracket(self, x, y):
        x, y = self.element(x), self.element(y)
        return Scaled(self._scalar(x.c) * self._scalar(y.c),
                      self.base.bracket(x.a, y.a))

    def lincomb(self, terms):
        scaled = []
        for c, x in terms:
            x = self.element(x)
            e = self._scalar(c) * self._scalar(x.c)
            if not e.is_zero():
                scaled.append((e, x.a))
        if not scaled:
            return Scaled(self.field.one, self.base.lincomb([]))
        lead = scaled[0][0]
        base, down = self.base.field, self._down
        combo = []
        for e, a in scaled:
            r = down((e / lead).v)
            if r is None:
                raise ValueError("a combination with coefficient ratios "
                                 "outside the base field")
            combo.append((FieldElement(base, r), a))
        return Scaled(lead, self.base.lincomb(combo))

    def is_zero(self, x):
        x = self.element(x)
        return x.c.is_zero() or self.base.is_zero(x.a)

    def vector(self, x):
        x = self.element(x)
        c = self._scalar(x.c).v
        up, mul = self._up, self.field.mul
        return {j: mul(c, up(v)) for j, v in self.base.vector(x.a).items()}

    def root(self, c, step):
        """The square root of c in `field`.  A missing root is adjoined:
        `field` becomes its quadratic extension by c, and (c, step) is
        recorded in `lifts`.  Raises NormalizationFailed when a root is
        still missing after MAX_LIFTS extensions."""
        c = self._scalar(c)
        try:
            return c.sqrt()
        except NoSquareRoot:
            if len(self.lifts) == MAX_LIFTS:
                raise NormalizationFailed(
                    f"square roots missing after {MAX_LIFTS} quadratic "
                    f"extensions") from None
        self.field = QuadraticExtension(self.field, c)
        self._up, self._down = tower_maps(self.base.field, self.field)
        self.lifts.append((c, step))
        return lift_element(c, self.field).sqrt()


def normalize_generators(family, ctx, gens, field=None):
    """Bring the generators into the canonical gauge of the family.

    Returns the normal form (nctx, ngens), a `ScaledContext` over `ctx`
    and its generators: ngens[k] = Scaled(lambda_k, y_k), y_k an element
    of `ctx` and lambda_k a scalar.  The scalars start in `field`, a
    quadratic-extension tower over ctx.field (by default ctx.field
    itself), and end in nctx.field, the field they reached; nctx.lifts
    names each radicand adjoined, in order, and the step that needed
    it.  A root is taken once, in the field reached so far: the root of
    a square of a lower level is that level's root, so the same
    radicands are adjoined whatever field the scalars start in.  Raises
    NormalizationFailed if square roots are still missing after
    MAX_LIFTS extensions, HypothesisFailed if a triangle hypothesis
    fails, ConditionViolated on a zero scaling value."""
    recipe = {"D": _normalize_D, "B": _normalize_B,
              "A": _normalize_A, "C": _normalize_C}[family]
    nctx = ScaledContext(ctx, field)
    return nctx, recipe(nctx, [nctx.element(g) for g in gens])


def _fix(ctx, g, i, targets):
    """fixtriangle on x_i, x_{i+1}, x_{i+2} (1-based i), in place, with
    the integer targets in the current field."""
    step = f"fixtriangle(x{i},x{i + 1},x{i + 2})"
    K = ctx.field
    g[i - 1], g[i], g[i + 1], _ = fixtriangle(
        ctx, g[i - 1], g[i], g[i + 1], tuple(K(t) for t in targets),
        sqrt=lambda c: ctx.root(c, step))


def _chain_scale(ctx, gens, i, target):
    """Scale x_i so that f(x_{i-1}, x_i) = target (1-based index i)."""
    val = extremal_form_value(ctx, gens[i - 2], gens[i - 1])
    if val.is_zero():
        raise ConditionViolated(f"f(x_{i-1}, x_{i}) = 0")
    gens[i - 1] = ctx.lincomb([(target / val, gens[i - 1])])


def _normalize_D(ctx, g):
    n = len(g)
    _fix(ctx, g, 1, (-8, 1, 2))
    _fix(ctx, g, n - 2, (2, 2, 1))
    for i in range(4, n - 2):
        _chain_scale(ctx, g, i, 2)
    return g


def _normalize_B(ctx, g):
    n = len(g)
    _fix(ctx, g, 1, (-8, 1, 2))
    for i in range(4, n):
        _chain_scale(ctx, g, i, 2)
    cross = extremal_form_value(ctx, g[n - 3], g[n - 1])
    if cross.is_zero():
        raise ConditionViolated(f"f(x_{n-2}, x_{n}) = 0")
    g[n - 1] = ctx.lincomb([(2 / cross, g[n - 1])])
    return g


def _normalize_A(ctx, g):
    _fix(ctx, g, 1, (1, 1, 1))
    for i in range(4, len(g) + 1):
        _chain_scale(ctx, g, i, 1)
    return g


def _normalize_C(ctx, g):
    for i in range(2, len(g) + 1):
        _chain_scale(ctx, g, i, 1)
    return g


# ---------------------------------------------------------------------------
# parameter solvers
# ---------------------------------------------------------------------------

def _quadratic_roots(a, b, c):
    """`fields.quadratic_roots`, NoRootInField when there are none."""
    try:
        return quadratic_roots(a, b, c)
    except NoSquareRoot:
        raise NoRootInField(
            "quadratic discriminant is not a square in the field "
            "(a quadratic extension would provide roots)") from None


def solve_params_D(f_long, f_short, n):
    """All (alpha, beta) whose canonical realization has the given
    gauge-invariant form values, for the parity of n.

    The canonical gauge satisfies, with l = f_long and s = f_short^2,

        n odd:   l = 4 alpha (1+beta) + 8,
                 s = (2 alpha + 4)^2 (-1-beta);
        n even:  l = 8 ((kappa-2) alpha - 2) / (alpha+2)^2,
                 s = -16 (1+beta) / (alpha+2)^2,

    where kappa is the square root of 1+beta selected by the special
    vector of the realization.  Eliminating beta gives a quadratic in
    alpha (odd n; l = 8 forces alpha = 0) and a pair of quadratics over
    the field extended by a root of -s (even n).  Every returned
    candidate is re-validated by forward substitution."""
    field = f_long.field
    l, s = f_long, f_short * f_short
    candidates = []
    if n % 2:
        if l == field(8):
            roots = [field(0)]
        else:
            roots = _quadratic_roots(l - 8, 4 * (l - 8) + s, 4 * (l - 8))
        for alpha in roots:
            if (alpha + 2).is_zero():
                continue
            beta = -1 - s / (2 * alpha + 4) ** 2
            if l != 4 * alpha * (1 + beta) + 8:
                continue
            candidates.append((alpha, beta))
    else:
        try:
            w = (-s).sqrt()
        except NoSquareRoot:
            raise NoRootInField(
                "no root of -f_short^2 in the field "
                "(a quadratic extension would provide one)") from None
        roots = []
        for ww in (w, -w):
            roots.extend(_quadratic_roots(
                l - 2 * ww, 4 * l - 4 * ww + 16, 4 * l + 16))
        for alpha in roots:
            if (alpha + 2).is_zero():
                continue
            if alpha.is_zero():
                if not (4 * l + 16).is_zero():
                    continue
                kappa = w / 2
            else:
                kappa = (l * (alpha + 2) ** 2 + 16 * (alpha + 1)) / (8 * alpha)
            beta = kappa * kappa - 1
            if l * (alpha + 2) ** 2 != 8 * ((kappa - 2) * alpha - 2):
                continue
            if s * (alpha + 2) ** 2 != -16 * (1 + beta):
                continue
            if (alpha, beta) not in candidates:
                candidates.append((alpha, beta))
    if not candidates:
        raise NoRootInField("no valid (alpha, beta) over the field")
    return candidates


def d_branch_root(f_long, alpha, beta):
    """The special-vector line coordinate c that realizes the given
    canonical f_long at even rank: c = (kappa - 1)/beta with the kappa
    branch read off from the f_long relation (None for alpha = 0, where
    both branches give the same form values)."""
    if alpha.is_zero():
        return None
    kappa = (f_long * (alpha + 2) ** 2 + 16 * (alpha + 1)) / (8 * alpha)
    return (kappa - 1) / beta


def solve_param_B(f_long, n):
    """The gamma whose canonical realization has the given f_long.

    The canonical gauge satisfies

        f_long = (-1)^(n+1) c_n gamma/(gamma+1),  c_n = 8 (n odd), 4 (n even),

    so gamma = u/(c_n - u) with u = (-1)^(n+1) f_long.  Excluded are
    f_long = 0 (gamma = 0), the pole u = c_n, and the matching theorem's
    open condition f_long != 8*(-1)^(n+1) (for odd n that is the pole)."""
    field = f_long.field
    if f_long.is_zero():
        raise ConditionViolated("f_long = 0")
    if f_long == field(8 if n % 2 else -8):
        raise ConditionViolated("f_long = 8*(-1)^(n+1)")
    u = f_long if n % 2 else -f_long
    c = field(8 if n % 2 else 4)
    if u == c:
        raise ConditionViolated("f_long at the excluded pole")
    gamma = u / (c - u)
    if (gamma * (gamma + 1)).is_zero():
        raise ConditionViolated("recovered gamma has gamma*(gamma+1) = 0")
    return gamma


# ---------------------------------------------------------------------------
# sampled identity checks
# ---------------------------------------------------------------------------

def check_quartic_identities(ctx, xk, xl, xm, t, u):
    """The two rewriting identities for an extremal xk and arbitrary
    elements.  Q3 is the square-bracket identity at y = [xl, xm]:

    Q3:  [xk,[xl,[xm,[xk,t]]]] - [xk,[xm,[xl,[xk,t]]]]
           = 1/2 ( f(xk,[y,t]) xk - f(xk,t) [xk,y] - f(xk,y) [xk,t] )
    Q3a: the pairing of Q3 against f(u, .), with the right side fully
         expanded into form values.

    By Jacobi, which matrix commutators satisfy exactly, the left side
    is the single nested bracket m = [xk,[y,[xk,t]]], and the form being
    bilinear, Q3a's left side is f(u, m).  [xk,[y,t]] is formed as
    [[xk,y],t] + [y,[xk,t]], reusing [y,[xk,t]]; [xk,t] and [xk,y] are
    formed once and serve both the right side and the form values
    f(xk,t) and f(xk,y) that they start: 9 brackets per sample.  Each
    matrix equals, entry for entry, the one the six-bracket expansion
    forms, so every flag (and every NotExtremal) is unchanged.
    """
    br = ctx.bracket
    half = ctx.field.one / 2
    xk_t = br(xk, t)
    y = br(xl, xm)
    y_xk_t = br(y, xk_t)
    m = br(xk, y_xk_t)
    xk_y = br(xk, y)
    xk_yt = ctx.lincomb([(1, br(xk_y, t)), (1, y_xk_t)])
    fk_yt = _form_of_bracket(ctx, xk, xk_yt)
    fk_t = _form_of_bracket(ctx, xk, xk_t)
    fk_y = _form_of_bracket(ctx, xk, xk_y)
    q3 = ctx.is_zero(ctx.lincomb([(1, m), (-half * fk_yt, xk),
                                  (half * fk_t, xk_y), (half * fk_y, xk_t)]))
    lhs_a = ctx.form(u, m)
    rhs_a = half * (fk_yt * ctx.form(u, xk)
                    - fk_t * ctx.form(u, xk_y)
                    - fk_y * ctx.form(u, xk_t))
    return {"Q3": q3, "Q3a": lhs_a == rhs_a}


def _draws(rng, lo, hi, count):
    """`count` draws of rng.randint(lo, hi), equal to them from the same
    generator state and leaving the same state: randint's rejection
    sampling, k = width.bit_length() bits of rng.getrandbits redrawn
    while r >= width, without its per-call argument handling."""
    width = hi - lo + 1
    if width < 1:
        raise ValueError(f"empty range [{lo}, {hi}]")
    k = width.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        out.append(lo + r)
    return out


def _random_element(ctx, rng):
    """A basis combination with coefficients in [-3, 3]: exactly `dim`
    draws from rng."""
    return ctx.from_coords(_draws(rng, -3, 3, ctx.dim))


# ---------------------------------------------------------------------------
# certification report
# ---------------------------------------------------------------------------

@dataclass
class CertReport:
    family: str
    n: int
    field: str
    params: dict
    extremal: list
    graph_match: bool
    dim: int
    dim_expected: int
    catalog_rank: int
    spanning_samples: dict
    psi: list
    genericity: dict
    identities: dict
    verdict: str

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def certify_family(family, n, params=(), field=QQ, seed=0,
                   identity_samples=50, spanning_samples=100):
    """Build the family realization and verify it end to end."""
    rng = random.Random(seed)
    mats, _ = build_generators(family, n, field, params)
    closure = lie_closure(mats, field)
    mats = closure.generators_list
    graph = build_family_graph(family, n)

    extremal_flags = [is_extremal(closure, g)[0] for g in mats]
    graph_ok, _ = graph_realization_check(closure, mats, graph,
                                          extremal_flags)
    expected = expected_catalog_size(family, n)

    span = linalg.SpanSolver(field, closure.vector_dim)
    for img in _catalog_images(closure, mats,
                               [e.indices for e in catalog(family, n)]):
        span.add(closure.vector(img))
    catalog_rank = span.rank

    tried = passed = 0
    for _ in range(spanning_samples):
        k = _draws(rng, 1, 2 * n - 3, 1)[0]
        # tuple() of a list, not of a generator: sized once, it leaves
        # no resized tuples piling up in CPython's per-size free lists
        idx = tuple(_draws(rng, 1, n, k))
        img = evaluate_monomial(closure.bracket, mats, idx)
        tried += 1
        if span.contains(closure.vector(img)):
            passed += 1
    spanning = {"tried": tried, "passed": passed}

    psi_vec = psi(family, closure, mats)
    gen_flags = check_genericity(family, closure, mats,
                                 params=[field(p) for p in params] or None)

    id_counts = {"premet": {"tried": 0, "passed": 0},
                 "Q3": {"tried": 0, "passed": 0},
                 "Q3a": {"tried": 0, "passed": 0}}
    for _ in range(identity_samples):
        x = mats[_draws(rng, 0, n - 1, 1)[0]]
        y = _random_element(closure, rng)
        z = _random_element(closure, rng)
        flags = check_premet(closure, x, y, z)
        id_counts["premet"]["tried"] += 1
        id_counts["premet"]["passed"] += all(flags.values())
        k, l, m = _draws(rng, 0, n - 1, 3)
        q = check_quartic_identities(closure, mats[k], mats[l], mats[m],
                                     _random_element(closure, rng),
                                     _random_element(closure, rng))
        for name in ("Q3", "Q3a"):
            id_counts[name]["tried"] += 1
            id_counts[name]["passed"] += q[name]

    # the genericity evaluations are hypotheses of the matching theorems,
    # reported for information; a realization on a non-generic locus is
    # still a valid realization, so they do not enter the verdict
    checks = [all(extremal_flags), graph_ok, closure.dim == expected,
              catalog_rank == expected, passed == tried,
              all(c["passed"] == c["tried"] for c in id_counts.values())]
    return CertReport(
        family=family, n=n, field=str(field),
        params={k: str(field(v))
                for k, v in zip(FAMILY_PARAMS[family], params)},
        extremal=extremal_flags, graph_match=graph_ok,
        dim=closure.dim, dim_expected=expected, catalog_rank=catalog_rank,
        spanning_samples=spanning,
        psi=[str(v) for v in psi_vec.values],
        genericity=gen_flags, identities=id_counts,
        verdict="pass" if all(checks) else "fail")


# ---------------------------------------------------------------------------
# isomorphism certification
# ---------------------------------------------------------------------------

@dataclass
class MatchCertificate:
    family: str
    n: int
    field: str
    params1: dict
    params2: dict
    psi1: list
    psi2: list
    dim: int
    basis_map: list
    pairs_checked: int
    verdict: str


def _psi_in(vec, fld):
    return PsiVector(vec.family, vec.n,
                     tuple(lift_element(v, fld) for v in vec.values))


def _standard_context(family, n, params, base=None):
    """The generators-only context of the standard generators of B
    (params (gamma,)) or D (params (alpha, beta) and, at even rank, the
    special-vector root), over the lowest level of the parameters'
    tower that holds them, contains the level `base` (any level when
    None) and has the square roots the construction takes: over the
    base field whenever it can be.  The construction takes each root
    once, and the root of a square of a lower level is that level's
    root, so a higher level would build the same matrices.  Raises the
    InvalidParameters of the last level tried."""
    levels = tower(params[0].field)
    if base is not None:
        levels = levels[next(i for i, f in enumerate(levels)
                             if f.same(base)):]
    error = None
    for level in levels:
        values = [restrict(v, level) for v in params]
        if None in values:
            continue
        try:
            if family == "B":
                mats, _ = generators_B(n, level, *values)
            else:
                alpha, beta, *c = values
                mats, _ = generators_D(n, level, alpha, beta,
                                       force_special_c=c[0] if c else None)
            # normalisation and psi need brackets and combinations only
            return MatrixLieAlgebra(level, len(mats[0]), [], mats)
        except InvalidParameters as exc:
            error = exc
    raise error


def _rebuild_model(family, n, fld, target_psi, base=None):
    """Standard generators whose canonical gauge reproduces
    `target_psi`; returns (params, ctx, gens), (ctx, gens) the model's
    normal form, its scalars starting in `fld` and its matrices over
    the field `_standard_context` gives for `base`.  Raises
    FormMismatch if no solved parameter candidate reproduces the
    normalized form values.

    No candidate is closed here.  The side 2 check (`_check_model`)
    finds model 2's catalog images independent and closed under every
    generator, so they span the closure, of dimension the catalog size,
    as model 1's images do; otherwise it raises StructureMismatch."""
    flong = target_psi.values[-1]
    if family == "B":
        candidates = [(solve_param_B(flong, n),)]
    else:
        fshort = target_psi.values[n - 4]
        candidates = solve_params_D(flong, fshort, n)
    for cand in candidates:
        # the special-vector root fixes the branch at even rank
        root = (d_branch_root(flong, *cand)
                if family == "D" and n % 2 == 0 else None)
        try:
            ctx = _standard_context(
                family, n, cand + (() if root is None else (root,)), base)
        except InvalidParameters:
            continue
        try:
            mctx, mg = normalize_generators(family, ctx, ctx.generators_list,
                                            fld)
        except (NormalizationFailed, HypothesisFailed, ConditionViolated):
            continue
        target = _psi_in(target_psi, mctx.field)
        if target == psi(family, mctx, mg):
            return cand, mctx, mg
        if family == "D":
            # the canonical gauge leaves one sign free: negating the
            # last three generators preserves every fixed target and
            # f_long while flipping f_short
            flipped = list(mg)
            for i in (n - 3, n - 2, n - 1):
                flipped[i] = mctx.lincomb([(-1, flipped[i])])
            if target == psi(family, mctx, flipped):
                return cand, mctx, flipped
    raise FormMismatch(
        "no solved parameter candidate reproduces the normalized form values")


def _basis_span(field, vector_dim, vectors):
    span = linalg.SpanSolver(field, vector_dim)
    for v in vectors:
        if not span.add(v):
            raise StructureMismatch("catalog images are dependent")
    return span


def _catalog_images(ctx, gens, labels):
    """The matrices of the tail-closed bracket monomials `labels` in the
    generators, in order: a label (k,) is x_k, and a label (k,) + label'
    is built as exactly [x_k, image of label'], one matrix bracket."""
    index = {lab: b for b, lab in enumerate(labels)}
    images = [None] * len(labels)
    for b in sorted(range(len(labels)), key=lambda b: len(labels[b])):
        k, *tail = labels[b]
        images[b] = (ctx.bracket(gens[k - 1], images[index[tuple(tail)]])
                     if tail else gens[k - 1])
    return images


def _catalog_table(ctx, gens, labels, name):
    """The basis of tail-closed bracket monomials `labels` in the
    generators and its structure-constant table.

    Returns (images, span, table): the matrices images[b]
    (`_catalog_images`), the `SpanSolver` of the images, in order, and
    the `MonomialTable` whose left multiplications are [x_k, b] in that
    basis.  A left multiplication whose monomial (k,) + label(b) is a
    label is a unit vector and needs no bracket; every other one is one
    matrix bracket and its coordinates, n * dim brackets in all with the
    images.  Raises StructureMismatch "catalog images are dependent", or
    "<name>: bracket leaves the span" when [x_k, b] is outside it."""
    field = ctx.field
    one = field.one.v
    table = MonomialTable(field, labels, [[] for _ in gens])
    index = table.label_index
    images = _catalog_images(ctx, gens, labels)
    span = _basis_span(field, ctx.vector_dim,
                       [ctx.vector(img) for img in images])
    for k, (g, lm) in enumerate(zip(gens, table.leftmult), start=1):
        for b, lab in enumerate(labels):
            hit = index.get((k,) + lab)
            if hit is not None:
                lm.append({hit: one})
                continue
            col = span.sparse_coords(ctx.vector(ctx.bracket(g, images[b])))
            if col is None:
                raise StructureMismatch(f"{name}: bracket leaves the span")
            lm.append(col)
    return images, span, table


def _scalars(gens, field):
    """The payloads in `field` of the scalars of Scaled generators."""
    return [lift_element(g.c, field).v for g in gens]


def _label_scalars(field, scalars, labels):
    """mu_b, the product of the scalar payloads of the generators along
    label b: the catalog image of b in the generators lambda_k y_k is
    mu_b times its image in the y_k, exactly, by bilinearity."""
    mul = field.mul
    out = []
    for lab in labels:
        m = scalars[lab[0] - 1]
        for k in lab[1:]:
            m = mul(m, scalars[k - 1])
        out.append(m)
    return out


def _rescaled_table(table, scalars, field):
    """The table over `field` of the generators lambda_k y_k from
    `table`, that of the y_k, with the scalar payloads lambda_k:

        T(k,b)_j = lambda_k mu_b / mu_j  T_base(k,b)_j,

    mu the `_label_scalars`.  A unit column stays a unit column, since
    lambda_k mu_b is mu of the label (k,) + label(b)."""
    up = tower_maps(table.field, field)[0]
    mul, div, one = field.mul, field.div, field.one.v
    mu = _label_scalars(field, scalars, table.labels)
    inv = [div(one, m) for m in mu]
    leftmult = []
    for lam, lm in zip(scalars, table.leftmult):
        cols = []
        for m, col in zip(mu, lm):
            f = mul(lam, m)
            cols.append({j: mul(mul(f, inv[j]), up(c))
                         for j, c in col.items()})
        leftmult.append(cols)
    return MonomialTable(field, table.labels, leftmult)


def _side_table(ctx, gens, labels, name, field):
    """T of a side's normal form (ctx, gens) over `field`: the catalog
    table of its base generators (`_catalog_table`, over the base
    field), rescaled by its scalars."""
    _, _, table = _catalog_table(ctx.base, [g.a for g in gens], labels,
                                 name)
    return _rescaled_table(table, _scalars(gens, field), field)


def _check_model(ctx, gens, table, name):
    """The model's catalog images c have the left multiplications of
    `table`, a table over ctx.field: [x_k, c_b] = sum_j T_kb^j c_j
    exactly for every generator product, in order.  The model is the
    normal form (ctx, gens), x_k = nu_k z_k with z_k over the base field
    of the `ScaledContext` ctx, so c_b = mu_b e_b with e_b the image in
    the z_k (`_label_scalars`), and the product holds exactly when

        [z_k, e_b] - sum_j (mu_j / (nu_k mu_b)) T_kb^j e_j = 0.

    The e_j are independent over the base field, so the coordinates of
    [z_k, e_b] in them are unique and lie in it: a rescaled coefficient
    outside the base field fails the product, and otherwise the base
    residual must vanish.  At a unit product, (k,) + label(b) a label,
    [x_k, c_b] is c_hit, so it needs no bracket: the column must be
    {hit: 1}.  Coordinates in independent images being unique, the
    model's table has the same left multiplications, and so,
    `MonomialTable.pair` being a function of those and the labels, it
    equals `table` on every pair.  Returns the `SpanSolver` of the e_b,
    over the base field, which, closed under every generator, span the
    closure.  Raises StructureMismatch "catalog images are dependent",
    or "<name>: bracket tables differ at generator product (k,b)"."""
    base, field = ctx.base, ctx.field
    gens = [ctx.element(g) for g in gens]
    zs = [g.a for g in gens]
    nu = _scalars(gens, field)
    images = _catalog_images(base, zs, table.labels)
    vectors = [base.vector(img) for img in images]
    span = _basis_span(base.field, base.vector_dim, vectors)
    mu = _label_scalars(field, nu, table.labels)
    down = tower_maps(base.field, field)[1]
    mul, div, unit = field.mul, field.div, field.one.v
    axpy = base.field.axpy
    for k, (z, lm) in enumerate(zip(zs, table.leftmult), start=1):
        for b, lab in enumerate(table.labels):
            hit = table.label_index.get((k,) + lab)
            if hit is not None:
                ok = lm[b] == {hit: unit}
            else:
                # w = [z_k, e_b] - sum_j c_j e_j (axpy subtracts)
                w = base.vector(base.bracket(z, images[b]))
                inv = div(unit, mul(nu[k - 1], mu[b]))
                ok = True
                for j, c in lm[b].items():
                    c = down(mul(mul(c, mu[j]), inv))
                    if c is None:
                        ok = False
                        break
                    axpy(w, c, vectors[j])
                ok = ok and not w
            if not ok:
                raise StructureMismatch(
                    f"{name}: bracket tables differ at generator product "
                    f"({k},{b})")
    return span


def _check_composed_map(t_b1, t_b2, glue):
    """The composed correspondence b1_i -> phi_i = sum_a G_ia b2_a, G the
    sparse payload glue rows, is a homomorphism of the two tables.

    The elements a with phi[a, b] = [phi a, phi b] for every b form a
    subalgebra (Jacobi carries the identity from a and a' to [a, a']),
    and the generators x_k generate the catalog basis, so it is enough
    to check the n * dim generator products: for every k and j, in
    b2-coordinates,

        [phi(x_k), phi_j] = sum_c T(b1).leftmult[k-1][j]_c G_c.

    That takes n * dim `bracket_with` calls on T(b2), forms no pair of
    T(b1) and needs no matrix bracket.  Returns the number of pairs
    i < j, dim * (dim - 1) / 2, on all of which the map is proven.
    Raises StructureMismatch "composed map: bracket tables differ at
    generator product (k,j)" at the first product, in order, that
    fails."""
    axpy = t_b1.field.axpy
    for k, lm in enumerate(t_b1.leftmult, start=1):
        g = glue[t_b1.label_index[(k,)]]
        # [b2_a, phi(x_k)] for every a, once per generator
        ad = [t_b2.bracket_with(a, g) for a in range(t_b2.dim)]
        for j, col in enumerate(lm):
            # w = [phi(x_k), phi_j] - phi([x_k, b1_j]) (axpy subtracts)
            w = {}
            for b, c in glue[j].items():
                axpy(w, c, ad[b])
            for i, c in col.items():
                axpy(w, c, glue[i])
            if w:
                raise StructureMismatch(
                    f"composed map: bracket tables differ at generator "
                    f"product ({k},{j})")
    return t_b1.dim * (t_b1.dim - 1) // 2


def match_algebras(alg1, gens1, alg2, gens2, family):
    """Certify that two realizations of the same family graph, over one
    field, are isomorphic: normalise both, recover standard parameters,
    rebuild the standard model for each side, check side 2's
    structure-constant table on its model's generator products, and
    check the composed basis correspondence on the generator products;
    each proves its tables equal on every pair of basis elements.

    The scalars of each normal form start in the field the one before
    reached: side 1, side 2, model 1, model 2.  The composed map is
    checked in the last field reached; all other work runs over the
    fields of the matrices, and that field only rescales it.

    alg1 and alg2 may hold generators only; the certificate's `dim` is
    the catalog size its tables prove."""
    n = len(gens1)
    if len(gens2) != n or alg1.dim != alg2.dim:
        raise FormMismatch("realizations have different dimensions")
    if not alg1.field.same(alg2.field):
        raise FormMismatch("realizations over different fields")
    labels = [e.indices for e in catalog(family, n)]

    ctx1, g1 = normalize_generators(family, alg1, gens1)
    ctx2, g2 = normalize_generators(family, alg2, gens2, ctx1.field)
    psi1 = psi(family, ctx1, g1)
    psi2 = psi(family, ctx2, g2)

    if family in ("A", "C"):
        # no parameters: the canonical gauges must agree outright, and
        # each side serves as its own standard model
        if _psi_in(psi1, ctx2.field) != psi2:
            raise FormMismatch("normalized form vectors differ")
        params1 = params2 = ()
        mctx1, m1 = ctx1, g1
        mctx2, m2 = ctx2, g2
    else:
        # model 2's matrices over a field containing model 1's keep the
        # glue solve in one field
        params1, mctx1, m1 = _rebuild_model(family, n, ctx2.field, psi1)
        params2, mctx2, m2 = _rebuild_model(
            family, n, mctx1.field, _psi_in(psi2, mctx1.field),
            mctx1.base.field)

    # the largest field reached: the tables and the glue are rescaled
    # into it
    top = mctx2.field
    t_b1 = _side_table(ctx1, g1, labels, "side 1 vs model", top)
    t_b2 = _side_table(ctx2, g2, labels, "side 2 vs model", top)
    # model 1 needs no table, only independent catalog images
    base1 = mctx1.base
    c1 = [base1.vector(img)
          for img in _catalog_images(base1, [g.a for g in m1], labels)]
    _basis_span(base1.field, base1.vector_dim, c1)
    # side 2 against its standard model: T(b2) = T(c2)
    span_c2 = _check_model(mctx2, m2, t_b2, "side 2 vs model")
    mu1 = _label_scalars(top, _scalars(m1, top), labels)
    mu2 = _label_scalars(top, _scalars(m2, top), labels)
    up12 = tower_maps(base1.field, mctx2.base.field)[0]
    up = tower_maps(mctx2.base.field, top)[0]
    # what follows reads the tables, c1, span_c2 and the scalars only:
    # dropping the matrix algebras lowers the peak memory
    del ctx1, ctx2, mctx1, mctx2, g1, g2, m1, m2, base1

    # glue through the common model algebra: model 1's images, in model
    # 2's closed span and as many as its basis, are a basis of it, so
    # the glue matrix G of their coordinates is invertible and T(c1) is
    # T(c2) in the basis G gives.  With c1_i = mu1_i e1_i and c2_a =
    # mu2_a e2_a, G_ia = mu1_i / mu2_a Gbase_ia for the coordinates
    # Gbase of the e1 in the e2, solved over model 2's matrix field
    mul, div, one = top.mul, top.div, top.one.v
    inv2 = [div(one, m) for m in mu2]
    glue = []
    for m, v in zip(mu1, c1):
        row = span_c2.sparse_coords({j: up12(x) for j, x in v.items()})
        if row is None:
            raise StructureMismatch("model closures do not coincide")
        glue.append({a: mul(mul(m, inv2[a]), up(x)) for a, x in row.items()})
    del c1, span_c2

    # the composed map: T(b1) is T(b2) in the basis G gives, which with
    # T(b2) = T(c2) proves T(b1) = T(c1), side 1 against its model
    pairs = _check_composed_map(t_b1, t_b2, glue)

    param_names = FAMILY_PARAMS[family]
    return MatchCertificate(
        family=family, n=n, field=str(top),
        params1={k: str(v) for k, v in zip(param_names, params1)},
        params2={k: str(v) for k, v in zip(param_names, params2)},
        psi1=[str(v) for v in psi1.values],
        psi2=[str(v) for v in psi2.values],
        dim=len(labels),
        basis_map=[[str(v) for v in linalg.dense(top, row, len(labels))]
                   for row in glue],
        pairs_checked=pairs,
        verdict="pass")
