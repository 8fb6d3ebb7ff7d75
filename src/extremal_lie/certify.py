"""Certification pipeline for graph realizations by extremal elements.

Given a set of matrix generators realizing one of the family graphs,
this module

* verifies the realization (commutation pattern, extremality, closure
  dimension, catalog basis, sampled identities), proving the closure
  dimension from the catalog images and the classical algebra the
  realization's traces or form define (`catalog_closure`),
* normalises the generators to a canonical gauge with `fixtriangle`
  and exact scalings, reads off the vector of extremal-form values,
* recovers the defining parameters of the standard realization from
  the two gauge-invariant form values, and
* certifies that two realizations of the same family are isomorphic by
  an explicit basis correspondence whose bracket tables are proven to
  agree on every pair of basis elements.

A realization's one Lie context is the `realizations.ClassicalAlgebra`
of its generators, sl_N, o(G) or sp(G), which holds the closure and is
the closure when the catalog rank is its dimension: in characteristic
!= 2 the rest of `certify_family` reads from that form.  A square-zero
x has [x, [x, y]] = -2xyx, a multiple of x for every y in the algebra
when x has rank 1 (x = a b^T, xyx = (b^T y a) x) or rank 2 in o(G) (a
Siegel element T_{u,v}, im x totally isotropic, xyx = B(u, yv) x).  So
f_x(y) is -2 trace(xy) at rank 1 and -trace(xy) at rank 2, and the
form scale needs no calibration.  The identity samples are drawn in
the algebra: traceless matrices, or G^-1 A for A antisymmetric (o(G))
or symmetric (sp(G)).  A failing realization, whose catalog rank is
less, is checked in the same algebra, a superset of its closure.

The bracket tables are structure constants on the catalog bases.  A
catalog is tail-closed, every monomial being [x_k, b'] with b' in the
catalog too, so a table follows from the left multiplications by the
generators: every other pair comes from the comb recursion
[[x_k, b'], c] = [x_k, [b', c]] - [b', [x_k, c]], which is the Jacobi
identity and so exact for matrix commutators (de Graaf, Lie Algebras:
Theory and Algorithms, 2000, ch. 1).  With independent bases,
a_i -> b_i is an isomorphism exactly when the two tables agree on every
pair, and so when they have the same left multiplications.  No table
is stored: a match reads each generator product once.

A match proves side 2 first.  Unless side 2 is its own model, it runs
one pass over its generator products (`_check_side`).  [x_k, b] is a
catalog image as built when (k,) + label(b) is a label, and otherwise
one matrix bracket whose coordinates in the side's images are solved
exactly, which fails if the span is not closed.  The pass applies each
solved column at once to model 2's catalog images c2, so that their
left multiplications, and with them every pair, are side 2's.  Side 1
runs the same pass against model 1 only when it is checked.  As its own
model, its c1 are its dim independent images; the glue finds each in
span_c2, closed of dimension dim, so they span it, and as it holds
every generator (a singleton label) it is side 1's closure: its pass
could not fail.  Each pass names the first product that fails.  Both
models are built over the sides' field, and a side is its own model
when its normal form has its model's base matrices and scalars
(`_own_model`): each product is solved from exactly its model's
bracket in exactly its model's images, so the check holds as built and
its images serve as the model's.  Side 2 then needs only its span
proved closed, and the classical bound proves it as `certify_family`
proves its closure (`_classical_bound`): its dim catalog images are
independent, and every base generator y_k lies in the classical
algebra of the family's standard form (`standard_form`), sl_N, o(G) or
sp(G), of dimension dim, so the images span the closure.  A side whose
bound fails, such as one in other coordinates, takes a pass with no
model, which proves the span closed by membership.  Every A or C side
is its own model, and so is a B or D side of standard generators whose
model rebuilds them; a B or D side in other coordinates, or one whose
psi rebuilds at another parameter point (D5 (2,3) at (0,15)), is
checked.  A pass solves on its side's base generators y_k, over the
base field, and meets the scalars through one ratio per generator,
side scalar over model scalar.  The glue matrix G holds the
coordinates of the c1 in the basis c2: the c1 are independent and in
the closed span of as many c2, so G is invertible, and it is the
identity map of matrices, which needs no check.  So model 1's table is
model 2's in the basis G gives, and b1_i -> sum_a G_ia b2_a, through
the models, is an isomorphism on every pair.

No model is closed: model 2's independent images, closed under every
generator (by side 2's model check or, when side 2 is its own model, by
its classical bound or its membership pass), span its closure and prove
its dimension.

A and C graphs carry no parameters: each side's model is the side, so
no model check runs.  Glue row i then rescales the coordinates of side
1's image e1_i in side 2's, so the map is b1_i -> b1_i as matrices: an
A or C certificate proves that the two catalogs span one matrix algebra, and a
realization in other coordinates is refused.  A B or D side that is its
own model proves what an A or C side proves: its images are its
model's, and when both sides are, the map is the identity of their
normal-form matrices.

All computation is exact.  The canonical gauge is reached by `exp_ad`
shifts with base-field coefficients and by scalings, so a normalised
generator is lambda_k y_k, y_k over the base field and lambda_k a
scalar (`ScaledContext`).  A square root the field lacks is adjoined
where the normalisation needs it, and only the scalars move into the
quadratic extension; the pipeline fails with a diagnostic after
MAX_LIFTS extensions.  A catalog image is its base image times the
product of the scalars along its label, so the side passes, the model
checks and the glue solve run over the base field.  The extension holds
scalars only: a model check takes one ratio per generator, side scalar
over model scalar, and maps each rescaled coefficient back to the base
field, and the glue is rescaled into `basis_map`.
"""

import json
import random
from dataclasses import asdict, dataclass

from . import linalg
from .fields import (FieldElement, NoSquareRoot, QuadraticExtension,
                     lift_element, QQ, quadratic_roots, tower_maps)
from .graphs import (FAMILY_PARAMS, build_family_graph, catalog,
                     expected_catalog_size)
from .presentation import evaluate_monomial
from .extremal import (extremal_form_value, fixtriangle, check_premet,
                       triangle_open, HypothesisFailed)
from .realizations import (MatrixLieAlgebra, build_generators,
                           classical_algebra, InvalidParameters,
                           d_open_conditions, generators_D, generators_B,
                           standard_form)


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
    must be extremal in the closure: `extremal` holds the flag the
    closure's `extremal` gave each generator.  Returns (flag,
    witnesses)."""
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


def check_genericity(vec, params=None):
    """Evaluate the Zariski-open matching hypotheses on the form values
    `vec`, the PsiVector of the generators as given, and the parameters.
    The values come from one symmetric associative form, so each flag is
    a function of them: D's end triangle is read on (x_{n-2}, x_{n-1},
    x_n), as `psi` stores it.  Returns an ordered dict of named flags."""
    family, n = vec.family, vec.n
    links = n - 2 if family == "B" else n - 1
    # the chain f(x_i, x_{i+1}), then f(x_1,x_3), f(x_1,[x_2,x_3]), ...
    chain, rest = vec.values[:links], vec.values[links:]
    out = {}
    if family in ("D", "B", "A"):
        out["triangle123"] = triangle_open(chain[0], rest[0], chain[1],
                                           rest[1])
    if family == "D":
        out["triangle_end"] = triangle_open(chain[-2], rest[2], chain[-1],
                                            rest[3])
    out["chain_nonzero"] = not any(f.is_zero() for f in chain)
    if family == "B":
        out["cross_nonzero"] = not rest[2].is_zero()
    if family in ("D", "B"):
        flong = rest[-1]
        sign = flong.field(1 if n % 2 else -1)
        if family == "B":
            out["long_nonzero"] = not flong.is_zero()
            out["long_generic"] = flong != 8 * sign
        elif n % 2:
            out["long_generic"] = flong != flong.field(8)
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
    A form value is read in the base context and scaled into `field`,
    f(c a, d b) = cd f(a, b) by bilinearity, so no vector enters the
    extension.  It holds generators only, with no basis, no form and
    no coordinate vectors; `lifts` lists each radicand adjoined, in
    order, with the step that needed it."""

    def __init__(self, base, field=None):
        self.base = base
        self.field = base.field if field is None else field
        self.lifts = []
        # the payload map from `field` down to the base field
        self._down = tower_maps(base.field, self.field)[1]

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

    def extremal_value(self, x, y):
        """f(c a, d b) = cd f(a, b), with f(a, b) from the base context
        and d = 0 giving 0 without it.  ValueError for x = 0."""
        x, y = self.element(x), self.element(y)
        if x.c.is_zero():
            raise ValueError("x is zero")
        cd = self._scalar(x.c) * self._scalar(y.c)
        if cd.is_zero():
            return cd
        return cd * self._scalar(self.base.extremal_value(x.a, y.a))

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
        self._down = tower_maps(self.base.field, self.field)[1]
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
    candidate is re-validated by forward substitution and lies in the
    open set (alpha+2) beta (beta+1) != 0.  At even n a candidate with
    alpha != 0 is (alpha, beta, c), c = (kappa-1)/beta the special-vector
    coordinate of the kappa it solved (`generators_D`'s force_special_c);
    at alpha = 0 both roots give the same form values, and it is
    (alpha, beta).  Raises NoRootInField when no candidate remains."""
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
            if (beta * (beta + 1)).is_zero():
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
            if (beta * (beta + 1)).is_zero():
                continue
            cand = ((alpha, beta) if alpha.is_zero()
                    else (alpha, beta, (kappa - 1) / beta))
            if cand not in candidates:
                candidates.append(cand)
    if not candidates:
        raise NoRootInField("no valid (alpha, beta) over the field")
    return candidates


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
    bilinear, Q3a's left side is f(u, m).  The check forms [xk,t], y,
    [y,[xk,t]], m, [xk,y] and [y,t], each once: 6 brackets per sample.
    The form values f(xk,t), f(xk,y) and f(xk,[y,t]) add none where the
    context reads them without brackets, as a matrix context does for
    a square-zero xk.  Each matrix and value equals the one the
    six-bracket expansion forms, so every flag (and every NotExtremal)
    is unchanged.
    """
    br = ctx.bracket
    half = ctx.field.one / 2
    xk_t = br(xk, t)
    y = br(xl, xm)
    y_xk_t = br(y, xk_t)
    m = br(xk, y_xk_t)
    xk_y = br(xk, y)
    yt = br(y, t)
    fk_yt = extremal_form_value(ctx, xk, yt)
    fk_t = extremal_form_value(ctx, xk, t)
    fk_y = extremal_form_value(ctx, xk, y)
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
    """A combination of the standard basis of a `ClassicalAlgebra` with
    coefficients in [-3, 3], exactly `dim` draws from rng
    (`ClassicalAlgebra.from_coords`)."""
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


#: random monomials checked against the catalog span per report
SPANNING_SAMPLES = 100
#: sampled instances of the Premet and quartic identities per report
IDENTITY_SAMPLES = 50


def catalog_closure(family, n, field, mats, extra):
    """(closure, span): the classical algebra that holds the family
    generators `mats`, as `build_generators` returns them with `extra`,
    and the `SpanSolver` of their catalog images.  The closure's
    dimension is `span.rank`.

    The catalog images lie in the closure, so their rank bounds its
    dimension from below; the `ClassicalAlgebra` of `classical_algebra`
    (sl_N, o(G) or sp(G)) holds it and bounds it from above.  When the
    rank is the catalog size, which is that algebra's dimension, the
    closure is that algebra.  When it is less, the closure is a proper
    subalgebra whose dimension is still the rank, by the filtration
    lemma behind the presentation L(Gamma, f) (Cohen, Steinbach,
    Ushirobira and Wales, "Lie algebras generated by extremal
    elements", J. Algebra 236, 2001): a Lie algebra generated by
    extremal elements with commutation graph Gamma is a quotient of
    some L(Gamma, f), and L(Gamma, f) is filtered with associated graded
    algebra a quotient of L(Gamma, 0), so monomials that span L(Gamma, 0)
    span L(Gamma, f).  Each generator is extremal in the classical
    algebra (rank 1, or a Siegel element of o(G)), so in the closure
    too, and the catalog, a basis of L(Gamma, 0), spans it.

    A passing verdict rests on the classical bound alone.  Only a
    failing report's `dim` rests on the lemma; that the catalog is a
    basis of L(Gamma, 0) is checked over GF(p) for n <= 12 (the test
    test_presentation_at_n_12_has_the_catalog_dimension) and rests on
    the paper's catalog beyond.  ValueError when
    `classical_algebra` refuses the generators or its dimension is not
    the catalog size; the standard generators meet neither."""
    gens = MatrixLieAlgebra(field, len(mats[0]), [], mats)
    mats = gens.generators_list
    span = linalg.SpanSolver(field, gens.vector_dim)
    for img in _catalog_images(gens, mats,
                               [e.indices for e in catalog(family, n)]):
        span.add(gens.vector(img))
    classical = classical_algebra(family, field, mats, extra)
    if classical is None:
        raise ValueError(f"{family}{n}: no classical algebra holds the "
                         "generators (trace, form or X^T G + G X = 0)")
    expected = expected_catalog_size(family, n)
    if classical.dim != expected:
        raise ValueError(f"{family}{n}: the classical algebra has "
                         f"dimension {classical.dim}, not the catalog "
                         f"size {expected}")
    return classical, span


def certify_family(family, n, params=(), field=QQ, seed=0):
    """Build the family realization and verify it end to end.

    The closure dimension `dim` is the rank of the catalog images
    (`catalog_closure`), and the closure lies in sl_N, o(G) or sp(G),
    whose dimension the generators' traces or their form G give.  When
    the rank is the catalog size, the closure is that classical
    algebra.  The checks read that algebra, which holds the closure
    either way, in characteristic != 2 (see the module docstring): a
    square-zero generator of rank 1, or of rank 2 in o(G), is extremal
    (xyx = (b^T y a) x for x = a b^T, and xyx = B(u, yv) x for
    x = T_{u,v}), with no sweep, each identity sample is a traceless
    matrix or G^-1 A, A antisymmetric (o(G)) or symmetric (sp(G))
    (`ClassicalAlgebra.from_coords`), and the form is c * trace(ab)
    with c fixed.  Each identity round also checks form(x, y) =
    f_x(y) for its generator x and first sample y, in the "premet"
    tally, so a wrong form scale fails the report.  A report holds
    flags and counts only."""
    rng = random.Random(seed)
    mats, extra = build_generators(family, n, field, params)
    closure, span = catalog_closure(family, n, field, mats, extra)
    mats = closure.generators_list
    graph = build_family_graph(family, n)

    extremal = [closure.extremal(g) for g in mats]
    graph_ok, _ = graph_realization_check(closure, mats, graph, extremal)
    expected = expected_catalog_size(family, n)
    catalog_rank = span.rank

    tried = passed = 0
    for _ in range(SPANNING_SAMPLES):
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
    gen_flags = check_genericity(psi_vec,
                                 params=[field(p) for p in params] or None)

    id_counts = {"premet": {"tried": 0, "passed": 0},
                 "Q3": {"tried": 0, "passed": 0},
                 "Q3a": {"tried": 0, "passed": 0}}
    for _ in range(IDENTITY_SAMPLES):
        x = mats[_draws(rng, 0, n - 1, 1)[0]]
        y = _random_element(closure, rng)
        z = _random_element(closure, rng)
        flags = check_premet(closure, x, y, z)
        id_counts["premet"]["tried"] += 1
        id_counts["premet"]["passed"] += all(flags.values()) and (
            closure.form(x, y) == extremal_form_value(closure, x, y))
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
    checks = [all(extremal), graph_ok, catalog_rank == expected,
              passed == tried,
              all(c["passed"] == c["tried"] for c in id_counts.values())]
    return CertReport(
        family=family, n=n, field=str(field),
        params={k: str(field(v))
                for k, v in zip(FAMILY_PARAMS[family], params)},
        extremal=extremal, graph_match=graph_ok,
        dim=catalog_rank, dim_expected=expected, catalog_rank=catalog_rank,
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


def _rebuild_model(family, n, fld, target_psi, field):
    """Standard generators over `field`, the sides' base field, whose
    canonical gauge reproduces `target_psi`; returns (params, ctx,
    gens), params the solved candidate without D's special-vector
    coordinate, and (ctx, gens) the model's normal form, its scalars
    starting in `fld`.  A candidate is (gamma,) for B, or a
    `solve_params_D` candidate for D: (alpha, beta) and, at even rank,
    the special-vector coordinate.  One whose parameters do not lie in
    `field`, or that the construction refuses (InvalidParameters), is
    skipped.  Raises FormMismatch if no solved parameter candidate
    reproduces the normalized form values.

    No candidate is closed here.  The model checks (`_check_side`)
    find each model's catalog images independent and closed under every
    generator, so they span its closure, of dimension the catalog size;
    otherwise they raise StructureMismatch.  When side 2 is its own
    model, no check runs on model 2: its images are side 2's, which
    `_classical_bound` or a pass with no model proves closed."""
    flong = target_psi.values[-1]
    if family == "B":
        candidates = [(solve_param_B(flong, n),)]
    else:
        fshort = target_psi.values[n - 4]
        candidates = solve_params_D(flong, fshort, n)
    for cand in candidates:
        values = [tower_maps(field, v.field)[1](v.v) for v in cand]
        if None in values:
            continue
        values = [FieldElement(field, v) for v in values]
        try:
            if family == "B":
                mats, _ = generators_B(n, field, *values)
            else:
                alpha, beta, *c = values
                mats, _ = generators_D(n, field, alpha, beta,
                                       force_special_c=c[0] if c else None)
        except InvalidParameters:
            continue
        # normalisation and psi need brackets and combinations only
        ctx = MatrixLieAlgebra(field, len(mats[0]), [], mats)
        try:
            mctx, mg = normalize_generators(family, ctx, ctx.generators_list,
                                            fld)
        except (NormalizationFailed, HypothesisFailed, ConditionViolated):
            continue
        target = _psi_in(target_psi, mctx.field)
        if target == psi(family, mctx, mg):
            return cand[:2], mctx, mg
        if family == "D":
            # the canonical gauge leaves one sign free: negating the
            # last three generators preserves every fixed target and
            # f_long while flipping f_short
            flipped = list(mg)
            for i in (n - 3, n - 2, n - 1):
                flipped[i] = mctx.lincomb([(-1, flipped[i])])
            if target == psi(family, mctx, flipped):
                return cand[:2], mctx, flipped
    raise FormMismatch(
        "no solved parameter candidate reproduces the normalized form values")


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


def _independent_images(ctx, gens, labels, party):
    """(images, vectors, span): the catalog images of `labels` in the
    generators (`_catalog_images`), their coordinate vectors and the
    `SpanSolver` of those, in order.  Raises StructureMismatch "<party>:
    catalog images are dependent"."""
    images = _catalog_images(ctx, gens, labels)
    vectors = [ctx.vector(img) for img in images]
    span = linalg.SpanSolver(ctx.field, ctx.vector_dim)
    for v in vectors:
        if not span.add(v):
            raise StructureMismatch(f"{party}: catalog images are dependent")
    return images, vectors, span


def _scalars(gens, field):
    """The payloads in `field` of the scalars of Scaled generators."""
    return [lift_element(g.c, field).v for g in gens]


def _label_scalars(field, scalars, labels):
    """mu_b, the product of the payloads `scalars` along label b: for
    the scalars lambda_k of generators lambda_k y_k, the catalog image
    of b is mu_b times its image in the y_k, exactly, by bilinearity."""
    mul = field.mul
    out = []
    for lab in labels:
        m = scalars[lab[0] - 1]
        for k in lab[1:]:
            m = mul(m, scalars[k - 1])
        out.append(m)
    return out


def _check_side(ctx, gens, labels, name, model=None):
    """One pass over the generator products of a side, the normal form
    (ctx, gens), x'_k = lambda_k y_k with y_k over the base field of the
    `ScaledContext` ctx; a generator that is not `Scaled`, here or in
    the model, has scalar 1.  The side's catalog images b in the y_k
    must be independent (`_independent_images`), and [y_k, b_b] must
    lie in their span.  A unit product, (k,) + label(b) a label, is an
    image as built, so only the other n * dim - (dim - n) products take
    a bracket.  With `model` None the side is its own model
    (`_own_model`) and outside the classical algebra of its family's
    standard form (`_classical_bound`): nothing reads the coordinates,
    so membership proves the span closed (`SpanSolver.contains`).

    Otherwise `model` is (mctx, mgens, party), the model's normal form
    x_k = nu_k z_k over the side's base field, and each product is
    solved once, T_kb^j its coordinates in the b_j, and at once applied
    to the model's images e_b in the z_k.  With rho_k = lambda_k / nu_k
    and R_b the product of the rho along label b (`_label_scalars`), the
    catalog images factor by bilinearity, and the model has the side's
    left multiplication at (k, b) exactly when

        [z_k, e_b] - sum_j (rho_k R_b / R_j) T_kb^j e_j = 0.

    The e_j are independent over the base field, so the
    coordinates of [z_k, e_b] in them are unique and lie in it: a
    coefficient whose ratio leaves that field fails the product, and
    otherwise the base residual must vanish.  A unit product is an
    image as built on both sides, at ratio 1.  Every pair of catalog
    monomials follows from the left multiplications by the Jacobi comb
    recursion, so the two tables agree on every pair; none is stored.

    Returns (vectors, span): the coordinate vectors of the model's
    images over the base field (the side's own with no model) and their
    `SpanSolver`; closed under every generator, they span the closure.
    Raises StructureMismatch "<name>: catalog images are dependent",
    then "<party>: catalog images are dependent", or at the first
    failing product, in order, "<name>: bracket leaves the span" or
    "<name> vs model: bracket tables differ at generator product
    (k,b)"."""
    base = ctx.base
    gens = [ctx.element(g) for g in gens]
    ys = [g.a for g in gens]
    images, vectors, span = _independent_images(base, ys, labels, name)
    if model is not None:
        mctx, mgens, party = model
        mbase, field = mctx.base, mctx.field
        mgens = [mctx.element(g) for g in mgens]
        zs = [g.a for g in mgens]
        mul, div, unit = field.mul, field.div, field.one.v
        rho = [div(lam, nu) for lam, nu in
               zip(_scalars(gens, field), _scalars(mgens, field))]
        ratio = _label_scalars(field, rho, labels)
        inv = [div(unit, r) for r in ratio]
        mimages, mvectors, mspan = _independent_images(mbase, zs, labels,
                                                       party)
        up, down = tower_maps(base.field, field)
        axpy = base.field.axpy
    labelled = set(labels)
    for k, y in enumerate(ys, start=1):
        for b, lab in enumerate(labels):
            if (k,) + lab in labelled:
                continue
            v = base.vector(base.bracket(y, images[b]))
            if model is None:
                if not span.contains(v):
                    raise StructureMismatch(f"{name}: bracket leaves the span")
                continue
            col = span.sparse_coords(v)
            if col is None:
                raise StructureMismatch(f"{name}: bracket leaves the span")
            # w = [z_k, e_b] - sum_j c_j e_j (axpy subtracts)
            w = mbase.vector(mbase.bracket(zs[k - 1], mimages[b]))
            f = mul(rho[k - 1], ratio[b])
            ok = True
            for j, c in col.items():
                c = down(mul(mul(f, inv[j]), up(c)))
                if c is None:
                    ok = False
                    break
                axpy(w, c, mvectors[j])
            if not ok or w:
                raise StructureMismatch(
                    f"{name} vs model: bracket tables differ at generator "
                    f"product ({k},{b})")
    return (vectors, span) if model is None else (mvectors, mspan)


def _own_model(ctx, gens, mctx, mgens):
    """Whether a side is its own model: its normal form (ctx, gens) and
    its model's (mctx, mgens), over one base field, have equal base
    matrices y_k == z_k as payload rows, and equal scalars, lambda_k
    lifted into the model's field being nu_k.  Each product of the side
    is then solved from exactly the bracket [z_k, e_b] in exactly the
    model's images e_b, so every ratio rho_k of `_check_side` is 1 and
    each residual is zero: the check cannot fail, and the side's images
    are the model's.  An A or C model is its side, so every A or C side is
    its own model."""
    field = mctx.field
    return ([g.a for g in gens] == [m.a for m in mgens]
            and _scalars(gens, field) == _scalars(mgens, field))


def _classical_bound(family, ctx, gens, dim):
    """Whether the classical algebra of the family's standard form
    (`standard_form`; sl_N for A), of dimension `dim`, holds every base
    generator y_k of a side that is its own model, its normal form
    (ctx, gens): `classical_algebra`, as `certify_family` proves a
    realization's closure.  Then the side's closure lies in that
    algebra, so its `dim` independent catalog images span the closure:
    their span is closed, and no pass needs to prove it.  False when a
    y_k leaves the algebra, as in a realization in other coordinates,
    or when the dimensions differ."""
    base = ctx.base
    form = standard_form(family, base.field, base.ambient_dim)
    bound = classical_algebra(family, base.field, [g.a for g in gens],
                              (form,))
    return bound is not None and bound.dim == dim


def match_algebras(alg1, gens1, alg2, gens2, family):
    """Certify that two realizations of the same family graph, over one
    field, are isomorphic: normalise both, rebuild a standard model for
    a B or D side, prove side 2's span closed and check each side that
    is not its own model (`_own_model`) on its model's generator
    products, side 2 first, in one pass per side (`_check_side`), then
    glue the two models.  A side 1 that is its own model runs no pass,
    and neither does an own-model side 2 in the classical algebra of its
    family's standard form (`_classical_bound`).  A and C sides, and
    every B or D side whose model rebuilds its normal form, run no
    model check.  The module docstring says what that proves.

    The scalars of each normal form start in the field the one before
    reached: side 1, side 2, model 1, model 2.  All matrix work runs
    over the sides' field, the models' included.  A pass meets its
    model's scalars through one ratio per generator, and the last field
    reached only rescales the glue into `basis_map`.

    Either side may be a closure or hold generators only: side 2's
    bound or pass proves the dimension, and the certificate's `dim` is
    the catalog size it proves."""
    n = len(gens1)
    if len(gens2) != n:
        raise FormMismatch("realizations have different numbers of "
                           "generators")
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
        params1, mctx1, m1 = _rebuild_model(family, n, ctx2.field, psi1,
                                            alg1.field)
        params2, mctx2, m2 = _rebuild_model(
            family, n, mctx1.field, _psi_in(psi2, mctx1.field), alg1.field)

    # side 2 first: unless it is its own model, its pass checks it
    # against model 2 and proves its span closed; as its own model, a
    # classical bound proves that, or else a pass with no model does
    if not _own_model(ctx2, g2, mctx2, m2):
        span_c2 = _check_side(ctx2, g2, labels, "side 2",
                              (mctx2, m2, "model 2"))[1]
    elif _classical_bound(family, ctx2, g2, len(labels)):
        span_c2 = _independent_images(ctx2.base, [g.a for g in g2], labels,
                                      "side 2")[2]
    else:
        span_c2 = _check_side(ctx2, g2, labels, "side 2", None)[1]
    # then side 1: its own model needs no pass, since the glue finds its
    # independent images in the closed span_c2
    if _own_model(ctx1, g1, mctx1, m1):
        c1 = _independent_images(ctx1.base, [g.a for g in g1], labels,
                                 "side 1")[1]
    else:
        c1 = _check_side(ctx1, g1, labels, "side 1",
                         (mctx1, m1, "model 1"))[0]
    top = mctx2.field
    mu1 = _label_scalars(top, _scalars(m1, top), labels)
    mu2 = _label_scalars(top, _scalars(m2, top), labels)
    up = tower_maps(alg1.field, top)[0]
    # what follows reads c1, span_c2 and the scalars only: dropping the
    # matrix algebras lowers the peak memory
    del ctx1, ctx2, mctx1, mctx2, g1, g2, m1, m2

    # glue through the common model algebra: model 1's images, in model
    # 2's closed span and as many as its basis, are a basis of it, so
    # the glue matrix G of their coordinates is invertible; it is the
    # identity of matrices, so model 1's table is model 2's in the basis
    # G gives, and with the two model checks b1_i -> sum_a G_ia b2_a is
    # an isomorphism.  With c1_i = mu1_i e1_i and c2_a = mu2_a e2_a,
    # G_ia = mu1_i / mu2_a Gbase_ia for the coordinates Gbase of the e1
    # in the e2, solved over the sides' field
    mul, div, one = top.mul, top.div, top.one.v
    inv2 = [div(one, m) for m in mu2]
    glue = []
    for m, v in zip(mu1, c1):
        row = span_c2.sparse_coords(v)
        if row is None:
            raise StructureMismatch("model closures do not coincide")
        glue.append({a: mul(mul(m, inv2[a]), up(x)) for a, x in row.items()})
    del c1, span_c2

    dim = len(labels)
    param_names = FAMILY_PARAMS[family]
    return MatchCertificate(
        family=family, n=n, field=str(top),
        params1={k: str(v) for k, v in zip(param_names, params1)},
        params2={k: str(v) for k, v in zip(param_names, params2)},
        psi1=[str(v) for v in psi1.values],
        psi2=[str(v) for v in psi2.values],
        dim=dim,
        basis_map=[[str(v) for v in linalg.dense(top, row, dim)]
                   for row in glue],
        pairs_checked=dim * (dim - 1) // 2,
        verdict="pass")
