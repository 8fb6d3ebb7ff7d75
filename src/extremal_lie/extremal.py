"""Extremal elements, the extremal form, pair classification and the
exponential / triangle-normalisation machinery.

All functions work on a *Lie context*, an object with the members of
the `LieContext` protocol.  Both
:class:`~extremal_lie.presentation.GradedLieAlgebra` (payload vectors
over its basis) and :class:`~extremal_lie.realizations.MatrixLieAlgebra`
(payload matrix rows) are Lie contexts.

Every extremal form value goes through `extremal_form_value`, which
asks the context (`LieContext.extremal_value`).  The definition,
[x, [x, y]] = f_x(y) x, costs two brackets (`bracket_form_value`), and
the graded algebras use it.  A matrix context reads the value of a
square-zero x from its rank factors instead, with no bracket:
(ad x)^2 y = x^2 y - 2xyx + yx^2 = -2xyx there, and every extremal
element of the classical realizations, a transvection or a Siegel
element, squares to zero.
"""

from dataclasses import dataclass, field as dc_field
from operator import methodcaller
from typing import Protocol

from .fields import FieldElement, lift_element
from .linalg import bracket_closure


class LieContext(Protocol):
    """A Lie algebra over ``field`` whose elements are sparse payloads in
    a representation of its own, never modified once made, so a
    context may keep derived data on them (the packed rows of a GF(p)
    matrix, see :mod:`extremal_lie.linalg`).  `element` takes
    FieldElement data in (an element passes unchanged, itself),
    `external` gives it out, and every member that takes an element
    accepts both.  `lincomb(terms)` is sum c*a over the terms (c, a), c
    a FieldElement or an int.  `vector(a)` gives the coordinates of a
    as a sparse payload vector ``{index: payload}``, a new dict each
    call that the caller may modify, in a space of dimension
    ``vector_dim``; `basis()` spans the algebra.  `extremal_value(x, y)`
    is the extremal form value f_x(y) of `extremal_form_value`: the
    FieldElement with [x, [x, y]] = f_x(y) x, NotExtremal when
    [x, [x, y]] is off the line through x, ValueError for x = 0.  A
    context of multiples of the elements of a base context
    (`certify.ScaledContext`) holds generators only and needs no
    `vector` or `basis`.  Only the identity checks (`check_premet`,
    `certify.check_quartic_identities`), which run on a
    `realizations.ClassicalAlgebra` alone, read `vanishes(terms)`,
    whether the combination is zero, a term (1, (a, b)) standing for
    [a, b] (`linalg.mat_vanishes`), which every matrix context has, and
    `form`, the associative symmetric form, which only that one has."""

    field: object
    vector_dim: int

    def element(self, x): ...

    def external(self, a): ...

    def bracket(self, a, b): ...

    def lincomb(self, terms): ...

    def vanishes(self, terms): ...

    def is_zero(self, a): ...

    def vector(self, a): ...

    def basis(self): ...

    def form(self, a, b): ...

    def extremal_value(self, x, y): ...


class NotExtremal(ValueError):
    """[x, [x, y]] left the line through x for some y."""


class NotProportional(ValueError):
    """An element expected to be a multiple of another was not."""


class HypothesisFailed(ValueError):
    """A precondition of a normalisation step does not hold."""


def proportionality(ctx, x, w):
    """The scalar t with w = t*x, for nonzero x.  Raises NotProportional,
    and DescriptorMismatch on FieldElement data outside ctx.field."""
    field = ctx.field
    fx = ctx.vector(x)
    fw = ctx.vector(w)
    if not fx:
        raise ValueError("x is zero")
    k, a = next(iter(fx.items()))
    t = field.div(fw.get(k, field.zero.v), a)
    # t*a vanishes only for t = 0, so w = t*x means equal supports
    mul = field.mul
    if field.is_zero(t):
        ok = not fw
    else:
        ok = fw == {j: mul(t, v) for j, v in fx.items()}
    if not ok:
        raise NotProportional("element is not a multiple of x")
    return FieldElement(field, t)


def extremal_form_value(ctx, x, y):
    """f_x(y), defined by [x, [x, y]] = f_x(y) x for extremal x: the
    context's `extremal_value`.  Raises NotExtremal when [x, [x, y]] is
    not a multiple of x, ValueError for x = 0."""
    return ctx.extremal_value(x, y)


def bracket_form_value(ctx, x, y):
    """f_x(y) by its definition: [x, [x, y]] formed, two brackets, and
    read as a multiple of x (`proportionality`).  The
    `LieContext.extremal_value` of a context with no cheaper rule."""
    w = ctx.bracket(x, ctx.bracket(x, y))
    try:
        return proportionality(ctx, x, w)
    except NotProportional:
        raise NotExtremal("[x,[x,y]] is not a multiple of x") from None


@dataclass
class ExtremalCertificate:
    """Witness that x is extremal: the values of the extremal functional
    on every basis element of the context."""
    values: list = dc_field(default_factory=list)


def is_extremal(ctx, x):
    """(True, certificate) if [x,[x,b]] stays on the line through x for
    every basis element b, by `extremal_form_value`; (False, None)
    otherwise."""
    x = ctx.element(x)
    values = []
    for b in ctx.basis():
        try:
            values.append(extremal_form_value(ctx, x, b))
        except NotExtremal:
            return False, None
    return True, ExtremalCertificate(values)


def exp_ad(ctx, t, a, y):
    """exp(t ad a) applied to y, for extremal (sandwich-free) a:
    y + t [a,y] + t^2/2 [a,[a,y]].  Verifies (ad a)^3 y = 0."""
    a = ctx.element(a)
    ay = ctx.bracket(a, y)
    aay = ctx.bracket(a, ay)
    aaay = ctx.bracket(a, aay)
    if not ctx.is_zero(aaay):
        raise HypothesisFailed("(ad a)^3 does not vanish on y")
    one = ctx.field.one
    half = one / 2
    return ctx.lincomb([(one, y), (t, ay), (t * t * half, aay)])


# ---------------------------------------------------------------------------
# pair classification
# ---------------------------------------------------------------------------

#: dimension of the subalgebra generated by the pair, per kind
PAIR_CLOSURE_DIM = {"Proportional": 1, "Abelian2": 2,
                    "Heisenberg": 3, "Sl2": 3}


def subalgebra_closure_dim(ctx, elements):
    """Dimension of the Lie subalgebra generated by the elements."""
    return len(bracket_closure(ctx.field,
                               [ctx.element(e) for e in elements],
                               ctx.bracket, ctx.vector, ctx.vector_dim))


def classify_pair(ctx, x, y):
    """Algebraic classification of a pair of extremal elements.

    Returns one of the keys of PAIR_CLOSURE_DIM.  Cross-validates the
    answer against the dimension of the subalgebra generated by the
    pair."""
    x, y = ctx.element(x), ctx.element(y)
    try:
        proportionality(ctx, x, y)
        kind = "Proportional"
    except NotProportional:
        xy = ctx.bracket(x, y)
        if ctx.is_zero(xy):
            kind = "Abelian2"
        else:
            f = extremal_form_value(ctx, x, y)
            kind = "Heisenberg" if f.is_zero() else "Sl2"
    dim = subalgebra_closure_dim(ctx, [x, y])
    if dim != PAIR_CLOSURE_DIM[kind]:
        raise AssertionError(
            f"pair classified {kind} but closure dimension is {dim}")
    return kind


# ---------------------------------------------------------------------------
# Premet-type identity checks
# ---------------------------------------------------------------------------

def check_premet(ctx, x, y, z):
    """Verify the standard identities for an extremal element x and
    arbitrary y, z.  Returns a dict name -> bool.

    P1: 2 [[x,y],[x,z]] = f(x,[y,z]) x + f(x,z) [x,y] - f(x,y) [x,z]
    P2: 2 [x,[y,[x,z]]] = f(x,[y,z]) x - f(x,z) [x,y] - f(x,y) [x,z]
    P5: f(x, [y,[x,z]]) = -f(x,z) f(x,y)
    AS: f(x, [y,z]) = f([x,y], z)    (associativity of the form)
    SM: f(y, z) = f(z, y)            (symmetry of the form)

    The check forms [x,y], [x,z], [y,z] and [y,[x,z]], each once: 4
    brackets per sample.  P1 and P2 are tested with their coefficients
    halved, exact in characteristic != 2, so that [[x,y],[x,z]] and
    [x,[y,[x,z]]] enter `LieContext.vanishes` as bracket terms of
    coefficient 1: a matrix context over GF(p) adds their packed row
    sums into the residual and tests it for zero without unpacking
    either.  The form values f(x,y), f(x,z), f(x,[y,z]) and
    f(x,[y,[x,z]]) add no bracket where the context reads them from
    rank factors, as a matrix context does for a square-zero x.
    """
    br = ctx.bracket
    half = ctx.field.one / 2
    xy = br(x, y)
    xz = br(x, z)
    yz = br(y, z)
    fxy = extremal_form_value(ctx, x, y)
    fxz = extremal_form_value(ctx, x, z)
    fxyz = extremal_form_value(ctx, x, yz)
    hxyz, hxz, hxy = half * fxyz, half * fxz, half * fxy

    p1 = ctx.vanishes([(1, (xy, xz)), (-hxyz, x), (-hxz, xy), (hxy, xz)])
    yxz = br(y, xz)
    p2 = ctx.vanishes([(1, (x, yxz)), (-hxyz, x), (hxz, xy), (hxy, xz)])

    p5 = (extremal_form_value(ctx, x, yxz) + fxz * fxy).is_zero()

    as_ok = (ctx.form(x, yz) - ctx.form(xy, z)).is_zero()
    sm_ok = (ctx.form(y, z) - ctx.form(z, y)).is_zero()
    return {"P1": p1, "P2": p2, "P5": p5, "AS": as_ok, "SM": sm_ok}


# ---------------------------------------------------------------------------
# triangle normalisation
# ---------------------------------------------------------------------------

def triangle_open(fxy, fxz, fyz, fxyz):
    """The triangle condition f(x,[y,z])^2 != 2 f(x,y) f(x,z) f(y,z) on
    the four form values of a triple (x, y, z)."""
    return not (fxyz * fxyz - 2 * fxy * fxz * fyz).is_zero()


def fixtriangle(ctx, x, y, z, targets, sqrt=methodcaller("sqrt")):
    """Normalise a triple of extremal elements.

    Preconditions: f(x,[y,z])^2 != 2 f(x,y) f(x,z) f(y,z) and
    f(x,y) != 0 != f(y,z).  Produces (x', y', z') with

        f(x',y') = pi,  f(x',z') = rho,  f(y',z') = sigma,
        f(x', [y',z']) = 0,

    where (pi, rho, sigma) are the requested targets with
    pi*rho*sigma = f(x,y) f(x,z') f(y,z) * square; the achievable sign
    pattern is handled by negating one element.  The three scalings
    are the roots `sqrt` takes: by default the element's own, which
    raises NoSquareRoot if a radicand has no root in the field, and for
    a context whose field grows (`certify.ScaledContext`) its root,
    which adjoins a missing one; the targets then follow the roots into
    the extension.  Raises HypothesisFailed if a precondition fails.
    Returns (x', y', z', s), s the shift of exp(s ad y) applied to x."""
    pi, rho, sigma = targets
    fxy = extremal_form_value(ctx, x, y)
    fyz = extremal_form_value(ctx, y, z)
    fxz = extremal_form_value(ctx, x, z)
    yz = ctx.bracket(y, z)
    fxyz = extremal_form_value(ctx, x, yz)
    if fxy.is_zero() or fyz.is_zero():
        raise HypothesisFailed("f(x,y) and f(y,z) must be nonzero")
    if not triangle_open(fxy, fxz, fyz, fxyz):
        raise HypothesisFailed(
            "triangle condition f(x,[y,z])^2 != 2 f(x,y) f(x,z) f(y,z)")

    s = fxyz / (fxy * fyz)
    xh = exp_ad(ctx, s, y, x)
    fxzh = extremal_form_value(ctx, xh, z)
    # by construction: f(xh,y) = f(x,y), f(xh,[y,z]) = 0, and
    # f(xh,z) = f(x,z) - f(x,[y,z])^2 / (2 f(x,y) f(y,z)) != 0
    if not extremal_form_value(ctx, xh, yz).is_zero():
        raise AssertionError("f(x',[y,z]) != 0 after the shift")
    if fxzh.is_zero():
        raise AssertionError("f(x',z) = 0 after the shift")

    cx = (pi * rho * fyz) / (sigma * fxy * fxzh)
    cy = (pi * sigma * fxzh) / (rho * fxy * fyz)
    cz = (rho * sigma * fxy) / (pi * fxzh * fyz)
    rx, ry, rz = sqrt(cx), sqrt(cy), sqrt(cz)
    pi, rho, sigma = (lift_element(t, ctx.field) for t in targets)
    xt = ctx.lincomb([(rx, xh)])
    yt = ctx.lincomb([(ry, y)])
    zt = ctx.lincomb([(rz, z)])

    a = extremal_form_value(ctx, xt, yt)
    b = extremal_form_value(ctx, xt, zt)
    c = extremal_form_value(ctx, yt, zt)
    wrong = [a != pi, b != rho, c != sigma]
    if sum(wrong) == 2:
        if wrong[0] and wrong[1]:
            xt = ctx.lincomb([(-1, xt)])
        elif wrong[0] and wrong[2]:
            yt = ctx.lincomb([(-1, yt)])
        else:
            zt = ctx.lincomb([(-1, zt)])
    elif sum(wrong) != 0:
        raise AssertionError(
            "sign pattern off in exactly one place; targets unreachable "
            f"(product mismatch): got ({a},{b},{c}) want {targets}")

    if extremal_form_value(ctx, xt, yt) != pi:
        raise AssertionError("f(x',y') misses its target")
    if extremal_form_value(ctx, xt, zt) != rho:
        raise AssertionError("f(x',z') misses its target")
    if extremal_form_value(ctx, yt, zt) != sigma:
        raise AssertionError("f(y',z') misses its target")
    if not extremal_form_value(ctx, xt, ctx.bracket(yt, zt)).is_zero():
        raise AssertionError("f(x',[y',z']) != 0")
    return xt, yt, zt, s
