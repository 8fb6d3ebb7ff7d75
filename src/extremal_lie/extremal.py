"""Extremal elements, the extremal form, pair classification and the
exponential / triangle-normalisation machinery.

All functions work on a *Lie context*, an object with the members of
the `LieContext` protocol.  Both
:class:`~extremal_lie.presentation.GradedLieAlgebra` (payload vectors
over its basis) and :class:`~extremal_lie.realizations.MatrixLieAlgebra`
(payload matrix rows) are Lie contexts.
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
    a FieldElement or an int.
    `vector(a)` gives the coordinates of a as a sparse payload vector
    ``{index: payload}``, a new dict each call that the caller may
    modify, in a space of dimension ``vector_dim``.  `basis()` spans
    the algebra; `form` is the associative symmetric form, a
    FieldElement (the zero form for the degenerate algebras
    L(Gamma, 0))."""

    field: object
    vector_dim: int

    def element(self, x): ...

    def external(self, a): ...

    def bracket(self, a, b): ...

    def lincomb(self, terms): ...

    def is_zero(self, a): ...

    def vector(self, a): ...

    def basis(self): ...

    def form(self, a, b): ...


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
    """f_x(y), defined by [x, [x, y]] = f_x(y) x for extremal x."""
    return _form_of_bracket(ctx, x, ctx.bracket(x, y))


def _form_of_bracket(ctx, x, xy):
    """f_x(y) from the bracket xy = [x, y] already formed, so a caller
    that needs [x, y] too forms it once."""
    w = ctx.bracket(x, xy)
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
    every basis element b; (False, None) otherwise."""
    x = ctx.element(x)
    values = []
    for b in ctx.basis():
        w = ctx.bracket(x, ctx.bracket(x, b))
        try:
            values.append(proportionality(ctx, x, w))
        except NotProportional:
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

    Each of [x,y], [x,z] and [x,[y,[x,z]]] is formed once and serves
    both its identity and the form value f(x, .) that it starts: 11
    brackets per sample.
    """
    br = ctx.bracket
    xy = br(x, y)
    xz = br(x, z)
    yz = br(y, z)
    fxy = _form_of_bracket(ctx, x, xy)
    fxz = _form_of_bracket(ctx, x, xz)
    fxyz = extremal_form_value(ctx, x, yz)

    p1 = ctx.is_zero(ctx.lincomb([(2, br(xy, xz)), (-fxyz, x), (-fxz, xy),
                                  (fxy, xz)]))

    yxz = br(y, xz)
    x_yxz = br(x, yxz)
    p2 = ctx.is_zero(ctx.lincomb([(2, x_yxz), (-fxyz, x), (fxz, xy),
                                  (fxy, xz)]))

    p5 = (_form_of_bracket(ctx, x, x_yxz) + fxz * fxy).is_zero()

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
