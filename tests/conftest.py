"""Fields shared by the kernel differential tests, seeded random
elements, sparse payload vectors and basis combinations over them, a
reference
matrix-vector product, closures lifted into an extension, and the
outcome of an extremal form value."""

from fractions import Fraction

import pytest

from extremal_lie.extremal import NotExtremal
from extremal_lie.fields import (DEFAULT_PRIME, FieldElement, PrimeField,
                                 QuadraticExtension, QQ, tower_maps)
from extremal_lie.realizations import MatrixLieAlgebra


def _fields():
    gf = PrimeField(DEFAULT_PRIME)
    d = next(k for k in range(2, 50) if not gf(k).has_sqrt())
    gf2 = QuadraticExtension(gf, d)
    # base-field elements are all squares in GF(p^2), so the second
    # radicand involves the adjoined root
    e = next(v for v in (gf2.root * k + 1 for k in range(1, 80))
             if not v.has_sqrt())
    return {"QQ": QQ, "GF(p)": gf, "GF(p)(rt d)": gf2,
            "GF(p)(rt d)(rt e)": QuadraticExtension(gf2, e),
            "QQ(rt 2)": QuadraticExtension(QQ, 2)}


KERNEL_FIELDS = _fields()


@pytest.fixture(params=list(KERNEL_FIELDS))
def kernel_field(request):
    return KERNEL_FIELDS[request.param]


def random_payload(field, rng, zero_rate=0.3):
    """A payload of `field`; zero with probability about `zero_rate`,
    and small numerators and denominators otherwise."""
    if rng.random() < zero_rate:
        return field.zero.v
    if isinstance(field, QuadraticExtension):
        return (random_payload(field.base, rng, 0.3),
                random_payload(field.base, rng, 0.3))
    return field.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def random_element(field, rng, zero_rate=0.3):
    return FieldElement(field, random_payload(field, rng, zero_rate))


def random_vector(field, rng, length, zero_rate=0.5):
    return [random_element(field, rng, zero_rate) for _ in range(length)]


def random_combination(ctx, rng):
    """sum c_b b over the basis of ctx, each c_b a `random_element`."""
    return ctx.lincomb([(random_element(ctx.field, rng), b)
                        for b in ctx.basis()])


def mat_vec(m, x):
    """The product m x of a FieldElement matrix and vector, summed term
    by term: the reference the solver and form tests compare against."""
    zero = x[0].field.zero
    return [sum((a * b for a, b in zip(row, x)), zero) for row in m]


def lift_rows(field, rows, target):
    """Payload matrix rows over `field` re-expressed in `target`, a
    quadratic-extension tower over it."""
    up = tower_maps(field, target)[0]
    return tuple([{j: up(x) for j, x in row.items()} for row in rows])


def lift_closure(alg, field):
    """The closure `alg` over `field`, a quadratic-extension tower over
    alg.field: its basis and generators lifted, in order."""
    def lift(m):
        return lift_rows(alg.field, m, field)
    return MatrixLieAlgebra(field, alg.ambient_dim,
                            [lift(b) for b in alg.basis()],
                            [lift(g) for g in alg.generators_list])


def form_outcome(value, ctx, x, y):
    """value(ctx, x, y), an extremal form value, or the name and message
    of the NotExtremal or ValueError it raised."""
    try:
        return value(ctx, x, y)
    except NotExtremal as exc:
        return ("NotExtremal", str(exc))
    except ValueError as exc:
        return ("ValueError", str(exc))
