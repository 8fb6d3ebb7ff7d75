"""Exact field arithmetic: rationals, odd prime fields, quadratic extensions.

All computations in this package are exact.  Three kinds of fields are
supported, and quadratic extensions may be stacked on top of any field
(including another quadratic extension), which is needed when a chain of
normalisation steps requires several independent square roots.

Elements are lightweight wrappers around a payload whose type depends on
the field:

* ``RationalField``    -- payload is an ``int`` when the value is
  integral and a ``fractions.Fraction`` otherwise; never a ``float``
  or ``bool``,
* ``PrimeField(p)``    -- payload is an ``int`` in ``[0, p)``, ``p`` an odd
  prime,
* ``QuadraticExtension(base, d)`` -- payload is a pair ``(a, b)`` of base
  payloads representing ``a + b*sqrt(d)``.

Rational payloads are ints wherever the value is integral: the graded
presentations and the Chevalley-type realizations have integral
structure constants, and int arithmetic skips the ``Fraction``
machinery entirely.  ``coerce`` turns an integral value into an ``int``
(``True`` into ``1``), ``div`` returns an ``int`` for two ints that
divide exactly and a ``Fraction`` for every other quotient, and ``sqrt``
an ``int`` for an integral root.  Sums and products are left as Python
computes them, so an integral ``Fraction`` can still arise (1/2 + 1/2);
that is harmless, since equal values of the two types compare and
hash equal and give the same ``format`` and ``sort_key``.

Square roots are deterministic: of the two roots ``r`` and ``-r`` the one
with the smaller canonical sort key is returned, so repeated runs (and both
sides of a comparison) always agree.

``FieldElement`` is the type at every API edge.  Inner loops of the
linear algebra run on payloads instead, through one kernel per field:

* ``axpy(v, c, row)`` sets ``v -= c*row`` in place, where ``v`` and
  ``row`` are sparse vectors ``{index: payload}`` that store no zero
  payload and ``c`` is a payload.  Entries of ``v`` that become zero
  are deleted, so ``v`` keeps storing no zeros and is the zero vector
  exactly when it is empty.

Over ``PrimeField`` the matrix bracket and combinations of a fixed
basis skip ``axpy`` and run on packed rows (see :mod:`extremal_lie.linalg`):
a row of residues is one ``int`` with slot width
``w = (T*(p-1)**2).bit_length()`` for a sum of T residue products, so
no slot carries into the next and one C-level multiply-add does the
work of a whole row, read back with one ``% p`` per slot.  Rationals
stay on ``axpy`` because fractions cannot be packed; quadratic
extensions do too, because their matrices are sparse and a packed
GF(p^2) bracket measured slower than ``axpy``.
"""

from fractions import Fraction
from functools import cached_property
import math

#: the rational payload type (tests and perfbench metadata read it)
_RAT = Fraction


class FieldError(Exception):
    """Base class for field arithmetic errors."""


class DescriptorMismatch(FieldError):
    """Two elements from different fields were combined."""


class NoSquareRoot(FieldError):
    """The requested square root does not exist in this field.

    The optional `element` attribute carries the FieldElement whose root
    was requested, so callers can extend the field by exactly that
    radicand and retry."""

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element


class NotInvertible(FieldError):
    """Division by zero or a non-invertible element."""


class FieldElement:
    """An element of a :class:`Field`.  Immutable; supports + - * / ** and
    comparison for equality.  Mixed arithmetic with ``int`` coerces the
    integer into the field."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    # -- helpers -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field:
                return other
            if self.field.same(other.field):
                return FieldElement(self.field, other.v)
            raise DescriptorMismatch(
                f"cannot combine elements of {self.field} and {other.field}")
        if isinstance(other, int):
            return self.field(other)
        return NotImplemented

    def is_zero(self):
        return self.field.is_zero(self.v)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.v, o.v))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.v, o.v))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(o.v, self.v))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.v, o.v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.v, o.v))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(o.v, self.v))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.v))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (self ** (-n)).inv()
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inv(self):
        return FieldElement(self.field, self.field.div(self.field.one.v, self.v))

    def sqrt(self):
        """Deterministic square root; raises NoSquareRoot if absent."""
        try:
            return FieldElement(self.field, self.field.sqrt(self.v))
        except NoSquareRoot as exc:
            if exc.element is None:
                exc.element = self
            raise

    def has_sqrt(self):
        try:
            self.field.sqrt(self.v)
            return True
        except NoSquareRoot:
            return False

    # -- comparison / hashing / display -----------------------------------
    def __eq__(self, other):
        # an element equals only elements of its own field: no hash of
        # an element of GF(p) agrees with every int it would equal
        if not isinstance(other, FieldElement):
            return NotImplemented
        if not self.field.same(other.field):
            return NotImplemented
        return self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return not self.field.is_zero(self.v)

    def sort_key(self):
        return self.field.sort_key(self.v)

    def __str__(self):
        return self.field.format(self.v)

    def __repr__(self):
        return f"<{self.field.format(self.v)} in {self.field}>"


class Field:
    """Abstract field descriptor.  Calling the descriptor coerces ints,
    rationals or elements of the same field into a FieldElement."""

    def __call__(self, value):
        return FieldElement(self, self.payload(value))

    def payload(self, value):
        """The payload of `value` (an element of this field, an int or a
        rational) coerced into this field."""
        if isinstance(value, FieldElement):
            if self.same(value.field):
                return value.v
            raise DescriptorMismatch(f"{value!r} is not in {self}")
        return self.coerce(value)

    def same(self, other):
        raise NotImplementedError

    def is_zero(self, v):
        raise NotImplementedError

    @cached_property
    def zero(self):
        return self(0)

    @cached_property
    def one(self):
        return self(1)


class RationalField(Field):
    """The field of rational numbers."""

    def same(self, other):
        return isinstance(other, RationalField)

    def coerce(self, value):
        if isinstance(value, int):
            return int(value)  # a bool becomes 0 or 1
        value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise NotInvertible("division by zero")
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return a / b

    def neg(self, a):
        return -a

    def axpy(self, v, c, row):
        if not c:
            return
        for k, b in row.items():
            x = v.get(k, 0) - c * b
            if x:
                v[k] = x
            else:
                del v[k]

    def is_zero(self, v):
        return v == 0

    def sqrt(self, v):
        if v < 0:
            raise NoSquareRoot(f"{v} is negative")
        num, den = v.numerator, v.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise NoSquareRoot(f"{v} is not a square in Q")
        return rn if rd == 1 else Fraction(rn, rd)

    def sort_key(self, v):
        return (0, v.numerator * v.denominator, v.numerator, v.denominator)

    def format(self, v):
        return str(v)

    def __str__(self):
        return "rationals"

    def __repr__(self):
        return "RationalField()"


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for 64-bit range, probabilistic beyond
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """GF(p) for an odd prime p."""

    def __init__(self, p):
        if p == 2 or not _is_prime(p):
            raise ValueError(f"PrimeField needs an odd prime, got {p}")
        self.p = p

    def same(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def coerce(self, value):
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, int):
            return value % self.p
        num, den = value.numerator, value.denominator
        return num * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        if b == 0:
            raise NotInvertible("division by zero")
        return a * pow(b, -1, self.p) % self.p

    def neg(self, a):
        return (-a) % self.p

    def axpy(self, v, c, row):
        # an index absent from v gets -c*b != 0, so `del` only ever
        # removes an entry that was there
        if not c:
            return
        p = self.p
        nc = p - c
        for k, b in row.items():
            x = (v.get(k, 0) + nc * b) % p
            if x:
                v[k] = x
            else:
                del v[k]

    def is_zero(self, v):
        return v == 0

    def sqrt(self, v):
        if v == 0:
            return 0
        p = self.p
        if pow(v, (p - 1) // 2, p) != 1:
            raise NoSquareRoot(f"{v} is not a square mod {p}")
        r = _tonelli_shanks(v, p)
        return min(r, p - r)

    def sort_key(self, v):
        return (0, v)

    def format(self, v):
        return str(v)

    def __str__(self):
        return f"gf({self.p})"

    def __repr__(self):
        return f"PrimeField({self.p})"


def _tonelli_shanks(a, p):
    """Square root of the quadratic residue a mod odd prime p."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2i = t
        i = 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


class QuadraticExtension(Field):
    """base(sqrt(d)) where d is a verified non-square of the base field.

    Payloads are pairs (a, b) of base payloads meaning a + b*sqrt(d).
    The base may itself be a quadratic extension, so towers are possible.
    """

    def __init__(self, base, d):
        d = base(d)
        if d.has_sqrt():
            raise ValueError(f"{d} is already a square in {base}")
        self.base = base
        self.d = d.v
        if isinstance(base, PrimeField):
            self.axpy = self._axpy_prime_base

    def same(self, other):
        return (isinstance(other, QuadraticExtension)
                and other.d == self.d and self.base.same(other.base))

    def coerce(self, value):
        if isinstance(value, tuple) and len(value) == 2:
            return (self.base.coerce(value[0]), self.base.coerce(value[1]))
        return (self.base.coerce(value), self.base.zero.v)

    @property
    def root(self):
        """sqrt(d) as an element of this field."""
        return FieldElement(self, (self.base.zero.v, self.base.one.v))

    def add(self, x, y):
        b = self.base
        return (b.add(x[0], y[0]), b.add(x[1], y[1]))

    def sub(self, x, y):
        b = self.base
        return (b.sub(x[0], y[0]), b.sub(x[1], y[1]))

    def mul(self, x, y):
        b = self.base
        a0, a1 = x
        b0, b1 = y
        # (a0 + a1 r)(b0 + b1 r) = a0 b0 + d a1 b1 + (a0 b1 + a1 b0) r
        return (b.add(b.mul(a0, b0), b.mul(self.d, b.mul(a1, b1))),
                b.add(b.mul(a0, b1), b.mul(a1, b0)))

    def neg(self, x):
        b = self.base
        return (b.neg(x[0]), b.neg(x[1]))

    def axpy(self, v, c, row):
        if self.is_zero(c):
            return
        sub, mul, is_zero, zero = self.sub, self.mul, self.is_zero, self.zero.v
        for k, b in row.items():
            x = sub(v.get(k, zero), mul(c, b))
            if is_zero(x):
                del v[k]
            else:
                v[k] = x

    def _axpy_prime_base(self, v, c, row):
        """`axpy` over GF(p)(sqrt(d)) with the pair product written out:
        a - c*b = (a0 - c0 b0 - c1 d b1, a1 - c0 b1 - c1 b0) mod p."""
        c0, c1 = c
        if not (c0 or c1):
            return
        p = self.base.p
        c1d = c1 * self.d % p
        for k, (b0, b1) in row.items():
            a = v.get(k)
            if a is None:
                v[k] = ((-c0 * b0 - c1d * b1) % p, (-c0 * b1 - c1 * b0) % p)
                continue
            x0 = (a[0] - c0 * b0 - c1d * b1) % p
            x1 = (a[1] - c0 * b1 - c1 * b0) % p
            if x0 or x1:
                v[k] = (x0, x1)
            else:
                del v[k]

    def div(self, x, y):
        b = self.base
        b0, b1 = y
        # norm = b0^2 - d b1^2, nonzero since d is a non-square
        norm = b.sub(b.mul(b0, b0), b.mul(self.d, b.mul(b1, b1)))
        if b.is_zero(norm):
            raise NotInvertible("division by zero")
        conj = (b0, b.neg(b1))
        num = self.mul(x, conj)
        return (b.div(num[0], norm), b.div(num[1], norm))

    def is_zero(self, v):
        return self.base.is_zero(v[0]) and self.base.is_zero(v[1])

    def sqrt(self, v):
        b = self.base
        x, y = v
        roots = []
        if b.is_zero(y):
            # sqrt(x): either sqrt in base, or sqrt(x/d) * r.  A base
            # square keeps its base root, so a root taken before and
            # after an extension is the same element
            try:
                return (b.sqrt(x), b.zero.v)
            except NoSquareRoot:
                pass
            try:
                c = b.sqrt(b.div(x, self.d))
                roots.append((b.zero.v, c))
            except NoSquareRoot:
                pass
        else:
            # (a + c r)^2 = a^2 + d c^2 + 2ac r.  With t = a^2 the pair
            # (a^2, d c^2) solves t^2 - x t + d y^2 / 4 = 0.
            try:
                disc = b.sqrt(b.sub(b.mul(x, x),
                                    b.mul(self.d, b.mul(y, y))))
            except NoSquareRoot:
                disc = None
            if disc is not None:
                two = b.coerce(2)
                for sign in (1, -1):
                    t = b.div(b.add(x, disc) if sign == 1 else b.sub(x, disc),
                              two)
                    try:
                        a = b.sqrt(t)
                    except NoSquareRoot:
                        continue
                    if b.is_zero(a):
                        continue
                    c = b.div(y, b.mul(two, a))
                    cand = (a, c)
                    if self.mul(cand, cand) == v:
                        roots.append(cand)
        if not roots:
            raise NoSquareRoot(f"{self.format(v)} has no root in {self}")
        canon = []
        for r in roots:
            n = self.neg(r)
            canon.append(min(r, n, key=self.sort_key))
        return min(canon, key=self.sort_key)

    def sort_key(self, v):
        return (1, self.base.sort_key(v[0]), self.base.sort_key(v[1]))

    def format(self, v):
        a, b = v
        if self.base.is_zero(b):
            return self.base.format(a)
        rt = f"rt({self.base.format(self.d)})"
        bs = self.base.format(b)
        bterm = rt if bs == "1" else f"{bs}*{rt}"
        if self.base.is_zero(a):
            return bterm
        return f"{self.base.format(a)}+{bterm}"

    def __str__(self):
        return f"{self.base}(rt {self.base.format(self.d)})"

    def __repr__(self):
        return f"QuadraticExtension({self.base!r}, {self.base.format(self.d)})"


#: Default large prime for generic finite-field computations.
DEFAULT_PRIME = 2147483629

QQ = RationalField()


def quadratic_roots(a, b, c):
    """The roots of a t^2 + b t + c in the coefficients' field, in the
    canonical order: -c/b alone when a = 0 (none when b = 0 too), else
    (-b + r)/2a, then (-b - r)/2a unless r = 0, r the deterministic
    square root of the discriminant.  Raises NoSquareRoot when the
    discriminant is not a square in the field."""
    if a.is_zero():
        return [] if b.is_zero() else [-c / b]
    r = (b * b - 4 * a * c).sqrt()
    roots = [(-b + r) / (2 * a)]
    if not r.is_zero():
        roots.append((-b - r) / (2 * a))
    return roots


def tower_maps(field, target):
    """(up, down), the payload maps between `field` and `target`, which
    must be reachable from it by a chain of quadratic extensions (or be
    the same field): up embeds a payload of `field` into `target`, and
    down gives back the payload of `field` that a payload of `target`
    is, or None when it does not lie in `field`."""
    chain = []
    f = target
    while not f.same(field):
        if not isinstance(f, QuadraticExtension):
            raise DescriptorMismatch(f"{field} does not embed in {target}")
        chain.append(f)
        f = f.base
    zeros = [ext.base.zero.v for ext in reversed(chain)]
    bases = [ext.base for ext in chain]

    def up(v):
        for zero in zeros:
            v = (v, zero)
        return v

    def down(v):
        for base in bases:
            if not base.is_zero(v[1]):
                return None
            v = v[0]
        return v

    return up, down


def lift_element(elem, field):
    """Re-express elem in `field`, which must be reachable from elem.field
    by a chain of quadratic extensions (or be the same field)."""
    return FieldElement(field, tower_maps(elem.field, field)[0](elem.v))


def restrict(elem, field):
    """elem as an element of `field`, a level of the quadratic-extension
    tower of elem.field, or None when it does not lie in `field`."""
    v = tower_maps(field, elem.field)[1](elem.v)
    return None if v is None else FieldElement(field, v)


def tower(field):
    """The levels of field's quadratic-extension tower, lowest first."""
    levels = [field]
    while isinstance(levels[-1], QuadraticExtension):
        levels.append(levels[-1].base)
    return levels[::-1]
