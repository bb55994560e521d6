"""Exact arithmetic in the ring Q[sqrt(pi), i].

Every constant in the rest of the package -- Riesz multiplier constants,
fundamental-solution normalizations, the coefficients of the Bessel-type
power series -- is a rational number times an integer power of sqrt(pi)
times a power of i.  This module provides that number type (``SymScalar``),
the Gamma function at positive half-integers, and the generalized binomial
coefficient.  A ``SymScalar`` holds its rational part as an unreduced integer
ratio: arithmetic multiplies and adds integers, equality is one
cross-multiplication, and only the reduced value ``q``, ``hash`` and ``repr``
take a gcd.  Every Gamma value is read from one memoised factorial table,
the module's one cache: the multiplier constants and normalizations are
products of its reads, formed afresh at each call.
``gamma_product`` evaluates a closed form -- a product of Gamma values at
positive integers and half-integers, times a rational -- as such an unreduced
``SymScalar``.  Sums are formed only on one basis: every sum the identity
verifiers build shares the sqrt(pi) power and the i power of its terms, and
adding across bases raises ``ValueError``.  Every generalized binomial is one
falling product over a common denominator (``_falling``); ``binomial`` reduces
it once, and the summation identities read it unreduced.

Every sparse sum in the package -- the terms of a ``MultiPoly`` and the
series coefficient vectors of ``identities`` -- is a plain dict built by
``_collect``, the one place that drops cancelled terms, so no such dict holds
a zero coefficient and dict equality is exact equality.

Every operation is exact: the package never converts a ``SymScalar`` to a
float.
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Any, Hashable, Iterable, Union

RationalLike = Union[int, Fraction]


def _ratio(x: RationalLike) -> tuple[int, int]:
    """x as (numerator, denominator); anything but an int or a Fraction raises TypeError."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _as_fraction(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(*_ratio(x))


def _collect(pairs: Iterable[tuple[Hashable, Any]]) -> dict:
    """Sum the (key, coefficient) pairs per key and drop the keys that cancel."""
    out: dict = {}
    for key, c in pairs:
        if key in out:
            c = out[key] + c
        out[key] = c
    return {key: c for key, c in out.items() if c}


class SymScalar:
    """Exact number num/den * sqrt(pi)**h * i**k, with the integer ratio num/den unreduced.

    den > 0, h is any integer (negative powers of sqrt(pi) are allowed), and
    k is a power of i taken mod 4.  Since i^2 = -1 is already rational,
    construction folds even i-powers into the sign of num, leaving k in
    {0, 1}; the zero element is 0/1 with h == k == 0.  ``SymScalar(q, h, k)``
    takes a rational q and any k.  ``==`` cross-multiplies, ``+`` adds two
    values on one basis over the product of their denominators, and ``*``
    and ``/`` multiply integers; only ``q`` (the reduced Fraction), ``hash``
    and ``repr`` reduce.  Like a Fraction, an instance is immutable: its
    parts are read-only properties.
    """

    __slots__ = ("_num", "_den", "_h", "_k")
    num, den, h, k = (property(operator.attrgetter(name)) for name in __slots__)

    def __new__(cls, q: RationalLike, h: int = 0, k: int = 0) -> "SymScalar":
        return _scalar(*_ratio(q), h, k)

    def __reduce__(self) -> tuple:  # copy and pickle rebuild the unreduced parts
        return _scalar, (self._num, self._den, self._h, self._k)

    @staticmethod
    def zero() -> "SymScalar":
        return SymScalar(0)

    @property
    def q(self) -> Fraction:
        return Fraction(self._num, self._den)

    def __bool__(self) -> bool:
        return self._num != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymScalar):
            return NotImplemented
        return self._h == other._h and self._k == other._k and self._num * other._den == other._num * self._den

    def __hash__(self) -> int:
        return hash((self.q, self._h, self._k))

    def __mul__(self, other: "SymScalar | RationalLike") -> "SymScalar":
        if isinstance(other, SymScalar):
            return _scalar(self._num * other._num, self._den * other._den, self._h + other._h, self._k + other._k)
        num, den = _ratio(other)
        return _scalar(self._num * num, self._den * den, self._h, self._k)

    __rmul__ = __mul__

    def __truediv__(self, other: "SymScalar | RationalLike") -> "SymScalar":
        if isinstance(other, SymScalar):
            if other._num == 0:
                raise ZeroDivisionError("division by zero SymScalar")
            return _scalar(self._num * other._den, self._den * other._num, self._h - other._h, self._k - other._k)
        num, den = _ratio(other)
        if num == 0:
            raise ZeroDivisionError("division by zero")
        return _scalar(self._num * den, self._den * num, self._h, self._k)

    def __neg__(self) -> "SymScalar":
        return _scalar(-self._num, self._den, self._h, self._k)

    def __add__(self, other: "SymScalar") -> "SymScalar":
        # Defined only on a shared basis (or with a zero side): every sum the
        # package forms stays on one basis, so a mixed one is a bug upstream.
        if not isinstance(other, SymScalar):
            return NotImplemented
        if self._num == 0:
            return other
        if other._num == 0:
            return self
        if (self._h, self._k) != (other._h, other._k):
            raise ValueError(
                f"mixed-basis addition: ({self._h},{self._k}) vs ({other._h},{other._k})"
            )
        return _scalar(self._num * other._den + other._num * self._den, self._den * other._den, self._h, self._k)

    def __sub__(self, other: "SymScalar") -> "SymScalar":
        return self + (-other)

    def __repr__(self) -> str:
        if self._num == 0:
            return "SymScalar(0)"
        parts = [str(self.q)]
        if self._h:
            parts.append(f"sqrt(pi)^{self._h}")
        if self._k:
            parts.append(f"i^{self._k}")
        return "SymScalar(" + " * ".join(parts) + ")"


def _scalar(num: int, den: int, h: int, k: int) -> SymScalar:
    """num/den * sqrt(pi)**h * i**k for integers num and den != 0, unreduced, in canonical form."""
    s = object.__new__(SymScalar)
    if num == 0:
        s._num, s._den, s._h, s._k = 0, 1, 0, 0
    else:
        if den < 0:
            num, den = -num, -den
        s._num, s._den, s._h, s._k = -num if k & 2 else num, den, h, k & 1  # i^k = (-1)^(k//2 mod 2) i^(k mod 2)
    return s


@functools.lru_cache(maxsize=4096, typed=True)
def _gamma_entry(t: RationalLike) -> tuple[int, int, int]:
    """The factorial table: Gamma(t/2) for a doubled argument t >= 1 as
    (p, q, h) with Gamma(t/2) = p/q * sqrt(pi)**h, that is (t/2 - 1)! for
    even t and (2m)!/(4^m m!) * sqrt(pi) for t = 2m + 1."""
    t = _as_fraction(t)
    if t <= 0 or t.denominator != 1:
        raise ValueError(f"Gamma argument must be a positive half-integer, got {t / 2}")
    t = t.numerator
    if t % 2 == 0:
        return math.factorial(t // 2 - 1), 1, 0
    m = t // 2
    return math.factorial(2 * m), 4**m * math.factorial(m), 1


def gamma_product(
    up: Iterable[RationalLike], down: Iterable[RationalLike] = (), q: RationalLike = 1, h: int = 0, k: int = 0
) -> SymScalar:
    """q * sqrt(pi)**h * i**k * prod Gamma(t/2) over up / prod Gamma(t/2) over down, unreduced.

    Arguments are doubled, so a positive integer or half-integer a is t = 2a
    and k! = Gamma(k+1) is t = 2k + 2; each is read from the factorial table.
    A zero, negative or non-half-integer argument raises ValueError.
    """
    num, den = _ratio(q)
    for t in up:
        a, b, s = _gamma_entry(t)
        num, den, h = num * a, den * b, h + s
    for t in down:
        a, b, s = _gamma_entry(t)
        num, den, h = num * b, den * a, h - s
    return _scalar(num, den, h, k)


def gamma_half_integer(a: RationalLike) -> SymScalar:
    """Gamma(a) for a a positive integer or half-integer, exactly.

    Integer a gives (a-1)! with no sqrt(pi); half-integer a gives a rational
    multiple of sqrt(pi).  Anything else is rejected.
    """
    return gamma_product((2 * _as_fraction(a),))


def _falling(p: int, q: int, m: int) -> int:
    """p (p - q) ... (p - (m-1) q) = q^m m! C(p/q, m): the generalized binomial over q^m m!."""
    return math.prod(p - t * q for t in range(m))


def binomial(a: RationalLike, m: int) -> Fraction:
    """Generalized binomial coefficient C(a, m) = a(a-1)...(a-m+1)/m!.

    Works for any rational a and non-negative integer m; C(a, 0) = 1, and
    C(a, m) = 0 when a is a non-negative integer smaller than m.  The
    falling product ``_falling`` over q^m m! is reduced once.  A float a
    raises TypeError.
    """
    if m < 0:
        raise ValueError("lower index must be non-negative")
    p, q = _ratio(a)
    return Fraction(_falling(p, q, m), q**m * math.factorial(m))


def riesz_multiplier(degree: int, dim: int) -> SymScalar:
    """Fourier multiplier constant of the degree-d higher-order Riesz transform.

    For a homogeneous harmonic polynomial P of degree d >= 1 in dimension
    n >= 2, convolution with P(x)/|x|^(n+d) acts on the frequency side as
    multiplication by this constant times P(xi)/|xi|^d.  The value is

        i^(-d) * pi^(n/2) * Gamma(d/2) / Gamma((n+d)/2).
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    return gamma_product((degree,), (dim + degree,), 1, dim, -degree)


def fundamental_normalization(dim: int) -> SymScalar:
    """Constant c with Fourier transform of c/|x|^(n-1) equal to 1/|xi|.

    Exactly Gamma((n-1)/2) / (2 pi^(n/2) Gamma(1/2)).
    """
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    return gamma_product((dim - 1,), (1,), Fraction(1, 2), -dim)
