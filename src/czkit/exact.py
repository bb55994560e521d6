"""Exact arithmetic in the ring Q[sqrt(pi), i].

Every constant in the rest of the package -- Riesz multiplier constants,
fundamental-solution normalizations, the coefficients of the Bessel-type
power series -- is a rational number times an integer power of sqrt(pi)
times a power of i.  This module provides that number type (``SymScalar``),
the Gamma function at positive half-integers, and the generalized binomial
coefficient.  Every Gamma value is read from one memoised factorial table:
``gamma_ratio`` evaluates a closed form -- a product of Gamma values at
positive integers and half-integers, times a rational -- as an unreduced
integer ratio with a sqrt(pi) and an i power, compared by one
cross-multiplication; ``gamma_product`` is the one place that reduces it
into a ``SymScalar``.  Sums are formed only on one basis: every sum the
identity verifiers build shares the sqrt(pi) power and the i power of its
terms, and adding across bases raises ``ValueError``.

Every sparse sum in the package -- the terms of a ``MultiPoly``, the radial
expressions and the series coefficient vectors of ``identities`` -- is a
plain dict built by ``_collect``, the one place that drops cancelled terms,
so no such dict holds a zero coefficient and dict equality is exact equality.

Every operation is exact: the package never converts a ``SymScalar`` to a
float.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Hashable, Iterable, Union

RationalLike = Union[int, Fraction]
Ratio = tuple[int, int, int, int]  # num/den * sqrt(pi)**h * i**k as (num, den, h, k), unreduced


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _collect(pairs: Iterable[tuple[Hashable, Any]]) -> dict:
    """Sum the (key, coefficient) pairs per key and drop the keys that cancel."""
    out: dict = {}
    for key, c in pairs:
        if key in out:
            c = out[key] + c
        out[key] = c
    return {key: c for key, c in out.items() if c}


@dataclass(frozen=True)
class SymScalar:
    """Exact number of the form q * sqrt(pi)**h * i**k.

    q is rational, h is any integer (negative powers of sqrt(pi) are
    allowed), and k is a power of i taken mod 4.  Since i^2 = -1 is already
    rational, construction folds even i-powers into the sign of q, leaving
    the unique canonical form with k in {0, 1}; the zero element has
    h == k == 0.  Any k may be passed in.
    """

    q: Fraction
    h: int = 0
    k: int = 0

    def __post_init__(self) -> None:
        q = _as_fraction(self.q)
        if q == 0:
            object.__setattr__(self, "q", Fraction(0))
            object.__setattr__(self, "h", 0)
            object.__setattr__(self, "k", 0)
        else:
            k = self.k % 4
            if k >= 2:
                q = -q
                k -= 2
            object.__setattr__(self, "q", q)
            object.__setattr__(self, "k", k)

    @staticmethod
    def zero() -> "SymScalar":
        return SymScalar(Fraction(0))

    @staticmethod
    def one() -> "SymScalar":
        return SymScalar(Fraction(1))

    def is_zero(self) -> bool:
        return self.q == 0

    def __bool__(self) -> bool:
        return self.q != 0

    def __mul__(self, other: "SymScalar | RationalLike") -> "SymScalar":
        if isinstance(other, SymScalar):
            return SymScalar(self.q * other.q, self.h + other.h, self.k + other.k)
        return SymScalar(self.q * _as_fraction(other), self.h, self.k)

    __rmul__ = __mul__

    def __truediv__(self, other: "SymScalar | RationalLike") -> "SymScalar":
        if isinstance(other, SymScalar):
            if other.q == 0:
                raise ZeroDivisionError("division by zero SymScalar")
            return SymScalar(self.q / other.q, self.h - other.h, self.k - other.k)
        d = _as_fraction(other)
        if d == 0:
            raise ZeroDivisionError("division by zero")
        return SymScalar(self.q / d, self.h, self.k)

    def __neg__(self) -> "SymScalar":
        return SymScalar(-self.q, self.h, self.k)

    def __add__(self, other: "SymScalar") -> "SymScalar":
        # Defined only on a shared basis (or with a zero side): every sum the
        # package forms stays on one basis, so a mixed one is a bug upstream.
        if not isinstance(other, SymScalar):
            return NotImplemented
        if self.q == 0:
            return other
        if other.q == 0:
            return self
        if (self.h, self.k) != (other.h, other.k):
            raise ValueError(
                f"mixed-basis addition: ({self.h},{self.k}) vs ({other.h},{other.k})"
            )
        return SymScalar(self.q + other.q, self.h, self.k)

    def __sub__(self, other: "SymScalar") -> "SymScalar":
        return self + (-other)

    def __repr__(self) -> str:
        if self.q == 0:
            return "SymScalar(0)"
        parts = [str(self.q)]
        if self.h:
            parts.append(f"sqrt(pi)^{self.h}")
        if self.k:
            parts.append(f"i^{self.k}")
        return "SymScalar(" + " * ".join(parts) + ")"


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


def gamma_ratio(
    up: Iterable[RationalLike], down: Iterable[RationalLike] = (), num: int = 1, den: int = 1, h: int = 0, k: int = 0
) -> Ratio:
    """num/den * sqrt(pi)**h * i**k * prod Gamma(t/2) over up / prod Gamma(t/2) over down, unreduced.

    Arguments are doubled, so a positive integer or half-integer a is t = 2a
    and k! = Gamma(k+1) is t = 2k + 2; each is read from the factorial table.
    A zero, negative or non-half-integer argument raises ValueError.
    """
    for t in up:
        a, b, s = _gamma_entry(t)
        num, den, h = num * a, den * b, h + s
    for t in down:
        a, b, s = _gamma_entry(t)
        num, den, h = num * b, den * a, h - s
    return num, den, h, k


def gamma_product(
    up: Iterable[RationalLike], down: Iterable[RationalLike] = (), q: RationalLike = 1, h: int = 0, k: int = 0
) -> SymScalar:
    """q * sqrt(pi)**h * i**k * prod Gamma(t/2) over up / prod Gamma(t/2) over down:
    ``gamma_ratio`` reduced once into a SymScalar."""
    q = _as_fraction(q)
    num, den, h, k = gamma_ratio(up, down, q.numerator, q.denominator, h, k)
    return SymScalar(Fraction(num, den), h, k)


def ratios_equal(x: Ratio, y: Ratio) -> bool:
    """Whether two unreduced values (num, den, h, k) are equal, as SymScalars: by one
    cross-multiplication, with i**2 = -1 folded into the sign and the basis ignored at zero."""
    (a, b, h, k), (c, d, g, l) = x, y
    c = -c if (k - l) % 4 == 2 else c
    return a * d == c * b and (a == 0 or (h == g and (k - l) % 2 == 0))


def ratio_sum(values: Iterable[Ratio]) -> Ratio:
    """The sum of ratios on one basis (h, k) over the product of their denominators; a zero
    term is on any basis, and two bases raise ValueError."""
    num, den, basis = 0, 1, None
    for a, b, h, k in values:
        if a and basis not in (None, (h, k)):
            raise ValueError(f"mixed-basis addition: {basis} vs ({h},{k})")
        num, den, basis = num * b + a * den, den * b, (h, k) if a else basis
    return (num, den, *(basis or (0, 0)))


@functools.lru_cache(maxsize=4096, typed=True)
def gamma_half_integer(a: RationalLike) -> SymScalar:
    """Gamma(a) for a a positive integer or half-integer, exactly.

    Integer a gives (a-1)! with no sqrt(pi); half-integer a gives a rational
    multiple of sqrt(pi).  Anything else is rejected.  Results are memoised
    like those of ``binomial`` (a SymScalar is frozen); the cache is typed so
    that a float argument is still rejected rather than matched to an int.
    """
    return gamma_product((2 * _as_fraction(a),))


@functools.lru_cache(maxsize=4096, typed=True)
def binomial(a: RationalLike, m: int) -> Fraction:
    """Generalized binomial coefficient C(a, m) = a(a-1)...(a-m+1)/m!.

    Works for any rational a and non-negative integer m; C(a, 0) = 1, and
    C(a, m) = 0 when a is a non-negative integer smaller than m.  Results
    are memoised: the identity verifiers ask for few distinct (a, m) many
    times over, and a Fraction is immutable, so sharing it is safe.  The
    cache is typed, so that a float is rejected whatever ran before.
    """
    if m < 0:
        raise ValueError("lower index must be non-negative")
    a = _as_fraction(a)
    num = Fraction(1)
    for t in range(m):
        num *= a - t
    return num / math.factorial(m)


@functools.lru_cache(maxsize=1024, typed=True)
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


@functools.lru_cache(maxsize=256, typed=True)
def fundamental_normalization(dim: int) -> SymScalar:
    """Constant c with Fourier transform of c/|x|^(n-1) equal to 1/|xi|.

    Exactly Gamma((n-1)/2) / (2 pi^(n/2) Gamma(1/2)).
    """
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    return gamma_product((dim - 1,), (1,), Fraction(1, 2), -dim)
