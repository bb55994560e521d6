"""Exact verification of the combinatorial calculus behind the kernel checks.

This module rebuilds, in exact arithmetic, the chain of constants that
connects a polynomial kernel to the power series of its truncated-kernel
Fourier transform:

  * the radial fundamental solution of the half-Laplacian composed with
    an iterated Laplacian, E(x) = c r^(2N+1-n) (alpha + beta log r^2),
    with the three closed-form coefficient cases (even dimension, odd
    small, odd large);
  * the boundary-matching coefficients A_L obtained by Taylor expansion
    of E at |x| = 1, with their closed product formula;
  * the constants c_{L,j,k} tying the matched solution to the power
    series of J_q(r)/r^q, and the leading constants of that series;
  * the series coefficients a_{2p+1} themselves, as exact linear
    functionals of the kernel layers, together with their stabilization
    in the truncation order and their closed N-free form;
  * the classical summation identities (falling-factorial sums and the
    triple-binomial identity) used to collapse those expressions.

Every verifier compares two independently computed exact quantities; no
floating point enters except through the explicit float bridges.  Closed forms
are read from one factorial table by ``exact.gamma_product`` as unreduced
``SymScalar``s (a binomial C(x, k) with positive Gamma arguments is
Gamma(x+1) / (k! Gamma(x-k+1)); arguments are doubled, t for Gamma(t/2), so k!
is 2k+2).  Every verifier decides on integers: left sides come from their own
integer recurrences or sums, the summation identities from falling products
over one common denominator (``exact._falling``), and the two sides are
compared by one cross-multiplication.  The fundamental solution has one
integer form, E = c r^a (p + q log r^2) / D in units of
c = ``fundamental_normalization(n)``; the radial check and the Taylor oracle
both read it.

One sparse form is left: a series coefficient is a plain dict j ->
coefficient of layer 2j+1, summed by ``exact._collect``, the one place that
drops cancelled terms, so dict equality is exact equality.

Scaling convention: quantities built from the Bessel-type series carry a
factor 2^(n/2), which is irrational for odd n.  All such values are
handled in 2^(n/2)-scaled form (and named ``*_scaled``), which keeps them
inside the ring Q[sqrt(pi), i]; every identity checked here is invariant
under that common positive scale.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exact import (
    RationalLike,
    SymScalar,
    _as_fraction,
    _collect,
    _falling,
    binomial,
    fundamental_normalization,
    gamma_product,
)

Frac = Fraction


# --------------------------------------------------------------------------
# Fundamental solution coefficients (three cases) and the radial check
# --------------------------------------------------------------------------


def fundamental_coeffs(dim: int, order: int) -> tuple[Fraction | None, Fraction]:
    """Power/log coefficients (alpha, beta) of the radial fundamental solution.

    The solution has the form c * r^(2N+1-n) * (alpha + beta log r^2) with
    N = order.  beta = 0 unless the dimension is odd with 2N+1-n >= 0, in
    which case the power coefficient alpha is unconstrained (returned as
    None): its r-power is annihilated before the final Laplacian.
    """
    n, N = dim, order
    if n < 2 or N < 1:
        raise ValueError("need dim >= 2 and order >= 1")
    m = Frac(n - 1, 2)
    if n % 2 == 0:
        alpha = 1 / (binomial(N - m, N) * math.factorial(2 * N))
        return alpha, Frac(0)
    mi = int(m)
    if 2 * N + 1 - n < 0:  # alpha = (-1)^N (mi-N-1)! (N-1)! / (2 (mi-1)! (2N-1)!)
        return gamma_product((2 * (mi - N), 2 * N), (2 * mi, 4 * N), Frac((-1) ** N, 2)).q, Frac(0)
    # beta = (-1)^(mi+1) (N-1)! / (2 (mi-1)! (N-mi)! (2N-1)!)
    return None, gamma_product((2 * N,), (2 * mi, 2 * (N - mi) + 2, 4 * N), Frac((-1) ** (mi + 1), 2)).q


def _solution_in_integers(dim: int, order: int, alpha: RationalLike) -> tuple[int, int, int, int]:
    """The radial solution E = c r^a (p + q log r^2) / D as the integers (a, p, q, D), with
    a = 2N+1-n, p/D = alpha and q/D = beta.  ``alpha`` is the power coefficient where that
    is free; a non-zero one elsewhere raises ValueError."""
    free, beta = fundamental_coeffs(dim, order)
    if free is not None and alpha:
        raise ValueError("alpha is determined in this regime")
    power = _as_fraction(alpha) if free is None else free
    den = math.lcm(power.denominator, beta.denominator)
    return 2 * order + 1 - dim, int(power * den), int(beta * den), den


def radial_laplacian_check(dim: int, order: int) -> bool:
    """Apply the radial Laplacian `order` times; expect c * r^(1-n) exactly.  With L = log r^2
    it maps r^a (p + q L) to r^(a-2) (a(a+n-2) p + 2(2a+n-2) q + a(a+n-2) q L)."""
    a, p, q, den = _solution_in_integers(dim, order, 0)
    for _ in range(order):
        a, p, q = a - 2, a * (a + dim - 2) * p + 2 * (2 * a + dim - 2) * q, a * (a + dim - 2) * q
    return (a, p, q) == (1 - dim, den, 0)


# --------------------------------------------------------------------------
# Boundary-matching coefficients: closed form vs Taylor oracle
# --------------------------------------------------------------------------


def matching_coeff_closed(dim: int, order: int, L: int) -> SymScalar:
    """Closed form of the degree-L matching coefficient, N+1 <= L <= 2N:

        c (-1)^(L+N) C(L+m-N-1, L-N) C(N+m, 2N-L) / ((2N)! C(L, N)),

    with m = (n-1)/2 and c = Gamma(m) / (2 sqrt(pi)^n Gamma(1/2)) =
    ``fundamental_normalization(n)``; (L-N)! and Gamma(m) cancel.
    """
    n, N = dim, order
    if not (N + 1 <= L <= 2 * N):
        raise ValueError("L out of range")
    return gamma_product(
        (2 * (L - N) + n - 1, 2 * N + n + 1, 2 * N + 2),
        (4 * N - 2 * L + 2, 2 * (L - N) + n + 1, 4 * N + 2, 2 * L + 2, 1),
        Frac((-1) ** (L + N), 2), -n,
    )


def _taylor_at_one(dim: int, order: int, alpha: RationalLike) -> tuple[list[int], int]:
    """The Taylor data of E = ``_solution_in_integers`` read in t = r^2: integers p_i and D
    with E^(i)(1) = p_i / (D 2^i) in units of c, for i = 0..2N.

    E = t^(a/2) (p + q log t) / D, and d/dt maps t^(a/2-k) (p + q log t) / 2^k to
    t^(a/2-k-1) ((a-2k) p + 2q + (a-2k) q log t) / 2^(k+1).
    """
    a, p, q, den = _solution_in_integers(dim, order, alpha)
    ps = []
    for k in range(2 * order + 1):
        ps.append(p)
        p, q = (a - 2 * k) * p + 2 * q, (a - 2 * k) * q
    return ps, den


def matching_coeffs_taylor(dim: int, order: int, alpha: RationalLike) -> dict[int, SymScalar]:
    """Matching coefficients from the Taylor data ``_taylor_at_one`` at t = 1, with M = 2N:

        A_L = c sum_{i=L}^{M} E^(i)(1)/i! (-1)^(i-L) C(i, L)
            = c sum_i (-1)^(i-L) p_i 2^(M-i) (M-L)!/(i-L)! / (D L! 2^M (M-L)!).

    Only L >= N+1 is returned; there the value does not depend on the free ``alpha`` of the log regime.
    """
    M, (ps, den), c, out = 2 * order, _taylor_at_one(dim, order, alpha), fundamental_normalization(dim), {}
    for L in range(order + 1, M + 1):
        s = sum((-1) ** (i - L) * ps[i] * 2 ** (M - i) * math.perm(M - L, M - i) for i in range(L, M + 1))
        out[L] = c * s / (den * math.factorial(L) * 2**M * math.factorial(M - L))
    return out


def verify_matching_coeffs(dim: int, order: int) -> bool:
    """Closed form against the Taylor oracle for every L in N+1..2N.

    In the log regime the oracle is evaluated at two different free power
    coefficients and must agree (the free part cancels) before comparison.
    """
    oracle = matching_coeffs_taylor(dim, order, 0)
    if fundamental_coeffs(dim, order)[0] is None:  # the log regime
        other = matching_coeffs_taylor(dim, order, Frac(17, 3))
        if oracle != other:
            return False
    return all(oracle[L] == matching_coeff_closed(dim, order, L) for L in oracle)


# --------------------------------------------------------------------------
# Summation identities
# --------------------------------------------------------------------------


def falling_factorial_sum_a(m: RationalLike, order: int, L: int) -> bool:
    """sum_{i=L}^{2N} C(N-m, i) (-1)^i C(i, L) = (-1)^L C(N-m, L) C(m+N, 2N-L)."""
    m = _as_fraction(m)
    N = order
    if not (0 <= L <= 2 * N):
        raise ValueError("L out of range")
    x = N - m
    p, q = x.numerator, x.denominator
    # C(x, i) = num / (q^i i!) with num = _falling(p, q, i), raised by
    # C(x, i+1) = C(x, i) (x - i) / (i + 1); lhs is s / (q^i i!) at each i
    num = head = _falling(p, q, L)
    s = 0
    for i in range(L, 2 * N + 1):
        s = s * q * i + (-1) ** i * math.comb(i, L) * num
        num *= p - i * q
    # With m+N = (2Nq - p)/q the right side is (-1)^L C(2N, L) head _falling(2Nq - p, q, 2N-L)
    # over the same q^(2N) (2N)!.  Both stay off the factorial table: N-m may be <= 0, and for
    # small L the Gamma form of C(m+N, 2N-L) would need Gamma(m+L-N+1) at m+L-N+1 <= 0.
    return s == (-1) ** L * math.comb(2 * N, L) * head * _falling(2 * N * q - p, q, 2 * N - L)


def falling_factorial_sum_b(m: int, order: int, L: int) -> bool:
    """sum_{i=L}^{2N} (i-N+m-1)!/i! C(i, L) = (L-N+m-1)!/L! C(N+m, 2N-L).

    Requires integer m with L-N+m-1 >= 0 (the log-regime index range);
    calls outside that regime are rejected.
    """
    N = order
    if not isinstance(m, int):
        raise ValueError("this identity needs integer m")
    if not (0 <= L <= 2 * N) or L - N + m - 1 < 0:
        raise ValueError("indices outside the factorial regime")
    # both sides times L! (2N-L)!: sum_i (i-N+m-1)! (2N-L)!/(i-L)! = (L-N+m-1)! Gamma(N+m+1) / Gamma(L-N+m+1)
    lhs = sum(math.factorial(i - N + m - 1) * math.perm(2 * N - L, 2 * N - i) for i in range(L, 2 * N + 1))
    return SymScalar(lhs) == gamma_product((2 * (L - N + m), 2 * (N + m) + 2), (2 * (L - N + m) + 2,))


def verify_triple_binomial(m: int, n: int, r: RationalLike, s: RationalLike) -> bool:
    """sum_k C(m-r+s, k) C(n+r-s, n-k) C(r+k, m+n) = C(r, m) C(s, n).

    With r = R/Q and s = S/Q over a common denominator Q, C(x, j) is
    ``_falling(Qx, Q, j)`` over Q^j j!, so the k-th term of the left side is
    C(n, k) times three falling products over Q^(m+2n) n! (m+n)!, and the
    right side two falling products over Q^(m+n) m! n!: the sides are
    compared by one cross-multiplication.
    """
    if m < 0 or n < 0:
        raise ValueError("m, n must be non-negative integers")
    r = _as_fraction(r)
    s = _as_fraction(s)
    Q = math.lcm(r.denominator, s.denominator)
    R, S = r.numerator * (Q // r.denominator), s.numerator * (Q // s.denominator)
    lhs = sum(
        math.comb(n, k)
        * _falling(m * Q - R + S, Q, k)
        * _falling(n * Q + R - S, Q, n - k)
        * _falling(R + k * Q, Q, m + n)
        for k in range(n + 1)
    )
    return lhs * math.factorial(m) == _falling(R, Q, m) * _falling(S, Q, n) * Q**n * math.factorial(m + n)


# --------------------------------------------------------------------------
# Series constants c_{L,j,k}, the J_q(r)/r^q power series, and the
# leading-constant formula
# --------------------------------------------------------------------------


def series_kernel_constant(dim: int, order: int, L: int, j: int, k: int) -> SymScalar:
    """The constant attached to layer j, power k in the truncated-kernel series:

        i c R (-1)^k 2^k (N-j)! (n-1) C(L-1+h, N-j) C(h+j+L-N-1, k) C(N+h-1/2, N)
          / ((2N-L)! (L-N-j-1-k)! (L-N+h-1/2) C(N-1/2, N)),

    with h = n/2, c = ``fundamental_normalization(n)`` and R =
    ``riesz_multiplier(2j+1, n)``, so that i c R = (-1)^j Gamma((n-1)/2)
    Gamma(j+1/2) / (2 Gamma(1/2) Gamma(h+j+1/2)).  The factors (N-j)!, N!,
    Gamma(1/2) and Gamma(h+j+L-N) cancel.

    Defined for N+1 <= L <= 2N, 0 <= j <= L-N-1, 0 <= k <= L-N-j-1.
    """
    n, N = dim, order
    if not (N + 1 <= L <= 2 * N and 0 <= j <= L - N - 1 and 0 <= k <= L - N - j - 1):
        raise ValueError("index out of range")
    return gamma_product(
        (n + 2 * L, 2 * N + n + 1, 2 * (L - N) + n - 1, n - 1, 2 * j + 1),
        (2 * k + 2, n + 2 * (j + L - N - k), n + 1, 4 * N - 2 * L + 2, 2 * (L - N - j - k),
         2 * N + 1, 2 * (L - N) + n + 1, n + 2 * j + 1),
        Frac((-1) ** (j + k) * 2**k * (n - 1), 2),
    )


def series_kernel_constant_from_matching(dim: int, order: int, L: int, j: int, k: int, a_l: SymScalar) -> SymScalar:
    """Same constant via the matching coefficient a_l = A_L (independent route):

        i A_L R (-1)^(L+k+N) 2^(2N+1+k) L! (N-j)! C(L-1+h, N-j) C(h+j+L-N-1, k)
          / (L-N-j-1-k)!,

    with i R = (-1)^j sqrt(pi)^n Gamma(j+1/2) / Gamma(h+j+1/2); the factors
    (N-j)! and Gamma(h+j+L-N) cancel.
    """
    n, N = dim, order
    return a_l * gamma_product(
        (2 * L + 2, n + 2 * L, 2 * j + 1),
        (2 * (L - N - j - k), 2 * k + 2, n + 2 * (j + L - N - k), n + 2 * j + 1),
        (-1) ** (L + k + N + j) * 2 ** (2 * N + 1 + k), n,
    )


def bessel_zero_scaled(shift: int, dim: int) -> SymScalar:
    """2^(n/2) * (value at r = 0 of J_q(r)/r^q) = 2^(n/2-q)/Gamma(q+1) at q = n/2 + shift,
    for an integer shift >= 0, so that the scaled value stays rational in the ring."""
    if not isinstance(shift, int) or shift < 0:
        raise ValueError("q must exceed n/2 by a non-negative integer")
    return gamma_product((), (dim + 2 * shift + 2,), Frac(1, 2**shift))


def series_leading_constant_scaled(dim: int, j: int) -> SymScalar:
    """Closed form of the leading series constant, scaled by 2^(n/2):
    (-1)^j / (4^j (2j+1) Gamma(n/2 + 2j + 1))."""
    return gamma_product((), (dim + 4 * j + 2,), Frac((-1) ** j, 4**j * (2 * j + 1)))


def verify_series_constants(dim: int, order: int) -> bool:
    """Defining sum against the closed form for every layer index j < N.

    The defining sum runs the kernel constants against the series values at
    zero; both sides are compared in 2^(n/2)-scaled form.  The two routes to
    the kernel constants (direct, and via the matching coefficients) are
    also required to agree.
    """
    n, N = dim, order
    a = {L: matching_coeff_closed(n, N, L) for L in range(N + 1, 2 * N + 1)}
    for j in range(N):
        total = SymScalar.zero()
        for L in range(N + 1 + j, 2 * N + 1):
            k = L - N - j - 1
            c = series_kernel_constant(n, N, L, j, k)
            if c != series_kernel_constant_from_matching(n, N, L, j, k, a[L]):
                return False
            total = total + c * bessel_zero_scaled(L - N + j, n)
        if total != series_leading_constant_scaled(n, j):
            return False
    return True


# --------------------------------------------------------------------------
# The hypergeometric-type summation identity used for stabilization
# --------------------------------------------------------------------------


def _radial_sum_lhs(dim: int, order: int, p: int, j: int, i: int) -> SymScalar:
    """The inner s-sum of ``verify_radial_sum_identity``, by its term ratio."""
    n, N = dim, order
    if not (N - 1 >= p >= j + i >= 0 and j >= 0 and i >= 0):
        raise ValueError("index constraints violated")
    m = p + 1 - i
    # Horner from the last term down: num/den <- 1 + r_s * num/den, r_s = -a/b.
    num = den = 1
    for s in range(N - m - 1, -1, -1):
        a = (n + 2 * N + 2 * m + 2 * s) * (N - m - s) * (n + 2 * m + 2 * s - 1)
        b = (s + 1) * (n + 2 * m + 2 * s + 1) * (n + 4 * m + 2 * i + 2 * s)
        num, den = b * den - a * num, b * den
    # t_0 = Gamma(h+N+m) Gamma(m+h-1/2) / ((N-j)! Gamma(h+m+j) Gamma(m+h+1/2) (N-m)! Gamma(h+2m+i))
    return gamma_product(
        (n + 2 * (N + m), n + 2 * m - 1),
        (2 * (N - j) + 2, n + 2 * (m + j), n + 2 * m + 1, 2 * (N - m) + 2, n + 4 * m + 2 * i),
        num,
    ) / den


def _radial_sum_rhs(dim: int, order: int, p: int, j: int, i: int) -> SymScalar:
    """The closed form of ``verify_radial_sum_identity``: with m = p+1-i and h = n/2,

        (N-m-i)! (m+i-j)! / (N-j)! C(N-1/2, N-m-i) C(h+2m+i-1, m+i-j)
          Gamma(m+h-1/2) / (Gamma(h+2m+i) Gamma(N+h+1/2)),

    in which (N-m-i)!, (m+i-j)! and Gamma(h+2m+i) cancel.
    """
    n, N, m = dim, order, p + 1 - i
    return gamma_product((2 * N + 1, n + 2 * m - 1), (2 * (N - j) + 2, 2 * (m + i) + 1, n + 2 * (m + j), 2 * N + n + 1))


def verify_radial_sum_identity(dim: int, order: int, p: int, j: int, i: int) -> bool:
    """The compact form of the inner s-sum, exact for N-1 >= p >= j+i >= 0.

    With m = p+1-i and h = n/2, the left side sums, for s = 0..N-m,

        t_s = (-1)^s C(h+N+m+s-1, N-j) C(h+j+m+s-1, s)
              / ((m+s+h-1/2) (N-m-s)! Gamma(h+2m+i+s)).

    Consecutive terms have the integer term ratio

        t_{s+1}/t_s = -(n+2N+2m+2s)(N-m-s)(n+2m+2s-1)
                      / ((s+1)(n+2m+2s+1)(n+4m+2i+2s)),

    the shift of the first binomial cancelling against the second one.  No
    denominator factor can vanish: each is a positive integer, since s >= 0,
    i >= 0 and m >= 1.  So the sum is t_0 times one integer ratio, built in
    Horner form from O(N) integer products and never reduced; every term
    shares the sqrt(pi) basis of t_0.  The right side is the independent
    closed form ``_radial_sum_rhs``.
    """
    return _radial_sum_lhs(dim, order, p, j, i) == _radial_sum_rhs(dim, order, p, j, i)


# --------------------------------------------------------------------------
# Power-series coefficients of the truncated kernel transform
# --------------------------------------------------------------------------


def power_series_coeffs_scaled(dim: int, order: int, p: int) -> dict[int, SymScalar]:
    """Coefficient of r^(2p+1), as a linear functional of the kernel layers:
    the map j -> coefficient of layer 2j+1, with no zero entries.

    Built directly from the kernel constants and the series coefficients;
    valid for every p >= 0 at truncation order N.  Scaled by 2^(n/2).
    """
    n, N = dim, order
    if p < 0:
        raise ValueError("p must be >= 0")
    terms = []
    for j in range(N):
        for s in range(j + 1, N + 1):
            for k in range(0, s - j):
                if (i := p + 1 - s + k) >= 0:
                    # (-1)^i i! 2^(2p+1+k) Gamma(n/2 + p + s + 1)
                    q = (-1) ** i * math.factorial(i) * 2 ** (2 * p + 1 + k)
                    den = gamma_product((n + 2 * (p + s + 1),), (), q)
                    terms.append((j, series_kernel_constant(n, N, N + s, j, k) / den))
    return _collect(terms)


def power_series_closed_scaled(dim: int, p: int) -> dict[int, SymScalar]:
    """The stabilized closed form of the same coefficient (truncation-free),
    in the same j -> coefficient form:

        c Gamma(1/2) (n-1) sqrt(pi)^n / (2^(2p+1) Gamma(h+1/2) Gamma(p+3/2))
          (-1)^j Gamma(j+1/2) / Gamma(h+j+1/2)
          sum_{i=0}^{p-j} (-1)^i Gamma(h+p-i+1/2) / (i! (p-i-j)! Gamma(h+p-i+j+1)),

    with h = n/2 and c = Gamma((n-1)/2) / (2 sqrt(pi)^n Gamma(1/2)).  The
    (n-1) factor is forced by the p = 0 case, where the coefficient must
    reduce to the leading series constant.

    Valid whenever p <= N-1 at the truncation order used; the expression
    does not involve N.  Scaled by 2^(n/2).
    """
    n = dim
    return _collect(
        (
            j,
            gamma_product(
                (n - 1, 2 * j + 1, n + 2 * (p - i) + 1),
                (n + 1, 2 * p + 3, n + 2 * j + 1, 2 * i + 2, 2 * (p - i - j) + 2, n + 2 * (p - i + j) + 2),
                Frac((-1) ** (i + j) * (n - 1), 2 ** (2 * p + 2)),
            ),
        )
        for j in range(p + 1)
        for i in range(p - j + 1)
    )


def verify_series_stabilization(dim: int, p: int) -> bool:
    """The r^(2p+1) coefficient is the same for N = p+1, p+2, p+3 and
    equals the closed form."""
    base = power_series_coeffs_scaled(dim, p + 1, p)
    for N in range(p + 2, p + 4):
        if power_series_coeffs_scaled(dim, N, p) != base:
            return False
    return base == power_series_closed_scaled(dim, p)


# --------------------------------------------------------------------------
# Batch driver
# --------------------------------------------------------------------------


@dataclass
class IdentityResult:
    name: str
    params: str
    ok: bool


TRIPLE_COUNT = 200  # random tuples of the triple-binomial identity, from seed 1729


def _suite_cell(n: int, N: int) -> Iterator[IdentityResult]:
    """Yield the records of one (n, N) cell, each as soon as it is decided."""
    yield IdentityResult("radial-laplacian", f"n={n} N={N}", radial_laplacian_check(n, N))
    yield IdentityResult("matching-coeffs", f"n={n} N={N}", verify_matching_coeffs(n, N))
    yield IdentityResult("series-constants", f"n={n} N={N}", verify_series_constants(n, N))
    m = Frac(n - 1, 2)
    ok71 = all(falling_factorial_sum_a(m, N, L) for L in range(0, 2 * N + 1))
    yield IdentityResult("factorial-sum-a", f"n={n} N={N}", ok71)
    if n % 2 == 1:
        mi = int(m)
        ls = [L for L in range(0, 2 * N + 1) if L - N + mi - 1 >= 0]
        if ls:
            ok72 = all(falling_factorial_sum_b(mi, N, L) for L in ls)
            yield IdentityResult("factorial-sum-b", f"n={n} N={N}", ok72)
    triples = ((p, j, i) for p in range(N) for i in range(p + 1) for j in range(p - i + 1))
    ok15 = all(verify_radial_sum_identity(n, N, p, j, i) for p, j, i in triples)
    yield IdentityResult("radial-sum-identity", f"n={n} N={N}", ok15)


def run_identity_suite(n_max: int, N_max: int) -> Iterator[IdentityResult]:
    """Run every exact verifier over the ranges n <= n_max, N <= N_max, plus
    TRIPLE_COUNT seeded random tuples of the triple-binomial identity.

    Yields one record per verifier per parameter cell, each as soon as it is
    decided, before the next verifier runs; the CLI turns these into PASS/FAIL
    lines.
    """
    for n in range(2, n_max + 1):
        for N in range(1, N_max + 1):
            yield from _suite_cell(n, N)

    rng = random.Random(1729)
    ok_tb = True
    for _ in range(TRIPLE_COUNT):
        m = rng.randrange(0, 6)
        n_ = rng.randrange(0, 6)
        r = Frac(rng.randrange(-8, 13), rng.choice((1, 2)))
        s = Frac(rng.randrange(-8, 13), rng.choice((1, 2)))
        ok_tb = ok_tb and verify_triple_binomial(m, n_, r, s)
    yield IdentityResult("triple-binomial", f"{TRIPLE_COUNT} random tuples", ok_tb)

    for n in (2, 3):
        for p in range(0, 5):
            yield IdentityResult("series-stabilization", f"n={n} p={p}", verify_series_stabilization(n, p))
