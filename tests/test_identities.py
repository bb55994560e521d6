"""Exact identity verifiers: fundamental solution, matching coefficients,
series constants, stabilization, summation identities."""
import math
from fractions import Fraction as F

import pytest

from czkit import identities
from czkit.exact import SymScalar, binomial, fundamental_normalization, gamma_half_integer, riesz_multiplier
from czkit.identities import (
    _radial_sum_lhs,
    _radial_sum_rhs,
    _solution_in_integers,
    _taylor_at_one,
    bessel_zero_scaled,
    falling_factorial_sum_a,
    falling_factorial_sum_b,
    fundamental_coeffs,
    matching_coeff_closed,
    matching_coeffs_taylor,
    power_series_closed_scaled,
    power_series_coeffs_scaled,
    radial_laplacian_check,
    run_identity_suite,
    series_kernel_constant,
    series_kernel_constant_from_matching,
    series_leading_constant_scaled,
    verify_matching_coeffs,
    verify_radial_sum_identity,
    verify_series_constants,
    verify_series_stabilization,
    verify_triple_binomial,
)
from czkit.polyalg import MultiPoly
from oracles import (
    bessel_ratio_coeff_scaled,
    bessel_ratio_float,
    fundamental_coeff_product_form,
    fundamental_solution,
    imag_unit,
    radial_laplacian,
    t_derivative,
)


def test_fundamental_coeff_examples():
    assert fundamental_coeffs(2, 1) == (F(1), F(0))
    assert fundamental_coeffs(5, 1) == (F(-1, 2), F(0))
    alpha, beta = fundamental_coeffs(3, 1)
    assert alpha is None and beta == F(1, 2)


def test_fundamental_coeffs_match_product_form():
    for n in (2, 4, 6):
        for order in range(1, 6):
            assert fundamental_coeffs(n, order)[0] == fundamental_coeff_product_form(n, order)
    for n in (5, 7, 9):
        for order in range(1, (n - 1) // 2):
            assert fundamental_coeffs(n, order)[0] == fundamental_coeff_product_form(n, order)


def test_radial_laplacian_closed_under_the_rules():
    e = {(F(3), 0): F(1), (F(1), 1): F(2)}
    lap = radial_laplacian(e, 3)
    # r^3 -> 3*4 r; r log r -> 1*2 r^-1 log r + (2+1) r^-1
    assert lap == {(F(1), 0): F(12), (F(-1), 1): F(4), (F(-1), 0): F(6)}


def test_sparse_producers_return_no_zero_coefficient():
    # The exact dict comparisons of the verifiers hold only if no producer
    # keeps a cancelled term: each input below is built to cancel.
    p = MultiPoly(2, {(1, 0): F(1), (0, 1): F(2)})
    q = MultiPoly(2, {(1, 0): F(-1), (0, 1): F(3)})
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    polys = [
        p + q,
        p - p,
        p - MultiPoly(2, {(1, 0): F(1)}),
        (x1 + x2) * (x1 - x2),
        p * 0,
        p * F(1, 3),
        p.differentiate((2, 0)),
        (x1 * x1 * x2).differentiate((1, 1)),
        (x1 * x1 - x2 * x2).differentiate((2, 0)) + (x1 * x1 - x2 * x2).differentiate((0, 2)),
    ]
    assert [len(r.terms) for r in polys] == [1, 0, 1, 2, 0, 2, 0, 1, 0]
    radial = [
        # r^(2-n) is harmonic away from 0
        radial_laplacian({(F(-1), 0): F(5)}, 3),
        # r log r - (3/2) r: the r^-1 terms 3 and -3 cancel
        radial_laplacian({(F(1), 1): F(1), (F(1), 0): F(-3, 2)}, 3),
        t_derivative({(F(0), 0): F(7)}),
        # t log t - t: the t^0 terms 1 and -1 cancel
        t_derivative({(F(1), 1): F(1), (F(1), 0): F(-1)}),
    ]
    assert radial == [{}, {(F(-1), 1): F(2)}, {}, {(F(0), 1): F(1)}]
    for terms in [r.terms for r in polys] + radial:
        assert all(c != 0 for c in terms.values())


def test_radial_laplacian_check_over_ranges():
    for n in range(2, 6):
        for order in range(1, 7):
            assert radial_laplacian_check(n, order)


def test_integer_radial_check_agrees_with_the_fraction_chain():
    # the {(a, e): Fraction} chain of the oracles starts from the same E and decides alike
    for n in range(2, 9):
        for N in range(1, 11):
            a, p, q, den = _solution_in_integers(n, N, 0)
            terms = {(F(a), 0): F(p, den), (F(a), 1): F(2 * q, den)}
            expr = fundamental_solution(n, N)
            assert expr == {key: s for key, s in terms.items() if s}, (n, N)
            for _ in range(N):
                expr = radial_laplacian(expr, n)
            assert expr == {(F(1 - n), 0): F(1)} and radial_laplacian_check(n, N), (n, N)


def test_matching_coeff_worked_value():
    # n=2, N=1, L=2: oracle from E(t) = c t^(1/2): E''(1)/2! = -c/8
    c = fundamental_normalization(2)
    assert matching_coeff_closed(2, 1, 2) == c * F(-1, 8)
    assert matching_coeffs_taylor(2, 1, 0)[2] == c * F(-1, 8)


def test_matching_coeffs_all_ranges():
    for n in range(2, 6):
        for order in range(1, 7):
            assert verify_matching_coeffs(n, order)


def test_matching_coeffs_log_regime_free_coefficient_cancels():
    # in the log regime the free power coefficient must not affect L >= N+1
    a = matching_coeffs_taylor(3, 2, 0)
    b = matching_coeffs_taylor(3, 2, F(355, 113))
    assert a == b


def test_matching_coeffs_taylor_refuses_alpha_where_it_is_determined():
    # even n and odd n with 2N+1 < n fix the power coefficient
    for dim, order in ((2, 1), (4, 3), (7, 2)):
        with pytest.raises(ValueError):
            matching_coeffs_taylor(dim, order, 5)


def test_integer_taylor_data_matches_the_fraction_chain():
    # E^(i)(1) by t_derivative on Fraction dicts, as read from fundamental_solution in t = r^2
    for n in range(2, 9):
        for N in range(1, 11):
            free = fundamental_coeffs(n, N)[0] is None
            for alpha in (0, F(17, 3)) if free else (0,):
                a = F(2 * N + 1 - n)
                expr = {**fundamental_solution(n, N), **({(a, 0): alpha} if alpha else {})}
                cur = {(b / 2, e): s / 2**e for (b, e), s in expr.items()}
                ps, den = _taylor_at_one(n, N, alpha)
                for i in range(2 * N + 1):
                    assert F(ps[i], den * 2**i) == sum(s for (_, e), s in cur.items() if not e), (n, N, alpha, i)
                    cur = t_derivative(cur)


def test_falling_factorial_sums():
    assert falling_factorial_sum_a(F(1, 2), 1, 2)
    for order in (1, 2, 3):
        for L in range(0, 2 * order + 1):
            assert falling_factorial_sum_a(F(1, 2), order, L)
            assert falling_factorial_sum_a(F(3, 2), order, L)
    # single-term boundary L = 2N
    assert falling_factorial_sum_a(F(5, 2), 3, 6)
    # a polynomial identity in m: other denominators and signs hold too
    for m in (F(1, 3), F(-7, 5), 4, 0):
        assert all(falling_factorial_sum_a(m, 4, L) for L in range(9))
    assert falling_factorial_sum_b(1, 2, 4)
    assert falling_factorial_sum_b(2, 2, 3)
    with pytest.raises(ValueError):
        falling_factorial_sum_b(1, 2, 1)  # factorial regime violated


def test_triple_binomial_examples():
    assert verify_triple_binomial(1, 1, 2, 3)  # both sides 6
    assert verify_triple_binomial(0, 0, F(7, 2), F(-4, 7))
    # half-integer upper indices of the kind used by the radial sums
    assert verify_triple_binomial(0, 3, F(9, 2), F(5, 2))
    assert verify_triple_binomial(2, 1, F(-3, 2), F(11, 2))
    with pytest.raises(ValueError):
        verify_triple_binomial(-1, 0, 1, 1)


def test_series_constants_and_cross_route():
    for n in range(2, 6):
        for order in range(1, 7):
            assert verify_series_constants(n, order)
    c = series_kernel_constant(2, 2, 3, 0, 0)
    a_l = matching_coeff_closed(2, 2, 3)
    assert c == series_kernel_constant_from_matching(2, 2, 3, 0, 0, a_l)


def test_leading_constant_value():
    # n=2, j=0: scaled constant 1/Gamma(2) = 1; unscaled 1/2
    assert series_leading_constant_scaled(2, 0) == SymScalar(F(1))


def test_bessel_series_scaled_values():
    # value at zero: scaled coefficient i=0 equals 2^q * 1/(2^q Gamma(q+1))
    for twice_q in range(1, 13):
        q = F(twice_q, 2)
        want = SymScalar(F(1)) / gamma_half_integer(q + 1)
        assert bessel_ratio_coeff_scaled(q, 0) == want
    # zero-value helper at an integer offset above n/2
    for n in (2, 3):
        for k in range(0, 4):
            got = bessel_zero_scaled(k, n)
            assert got == SymScalar(F(1, 2**k)) / gamma_half_integer(F(n, 2) + k + 1)
    for bad in (-1, F(1, 2)):
        with pytest.raises(ValueError):
            bessel_zero_scaled(bad, 2)


def test_bessel_float_bridge():
    for r in (0.1, 1.0, 5.0):
        got = bessel_ratio_float(F(1, 2), r, terms=30)
        want = math.sqrt(2.0 / math.pi) * math.sin(r) / r
        assert abs(got - want) < 1e-12


def test_power_series_stabilization():
    for n in (2, 3):
        for p in range(5):
            assert verify_series_stabilization(n, p)


def test_power_series_leading_value_matches_constant():
    # p = 0 must reduce to the leading series constant on the first layer
    for n in (2, 3, 4):
        vec = power_series_coeffs_scaled(n, 3, 0)
        assert vec[0] == series_leading_constant_scaled(n, 0)
        assert vec == power_series_closed_scaled(n, 0)


def test_radial_sum_identity_full_range():
    for n in (2, 3, 4, 5):
        for order in (1, 3, 4):
            for p in range(order):
                for i in range(p + 1):
                    for j in range(p - i + 1):
                        assert verify_radial_sum_identity(n, order, p, j, i)


def _radial_sum_direct(n, N, p, j, i):
    """The s-sum term by term, each term from its own binomials and Gamma."""
    half = F(n, 2)
    m = p + 1 - i
    lhs = SymScalar.zero()
    for s in range(N - m + 1):
        num = F((-1) ** s) * binomial(half + N + m + s - 1, N - j) * binomial(half + j + m + s - 1, s)
        den = (m + s + half - F(1, 2)) * math.factorial(N - m - s)
        lhs = lhs + SymScalar(num / den) / gamma_half_integer(half + 2 * m + i + s)
    return lhs


def test_radial_sum_recurrence_matches_direct_sum():
    single_term = 0
    for n in range(2, 7):
        for N in range(1, 9):
            for p in range(N):
                for i in range(p + 1):
                    for j in range(p - i + 1):
                        single_term += p + 1 - i == N
                        assert _radial_sum_lhs(n, N, p, j, i) == _radial_sum_direct(n, N, p, j, i)
    assert single_term == 5 * sum(range(1, 9))  # p = N-1, i = 0, any j: s stops at N-m = 0
    for bad in ((2, 3, 3, 0, 0), (2, 3, 1, 1, 1), (2, 3, 1, -1, 0), (2, 3, 1, 0, -1)):
        with pytest.raises(ValueError):
            _radial_sum_lhs(*bad)
        with pytest.raises(ValueError):
            verify_radial_sum_identity(*bad)


def test_fundamental_solution_shape():
    e = fundamental_solution(3, 1)
    # exponent 2N+1-n = 0 with a log term only (free coefficient defaults 0)
    assert set(e) == {(F(0), 1)}


def test_suite_driver_all_green():
    results = list(run_identity_suite(3, 3))
    assert results and all(r.ok for r in results)


def test_suite_progress_streams_before_later_verifiers(monkeypatch):
    def second_verifier(*args):
        raise AssertionError("the second verifier ran before the first record was yielded")

    monkeypatch.setattr(identities, "verify_matching_coeffs", second_verifier)
    records = run_identity_suite(2, 1)
    first = next(records)
    assert (first.name, first.params, first.ok) == ("radial-laplacian", "n=2 N=1", True)
    with pytest.raises(AssertionError, match="^the second verifier ran"):
        next(records)


def test_suite_ranges_are_configuration():
    # the caps are knobs, not code: one cell beyond the default range
    results = list(run_identity_suite(6, 7))
    beyond = [r for r in results if "n=6" in r.params and "N=7" in r.params]
    assert beyond and all(r.ok for r in beyond)


# The closed forms as chains of Fraction and SymScalar products over
# exact.binomial, one step and one gcd at a time: oracles for the
# factorial-table forms.


def _matching_chain(n, N, L):
    m = F(n - 1, 2)
    num = binomial(L + m - N - 1, L - N) * binomial(N + m, 2 * N - L)
    den = math.factorial(2 * N) * binomial(F(L), N)
    return fundamental_normalization(n) * (F((-1) ** (L + N)) * num / den)


def _series_constant_chain(n, N, L, j, k):
    half = F(n, 2)
    num = (
        F(2**k * math.factorial(N - j) * (n - 1))
        * binomial(L - 1 + half, N - j)
        * binomial(half + j + L - N - 1, k)
        * binomial(N + half - F(1, 2), N)
    )
    den = (
        F(math.factorial(2 * N - L) * math.factorial(L - N - j - 1 - k))
        * (L - N + half - F(1, 2))
        * binomial(N - F(1, 2), N)
    )
    base = fundamental_normalization(n) * riesz_multiplier(2 * j + 1, n)
    return imag_unit() * base * (F((-1) ** k) * num / den)


def _series_constant_from_matching_chain(n, N, L, j, k):
    half = F(n, 2)
    factor = (
        F((-1) ** (L + k + N))
        * F(2 ** (2 * N + 1) * math.factorial(L) * math.factorial(N - j))
        / math.factorial(L - N - j - 1 - k)
        * binomial(L - 1 + half, N - j)
        * F(2**k)
        * binomial(half + j + L - N - 1, k)
    )
    return imag_unit() * _matching_chain(n, N, L) * riesz_multiplier(2 * j + 1, n) * factor


def _radial_sum_rhs_chain(n, N, p, j, i):
    half = F(n, 2)
    m = p + 1 - i
    rational = (
        F(math.factorial(N - m - i) * math.factorial(m + i - j), math.factorial(N - j))
        * binomial(N - F(1, 2), N - m - i)
        * binomial(half + 2 * m + i - 1, m + i - j)
    )
    return (
        SymScalar(rational)
        * gamma_half_integer(m + half - F(1, 2))
        / (gamma_half_integer(half + 2 * m + i) * gamma_half_integer(N + half + F(1, 2)))
    )


def _power_series_closed_chain(n, p):
    half = F(n, 2)
    pref = (
        fundamental_normalization(n)
        * gamma_half_integer(F(1, 2))
        * SymScalar(F(n - 1, 2 ** (2 * p + 1)), n, 0)
        / (gamma_half_integer(half + F(1, 2)) * gamma_half_integer(p + F(3, 2)))
    )
    out = {}
    for j in range(p + 1):
        inner = SymScalar.zero()
        for i in range(p - j + 1):
            coef = F((-1) ** i, math.factorial(i) * math.factorial(p - i - j))
            inner = inner + gamma_half_integer(half + p - i + F(1, 2)) * coef / gamma_half_integer(half + p - i + j + 1)
        outer = pref * F((-1) ** j) * gamma_half_integer(j + F(1, 2))
        value = outer / gamma_half_integer(half + j + F(1, 2)) * inner
        if value:
            out[j] = value
    return out


def _fundamental_coeffs_chain(n, N):
    """The two odd-dimension cases."""
    mi = (n - 1) // 2
    fact = math.factorial
    if 2 * N + 1 - n < 0:
        alpha = F((-1) ** N) * fact(mi - N - 1) * fact(N - 1) / (2 * fact(mi - 1) * fact(2 * N - 1))
        return alpha, F(0)
    return None, F((-1) ** (mi + 1)) * fact(N - 1) / (2 * fact(mi - 1) * fact(N - mi) * fact(2 * N - 1))


def test_closed_forms_match_the_fraction_chains():
    for n in range(2, 7):
        half = F(n, 2)
        for N in range(1, 9):
            if n % 2:
                assert fundamental_coeffs(n, N) == _fundamental_coeffs_chain(n, N)
            for L in range(N + 1, 2 * N + 1):
                a_l = matching_coeff_closed(n, N, L)
                assert a_l == _matching_chain(n, N, L)
                for j in range(L - N):
                    for k in range(L - N - j):
                        assert series_kernel_constant(n, N, L, j, k) == _series_constant_chain(n, N, L, j, k)
                        want = _series_constant_from_matching_chain(n, N, L, j, k)
                        assert series_kernel_constant_from_matching(n, N, L, j, k, a_l) == want
            for p in range(N):
                for i in range(p + 1):
                    for j in range(p - i + 1):
                        assert _radial_sum_rhs(n, N, p, j, i) == _radial_sum_rhs_chain(n, N, p, j, i)
        for p in range(8):
            assert power_series_closed_scaled(n, p) == _power_series_closed_chain(n, p)
        for j in range(8):
            want = SymScalar(F((-1) ** j, 4**j * (2 * j + 1))) / gamma_half_integer(half + 2 * j + 1)
            assert series_leading_constant_scaled(n, j) == want
            assert bessel_zero_scaled(j, n) == SymScalar(F(1, 2**j)) / gamma_half_integer(half + j + 1)
    for twice_q in range(-1, 20):
        q = F(twice_q, 2)
        for i in range(8):
            want = SymScalar(F((-1) ** i, math.factorial(i) * 4**i)) / gamma_half_integer(q + i + 1)
            assert bessel_ratio_coeff_scaled(q, i) == want


def _off_by_one_part_in_a_billion(value):
    up, down = 10**9 + 1, 10**9
    if isinstance(value, dict):
        return {key: v * F(up, down) for key, v in value.items()}
    if isinstance(value, tuple) and isinstance(value[0], list):  # Taylor data: numerators over one denominator
        return [p * up for p in value[0]], value[1] * down
    if isinstance(value, tuple):  # the (alpha, beta) of fundamental_coeffs: beta
        return value[0], value[1] * F(up, down)
    return value * F(up, down)


@pytest.mark.parametrize(
    "right_side, verifier, args",
    [
        ("matching_coeff_closed", verify_matching_coeffs, (3, 2)),
        ("series_kernel_constant", verify_series_constants, (4, 3)),
        ("series_leading_constant_scaled", verify_series_constants, (4, 3)),
        ("_radial_sum_rhs", verify_radial_sum_identity, (3, 4, 2, 1, 1)),
        ("power_series_closed_scaled", verify_series_stabilization, (3, 2)),
        ("series_kernel_constant_from_matching", verify_series_constants, (4, 3)),
        ("bessel_zero_scaled", verify_series_constants, (4, 3)),
        ("_radial_sum_lhs", verify_radial_sum_identity, (3, 4, 2, 1, 1)),
        ("_taylor_at_one", verify_matching_coeffs, (3, 2)),
        ("fundamental_coeffs", radial_laplacian_check, (3, 2)),
    ],
)
def test_verifiers_fail_on_a_perturbed_right_side(monkeypatch, right_side, verifier, args):
    assert verifier(*args)
    exact_form = getattr(identities, right_side)
    monkeypatch.setattr(identities, right_side, lambda *a: _off_by_one_part_in_a_billion(exact_form(*a)))
    assert not verifier(*args)
