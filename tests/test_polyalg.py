"""Polynomial algebra: Laplacian, diff-ops, harmonic layers, division,
sphere integrals, text format."""
import math
import random
from fractions import Fraction as F

import pytest

from czkit.exact import SymScalar, binomial
from czkit.polyalg import (
    MultiPoly,
    ParseError,
    apply_diffop,
    divide_exact,
    harmonic_decompose,
    laplacian,
    poly_from_text,
)
from oracles import sphere_mean, sphere_monomial_integral


def x(n, i):
    return MultiPoly.variable(n, i)


def harmonic_cubic(n=2):
    return MultiPoly.monomial(n, (3, 0) + (0,) * (n - 2)) - MultiPoly.monomial(
        n, (1, 2) + (0,) * (n - 2), 3
    )


def random_poly(rng, n, deg, terms=6):
    """Random homogeneous polynomial of the given degree."""
    out = {}
    for _ in range(terms):
        cuts = sorted(rng.randrange(0, deg + 1) for _ in range(n - 1))
        expo = []
        prev = 0
        for c in cuts:
            expo.append(c - prev)
            prev = c
        expo.append(deg - prev)
        out[tuple(expo)] = F(rng.randrange(-9, 10), rng.randrange(1, 5))
    return MultiPoly(n, out)


def test_laplacian_examples():
    p = MultiPoly.monomial(2, (2, 0)) + MultiPoly.monomial(2, (0, 2))
    assert laplacian(p) == MultiPoly.constant(2, 4)
    for n in range(2, 7):
        got = laplacian(MultiPoly.radius2(n))
        want = MultiPoly.constant(n, 2 * n)
        assert got == want
        assert F(4) * binomial(F(n, 2), 1) == 2 * n
    assert laplacian(harmonic_cubic()).is_zero()


def test_iterated_laplacian_radius_power_closed_form():
    # lap^j |x|^(2k) = 4^j j! k!/(k-j)! C(n/2+k-1, j) |x|^(2(k-j)), zero past k
    for n in range(2, 7):
        for k in range(0, 9):
            p = MultiPoly.radius_power(n, k)
            for j in range(0, 9):
                if j > k:
                    assert p.is_zero()
                    break
                coef = (
                    F(4**j * math.factorial(j) * math.factorial(k), math.factorial(k - j))
                    * binomial(F(n, 2) + k - 1, j)
                )
                assert p == MultiPoly.radius_power(n, k - j) * coef
                p = laplacian(p)


def test_diffop_on_radius_powers():
    n = 3
    r2 = MultiPoly.radius2(n)
    assert apply_diffop(x(n, 0), r2) == x(n, 0) * 2
    assert apply_diffop(x(n, 0), MultiPoly.constant(n, 1)).is_zero()
    p = MultiPoly.monomial(2, (1, 1))
    q = MultiPoly.monomial(2, (2, 2))
    assert apply_diffop(p, q) == MultiPoly.monomial(2, (1, 1), 4)


def test_diffop_harmonic_closed_form_randomized():
    # H(d)|x|^(2k) = 2^d k!/(k-d)! H |x|^(2(k-d)) for harmonic H of odd degree d
    rng = random.Random(7)
    for n in (2, 3, 4):
        for deg in (1, 3, 5, 7):
            comps = harmonic_decompose(random_poly(rng, n, deg))
            heads = [h for k, h in comps if k == 0]
            if not heads:
                continue
            h = heads[0]
            for k in range(0, 9):
                got = apply_diffop(h, MultiPoly.radius_power(n, k))
                if k < deg:
                    assert got.is_zero()
                else:
                    coef = F(2**deg * math.factorial(k), math.factorial(k - deg))
                    assert got == h * coef * MultiPoly.radius_power(n, k - deg)


def test_harmonic_decomposition_examples():
    for n in (2, 3, 5):
        cubic = MultiPoly.monomial(n, (3,) + (0,) * (n - 1))
        comps = dict(harmonic_decompose(cubic))
        assert comps[1] == x(n, 0) * F(3, n + 2)
        assert comps[0] == cubic - MultiPoly.radius2(n) * x(n, 0) * F(3, n + 2)
        assert laplacian(comps[0]).is_zero()
    assert harmonic_decompose(harmonic_cubic()) == [(0, harmonic_cubic())]
    assert harmonic_decompose(MultiPoly.radius2(4)) == [(1, MultiPoly.constant(4, 1))]


def test_harmonic_decomposition_roundtrip_randomized():
    rng = random.Random(2024)
    count = 0
    while count < 500:
        n = rng.choice((2, 3, 4))
        deg = rng.randrange(0, 10)
        p = random_poly(rng, n, deg)
        if p.is_zero():
            continue
        count += 1
        comps = harmonic_decompose(p)
        reco = MultiPoly.zero(n)
        for k, h in comps:
            assert laplacian(h).is_zero()
            assert h.homogeneous_degree() == deg - 2 * k
            reco = reco + h * MultiPoly.radius_power(n, k)
        assert reco == p


def test_exact_division_examples():
    got = divide_exact(harmonic_cubic(), x(2, 0))
    assert got == MultiPoly.monomial(2, (2, 0)) - MultiPoly.monomial(2, (0, 2), 3)
    assert divide_exact(MultiPoly.monomial(2, (0, 2)), x(2, 0)) is None
    assert divide_exact(MultiPoly.zero(2), x(2, 0)).is_zero()
    with pytest.raises(ZeroDivisionError):
        divide_exact(x(2, 0), MultiPoly.zero(2))


def test_exact_division_roundtrip_randomized():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.choice((2, 3))
        d = random_poly(rng, n, rng.randrange(1, 4), terms=3)
        q = random_poly(rng, n, rng.randrange(0, 4), terms=3)
        if d.is_zero() or q.is_zero():
            continue
        assert divide_exact(d * q, d) == q


def test_sphere_monomial_integrals():
    assert not sphere_monomial_integral((1, 0), 2)
    for n in (2, 3, 5):
        assert sphere_monomial_integral((0,) * n, n) == SymScalar(F(1))
    assert sphere_monomial_integral((2, 0), 2) == SymScalar(F(1, 2))
    # x_i^2 averages to 1/n in any dimension
    for n in (2, 3, 4, 6):
        assert sphere_monomial_integral((2,) + (0,) * (n - 1), n) == SymScalar(F(1, n))


def test_sphere_integral_against_gaussian_moment_oracle():
    # independent route: normalized sphere moments of even monomials equal
    # prod (a_i - 1)!! / (n (n+2) ... (n + |a| - 2)), by splitting the
    # Gaussian integral into radial and angular parts
    def double_fact(k):
        out = 1
        while k > 1:
            out *= k
            k -= 2
        return out

    rng = random.Random(3)
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5))
        alpha = tuple(2 * rng.randrange(0, 4) for _ in range(n))
        total = sum(alpha)
        denom = 1
        for t in range(0, total, 2):
            denom *= n + t
        want = F(1, denom)
        for a in alpha:
            want *= double_fact(a - 1)
        assert sphere_monomial_integral(alpha, n) == SymScalar(want)


def test_sphere_integral_permutation_invariance():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.choice((2, 3, 4))
        alpha = [2 * rng.randrange(0, 4) for _ in range(n)]
        base = sphere_monomial_integral(tuple(alpha), n)
        rng.shuffle(alpha)
        assert sphere_monomial_integral(tuple(alpha), n) == base


def test_sphere_mean():
    w = x(2, 0) * MultiPoly.radius2(2) + harmonic_cubic() * 7
    assert sphere_mean(w) == 0
    assert sphere_mean(MultiPoly.monomial(2, (2, 0))) == F(1, 2)


def test_text_format_roundtrip():
    p = MultiPoly(2, {(3, 0): F(1), (1, 2): F(-3, 4)})
    assert poly_from_text("1 3 0\n-3/4 1 2", 2) == p
    parsed = poly_from_text("# comment\n\n1/2 2 0\n-1/2 0 2\n", 2)
    assert parsed == MultiPoly(2, {(2, 0): F(1, 2), (0, 2): F(-1, 2)})
    assert poly_from_text("# no terms\n", 3) == MultiPoly.zero(3)
    with pytest.raises(ParseError, match="^expected 2 non-negative exponents, got '1 1 0 0'$") as err:
        poly_from_text("1 1 0\n1 1 0 0\n", 2)
    assert err.value.line == 2


def test_point_and_multi_index_must_match_the_variable_count():
    p = x(2, 0) * x(2, 1)
    assert p.eval_exact((2, 3)) == 6
    for bad in ((2,), (2, 3, 5)):
        with pytest.raises(ValueError):
            p.eval_exact(bad)
    with pytest.raises(ValueError):
        p.differentiate((0, 1, 1))
