"""Exact scalar ring: Gamma, generalized binomials, multiplier constants."""
import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest

from czkit.exact import (
    SymScalar,
    _scalar,
    binomial,
    fundamental_normalization,
    gamma_half_integer,
    gamma_product,
    riesz_multiplier,
)
from oracles import is_real, to_complex, to_float


def test_gamma_defining_values():
    assert gamma_half_integer(F(1, 2)) == SymScalar(F(1), 1, 0)
    assert gamma_half_integer(3) == SymScalar(F(2))
    assert gamma_half_integer(F(5, 2)) == SymScalar(F(3, 4), 1, 0)


def test_gamma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gamma_half_integer(0)
    with pytest.raises(ValueError):
        gamma_half_integer(F(-3, 2))
    with pytest.raises(ValueError):
        gamma_half_integer(F(1, 3))


def test_gamma_functional_equation():
    for twice in range(1, 40):
        a = F(twice, 2)
        assert gamma_half_integer(a + 1) == SymScalar(a) * gamma_half_integer(a)


def test_binomial_values():
    assert binomial(F(-1, 2), 2) == F(3, 8)
    assert binomial(5, 2) == 10
    assert binomial(2, 5) == 0
    assert binomial(F(7, 3), 0) == 1


def test_binomial_rejects_a_float():
    # a float is refused, also after the equal int was asked for
    assert binomial(5, 2) == 10
    with pytest.raises(TypeError):
        binomial(5.0, 2)


def _gamma_by_recurrence(twice):
    """Gamma(twice/2) from Gamma(1) = 1 or Gamma(1/2) = sqrt(pi) and Gamma(a+1) = a Gamma(a)."""
    value = SymScalar(F(1), twice % 2)
    for t in range(2 - twice % 2, twice, 2):
        value = value * F(t, 2)
    return value


def test_gamma_product_on_the_factorial_table():
    for t in range(1, 81):
        assert gamma_product((t,)) == gamma_half_integer(F(t, 2)) == _gamma_by_recurrence(t)
        assert gamma_product((), (t,), 3, 1, 1) == SymScalar(F(3), 1, 1) / _gamma_by_recurrence(t)
    # C(x, k) = Gamma(x+1) / (k! Gamma(x-k+1)) wherever both Gamma arguments are positive
    for twice_x in range(-1, 81):
        for k in range(41):
            if twice_x - 2 * k + 2 > 0:
                want = SymScalar(binomial(F(twice_x, 2), k))
                assert gamma_product((twice_x + 2,), (2 * k + 2, twice_x - 2 * k + 2)) == want
    for bad in (0, -1, -4, F(1, 3), F(5, 2)):
        with pytest.raises(ValueError):
            gamma_product((bad,))
        with pytest.raises(ValueError):
            gamma_product((2,), (bad,))


def _reduced(num, den, h, k):
    """The oracle: num/den sqrt(pi)^h i^k as (q, h, k), q a reduced Fraction, k in {0, 1}, zero as (0, 0, 0)."""
    q = F(num, den) * (-1 if k % 4 >= 2 else 1)
    return (q, h, k % 2) if q else (F(0), 0, 0)


def _random_unreduced(rng):
    """(num, den, h, k): a small rational with numerator and denominator times one nonzero integer of either sign."""
    g = rng.choice((1, -1)) * rng.randrange(1, 9)
    return rng.randrange(-3, 4) * g, rng.randrange(1, 4) * g, rng.randrange(-1, 2), rng.randrange(4)


def test_cross_multiplied_equality_agrees_with_symscalar():
    rng = random.Random(23)
    seen = set()
    for _ in range(5000):
        x, y = _random_unreduced(rng), _random_unreduced(rng)
        a, b = _scalar(*x), _scalar(*y)
        (qa, ha, ka), (qb, hb, kb) = _reduced(*x), _reduced(*y)
        assert (a.q, a.h, a.k) == (qa, ha, ka) and a.den > 0 and a.num * qa.denominator == qa.numerator * a.den
        assert (a == b) == ((qa, ha, ka) == (qb, hb, kb)), (x, y)
        assert hash(a) == hash(SymScalar(qa, ha, ka)) and repr(a) == repr(SymScalar(qa, ha, ka))
        assert a != b or hash(a) == hash(b)
        assert a * b == SymScalar(qa * qb, ha + hb, ka + kb)
        if qb:
            assert a / b == SymScalar(qa / qb, ha - hb, ka - kb)
        seen.add((a == b, qa == 0, x[2:] == y[2:], (x[3] - y[3]) % 2, x[1] < 0))
    # equal and unequal pairs, zeros, shared and differing bases, i powers of both parities, negated denominators
    assert {e for e, *_ in seen} == {True, False} and (True, True, False, 1, True) in seen
    assert (True, False, False, 0, True) in seen and (False, False, False, 1, False) in seen  # i^2 = -1 folded
    assert repr(_scalar(6, -4, 1, 3)) == "SymScalar(3/2 * sqrt(pi)^1 * i^1)"
    assert repr(_scalar(0, -4, 1, 1)) == "SymScalar(0)"
    for _ in range(200):
        h, k = rng.randrange(-2, 3), rng.randrange(4)
        terms = [_random_unreduced(rng)[:2] for _ in range(rng.randrange(1, 6))]
        got = sum((_scalar(num, den, h, k) for num, den in terms), SymScalar.zero())
        assert got == SymScalar(sum((F(num, den) for num, den in terms), F(0)), h, k)
    with pytest.raises(ValueError):
        _scalar(1, 2, 1, 0) + _scalar(1, 2, 0, 0)
    with pytest.raises(ValueError):
        _scalar(1, 2, 0, 1) + _scalar(-3, 2, 0, 2)
    with pytest.raises(AttributeError):  # immutable, like a Fraction
        _scalar(1, 2, 0, 0).num = 3
    x = _scalar(6, -4, 1, 3)
    assert pickle.loads(pickle.dumps(x)) == copy.deepcopy(x) == x and copy.copy(x).den == 4
    # 5/7 sqrt(pi)^2 i Gamma(3/2) / Gamma(1), with Gamma(3/2) = 2!/(4 1!) sqrt(pi) from the table: not reduced
    g = gamma_product((3,), (2,), F(5, 7), 2, 1)
    assert (g.num, g.den, g.h, g.k) == (10, 28, 3, 1) and g.q == F(5, 14)


def test_multiplier_and_normalization_match_the_gamma_chains():
    g = gamma_half_integer
    for n in range(2, 10):
        assert fundamental_normalization(n) == g(F(n - 1, 2)) * SymScalar(F(1, 2), -n) / g(F(1, 2))
        for d in range(1, 13):
            ratio = g(F(d, 2)) / g(F(n + d, 2))
            assert riesz_multiplier(d, n) == SymScalar(ratio.q, ratio.h + n, ratio.k - d)


def test_binomial_pascal_rule_randomized():
    rng = random.Random(12345)
    for _ in range(1000):
        a = F(rng.randrange(-40, 41), rng.choice((1, 2)))
        m = rng.randrange(1, 21)
        assert binomial(a, m) == binomial(a - 1, m) + binomial(a - 1, m - 1)


def test_scalar_multiplication_commutative_associative():
    rng = random.Random(99)
    for _ in range(200):
        xs = [
            SymScalar(F(rng.randrange(-9, 10), rng.randrange(1, 7)), rng.randrange(-3, 4), rng.randrange(4))
            for _ in range(3)
        ]
        a, b, c = xs
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_scalar_addition_rules():
    a = SymScalar(F(1, 2), 2, 1)
    b = SymScalar(F(1, 3), 2, 1)
    assert a + b == SymScalar(F(5, 6), 2, 1)
    assert a + SymScalar.zero() == a
    with pytest.raises(ValueError):
        a + SymScalar(F(1), 1, 1)


def test_scalar_canonical_zero_and_i_square_folding():
    assert SymScalar(F(0), 5, 3) == SymScalar.zero()
    # i^2 = -1 folds into the sign, so representations agree as numbers
    assert SymScalar(F(2), 2, 3) == SymScalar(F(-2), 2, 1)
    assert SymScalar(F(1), 0, 2) == SymScalar(F(-1))


def test_multiplier_constant_values():
    g1 = riesz_multiplier(1, 2)
    assert g1 == SymScalar(F(2), 2, 3)  # -2 pi i
    assert abs(to_complex(g1) - (-2j * math.pi)) < 1e-14
    g2 = riesz_multiplier(2, 2)
    assert g2 == SymScalar(F(1), 2, 2)  # -pi
    assert abs(to_complex(g2) + math.pi) < 1e-14


def test_multiplier_third_to_first_ratio():
    for n in range(2, 9):
        assert riesz_multiplier(3, n) / riesz_multiplier(1, n) == SymScalar(F(-1, n + 1))


def test_multiplier_parity():
    for n in (2, 3, 5):
        for j in range(1, 13):
            g = riesz_multiplier(j, n)
            assert is_real(g) == (j % 2 == 0)


def test_fundamental_normalization_values():
    assert fundamental_normalization(2) == SymScalar(F(1, 2), -2, 0)  # 1/(2 pi)
    assert fundamental_normalization(3) == SymScalar(F(1, 2), -4, 0)  # 1/(2 pi^2)
    assert fundamental_normalization(5) == SymScalar(F(1, 2), -6, 0)  # 1/(2 pi^3)


def test_float_bridge():
    assert abs(to_float(SymScalar(F(1, 2), -2, 0)) - 1 / (2 * math.pi)) < 1e-16
    with pytest.raises(ValueError):
        to_float(SymScalar(F(1), 0, 1))


def test_sum_canonicalization_and_zero():
    s = SymScalar(F(1), 1, 1) - SymScalar(F(1), 1, 1)
    assert not s and s == SymScalar.zero()
    assert s + SymScalar.zero() == SymScalar.zero()
    with pytest.raises(ValueError):
        SymScalar(F(1)) + SymScalar(F(1), 1, 0)
