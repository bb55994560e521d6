"""Kernel specifications: construction, validation, multiplier evaluation."""
import math
from fractions import Fraction as F

import numpy as np
import pytest

from czkit.kernels import (
    KernelError,
    KernelSpec,
    kernel_from_polynomial,
    parse_kernel_spec,
)
from czkit.polyalg import HarmonicComponent, MultiPoly
from oracles import degrees, multiplier_eval, omega


def harmonic_cubic(n=2):
    return MultiPoly.monomial(n, (3, 0) + (0,) * (n - 2)) - MultiPoly.monomial(
        n, (1, 2) + (0,) * (n - 2), 3
    )


def model_numerator(n, lam: F):
    """x1 |x|^2 + lam (n+1) (x1^3 - 3 x1 x2^2), layers x1 and the cubic."""
    return MultiPoly.variable(n, 0) * MultiPoly.radius2(n) + harmonic_cubic(n) * (lam * (n + 1))


def test_single_layer_kernel():
    k = kernel_from_polynomial(2, MultiPoly.variable(2, 0))
    assert k.parity == "odd"
    assert degrees(k) == [1]
    assert k.components[0].poly == MultiPoly.variable(2, 0)


def test_model_family_layers():
    for n in (2, 3):
        k = kernel_from_polynomial(n, model_numerator(n, F(1)))
        assert degrees(k) == [1, 3]
        assert k.components[0].poly == MultiPoly.variable(n, 0)
        assert k.components[1].poly == harmonic_cubic(n) * (n + 1)


def test_nonzero_mean_rejected_with_value():
    with pytest.raises(KernelError, match="1/2"):
        kernel_from_polynomial(2, MultiPoly.monomial(2, (2, 0)))


def test_sphere_restriction_reproduces_numerator():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        w = model_numerator(n, F(1, 2))
        k = kernel_from_polynomial(n, w)
        on_sphere = omega(k)
        pts = rng.standard_normal((100, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        got = on_sphere.float_evaluator()(pts)
        want = w.float_evaluator()(pts)
        assert np.max(np.abs(got - want)) < 1e-12


def test_parity_flag_matches_pointwise_symmetry():
    rng = np.random.default_rng(11)
    k = kernel_from_polynomial(2, model_numerator(2, F(1, 3)))
    odd = omega(k).float_evaluator()
    pts = rng.standard_normal((100, 2))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.max(np.abs(odd(pts) + odd(-pts))) < 1e-12
    even = kernel_from_polynomial(2, MultiPoly.monomial(2, (2, 0)) - MultiPoly.monomial(2, (0, 2)))
    assert even.parity == "even"
    ev = omega(even).float_evaluator()
    assert np.max(np.abs(ev(pts) - ev(-pts))) < 1e-12


def test_multiplier_first_riesz():
    k = kernel_from_polynomial(2, MultiPoly.variable(2, 0))
    assert abs(multiplier_eval(k, (1.0, 0.0)) - (-2j * math.pi)) < 1e-13
    # normalization is internal
    assert abs(multiplier_eval(k, (5.0, 0.0)) - (-2j * math.pi)) < 1e-13


def test_multiplier_vanishes_for_degenerate_model():
    for n in (2, 3):
        k = kernel_from_polynomial(n, model_numerator(n, F(1)))
        xi = (1.0,) + (0.0,) * (n - 1)
        assert abs(multiplier_eval(k, xi)) < 1e-12


def test_multiplier_parity():
    rng = np.random.default_rng(3)
    odd = kernel_from_polynomial(2, model_numerator(2, F(2, 5)))
    even = kernel_from_polynomial(2, MultiPoly.monomial(2, (2, 0)) - MultiPoly.monomial(2, (0, 2)))
    for _ in range(20):
        xi = rng.standard_normal(2)
        xi /= np.linalg.norm(xi)
        m_odd = multiplier_eval(odd, xi)
        assert abs(m_odd.real) < 1e-12
        assert abs(m_odd + multiplier_eval(odd, -xi)) < 1e-12
        assert abs(multiplier_eval(even, xi).imag) < 1e-12
    with pytest.raises(KernelError):
        multiplier_eval(odd, (0.0, 0.0))


def test_degree_zero_layer_forbidden():
    with pytest.raises(KernelError):
        KernelSpec.from_components(2, [])
    odd = HarmonicComponent(1, MultiPoly.variable(2, 0))
    with pytest.raises(KernelError, match="^nonzero sphere mean: -3/2$"):
        KernelSpec.from_components(2, [odd, HarmonicComponent(0, MultiPoly.constant(2, F(-3, 2)))])


def test_mixed_parity_flag():
    odd = HarmonicComponent(1, MultiPoly.variable(2, 0))
    even = HarmonicComponent(
        2, MultiPoly.monomial(2, (2, 0)) - MultiPoly.monomial(2, (0, 2))
    )
    assert KernelSpec.from_components(2, [odd, even]).parity == "mixed"
    with pytest.raises(KernelError):
        KernelSpec.from_components(2, [odd, odd])  # duplicate degree


def test_kernel_file_parsing():
    text = """
    # model kernel
    dim 2
    1 3 0
    -3 1 2
    """
    k = parse_kernel_spec(text)
    assert k.dim == 2 and degrees(k) == [3] and k.parity == "odd"
    with pytest.raises(KernelError):
        parse_kernel_spec("1 1 0\n")  # missing dim line
