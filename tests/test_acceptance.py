"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output); the asserts carry the same conditions.
"""
import math
import time
from fractions import Fraction as F

import numpy as np

from czkit.admissibility import check_maximal_control
from czkit.exact import SymScalar, gamma_half_integer, riesz_multiplier
from czkit.experiments import (
    GROWTH_X,
    LLOGL_T,
    WEAK11_LAM,
    _transform_grid_2d,
    exp_beurling_composition,
    exp_counterexample_growth,
    exp_llogl_modular,
    exp_pointwise_ratios,
    exp_weak11_failure,
)
from czkit.gridops import GridFunction, hardy_littlewood
from czkit.identities import run_identity_suite, verify_series_stabilization
from czkit.kernels import kernel_from_polynomial
from czkit.polyalg import MultiPoly
from oracles import bessel_ratio_coeff_scaled, bessel_ratio_float, hilbert_truncated_many, is_real


def _report(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num}: {label}: {status}{tail}", flush=True)


def harmonic_cubic(n=2):
    return MultiPoly.monomial(n, (3, 0) + (0,) * (n - 2)) - MultiPoly.monomial(
        n, (1, 2) + (0,) * (n - 2), 3
    )


def model_kernel(n, lam: F):
    w = MultiPoly.variable(n, 0) * MultiPoly.radius2(n) + harmonic_cubic(n) * (lam * (n + 1))
    return kernel_from_polynomial(n, w)


def test_criterion_1_exact_identity_suite():
    start = time.time()
    results = list(run_identity_suite(5, 6))
    elapsed = time.time() - start
    failures = [r for r in results if not r.ok]
    ok = not failures and elapsed < 300.0
    _report(1, "exact identity suite n<=5 N<=6, zero tolerance", ok, f"{len(results)} checks in {elapsed:.1f}s")
    assert not failures
    assert elapsed < 300.0
    assert [r.params for r in results if r.name == "triple-binomial"] == ["200 random tuples"]


def test_criterion_2_series_stabilization():
    ok = all(verify_series_stabilization(n, p) for n in (2, 3) for p in range(5))
    _report(2, "series coefficients stabilize and match the closed form", ok)
    assert ok


def test_criterion_3_admissibility_decisions():
    ok = True
    details = []
    for n in (2, 3):
        rep = check_maximal_control(model_kernel(n, F(1)))
        good = (
            rep.verdict == "FAIL(vanishing)"
            and rep.witness_value < 1e-10
            and abs(abs(rep.witness[0]) - 1.0) < 1e-9
            and all(abs(c) < 1e-9 for c in rep.witness[1:])
        )
        ok &= good
        details.append(f"n={n} lam=1 {rep.verdict}")
        rep = check_maximal_control(model_kernel(n, F(1, 2)))
        good = rep.verdict == "PASS" and rep.certified_min > 0 and rep.depth_used <= 14
        ok &= good
        details.append(f"n={n} lam=1/2 {rep.verdict}")
    rep = check_maximal_control(kernel_from_polynomial(2, harmonic_cubic()))
    ok &= rep.verdict == "PASS"
    details.append(f"single-layer {rep.verdict}")
    _report(3, "degenerate model fails, half-strength model certified", ok, "; ".join(details))
    assert ok


def test_criterion_4_multiplier_arithmetic():
    ratio_ok = all(
        riesz_multiplier(3, n) / riesz_multiplier(1, n) == SymScalar(F(-1, n + 1))
        for n in range(2, 9)
    )
    parity_ok = all(
        is_real(riesz_multiplier(j, n)) == (j % 2 == 0) for n in (2, 3, 4) for j in range(1, 13)
    )
    _report(4, "multiplier ratio -1/(n+1) and parity", ratio_ok and parity_ok)
    assert ratio_ok and parity_ok


def test_criterion_5_counterexample_reproduction():
    assert GROWTH_X == (10.0, 100.0, 1000.0, 10000.0)
    assert WEAK11_LAM == (1e-2, 1e-3, 1e-4)
    assert LLOGL_T == (1.0, 0.1, 0.01, 1e-3)
    growth = exp_counterexample_growth()
    weak = exp_weak11_failure()
    modular = exp_llogl_modular()
    ok_growth = bool(growth.summary["within_bracket"])
    ok_weak = bool(weak.summary["monotone_growth"]) and weak.summary["growth_ratio"] >= 2.0
    ok_modular = bool(modular.summary["bounded"])
    ok = ok_growth and ok_weak and ok_modular
    _report(
        5,
        "log-growth bracket, weak-(1,1) failure, modular bound",
        ok,
        f"ratio in [{growth.summary['ratio_min']:.3f},{growth.summary['ratio_max']:.3f}], "
        f"weak growth {weak.summary['growth_ratio']:.2f}x, "
        f"modular ratio <= {modular.summary['ratio_max']:.2f}",
    )
    assert ok_growth and ok_weak and ok_modular


def test_criterion_6_pointwise_regression():
    coarse = exp_pointwise_ratios("hilbert", mesh=1.0 / 128)
    fine = exp_pointwise_ratios("hilbert", mesh=1.0 / 256)
    s2c, s2f = coarse.summary["sup_ratio_m2"], fine.summary["sup_ratio_m2"]
    ok_h = abs(s2f - s2c) / s2c <= 0.2

    bc = exp_pointwise_ratios("beurling", mesh=1.0 / 16)
    bf = exp_pointwise_ratios("beurling", mesh=1.0 / 32)
    ok_b = abs(bf.summary["sup_ratio"] - bc.summary["sup_ratio"]) / bc.summary["sup_ratio"] <= 0.2

    # the target mesh is twice the source mesh: 1/8 over 1/16, 1/16 over 1/32
    for src, tgt in ((1.0 / 16, 1.0 / 8), (1.0 / 32, 1.0 / 16)):
        assert _transform_grid_2d(GridFunction((0.0, 0.0), src, np.ones((1, 1)))).h == tgt
    cc = exp_beurling_composition(mesh=1.0 / 16)
    cf = exp_beurling_composition(mesh=1.0 / 32)
    drifts = [
        abs(cf.summary[f"sup_{k}"] - cc.summary[f"sup_{k}"]) / cc.summary[f"sup_{k}"]
        for k in ("disk", "steps")
    ]
    ok_c = all(d <= 0.2 for d in drifts)
    ok = ok_h and ok_b and ok_c
    _report(
        6,
        "control ratios stable within 20% under refinement",
        ok,
        f"hilbert {abs(s2f - s2c) / s2c:.3f}, beurling "
        f"{abs(bf.summary['sup_ratio'] - bc.summary['sup_ratio']) / bc.summary['sup_ratio']:.3f}, "
        f"composition {max(drifts):.3f}",
    )
    assert ok_h and ok_b and ok_c
    # adversarial family blows the middle ratio up across the window sweep
    assert coarse.summary["adversarial_monotone"]
    assert coarse.summary["adversarial_growth"] >= 2.0


def test_criterion_7_bessel_bridge():
    series_ok = all(
        abs(bessel_ratio_float(F(1, 2), r, terms=30) - math.sqrt(2 / math.pi) * math.sin(r) / r)
        < 1e-12
        for r in (0.1, 1.0, 5.0)
    )
    zero_ok = all(
        bessel_ratio_coeff_scaled(F(tq, 2), 0)
        == SymScalar(F(1)) / gamma_half_integer(F(tq, 2) + 1)
        for tq in range(1, 13)
    )
    _report(7, "power series matches the closed radial profile", series_ok and zero_ok)
    assert series_ok and zero_ok


def test_criterion_8_operator_exactness():
    vals = []
    for h in (1.0 / 16, 1.0 / 64, 1.0 / 256):
        f = GridFunction.indicator_1d(0.0, 1.0, h)
        vals.append(hilbert_truncated_many(f, 2.0, [0.5])[0].item())
    refine_ok = max(abs(v - vals[0]) for v in vals) < 1e-12
    f = GridFunction.indicator_1d(0.0, 1.0, 1.0 / 8)
    maximal_ok = abs(hardy_littlewood(f, 2.0) - 0.5) < 1e-12
    _report(8, "truncation exactness and the maximal average value", refine_ok and maximal_ok)
    assert refine_ok and maximal_ok
