"""The divisor/non-vanishing decision procedure."""
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from czkit import admissibility
from czkit.admissibility import (
    _SLACK,
    Cells,
    CheckReport,
    _Bounds,
    _center_error,
    _evaluate,
    _exclusion_cap,
    _quadratic_certificate,
    _rational_point,
    _rounding_bound,
    _sign_or_witness,
    certify_nonvanishing,
    check_maximal_control,
    quotient_sum,
    sphere_grid,
)
from czkit.exact import SymScalar, riesz_multiplier
from czkit.kernels import KernelError, kernel_from_polynomial, parse_kernel_spec
from czkit.polyalg import MultiPoly, harmonic_decompose
from oracles import _positive_definite, cap_derivatives, sphere_mean, spherical_gradient_bound


def harmonic_cubic(n=2):
    return MultiPoly.monomial(n, (3, 0) + (0,) * (n - 2)) - MultiPoly.monomial(
        n, (1, 2) + (0,) * (n - 2), 3
    )


def model_kernel(n, lam: F):
    w = MultiPoly.variable(n, 0) * MultiPoly.radius2(n) + harmonic_cubic(n) * (lam * (n + 1))
    return kernel_from_polynomial(n, w)


def tree_report(kernel):
    """The report of the sign certifier on the kernel's quotient sum F, as `check_maximal_control`
    gives it when F has a term of degree 4 or more."""
    cert = certify_nonvanishing(quotient_sum(kernel)[0])
    return CheckReport(**vars(cert), dim=kernel.dim, divisor=kernel.components[0], divisibility_ok=True)


def quadratic_form(f, x):
    """x^T M x for F = a + x^T B x and M = aI + B, exactly at the float point x."""
    x = [F(t) for t in x]
    return f.eval_exact(x) + f.terms.get((0,) * len(x), 0) * (sum(t * t for t in x) - 1)


def assert_exact_sign_pair(rep, f):
    plus, minus = rep.sign_pair
    assert quadratic_form(f, minus) < 0 < quadratic_form(f, plus)
    assert rep.witness_value < 1e-10 and abs(np.linalg.norm(rep.witness) - 1.0) < 1e-15


def test_degenerate_model_fails_with_axis_witness():
    # the tree tests the facet center e1 for an exact zero; the exact path finds e1 as a null vector of M
    for n in (2, 3):
        kernel = model_kernel(n, F(1))
        for rep, reason in ((tree_report(kernel), "exact-zero"), (check_maximal_control(kernel), "exact")):
            assert rep.verdict == "FAIL(vanishing)" and rep.stop_reason == reason
            assert abs(abs(rep.witness[0]) - 1.0) < 1e-12
            assert all(abs(c) < 1e-12 for c in rep.witness[1:])
            assert rep.witness_value == 0.0


def test_half_strength_model_passes_with_certificate():
    for n in (2, 3):
        rep = tree_report(model_kernel(n, F(1, 2)))
        assert rep.verdict == "PASS" and rep.stop_reason == "certified"
        assert rep.certified_min > 0
        assert rep.depth_used <= 14
        # exactly: min |F| = |F(e1)| = 2 - 2 lam at n = 2, 1/2 at n = 3, without a tree
        rep = check_maximal_control(model_kernel(n, F(1, 2)))
        assert rep.verdict == "PASS" and rep.stop_reason == "exact" and rep.depth_used == 0
        least = 1.0 if n == 2 else 0.5
        assert least * (1 - 1e-12) < rep.certified_min <= least


def test_single_layer_kernel_passes_trivially():
    kernel = kernel_from_polynomial(2, harmonic_cubic())
    # the one quotient is 1, so F is the constant gamma_3
    assert quotient_sum(kernel) == (MultiPoly.constant(2, riesz_multiplier(3, 2).q), None)
    for rep in (check_maximal_control(kernel), tree_report(kernel)):
        assert rep.verdict == "PASS"
        assert abs(rep.certified_min - 2.0 / 3.0) < 1e-12  # |gamma_3| rational part


def test_mirrored_model_vanishes_on_diagonals():
    # the quotient sum 1 + (x1^2 - 3 x2^2) has zeros at x2^2 = 1/2 (n = 2): the tree sees F change sign
    # between the facet centers and bisects, the exact path solves along the arc from e1 to e2
    rep = tree_report(model_kernel(2, F(-1)))
    assert rep.verdict == "FAIL(vanishing)" and rep.stop_reason == "sign-change"
    assert abs(abs(rep.witness[0]) - 2 ** -0.5) < 1e-12
    assert rep.witness_value < 1e-10
    rep = check_maximal_control(model_kernel(2, F(-1)))
    assert rep.verdict == "FAIL(vanishing)" and rep.stop_reason == "exact"
    assert rep.sign_pair == ((0.0, 1.0), (1.0, 0.0))
    assert np.allclose(np.abs(rep.witness), 2**-0.5, rtol=0.0, atol=1e-15)
    assert rep.witness_value < 1e-10


def test_weak_mirrored_model_fails_with_sign_change(monkeypatch):
    # at lam = -1/2 the sum -3 + 4 x2^2 vanishes at x2^2 = 3/4, off every
    # dyadic point; F(0, 1) = 1 and F(1, 0) = -3 certify the zero
    for depth in (6, 12):
        monkeypatch.setattr(admissibility, "MAX_DEPTH", depth)
        rep = tree_report(model_kernel(2, F(-1, 2)))
        assert rep.verdict == "FAIL(vanishing)"
        assert rep.stop_reason == "sign-change"
        f = quotient_sum(model_kernel(2, F(-1, 2)))[0].float_evaluator()
        plus, minus = (np.array([pt]) for pt in rep.sign_pair)
        assert f(plus)[0] > rep.rounding_bound and f(minus)[0] < -rep.rounding_bound
        assert abs(rep.witness[1] ** 2 - 0.75) < 1e-9
        assert abs(np.hypot(*rep.witness) - 1.0) < 1e-15
        assert rep.witness_value < 1e-10
        assert rep.certified_min is None
    assert "F < -rho at" in rep.format_text()
    assert "sign_pair=" in rep.format_kv()
    # exactly: e2 and e1 are the sign pair, and the witness solves -3 + 4 x2^2 = 0 in closed form
    f = quotient_sum(model_kernel(2, F(-1, 2)))[0]
    rep = check_maximal_control(model_kernel(2, F(-1, 2)))
    assert rep.verdict == "FAIL(vanishing)" and rep.stop_reason == "exact"
    assert rep.sign_pair == ((0.0, 1.0), (1.0, 0.0)) and rep.rounding_bound == 0.0
    assert_exact_sign_pair(rep, f)
    assert abs(rep.witness[1] ** 2 - 0.75) < 1e-15 and rep.certified_min is None
    assert "F < -rho at" in rep.format_text() and "level " not in rep.format_text()
    assert "sign_pair=0.0,1.0;1.0,0.0\n" in rep.format_kv()
    # F = (x1^2 - 2 x2^2)^2 - |x|^4/10^5 is negative only in thin wedges about the irrational lines
    # x1 = +-sqrt(2) x2: depth 6 stops short of a verdict, and depths 12 and 20 find one sign pair
    x1, x2, r2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1), MultiPoly.radius2(2)
    q = x1 * x1 - x2 * x2 * 2
    f = q * q - r2 * r2 * F(1, 10**5)
    monkeypatch.setattr(admissibility, "MAX_DEPTH", 6)
    shallow = certify_nonvanishing(f)
    assert (shallow.verdict, shallow.stop_reason, shallow.depth_used, shallow.grid_points, len(shallow.caps)) == (
        "INCONCLUSIVE", "depth-cap", 6, 172, 4)
    deep = []
    for depth in (12, 20):
        monkeypatch.setattr(admissibility, "MAX_DEPTH", depth)
        deep.append(certify_nonvanishing(f))
    assert {(c.verdict, c.stop_reason, c.depth_used, c.grid_points, len(c.caps), c.sign_pair) for c in deep} == {
        ("FAIL(vanishing)", "sign-change", 8, 244, 4, deep[0].sign_pair)
    }
    plus, minus = (np.array([pt]) for pt in deep[0].sign_pair)
    ev = f.float_evaluator()
    assert ev(plus)[0] > deep[0].rounding_bound and ev(minus)[0] < -deep[0].rounding_bound


def test_verdicts_stable_under_grid_deepening(monkeypatch):
    def at_depth(report, kernel, depth):
        monkeypatch.setattr(admissibility, "MAX_DEPTH", depth)
        return report(kernel)

    for lam, expected in ((F(0), "PASS"), (F(1, 2), "PASS"), (F(1), "FAIL(vanishing)"), (F(-1), "FAIL(vanishing)")):
        k = (
            kernel_from_polynomial(2, MultiPoly.variable(2, 0))
            if lam == 0
            else model_kernel(2, lam)
        )
        verdicts = {at_depth(tree_report, k, d).verdict for d in (6, 12)}
        assert verdicts == {expected}
        # the exact path does not read the depth
        reports = [at_depth(check_maximal_control, k, d) for d in (0, 6, 12)]
        assert {(rep.verdict, rep.stop_reason, rep.certified_min, rep.witness) for rep in reports} == {
            (expected, "exact", reports[0].certified_min, reports[0].witness)
        }
    # F = (x1^2 - 2 x2^2)^2 + |x|^4/1000 > 0 is smallest on the irrational lines x1 = +-sqrt(2) x2:
    # depth 6 stops short of a verdict, and depths 12 and 20 give one certificate
    x1, x2, r2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1), MultiPoly.radius2(2)
    q = x1 * x1 - x2 * x2 * 2
    f = q * q + r2 * r2 * F(1, 1000)
    shallow = at_depth(certify_nonvanishing, f, 6)
    assert (shallow.verdict, shallow.stop_reason, shallow.grid_points, len(shallow.caps)) == (
        "INCONCLUSIVE", "depth-cap", 172, 4)
    deep = [at_depth(certify_nonvanishing, f, d) for d in (12, 20)]
    assert {(c.verdict, c.depth_used, c.grid_points, len(c.caps), c.certified_min) for c in deep} == {
        ("PASS", 8, 228, 4, deep[0].certified_min)
    }
    assert 0 < deep[0].certified_min < 1e-3


def test_higher_degree_divisor_family():
    # planar family with lowest layer of degree 3: the degree-9 harmonic
    # (real part of z^9) factors through the degree-3 one (real part of z^3)
    # with quotient 4 P3^2 - 3 |x|^6, and the multiplier ratio is -1/3, so
    # weight b = 3 degenerates at the axis while b = 1 is certified
    assert riesz_multiplier(9, 2) / riesz_multiplier(3, 2) == SymScalar(F(-1, 3))
    p3 = harmonic_cubic(2)
    r6 = MultiPoly.radius_power(2, 3)
    p9 = p3 * (p3 * p3 * 4 - r6 * 3)
    from czkit.polyalg import laplacian

    assert laplacian(p9).is_zero()
    for b, expect in ((F(1), "PASS"), (F(3), "FAIL(vanishing)")):
        w = p3 * r6 + p9 * b
        kernel = kernel_from_polynomial(2, w)
        rep = check_maximal_control(kernel)
        assert rep.verdict == expect, (b, rep.verdict)
        assert rep.divisor.degree == 3
        # F = gamma_3 + gamma_9 q = gamma_3 (1 - q / 3) for the quotient q = (4 P3^2 - 3 |x|^6) b
        assert quotient_sum(kernel)[0] == (
            MultiPoly.constant(2, 1) - (p3 * p3 * 4 - r6 * 3) * (b / 3)) * riesz_multiplier(3, 2).q
        if expect == "PASS":
            assert rep.certified_min > 0
        else:
            assert abs(abs(rep.witness[0]) - 1.0) < 1e-9


def test_divisibility_failure_reported():
    other = MultiPoly.monomial(2, (0, 3)) - MultiPoly.monomial(2, (2, 1), 3)
    w = MultiPoly.variable(2, 0) * MultiPoly.radius2(2) + other
    rep = check_maximal_control(kernel_from_polynomial(2, w))
    assert rep.verdict == "FAIL(divisibility)"
    assert rep.failed_degree == 3
    assert not rep.divisibility_ok


def test_quotients_recovered_for_constructed_kernels():
    rng = random.Random(17)
    for _ in range(20):
        lam = F(rng.randrange(-8, 9), rng.randrange(1, 5))
        if lam == 0 or abs(lam) >= 1:
            continue
        k = model_kernel(2, lam)
        f, failed = quotient_sum(k)
        assert failed is None
        # the quotients are 1 and 3 lam (x1^2 - 3 x2^2), weighted by gamma_1 and gamma_3
        want = (
            MultiPoly.monomial(2, (2, 0)) - MultiPoly.monomial(2, (0, 2), 3)
        ) * (lam * 3)
        gamma = [riesz_multiplier(d, 2).q for d in (1, 3)]
        assert f == MultiPoly.constant(2, gamma[0]) + want * gamma[1]


def test_verdict_invariant_under_kernel_scaling():
    base = model_kernel(2, F(1, 2))
    w = (
        MultiPoly.variable(2, 0) * MultiPoly.radius2(2)
        + harmonic_cubic(2) * F(3, 2)
    ) * F(-7, 5)
    scaled = kernel_from_polynomial(2, w)
    assert check_maximal_control(base).verdict == check_maximal_control(scaled).verdict == "PASS"
    assert tree_report(base).verdict == tree_report(scaled).verdict == "PASS"


def test_even_kernel_rejected():
    even = kernel_from_polynomial(2, MultiPoly.monomial(2, (2, 0)) - MultiPoly.monomial(2, (0, 2)))
    with pytest.raises(ValueError):
        check_maximal_control(even)


def test_constant_layer_is_the_sphere_mean_and_lip_is_the_gradient_bound():
    # the degree-0 harmonic layer of a form is its sphere mean (every other layer averages to 0),
    # which kernel construction refuses by value; the cell test's lip is the gradient-bound oracle
    rng = random.Random(28)
    for trial in range(240):
        n, d = rng.randint(2, 4), trial % 7
        monos = [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d]
        w = MultiPoly(n, {m: F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                          for m in rng.sample(monos, min(len(monos), rng.randint(1, 4)))})
        if d % 2 == 0 and trial % 3 == 0:
            w = w - MultiPoly.radius_power(n, d // 2) * sphere_mean(w)  # zero mean, and possibly zero
        mean = sphere_mean(w)
        layers = [h for _, h in harmonic_decompose(w)]
        assert sum((h.terms[(0,) * n] for h in layers if h.homogeneous_degree() == 0), F(0)) == mean
        if mean:
            with pytest.raises(KernelError, match=f"^nonzero sphere mean: {mean}$"):
                kernel_from_polynomial(n, w)
        elif not w.is_zero():
            assert kernel_from_polynomial(n, w).components[0].degree > 0
    for n in (2, 3, 4):
        for lam in (F(1), F(1, 2), F(-1), F(-1, 2), F(2)):
            f = quotient_sum(model_kernel(n, lam))[0]
            assert _Bounds(f).lip == spherical_gradient_bound(f)


def test_gradient_bound_examples():
    assert spherical_gradient_bound(MultiPoly.constant(2, 5)) == 0.0
    assert abs(spherical_gradient_bound(MultiPoly.variable(2, 0)) - 1.0) < 1e-12
    f = MultiPoly.monomial(2, (2, 0)) - MultiPoly.monomial(2, (0, 2), 3)
    assert abs(spherical_gradient_bound(f) - 8.0) < 1e-9


def _angle(a, b):
    return 2.0 * np.arcsin(np.minimum(1.0, np.linalg.norm(a - b, axis=-1) / 2.0))


def test_cube_sphere_cover_radius_and_axis_centers():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        root = Cells.root(n)
        centers, radii = sphere_grid(root)
        axes = np.concatenate([np.eye(n)[i : i + 1] * s for i in range(n) for s in (1, -1)])
        assert np.array_equal(centers, axes)
        assert np.allclose(radii, np.arccos(1 / np.sqrt(n)))
        cells = root
        for depth in range(1, 9):
            cells = cells.split()
            assert len(cells) <= 2 * n * 2 ** ((n - 1) * depth)
            assert cells.depth == depth
            cells = cells.take(rng.choice(len(cells), size=min(len(cells), 64), replace=False))
            centers, radii = sphere_grid(cells)
            # points of the box, and points of its edges, seen from the center
            for trial in range(40):
                t = rng.uniform(-1.0, 1.0, size=cells.u.shape)
                if trial % 2:
                    t[:, 0] = np.sign(t[:, 0])
                pts = cells.embed(cells.u + t * cells.half_width)
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                assert np.all(_angle(centers, pts) <= radii)
    # the facets cover the sphere: every point lies in the box of its largest coordinate
    x = rng.standard_normal((1000, 3))
    face = np.argmax(np.abs(x), axis=1)
    scaled = x / np.abs(x[np.arange(1000), face])[:, None]
    assert np.all(np.abs(scaled) <= 1.0)


def test_report_rendering():
    rep = tree_report(model_kernel(2, F(1, 2)))
    text = rep.format_text()
    assert "PASS" in text and "certified" in text
    assert "stop reason    : certified" in text
    kv = rep.format_kv()
    assert "verdict=PASS" in kv and "stop_reason=certified" in kv
    assert f"\ngrid_min={rep.grid_min!r}\nlipschitz_bound={rep.lipschitz_bound!r}\ncaps=" in kv
    assert isinstance(rep, CheckReport)
    # one trace row per tree level, shown in both renderings
    assert [row.depth for row in rep.trace] == list(range(rep.depth_used + 1))
    assert sum(row.cells for row in rep.trace) == rep.grid_points
    assert rep.trace[-1].undecided == 0 and rep.trace[0].cells == 4
    assert all(row.seconds >= 0 for row in rep.trace)
    for row in rep.trace:
        assert f"level_{row.depth}=cells:{row.cells},undecided:{row.undecided}," in kv
    lines = text.splitlines()
    assert len(lines) - lines.index("level      cells  undecided       min |F|   seconds") - 1 == len(rep.trace)
    # no tree ran: no tree lines and no level table, the tree's kv counts read 0
    rep = check_maximal_control(model_kernel(2, F(1, 2)))
    assert rep.trace == [] and rep.depth_used == 0
    assert rep.format_text().splitlines()[4:] == ["stop reason    : exact", f"certified min  : {rep.certified_min:.6g}"]
    kv = rep.format_kv()
    assert "verdict=PASS" in kv and "stop_reason=exact" in kv and "level_" not in kv
    assert "grid_min=" not in kv and "lipschitz_bound=" not in kv
    for key in ("grid_depth=0", "grid_points=0", "caps=0"):
        assert f"\n{key}\n" in kv


def test_roadmap_cases_decide_correctly():
    # n = 2: F = -2 + lam (2 x1^2 - 6 x2^2), max over the circle -2 + 2 lam
    rep = tree_report(model_kernel(2, 1 - F(5, 10**12)))
    assert rep.verdict == "PASS" and rep.stop_reason == "certified"
    assert 0 < rep.certified_min <= 1e-11
    rep = tree_report(model_kernel(2, 1 - F(1, 10**6)))
    assert rep.verdict == "PASS" and 0 < rep.certified_min <= 2e-6
    for n in (3, 4):
        rep = tree_report(model_kernel(n, F(-1, 2)))
        assert rep.verdict == "FAIL(vanishing)" and rep.stop_reason == "sign-change"
        assert rep.witness_value < 1e-10
        assert rep.grid_points == 2 * n  # the facet centers already change sign
    # exactly: the certified minimum is min |F| = 2 - 2 lam, up to the 2^-44 shrink of its estimate
    for lam, least in ((1 - F(5, 10**12), 1e-11), (1 - F(1, 10**6), 2e-6)):
        rep = check_maximal_control(model_kernel(2, lam))
        assert rep.verdict == "PASS" and rep.stop_reason == "exact" and rep.grid_points == 0
        assert least * (1 - 1e-12) < rep.certified_min <= least
    for n in (3, 4):
        rep = check_maximal_control(model_kernel(n, F(-1, 2)))
        assert rep.verdict == "FAIL(vanishing)" and rep.stop_reason == "exact" and rep.grid_points == 0
        assert_exact_sign_pair(rep, quotient_sum(model_kernel(n, F(-1, 2)))[0])


def test_near_boundary_cost_is_bounded():
    # margins of 1e-12 at the axis points: the Taylor test alone would refine
    # to about depth 22 there, but exclusion caps at the axis points decide
    # every cell that fits inside them a few levels down
    for n, lam in ((3, 1 - F(1, 10**12)), (4, 1 - F(93, 10**13)), (4, F(-1, 3) + F(93, 10**13))):
        rep = tree_report(model_kernel(n, lam))
        assert rep.verdict == "PASS", (n, lam)
        assert rep.depth_used <= 8
        assert rep.grid_points <= 10_000
        assert rep.caps
        # exactly: M is diagonal, and min |F| is its least diagonal entry in absolute value
        rep, f = check_maximal_control(model_kernel(n, lam)), quotient_sum(model_kernel(n, lam))[0]
        least = min(abs(f.eval_exact(tuple(F(int(i == j)) for j in range(n)))) for i in range(n))
        assert rep.verdict == "PASS" and rep.stop_reason == "exact" and not rep.caps and rep.grid_points == 0
        assert float(least) * (1 - 1e-12) < rep.certified_min <= float(least)


def _cap_angle(cap, x):
    return float(_angle(np.array(cap.point, dtype=float), np.asarray(x, dtype=float)))


def test_tangential_zero_at_irrational_point_is_inconclusive(monkeypatch):
    # (x1^2 - 2 x2^2)^2 >= 0 touches 0 at x2^2 = 1/3: no sign change and no
    # rational zero, so neither certificate exists
    q = MultiPoly.monomial(2, (2, 0)) - MultiPoly.monomial(2, (0, 2), 2)
    monkeypatch.setattr(admissibility, "MAX_DEPTH", 20)
    cert = certify_nonvanishing(q * q)
    assert cert.verdict == "INCONCLUSIVE" and cert.stop_reason == "depth-cap"
    assert cert.depth_used == 20 and cert.certified_min is None
    assert abs(cert.witness[1] ** 2 - 1 / 3) < 1e-5
    # the caps at rational points near the zeros (+-sqrt(2/3), +-sqrt(1/3)) stop short of them
    assert cert.caps
    zeros = [(a * (2 / 3) ** 0.5, b * (1 / 3) ** 0.5) for a in (1, -1) for b in (1, -1)]
    assert all(_cap_angle(cap, z) > float(cap.radius) for cap in cert.caps for z in zeros)
    monkeypatch.undo()  # MAX_DEPTH back to 26
    monkeypatch.setattr(admissibility, "CELL_BUDGET", 200)
    cert = certify_nonvanishing(q * q)
    assert cert.verdict == "INCONCLUSIVE" and cert.stop_reason == "cell-budget"
    assert cert.grid_points <= 200
    # (3 x2 - 3 x1 / 4)^2 touches 0 at (4, 1) / sqrt(17), the center of a
    # depth-2 cell, where its float value is -1.4e-17: a sign counts only
    # beyond the rounding bound
    q = MultiPoly.monomial(2, (0, 1), 3) - MultiPoly.monomial(2, (1, 0), F(3, 4))
    center = np.array([[4.0, 1.0]]) / np.sqrt(17.0)
    monkeypatch.setattr(admissibility, "MAX_DEPTH", 12)
    for g, sign in ((q * q, -1), (-(q * q), 1)):
        assert g.float_evaluator()(center)[0] * sign > 0
        cert = certify_nonvanishing(g)
        assert cert.verdict == "INCONCLUSIVE" and cert.stop_reason == "depth-cap"


def test_tangential_zero_at_rational_point_is_exact():
    # (4 x1 - 3 x2)^2 touches 0 only at +-(3/5, 4/5): found by snapping a
    # cell center to a rational sphere point
    q = MultiPoly.monomial(2, (1, 0), 4) - MultiPoly.monomial(2, (0, 1), 3)
    cert = certify_nonvanishing(q * q)
    assert cert.verdict == "FAIL(vanishing)" and cert.stop_reason == "exact-zero"
    assert cert.witness_value == 0.0
    assert np.allclose(np.abs(cert.witness), (0.6, 0.8), atol=0.0, rtol=1e-15)
    assert all(_cap_angle(cap, z) > float(cap.radius) for cap in cert.caps for z in ((0.6, 0.8), (-0.6, -0.8)))
    for n in (2, 3):
        assert certify_nonvanishing(MultiPoly.zero(n)).stop_reason == "exact-zero"
    with pytest.raises(ValueError):
        certify_nonvanishing(MultiPoly.constant(1, 1))


def test_model_kernels_near_the_boundary_get_caps_at_the_axis():
    # the minimum of |F| is at +-e1, where F, grad F and Hess F are exact
    for n in (2, 3, 4):
        rep = tree_report(model_kernel(n, 1 - F(93, 10**13)))
        assert rep.verdict == "PASS" and rep.stop_reason == "certified"
        f = quotient_sum(model_kernel(n, 1 - F(93, 10**13)))[0]
        e1 = tuple(F(int(i == 0)) for i in range(n))
        assert [cap.point for cap in rep.caps] == [e1, tuple(-x for x in e1)]
        # 3 lambda_min / C3 at e1, the largest radius the certificate allows: 16/64 at n = 2, 1/16 beyond
        largest = F(3, 4) if n == 2 else F(3, 16)
        for cap in rep.caps:
            assert isinstance(cap.radius, F) and isinstance(cap.lower, F)
            assert cap.lower == abs(f.eval_exact(cap.point)) and largest * F(99, 100) < cap.radius <= largest
        assert 0 < rep.certified_min <= float(rep.caps[0].lower)
        kv = rep.format_kv()
        assert "\ncaps=2\n" in kv and f"\ncap_0=point:{','.join(['1.0'] + ['0.0'] * (n - 1))};radius:" in kv
        assert "\ncap_1=point:-1.0," in kv
        assert rep.format_text().count("\ncap ") == 2
        # exactly: no caps, and the certified minimum is |F(e1)| = min |F|
        rep = check_maximal_control(model_kernel(n, 1 - F(93, 10**13)))
        assert rep.verdict == "PASS" and rep.stop_reason == "exact" and rep.caps == []
        assert float(abs(f.eval_exact(e1))) * (1 - 1e-12) < rep.certified_min <= float(abs(f.eval_exact(e1)))
        assert "\ncaps=0\n" in rep.format_kv() and "\ncap " not in rep.format_text()


def _linear(w):
    n = len(w)
    return sum((MultiPoly.variable(n, i) * c for i, c in enumerate(w)), MultiPoly.zero(n))


def _sphere_point(rng, n):
    """A rational point of the unit sphere, by inverse stereographic projection."""
    t = [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n - 1)]
    s2 = sum(x * x for x in t)
    return tuple([(1 - s2) / (1 + s2)] + [2 * x / (1 + s2) for x in t])


def _tangent(rng, p):
    w = [F(rng.randrange(-5, 6)) for _ in p]
    d = sum(a * b for a, b in zip(w, p))
    return [a - d * b for a, b in zip(w, p)]


def test_exclusion_caps_are_sound():
    # F = v0 + s sum_k a_k (w_k . x)^2 + (w_1 . x)^2 (u . x) + eps (g . x), w_k and g tangent
    # at the rational point p: |F(p)| = |v0| is a nondegenerate extremum, or one nearby when
    # eps != 0, with a random cubic term; |F| >= the cap's bound all over the cap
    # C3 = sum |c| d^3 over the terms c x^a of degree d = |a|
    cubic = MultiPoly.monomial(2, (3, 0)) - MultiPoly.monomial(2, (0, 2), 2) + MultiPoly.constant(2, 5)
    assert _Bounds(cubic).third == 27 + 2 * 8
    rng, gen = random.Random(3), np.random.default_rng(3)
    made = 0
    for trial in range(80):
        n = 2 + trial % 4
        p = _sphere_point(rng, n)
        v0 = F(rng.choice((1, -1)), 10 ** rng.randrange(0, 10))
        f = MultiPoly.constant(n, v0)
        for _ in range(n - 1):
            w = _linear(_tangent(rng, p))
            f = f + w * w * (F(rng.randrange(1, 5)) * (1 if v0 > 0 else -1))
        w = _linear(_tangent(rng, p))
        f = f + w * w * _linear([F(rng.randrange(-3, 4)) for _ in p])
        if trial % 2:
            f = f + _linear(_tangent(rng, p)) * (abs(v0) / 100)
        b, pf = _Bounds(f), np.array(p, dtype=float)
        value = f.eval_exact(p)
        assert value == v0
        cap = _exclusion_cap(b, p, value, pf[None], np.zeros(1))
        if cap is None:
            continue
        made += 1
        assert all(isinstance(x, F) for x in (*cap.point, cap.radius, cap.lower))
        assert abs(value) / 2 <= cap.lower <= abs(value) and 0 < cap.radius <= F(3, 2)
        # points on unit-speed great circles from p, out to the cap's radius
        u = gen.standard_normal((4000, n))
        u -= (u @ pf)[:, None] * pf
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        t = float(cap.radius) * np.sqrt(gen.uniform(0.0, 1.0, 4000))
        t[:500] = float(cap.radius)
        x = np.cos(t)[:, None] * pf + np.sin(t)[:, None] * u
        signed = f.float_evaluator()(x) * (1 if v0 > 0 else -1)
        assert signed.min() >= float(cap.lower) - b.value, (trial, f, cap)
    assert made >= 50


def test_cap_derivatives_match_the_monomial_loops():
    # sigma grad F / D and sigma Hess F / D^2 as `_exclusion_cap` reads them off the exact partial
    # polynomials of `_Bounds`, at rational points snapped as the tree snaps them, depths 0 to 20:
    # CI's three-layer kernel and the n = 4 family (x2^2 + x3^2 + x4^2)|x|^2 + m|x|^4
    r2 = MultiPoly.radius2(4)
    family = (r2 - MultiPoly.monomial(4, (2, 0, 0, 0))) * r2 + r2 * r2 * F(1, 1000)
    gen = np.random.default_rng(31)
    for f in (quotient_sum(_planar_three_layer())[0], family):
        b = _Bounds(f)
        for depth in range(21):
            for c in gen.standard_normal((3, f.nvars)):
                axis = int(np.argmax(np.abs(c)))
                pt = _rational_point(c / np.linalg.norm(c), axis, float(np.sign(c[axis])), depth)
                den = math.lcm(*(x.denominator for x in pt))
                sigma = b.scale * den**b.top
                grad = [p.eval_exact(pt) * sigma / den for p in b.gradient]
                hess = [[q.eval_exact(pt) * sigma / den**2 for q in row] for row in b.hessian]
                assert all(x.denominator == 1 for x in grad + sum(hess, []))
                assert (grad, hess) == cap_derivatives(f, pt)


def test_positive_definite_is_exact():
    # the package's definiteness test, _sign_or_witness(m)[0] == 1, against the Bareiss oracle
    def definite(m):
        assert (_sign_or_witness(m)[0] == 1) == _positive_definite(m), m
        return _positive_definite(m)

    assert definite([[2, 1], [1, 2]])
    assert not definite([[1, 2], [2, 1]])  # indefinite
    assert not definite([[1, 1], [1, 1]])  # singular
    assert not definite([[3, 0, 0], [0, -1, 0], [0, 0, 3]])
    # tridiag(-1, 2, -1) has lambda_min = 2 - sqrt(2) = 0.585786...: A - mu I for mu = m / 10^5
    a = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    shifted = lambda m: [[10**5 * x - m * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    assert definite(shifted(58578)) and not definite(shifted(58579))
    # a saddle of F on the sphere: no cap, however small
    f = MultiPoly.constant(3, 1) + MultiPoly.monomial(3, (0, 2, 0)) - MultiPoly.monomial(3, (0, 0, 2))
    e1 = (F(1), F(0), F(0))
    assert _exclusion_cap(_Bounds(f), e1, F(1), np.array([[1.0, 0.0, 0.0]]), np.zeros(1)) is None


def _strata(rng):
    """Four lam strata around the exact rule -1/3 < lam < 1."""
    lo, hi = F(-1, 3), F(1)
    u1, u2 = (F(rng.randrange(1, 10**6), 10**6) for _ in range(2))  # in (0, 1)
    tiny = F(rng.randrange(10**6, 10**7), 10**18)  # in [1e-12, 1e-11)
    far = tiny * 10 ** rng.randrange(9)  # in [1e-12, 1e-3)
    return {
        "interior": lo + (hi - lo) * (F(1, 100) + F(98, 100) * u1),
        "exterior": rng.choice((lo - 3 * u2 - F(1, 100), hi + 3 * u2 + F(1, 100))),
        "near-inside": rng.choice((lo + tiny, hi - tiny)),
        "near-outside": rng.choice((lo - far, hi + far)),
    }


def _truth(lam):
    return "PASS" if F(-1, 3) < lam < 1 else "FAIL(vanishing)"


def _sphere_sample(n, count, seed):
    x = np.random.default_rng(seed).standard_normal((count, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_seeded_sweep_matches_rule_and_pass_is_sound():
    rng = random.Random(2024)
    for seed, n in itertools.product(range(3), (2, 3, 4)):
        for stratum, lam in _strata(rng).items():
            kernel = model_kernel(n, lam)
            # the tree, and the exact path
            for rep in (tree_report(kernel), check_maximal_control(kernel)):
                assert rep.verdict == _truth(lam), (n, stratum, lam, rep.verdict, rep.stop_reason)
                if rep.verdict == "PASS":
                    # soundness: no sampled point goes below the certified minimum
                    f = quotient_sum(kernel)[0].float_evaluator()
                    sample = np.abs(f(_sphere_sample(n, 10**5, seed)))
                    assert sample.min() >= rep.certified_min > 0, (n, stratum, lam)
            assert rep.stop_reason == "exact"


def _zonal_kernel(lam):
    """x1|x|^2 + lam x1 (2 x1^2 - 3 x2^2 - 3 x3^2) at n = 3: F is proportional to 1 - lam (5 x1^2 - 3) / 4,
    which vanishes on the sphere unless -4/3 < lam < 2."""
    x1 = MultiPoly.variable(3, 0)
    quadric = (MultiPoly.monomial(3, (2, 0, 0), 2) - MultiPoly.monomial(3, (0, 2, 0), 3)
               - MultiPoly.monomial(3, (0, 0, 2), 3))
    cubic = x1 * quadric
    return kernel_from_polynomial(3, x1 * MultiPoly.radius2(3) + cubic * lam)


def _planar_three_layer():
    """x1|x|^4 + Re(z^3)|x|^2 / 2 + Re(z^5) / 4: layers of degrees 1, 3 and 5, so F is quartic."""
    r2, x1 = MultiPoly.radius2(2), MultiPoly.variable(2, 0)
    re_z5 = MultiPoly.monomial(2, (5, 0)) - MultiPoly.monomial(2, (3, 2), 10) + MultiPoly.monomial(2, (1, 4), 5)
    return kernel_from_polynomial(2, x1 * r2 * r2 + harmonic_cubic(2) * r2 * F(1, 2) + re_z5 * F(1, 4))


def _assert_decided_exactly(kernel, truth):
    rep = check_maximal_control(kernel)
    assert rep.verdict == truth and rep.stop_reason == "exact" and rep.grid_points == 0, rep.verdict
    f = quotient_sum(kernel)[0]
    if rep.verdict == "PASS":
        # soundness at the axis points, where the model and zonal families have their extrema
        axes = [tuple(F(int(i == j)) for j in range(kernel.dim)) for i in range(kernel.dim)]
        assert 0 < rep.certified_min <= min(abs(f.eval_exact(e)) for e in axes)
    elif rep.sign_pair is None:
        assert rep.witness_value == 0.0  # an exact zero
        assert quadratic_form(f, rep.witness) == 0 or abs(float(f.eval_exact([F(x) for x in rep.witness]))) < 1e-15
    else:
        assert_exact_sign_pair(rep, f)
    return rep


def test_boundary_families_decide_exactly():
    # the model kernel: PASS iff -1/3 < lam < 1, for every n
    # d > 0 is inside the interval, d < 0 outside
    for n, end, d in itertools.product((2, 3, 4), (F(-1, 3), F(1)), (F(1, 10**15), 0, -F(1, 10**15))):
        lam = end + d if end < 0 else end - d
        _assert_decided_exactly(model_kernel(n, lam), "PASS" if d > 0 else "FAIL(vanishing)")
    # the zonal n = 3 family, whose |F| is least along the great circle x1 = 0 near lam = -4/3
    for end, d in itertools.product((F(-4, 3), F(2)), (F(1, 10**9), F(1, 10**15), 0, -F(1, 10**9), -F(1, 10**15))):
        lam = end + d if end < 0 else end - d
        rep = _assert_decided_exactly(_zonal_kernel(lam), "PASS" if d > 0 else "FAIL(vanishing)")
        if d > 0:  # min |F| = |F(e2)| at -4/3, |F(e1)| at 2: the diagonal M is found exactly
            f = quotient_sum(_zonal_kernel(lam))[0]
            least = abs(f.eval_exact((F(0), F(1), F(0)) if end < 0 else (F(1), F(0), F(0))))
            assert float(least) * (1 - 1e-12) < rep.certified_min <= float(least)


def test_off_diagonal_quotient_sum_is_decided_exactly():
    # x1|x|^2 + c x1 x2 x3 at n = 3: F is proportional to 1 - c x2 x3 / 4, with min |F| = |F(e1)| (1 - |c| / 8)
    x1, x2, x3 = (MultiPoly.variable(3, i) for i in range(3))
    cases = ((F(5), "PASS"), (F(7), "PASS"), (-8 + F(1, 10**12), "PASS"), (F(8), "FAIL(vanishing)"),
             (F(-9), "FAIL(vanishing)"))
    for c, truth in cases:
        kernel = kernel_from_polynomial(3, x1 * MultiPoly.radius2(3) + x1 * x2 * x3 * c)
        rep = _assert_decided_exactly(kernel, truth)
        a = abs(quotient_sum(kernel)[0].eval_exact((F(1), F(0), F(0))))
        if truth == "PASS":  # the estimate |a| is above min |F|: the bisection after the halving closes the gap
            least = a * (1 - abs(c) / 8)
            assert float(least) * (1 - 1e-12) < rep.certified_min <= float(least)
        elif c == 8:
            assert np.allclose(np.abs(rep.witness), (0.0, 2**-0.5, 2**-0.5), rtol=0.0, atol=1e-15)


def test_strata_of_the_benchmark_match_their_truth(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    for seed in range(1, 41):
        rng = random.Random(seed)
        for n in workloads.DECIDE_DIMS:
            for lam, mu in itertools.chain(*workloads.draw_strata(rng).values()):
                rep = check_maximal_control(parse_kernel_spec(workloads.model_kernel_text(n, lam, mu)))
                assert rep.verdict == workloads.truth(lam, mu), (seed, n, lam, mu)
                assert rep.stop_reason == ("exact" if mu == 0 else None)


def test_sign_or_witness_is_exact():
    rng = random.Random(9)
    fixed = [[[0, 1], [1, 0]], [[1, 1, 0], [1, 1, 0], [0, 0, -1]], [[2, 0], [0, 0]], [[1, 2], [2, 1]], [[0, 0], [0, 0]],
             [[2, 1], [1, 2]], [[-2, 1], [1, -2]], [[0, 0], [0, -16]]]
    randoms = [[[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)] for n in (2, 3, 4, 5) for _ in range(40)]
    signs = set()
    for m in fixed + [(np.array(m) + np.array(m).T + k * np.eye(len(m), dtype=int)).tolist()
                      for m, k in zip(randoms, itertools.cycle((0, 9, -9)))]:
        s = np.array(m, dtype=object)
        sign, found = _sign_or_witness(m)
        # the sign of a definite S, by Bareiss on S and on -S
        assert sign == (1 if _positive_definite(m) else -1 if _positive_definite((-s).tolist()) else 0), m
        values = [np.array(x, dtype=object) @ s @ np.array(x, dtype=object) for x in found]
        if sign:
            assert found == []
        else:
            assert values == [0] if len(found) == 1 else values[0] < 0 < values[1], (m, found)
        assert all(any(x) and all(type(a) is int for a in x) for x in found)
        signs.add((sign, len(found)))
    assert signs == {(1, 0), (-1, 0), (0, 1), (0, 2)}
    # the exact zero of the degenerate model kernel keeps its direction: (1, 0), not (-1, 0)
    assert _sign_or_witness([[0, 0], [0, -16]]) == (0, [[1, 0]])


def test_quadratic_certificate_matches_the_eigenvalues():
    rng, gen = random.Random(5), np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        for _ in range(30):
            m = np.array([[F(rng.randrange(-30, 31), rng.randrange(1, 7)) for _ in range(n)] for _ in range(n)])
            m = (m + m.T) / 2 + F(rng.randrange(-40, 41), 4) * np.eye(n, dtype=object)
            f = sum((MultiPoly.variable(n, i) * MultiPoly.variable(n, j) * m[i, j]
                     for i in range(n) for j in range(n)), MultiPoly.zero(n))
            eig = np.linalg.eigvalsh(m.astype(float))
            if np.abs(eig).min() < 1e-6:
                continue
            cert = _quadratic_certificate(f)
            assert cert.stop_reason == "exact"
            assert (cert.verdict == "PASS") == (eig.min() > 0 or eig.max() < 0), (m, eig)
            if cert.verdict == "PASS":
                least = np.abs(eig).min()
                assert least * (1 - 1e-12) < cert.certified_min <= least * (1 + 1e-12)
                assert np.abs(f.float_evaluator()(_sphere_sample(n, 1000, n))).min() >= cert.certified_min
            else:
                assert cert.witness_value < 1e-10 and abs(np.linalg.norm(cert.witness) - 1.0) < 1e-15
                if cert.sign_pair is not None:
                    plus, minus = (f.float_evaluator()(np.array([pt]))[0] for pt in cert.sign_pair)
                    assert minus < 0 < plus
    # ill-conditioned: M = [[1, 1 - e], [1 - e, 1]] has the least eigenvalue e, which the halving from
    # the diagonal's 1 reaches within its budget of n bits per bit of the trace of S
    x1, x2, e = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1), F(1, 10**30)
    for sign in (1, -1):
        cert = _quadratic_certificate((x1 * x1 + x2 * x2 + x1 * x2 * (2 - 2 * e)) * sign)
        assert cert.verdict == "PASS" and 1e-30 * (1 - 1e-12) < cert.certified_min <= 1e-30


def test_quartic_quotient_sum_reaches_the_tree():
    rep = check_maximal_control(_planar_three_layer())
    assert quotient_sum(_planar_three_layer())[0].total_degree() == 4
    assert rep.verdict == "PASS" and rep.stop_reason == "certified"
    assert rep.caps and 0 < rep.depth_used <= 8 and rep.trace
    assert "level      cells  undecided       min |F|   seconds" in rep.format_text()


def _random_poly(rng, n, max_degree=6, max_terms=12):
    """A polynomial in n variables of degree at most max_degree, with
    coefficients of assorted sizes and signs."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        expo = [0] * n
        for _ in range(rng.randrange(max_degree + 1)):
            expo[rng.randrange(n)] += 1
        terms[tuple(expo)] = F(rng.randrange(-(10**6), 10**6), rng.randrange(1, 10**4))
    return MultiPoly(n, terms)


def test_float_evaluation_stays_within_the_rounding_bound():
    rng, gen = random.Random(11), np.random.default_rng(11)
    for n in range(2, 10):
        for _ in range(8):
            p = _random_poly(rng, n)
            x = gen.uniform(-1.0, 1.0, (24, n))
            x /= np.maximum(1.0, np.linalg.norm(x, axis=1))[:, None]
            x[::2] /= np.linalg.norm(x[::2], axis=1)[:, None]  # half of them on the sphere
            bound = F(_rounding_bound(p))
            for pt, value in zip(x, p.float_evaluator()(x)):
                exact = p.eval_exact([F(float(t)) for t in pt])
                assert abs(F(float(value)) - exact) <= bound, (n, p, pt)


# The row-major evaluation the coordinate-major code replaced, kept as its
# oracle: points as (k, n) rows, sums and products over the short last axis.
# numpy sums a last axis shorter than 8 from left to right, as the
# coordinate-major code does, and longer ones pairwise, so the two agree
# bit for bit for n <= 7 and to a few ulps beyond.


def _rowmajor_normalize(v):
    return v / np.sqrt(np.sum(v * v, axis=-1, keepdims=True))


def _rowmajor_sphere_grid(cells):
    k, m = cells.u.shape
    rows = np.arange(k)
    others = np.array([[j for j in range(m + 1) if j != a] for a in range(m + 1)])
    v = np.empty((k, m + 1))
    v[rows, cells.axis] = cells.sign
    v[rows[:, None], others[cells.axis]] = cells.u
    centers = _rowmajor_normalize(v)
    base = _rowmajor_normalize(np.hstack([np.ones((k, 1)), cells.u]))
    chord = np.zeros(k)
    for corner in itertools.product((-1.0, 1.0), repeat=m):
        w = _rowmajor_normalize(np.hstack([np.ones((k, 1)), cells.u + np.array(corner) * cells.half_width]))
        chord = np.maximum(chord, np.sqrt(np.sum((base - w) ** 2, axis=1)))
    radii = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord * _SLACK + _center_error(m + 1))) * _SLACK
    return centers, radii


def _rowmajor_evaluator(p):
    """Called, as it always was, with C-ordered (k, n) rows."""
    if not p.terms:
        return lambda pts: np.zeros(len(pts))
    monos = np.array(sorted(p.terms), dtype=np.int64)
    coefs = np.array([float(p.terms[tuple(m)]) for m in monos])
    return lambda pts: (pts[:, None, :] ** monos[None, :, :]).prod(axis=2) @ coefs


def _rowmajor_evaluate(cells, f):
    b = _Bounds(f)
    c, r = _rowmajor_sphere_grid(cells)
    v = _rowmajor_evaluator(f)(c)
    g = np.stack([_rowmajor_evaluator(f.partial(i))(c) for i in range(f.nvars)], axis=1)
    gt = g - np.sum(c * g, axis=1, keepdims=True) * c
    slope = np.sqrt(np.sum(gt * gt, axis=1)) + b.grad
    bound = (slope * r + 0.5 * b.hess * r * r + b.value) * _SLACK
    return v, np.abs(v) - bound, c


def _random_cells(gen, n, depth, k):
    """k cells at the given depth on random facets, at random dyadic centers."""
    j = gen.integers(0, 2**depth, size=(k, n - 1))
    u = (2 * j + 1 - 2**depth) * 2.0**-depth
    return Cells(gen.integers(0, n, size=k), gen.choice([1.0, -1.0], size=k), u, depth)


@pytest.mark.parametrize("n", range(2, 10))
def test_sphere_grid_matches_the_row_major_oracle(n):
    gen = np.random.default_rng(n)
    for depth in range(25):
        # at 300 cells sphere_grid takes the 2^(n-1) corners in several batches from n = 4 on
        cells = _random_cells(gen, n, depth, 300 if depth % 6 == 0 else 20)
        for got, want in zip(sphere_grid(cells), _rowmajor_sphere_grid(cells)):
            assert got.shape == want.shape
            if n <= 7:
                assert np.array_equal(got, want), (n, depth)
            else:
                ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
                assert np.all(np.abs(got - want) <= 4 * ulp), (n, depth)


@pytest.mark.parametrize("n", range(2, 10))
def test_float_evaluator_matches_the_row_major_oracle(n):
    rng, gen = random.Random(n), np.random.default_rng(n)
    for _ in range(20):
        p = _random_poly(rng, n)
        ev, oracle = p.float_evaluator(), _rowmajor_evaluator(p)
        pts = gen.uniform(-1.0, 1.0, (int(gen.integers(1, 400)), n))
        want = oracle(pts)
        assert np.array_equal(ev(pts), want), p
        assert np.array_equal(ev(np.asfortranarray(pts)), want), p
        assert np.array_equal(ev(pts[:1]), oracle(pts[:1])), p


@pytest.mark.parametrize("n", range(2, 8))
def test_cell_evaluation_matches_the_row_major_oracle(n):
    rng, gen = random.Random(n), np.random.default_rng(n)
    for depth in (0, 1, 3, 8, 16, 24):
        f = _random_poly(rng, n)
        cells = _random_cells(gen, n, depth, 64)
        for got, want in zip(_evaluate(cells, _Bounds(f)), _rowmajor_evaluate(cells, f)):
            assert np.array_equal(got, want), (n, depth)
