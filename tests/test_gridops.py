"""Grid operator laboratory: exact 1D truncations, maximal functions,
Orlicz averages, planar truncations."""
import math

import numpy as np
import pytest

from czkit.gridops import (
    GridFunction,
    TruncationGrid,
    beurling_maximal,
    beurling_transform_grid,
    beurling_truncated,
    hardy_littlewood,
    hardy_littlewood_all_centers,
    hilbert_maximal,
    hilbert_transform_many,
    hilbert_truncated,
    hilbert_truncated_many,
    iterated_m2,
    m_delta,
    m_llogl,
    orlicz_llogl_average,
    phi_llogl,
    _interval_averages_max,
    _kernel_b,
    _kernel_b2,
    _window,
)
from czkit import gridops
from czkit.experiments import (
    ADVERSARIAL_WINDOWS,
    COMPOSITION_SAMPLES,
    HILBERT_SAMPLES,
    _transform_grid,
    far_window_pieces,
    hilbert_test_suite,
    transform_closed_form,
)


def step01(h=1.0 / 64):
    return GridFunction.indicator_1d(0.0, 1.0, h)


# ------------------------------------------------------------------ hilbert


def test_truncated_value_outside_support():
    assert abs(hilbert_truncated(step01(), 2.0, 0.5) + math.log(2)) < 1e-12


def test_truncated_symmetry_zeros():
    even = GridFunction.indicator_1d(-1.0, 1.0, 1.0 / 64)
    assert abs(hilbert_truncated(even, 0.0, 0.25)) < 1e-12
    assert abs(hilbert_truncated(step01(), 0.5, 0.25)) < 1e-12


def test_truncated_grid_refinement_invariance():
    coarse, fine = step01(1.0 / 32), step01(1.0 / 256)
    for x in (1.9, -0.55, 0.31):
        for eps in (0.05, 0.31, 1.7):
            assert abs(hilbert_truncated(coarse, x, eps) - hilbert_truncated(fine, x, eps)) < 1e-12


def test_maximal_dominates_each_truncation_and_is_exact():
    f = step01()
    x = 2.0
    assert hilbert_maximal(f, x) >= abs(math.log(2)) - 1e-12
    dense = np.geomspace(1e-4, 50.0, 50000)
    brute = np.max(np.abs(hilbert_truncated_many(f, x, dense)))
    assert hilbert_maximal(f, x) >= brute - 1e-12


def test_maximal_monotone_in_radius_grid_refinement():
    f = step01()
    x = 2.3
    coarse = TruncationGrid(np.geomspace(0.01, 8.0, 20))
    fine = TruncationGrid(np.geomspace(0.01, 8.0, 160))
    vc = np.max(np.abs(hilbert_truncated_many(f, x, coarse.eps)))
    vf = np.max(np.abs(hilbert_truncated_many(f, x, fine.eps)))
    assert vc <= vf + 1e-15
    assert vf <= hilbert_maximal(f, x) + 1e-15


def test_maximal_zero_function():
    z = GridFunction(0.0, 1.0, np.zeros(4))
    assert hilbert_maximal(z, 2.5) == 0.0


def test_maximal_multi_piece_additivity():
    h = 1.0 / 64
    left = GridFunction.indicator_1d(-2.0, -1.0, h)
    right = GridFunction.indicator_1d(1.0, 2.0, h)
    both = GridFunction(-2.0, h, np.concatenate([np.ones(64), np.zeros(128), np.ones(64)]))
    x = 0.013
    assert abs(hilbert_maximal([left, right], x) - hilbert_maximal(both, x)) < 1e-12


def cell_truncations(fs, x, eps):
    """Oracle: every cell's own share of the truncation at each radius,
    value * (log far - log max(near, eps)) for eps < far, with near and far
    the cell's distances from x on its side and a minus sign on the left."""
    eps = np.asarray(eps, dtype=float)[:, None]
    total = 0
    for g in fs:
        lo, hi = g.edges()[:-1] - x, g.edges()[1:] - x
        for sign, near, far in ((1.0, np.maximum(lo, 0.0), hi), (-1.0, np.maximum(-hi, 0.0), -lo)):
            out = far > eps
            share = np.log(np.where(out, far, 1.0)) - np.log(np.where(out, np.maximum(near, eps), 1.0))
            total = total + sign * (share * g.values).sum(axis=1)
    return total


def random_pieces(rng, complex_values):
    """Two or three random pieces on one mesh; the first two share an edge."""
    h = 1.0 / rng.choice([4, 8, 64])
    a = rng.integers(-40, 0)
    sizes = rng.integers(1, 30, size=rng.integers(2, 4))
    starts = [a, a + sizes[0], a + sizes[0] + sizes[1] + rng.integers(0, 9)]
    pieces = []
    for start, n in zip(starts, sizes):
        v = rng.normal(size=n)
        if complex_values:
            v = v + 1j * rng.normal(size=n)
        pieces.append(GridFunction(start * h, h, v))
    return pieces, h


def test_edge_jump_truncations_match_cell_oracle():
    rng = np.random.default_rng(2024)
    jumps = 0  # x on an edge where the summed pieces jump: the sup is inf
    for trial in range(120):
        pieces, h = random_pieces(rng, complex_values=trial % 2 == 1)
        lo, hi = pieces[0].origin[0], max(g.support_box()[0][1] for g in pieces)
        x = h * rng.integers(round(lo / h) - 4, round(hi / h) + 4)  # a lattice edge
        if trial % 3:
            x += h * rng.uniform(0.05, 0.95)  # inside a cell
        d = np.concatenate([np.abs(g.edges() - x) for g in pieces])
        d = d[d > 0]
        inner = rng.uniform(d.min(), d.max(), 20)
        eps = np.concatenate([[d.min() / 7, d.min() / 2], np.sort(d), inner, [2 * d.max()]])
        for g in pieces:
            want = cell_truncations([g], x, eps)
            got = hilbert_truncated_many(g, x, eps)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        want = np.max(np.abs(cell_truncations(pieces, x, np.unique(d))))
        jump = sum(g.value_at(x - h / 2) - g.value_at(x + h / 2) for g in pieces)
        if trial % 3 == 0 and jump != 0:
            jumps += 1
            assert hilbert_maximal(pieces, x) == math.inf
        else:
            assert abs(hilbert_maximal(pieces, x) - want) <= 1e-12 * want
        if trial % 3:
            xs = x + h * np.array([0.0, -1.0, 2.0, 37.0])
            got = hilbert_transform_many(pieces[0], xs)
            logs = np.log(np.abs(pieces[0].edges()[None, :] - xs[:, None]))
            want = (logs[:, 1:] - logs[:, :-1]) @ pieces[0].values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert jumps == 31


def test_maximal_infinite_at_a_jump_finite_across_a_shared_edge():
    h = 1.0 / 64
    assert hilbert_maximal(step01(h), 0.0) == math.inf
    assert hilbert_maximal(step01(h), 1.0) == math.inf
    left, right = GridFunction(0.0, h, np.full(16, 0.7)), GridFunction(16 * h, h, np.full(16, 0.7))
    both = GridFunction(0.0, h, np.full(32, 0.7))
    got = hilbert_maximal([left, right], 16 * h)
    assert math.isfinite(got) and abs(got - hilbert_maximal(both, 16 * h)) <= 1e-12 * got


def test_maximal_far_window_matches_high_precision_values():
    # sup of |T| at the far-window configuration, in 50-digit arithmetic
    # on the float-sampled pieces
    want = {
        10.0: 0.13884257665961305886,
        100.0: 0.033464518146015666975,
        1000.0: 0.0055995542340508568909,
        10000.0: 0.00078951672360710825692,
    }
    for x, value in want.items():
        got = hilbert_maximal(far_window_pieces(x, 1024), x)
        assert abs(got - value) <= 1e-13 * value


def test_pv_transform_closed_form():
    f = step01(1.0 / 256)
    xs = np.array([2.3, -0.7, 0.43])
    want = -np.log(np.abs(xs) / np.abs(xs - 1.0))  # kernel 1/(y-x) convention
    assert np.max(np.abs(hilbert_transform_many(f, xs) - want)) < 1e-12
    with pytest.raises(ValueError):
        hilbert_transform_many(f, np.array([2.3, 0.5]))  # a cell edge


def dense_transform_many(f, xs):
    """Oracle: sum over edges of log|x - e| (f(e-) - f(e+)) as one dense
    (targets x edges) log table."""
    table = np.log(np.abs(f.edges()[None, :] - np.asarray(xs, dtype=float)[:, None]))
    return table @ -np.diff(f.values, prepend=0, append=0)


def test_lattice_transform_matches_dense_oracle():
    cases = []
    for mesh in (1.0 / 128, 1.0 / 256, 1.0 / 100, 0.2):
        cases += [(f, _transform_grid(f, 48.0, 3072).centers()) for _, f in hilbert_test_suite(mesh)]
    for w in ADVERSARIAL_WINDOWS:
        gw = GridFunction.sample_1d(transform_closed_form, -w, w, 2048)
        cases.append((gw, _transform_grid(gw, 4.0 * w, 2048).centers()))
    rng = np.random.default_rng(9)
    h = 1.0 / 64
    cx = GridFunction(-0.25, h, rng.normal(size=40) + 1j * rng.normal(size=40))
    cases.append((cx, -0.25 + h * (0.3 + np.arange(-90, 270) / 3.0)))  # s = 3
    # the lattice of step 1/16 from -10 runs through every edge of f, so
    # some lattice offsets are exactly 0 without pairing a target with an edge
    cases.append((step01(1.0 / 8), np.array([-10.0, 12.0625])))
    for f, xs in cases:
        got, want = hilbert_transform_many(f, xs), dense_transform_many(f, xs)
        assert got.dtype == want.dtype and np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="cell edge"):
        hilbert_transform_many(step01(1.0 / 8), np.array([-10.0, 0.625]))
    with pytest.raises(ValueError, match="source mesh"):
        hilbert_transform_many(step01(1.0 / 8), np.array([0.1, 0.1 + math.sqrt(2.0) / 8]))


# ------------------------------------------------------------------ maximal


def test_hardy_littlewood_examples():
    f = step01(1.0 / 8)
    assert abs(hardy_littlewood(f, 2.0) - 0.5) < 1e-12
    const = GridFunction(0.0, 0.25, np.full(64, 3.0))
    assert abs(hardy_littlewood(const, 8.0) - 3.0) < 1e-12


def dense_interval_averages_max(edges, cellvals, x):
    """Oracle: every interval average containing x, as one K x K table."""
    csum = np.concatenate([[0.0], np.cumsum(cellvals * np.diff(edges))])
    tol = 1e-12 * max(1.0, abs(x))
    lefts = np.nonzero(edges <= x + tol)[0]
    rights = np.nonzero(edges >= x - tol)[0]
    if len(lefts) == 0 or len(rights) == 0:
        return 0.0
    num = csum[rights][None, :] - csum[lefts][:, None]
    den = edges[rights][None, :] - edges[lefts][:, None]
    ok = den > 0
    return float(np.max(np.where(ok, num / np.where(ok, den, 1.0), -np.inf)))


def dense_all_centers(edges, cellvals):
    """Oracle: suffix maxima of the K x K pairwise averages in the right
    endpoint, then prefix maxima in the left endpoint."""
    csum = np.concatenate([[0.0], np.cumsum(cellvals * np.diff(edges))])
    k = len(edges)
    num = csum[None, :] - csum[:, None]
    den = edges[None, :] - edges[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        avg = np.where(den > 0, num / np.where(den != 0, den, 1.0), -np.inf)
    sm = np.maximum.accumulate(avg[:, ::-1], axis=1)[:, ::-1]
    rm = np.maximum.accumulate(sm, axis=0)
    idx = np.arange(k - 1)
    return rm[idx, idx + 1]


def assert_rel_close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= rel * np.abs(want)), (got, want)


def random_cells(rng, n, kind):
    if kind == 0:
        return rng.uniform(0.0, 3.0, n)
    if kind == 1:  # few distinct values: many tied averages
        return rng.choice([0.0, 0.5, 1.0, 4.0], size=n)
    if kind == 2:  # constant runs, zero runs among them
        return np.repeat(rng.choice([0.0, 1.0, 2.0], size=n // 5 + 1), 5)[:n]
    return np.abs(rng.standard_cauchy(n)) * (rng.uniform(size=n) < 0.5)  # sparse, heavy-tailed


def test_interval_maximal_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    with np.errstate(all="raise"):
        for n in range(1, 201):
            h = float(rng.choice([1.0, 0.25, 1.0 / 3.0, 0.1, 1.0 / 128]))
            edges = rng.uniform(-5.0, 5.0) + h * np.arange(n + 1)
            vals = random_cells(rng, n, n % 4)
            assert_rel_close(hardy_littlewood_all_centers(edges, vals), dense_all_centers(edges, vals))
            inner = edges[rng.integers(0, n + 1)]
            for x in (edges[0], edges[-1], inner, rng.uniform(edges[0], edges[-1]), edges[0] - h, edges[-1] + h):
                got = _interval_averages_max(edges, vals, float(x))
                assert_rel_close(got, dense_interval_averages_max(edges, vals, float(x)))


def test_interval_maximal_matches_dense_oracle_on_pinned_window():
    for _, f in hilbert_test_suite(1.0 / 128):
        (edges,), vals = _window(_transform_grid(f, 48.0, 3072), (0.0,), 0.0, 3074)
        assert len(edges) == 3073
        with np.errstate(all="raise"):
            inner = hardy_littlewood_all_centers(edges, vals)
            assert_rel_close(inner, dense_all_centers(edges, vals))
            for x in list(HILBERT_SAMPLES) + [edges[0], edges[1000], edges[-1]]:
                got = _interval_averages_max(edges, vals, float(x))
                assert_rel_close(got, dense_interval_averages_max(edges, vals, float(x)))
                got = _interval_averages_max(edges, inner, float(x))
                assert_rel_close(got, dense_interval_averages_max(edges, inner, float(x)))


def test_iterated_m2_array_form_matches_scalar_calls(monkeypatch):
    rng = np.random.default_rng(5)
    f = GridFunction(-0.5, 1.0 / 16, rng.uniform(-1.0, 2.0, 24))  # support [-0.5, 1]
    xs = np.array([-0.47, 1.0 / 3.0, 0.99, 0.5, -3.2, 2.7, 5.0])  # four inside, three outside
    passes = []
    engine = gridops.hardy_littlewood_all_centers
    monkeypatch.setattr(
        gridops, "hardy_littlewood_all_centers", lambda e, v: passes.append(1) or engine(e, v)
    )
    for pad in (0.0, 0.5, 1.0):
        want = [iterated_m2(f, float(x), pad) for x in xs]
        assert all(type(v) is float for v in want)
        passes.clear()
        assert iterated_m2(f, xs, pad).tolist() == want
        windows = {tuple(_window(f, (float(x),), pad, 2048)[0][0][[0, -1]]) for x in xs}
        assert len(passes) == len(windows) == 4


def test_maximal_sublinearity_randomized():
    rng = np.random.default_rng(0)
    h = 1.0 / 8
    delta = 0.5
    for _ in range(5):
        a = GridFunction(0.0, h, rng.uniform(0, 2, 32))
        b = GridFunction(0.0, h, rng.uniform(0, 2, 32))
        s = GridFunction(0.0, h, a.values + b.values)
        for x in (1.1, 3.7, -0.9):
            assert hardy_littlewood(s, x) <= hardy_littlewood(a, x) + hardy_littlewood(b, x) + 1e-9
            assert iterated_m2(s, x) <= iterated_m2(a, x) + iterated_m2(b, x) + 1e-9
            assert m_llogl(s, x) <= m_llogl(a, x) + m_llogl(b, x) + 1e-9
            # the delta-variant is a quasi-norm: constant 2^(1/delta - 1)
            quasi = 2.0 ** (1.0 / delta - 1.0)
            assert m_delta(s, x, delta) <= quasi * (m_delta(a, x, delta) + m_delta(b, x, delta)) + 1e-9


def test_m_delta_plain_subadditivity_fails():
    # disjoint indicators: M_delta(f+g) can exceed M_delta(f) + M_delta(g),
    # so only the quasi-norm inequality is asserted above
    h = 1.0 / 8
    f = GridFunction.indicator_1d(0.0, 1.0, h)
    g = GridFunction.indicator_1d(1.0, 2.0, h)
    s = GridFunction(0.0, h, np.ones(16))
    x = 4.0
    d = 0.5
    assert m_delta(s, x, d) > m_delta(f, x, d) + m_delta(g, x, d)


def test_m_delta_consistency():
    f = step01(1.0 / 8)
    # indicator powers are the indicator again: M_delta = M(f)^(1/delta)
    for d in (0.25, 0.5, 0.75):
        assert abs(m_delta(f, 2.0, d) - hardy_littlewood(f, 2.0) ** (1.0 / d)) < 1e-12
    # Jensen: M_delta <= M for delta < 1 wherever |f| <= 1
    for x in (0.31, 2.0, -1.7):
        assert m_delta(f, x, 0.5) <= hardy_littlewood(f, x) + 1e-12
    with pytest.raises(ValueError):
        m_delta(f, 2.0, 0.0)


def test_hardy_littlewood_2d():
    f = GridFunction.box_2d(0.0, 1.0, 0.0, 1.0, 1.0 / 8)
    v = hardy_littlewood(f, (2.0, 0.5))
    # best square [0,2]x[-0.5,1.5]: mass 1, area 4
    assert abs(v - 0.25) < 1e-12
    const2 = GridFunction((0.0, 0.0), 0.5, np.full((16, 16), 2.0))
    assert abs(hardy_littlewood(const2, (4.2, 4.2)) - 2.0) < 1e-12


def test_window_cap_shrinks_padding_first():
    # a cap of exactly the support's cells drops the padding on every axis
    for f, x in ((step01(1.0 / 8), 0.31), (GridFunction.box_2d(0.0, 1.0, 0.0, 1.0, 1.0 / 8), (0.31, 0.77))):
        assert hardy_littlewood(f, x, pad=1.0, max_cells=8) == hardy_littlewood(f, x, pad=0.0)
        with pytest.raises(ValueError, match="window cap too small"):
            hardy_littlewood(f, x, pad=1.0, max_cells=7)


def all_sides_hl_2d(f, x, pad, max_cells):
    """Oracle: the unpruned scan of every square side, with the number of
    candidate squares it evaluates."""
    (ex, ey), vals = _window(f, x, pad, max_cells)
    nx, ny = vals.shape
    ii = np.zeros((nx + 1, ny + 1))
    ii[1:, 1:] = np.cumsum(np.cumsum(vals, axis=0), axis=1)
    tol = 1e-12
    px = (x[0] - ex[0]) / f.h
    py = (x[1] - ey[0]) / f.h
    best, squares = 0.0, 0
    for s in range(1, max(nx, ny) + 1):
        ix_lo = max(0, int(math.ceil(px - s - tol)))
        ix_hi = min(nx - s, int(math.floor(px + tol)))
        iy_lo = max(0, int(math.ceil(py - s - tol)))
        iy_hi = min(ny - s, int(math.floor(py + tol)))
        if ix_lo > ix_hi or iy_lo > iy_hi:
            continue
        lo_x, hi_x = slice(ix_lo, ix_hi + 1), slice(ix_lo + s, ix_hi + s + 1)
        lo_y, hi_y = slice(iy_lo, iy_hi + 1), slice(iy_lo + s, iy_hi + s + 1)
        mass = ii[hi_x, hi_y] - ii[lo_x, hi_y] - ii[hi_x, lo_y] + ii[lo_x, lo_y]
        best = max(best, float(mass.max()) / (s * s))
        squares += mass.size
    return best, squares


def test_hl_2d_matches_all_sides_oracle():
    rng = np.random.default_rng(13)
    h = 1.0 / 8
    fields = [GridFunction((0.0, 0.0), h, np.zeros((6, 9)))]
    for shape in ((5, 5), (7, 12), (16, 3), (11, 11)):
        fields.append(GridFunction((-0.5, 0.25), h, rng.uniform(0.0, 2.0, shape)))
        fields.append(GridFunction((0.375, -1.0), h, rng.normal(size=shape) + 1j * rng.normal(size=shape)))
        sparse = np.abs(rng.standard_cauchy(shape)) * (rng.uniform(size=shape) < 0.3)
        fields.append(GridFunction((-0.25, -0.25), h, sparse))
    for f in fields:
        (x0, x1), (y0, y1) = f.support_box()
        points = [
            (rng.uniform(x0, x1), rng.uniform(y0, y1)),  # inside the support
            (x1 + 0.61, y0 - 0.27),  # outside it
            (x0 + 2 * h, y0 + 3 * h),  # a cell corner
            (x0 + h, rng.uniform(y0, y1)),  # a cell edge
        ]
        for x in points:
            for pad in (0.0, 0.5, 1.0):
                assert hardy_littlewood(f, x, pad) == all_sides_hl_2d(f, x, pad, 8192)[0]
        # a cap a few cells over the support's gives up most of the padding
        cap = max(f.values.shape) + 3
        assert hardy_littlewood(f, points[0], 1.0, cap) == all_sides_hl_2d(f, points[0], 1.0, cap)[0]
    assert hardy_littlewood(fields[0], (0.3, 0.4)) == 0.0


def test_hl_2d_side_bound_holds_at_every_side():
    # sparse cells of mixed magnitude: a square whose rectangle adds no mass
    # is read through other image corners, so rounding alone separates them
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(8, 40))
        mag = 10.0 ** rng.integers(-3, 3, (n, n))
        vals = np.where(rng.uniform(size=(n, n)) < 0.5, rng.uniform(size=(n, n)) * mag, 0.0)
        ii = np.zeros((n + 1, n + 1))
        ii[1:, 1:] = np.cumsum(np.cumsum(vals, axis=0), axis=1)
        *corners, bound = gridops._side_bounds(ii, *rng.uniform(0.0, n, 2))
        for k in range(len(bound)):
            assert gridops._square_max(ii, *(int(a[k]) for a in corners)) <= bound[k]


def test_hl_2d_evaluates_few_squares(monkeypatch):
    # the denominator's M of `exp_beurling_composition` at mesh 1/32, first sample
    disk, z = GridFunction.disk(1.0, 1.0 / 32), COMPOSITION_SAMPLES[0]
    evaluated = []
    square_max = gridops._square_max

    def counted(ii, s, x0, x1, y0, y1):
        evaluated.append((x1 - x0 + 1) * (y1 - y0 + 1))
        return square_max(ii, s, x0, x1, y0, y1)

    monkeypatch.setattr(gridops, "_square_max", counted)
    got = hardy_littlewood(disk, (z.real, z.imag), pad=1.0, max_cells=2048)
    want, squares = all_sides_hl_2d(disk, (z.real, z.imag), 1.0, 2048)
    assert got == want
    assert 0 < sum(evaluated) <= 0.25 * squares


def test_maximal_functions_refuse_bad_points_and_pads():
    line, plane = GridFunction.indicator_1d(0.0, 1.0, 0.25), GridFunction.box_2d(0.0, 1.0, 0.0, 1.0, 0.25)
    assert abs(hardy_littlewood(line, 3.0, pad=0.4) - 1.0 / 3.0) < 1e-12
    calls = [
        lambda f, x, pad: hardy_littlewood(f, x, pad),
        lambda f, x, pad: m_delta(f, x, 0.5, pad),
        lambda f, x, pad: m_llogl(f, x, pad),
    ]
    for call in calls:
        for f, ok, wrong in ((line, 3.0, (0.5, 0.5)), (plane, (0.5, 0.5), (0.5, 0.5, 99.0))):
            for x in (wrong, np.full(f.dim, math.nan), np.full(f.dim, math.inf), np.full(f.dim, 0.5 + 0.5j)):
                with pytest.raises(ValueError, match="finite real coordinate"):
                    call(f, x, 1.0)
            for pad in (-0.4, math.nan, math.inf):
                with pytest.raises(ValueError, match="pad"):
                    call(f, ok, pad)
    for x, pad in ((math.nan, 1.0), (np.array([0.5, math.inf]), 1.0), (0.5, -0.4)):
        with pytest.raises(ValueError, match="finite"):
            iterated_m2(line, x, pad)
    # an all-zero field answers 0 without a bisection, yet still checks its point
    with pytest.raises(ValueError, match="finite real coordinate"):
        m_llogl(GridFunction(0.0, 0.25, np.zeros(4)), math.nan)


def test_orlicz_average_examples():
    one = GridFunction.indicator_1d(0.0, 1.0, 1.0 / 4)
    assert abs(orlicz_llogl_average(one, (0.0, 1.0)) - 1.0) < 1e-9
    zero = GridFunction(0.0, 1.0, np.zeros(3))
    assert orlicz_llogl_average(zero, (0.0, 3.0)) == 0.0
    # monotone in the scale factor
    prev = 0.0
    for c in (0.5, 1.0, 2.0, 4.0):
        g = GridFunction(0.0, 1.0 / 4, np.full(4, c))
        cur = orlicz_llogl_average(g, (0.0, 1.0))
        assert cur > prev
        prev = cur
    sq = GridFunction.box_2d(0.0, 1.0, 0.0, 1.0, 1.0 / 4)
    assert abs(orlicz_llogl_average(sq, ((0.0, 1.0), (0.0, 1.0))) - 1.0) < 1e-9
    with pytest.raises(ValueError, match="grid aligned"):
        orlicz_llogl_average(one, (0.03, 1.03))
    with pytest.raises(ValueError, match="grid aligned"):
        orlicz_llogl_average(sq, ((0.03, 1.03), (0.0, 1.0)))


def test_llogl_maximal_vs_iterated_bracket():
    """The Orlicz maximal function and the iterated maximal function stay
    within a fixed multiplicative bracket on random step functions."""
    rng = np.random.default_rng(42)
    ratios = []
    for trial in range(6):
        h = 1.0 / 16 if trial % 2 == 0 else 1.0 / 32
        n = int(round(2.0 / h))
        vals = rng.choice([0.0, 0.5, 1.0, 4.0], size=n, p=[0.3, 0.3, 0.3, 0.1])
        f = GridFunction(-1.0, h, vals)
        for x in (-0.51, 0.013, 0.77, 1.9):
            m2 = iterated_m2(f, x)
            ml = m_llogl(f, x)
            if m2 > 0 and ml > 0:
                ratios.append(ml / m2)
    assert ratios
    assert max(ratios) <= 8.0 and min(ratios) >= 1.0 / 8.0


def segment_llogl_oracle(f, x, pad=1.0, max_cells=512):
    """Oracle: every window interval [edges[a], edges[b]] that contains x,
    each with its own 60-step Luxemburg bisection on (0, 4 max |f| over the
    interval], over one dense (interval x cell) table of |f|."""
    (edges,), vals = _window(f, (x,), pad, max_cells)
    tol = 1e-12 * max(1.0, abs(x))
    a, b = np.meshgrid(np.nonzero(edges <= x + tol)[0], np.nonzero(edges >= x - tol)[0], indexing="ij")
    a, b = a[b > a], b[b > a]
    k = np.arange(len(vals))
    cells = np.where((k >= a[:, None]) & (k < b[:, None]), vals, 0.0)
    vmax = cells.max(axis=1)
    lo, hi = np.zeros(len(a)), 4.0 * np.maximum(vmax, 1e-300)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        too_small = phi_llogl(cells / mid[:, None]).sum(axis=1) / (b - a) > 1.0
        lo, hi = np.where(too_small, mid, lo), np.where(too_small, hi, mid)
    return float(np.max(np.where(vmax > 0, hi, 0.0)))


def test_m_llogl_matches_segment_oracle():
    rng = np.random.default_rng(7)
    for trial in range(100):
        h = 1.0 / rng.choice([1, 4, 8])
        n = int(rng.integers(1, 13))
        vals = rng.normal(size=n) * rng.choice([0.0, 1.0], size=n, p=[0.3, 0.7])
        if trial == 0:
            vals = np.zeros(n)
        f = GridFunction(h * rng.integers(-5, 5), h, vals)
        x = f.origin[0] + h * rng.integers(-4, n + 5)  # a lattice edge
        if trial % 2:
            x += h * rng.uniform(0.05, 0.95)  # inside a cell
        pad = float(rng.choice([0.0, 0.5, 1.0]))
        want = segment_llogl_oracle(f, x, pad, 40)
        assert abs(m_llogl(f, x, pad, 40) - want) <= 1e-12 * want
        assert (want == 0) == (trial == 0 or not vals.any())


def test_m_llogl_indicator_closed_form():
    # a cube of density t has L log L average 1/Phi^-1(1/t), largest where
    # t is: so Phi(1 / M_{L log L} chi) * M chi = 1
    cases = [(step01(1.0 / 8), x) for x in (0.31, 0.5, 1.0, 2.0, -0.7)]
    cases += [(GridFunction.box_2d(0.0, 1.0, 0.0, 1.0, 1.0 / 8), x) for x in ((0.31, 0.77), (2.0, 0.5), (1.6, -0.9))]
    for chi, x in cases:
        got = phi_llogl(1.0 / m_llogl(chi, x)) * hardy_littlewood(chi, x)
        assert abs(got - 1.0) <= 1e-12


def test_cotlar_control_stability():
    """sup H*f/(M_delta(Hf) + Mf) is bounded and refinement-stable."""

    def sup_ratio(mesh):
        f = step01(mesh)
        g = _transform_grid(f, 48.0, 1024)
        worst = 0.0
        for x in np.array([-2.31, -0.47, 0.309, 1.613, 5.37]) + 1 / 3333:
            num = hilbert_maximal(f, float(x))
            den = m_delta(g, float(x), 0.5, pad=0.0) + hardy_littlewood(f, float(x))
            worst = max(worst, num / den)
        return worst

    a, b = sup_ratio(1.0 / 64), sup_ratio(1.0 / 128)
    assert a < 5.0
    assert abs(b - a) / a < 0.2


# ----------------------------------------------------------------- beurling


def test_beurling_radial_cancellation():
    disk = GridFunction.disk(1.0, 1.0 / 32)
    assert abs(beurling_truncated(disk, 0j, 0.5)) < 1e-6
    assert abs(beurling_truncated(disk, 0j, 0.5, kernel="b2")) < 2e-3  # quadrature only
    assert abs(beurling_truncated(disk, 0j, 1.5)) < 1e-9  # empty intersection
    with pytest.raises(ValueError):
        beurling_truncated(disk, 0j, 1e-6)


def test_beurling_closed_form_outside_disk():
    disk = GridFunction.disk(1.0, 1.0 / 32)
    got = beurling_truncated(disk, 2.0 + 0j, 1.0 / 16)
    assert abs(got - math.pi / 4) < 4e-3  # pi/z^2 at z = 2
    z = 1.5 + 1.2j
    got2 = beurling_truncated(disk, z, 1.0 / 16)
    assert abs(got2 - math.pi / z**2) < 5e-3


def test_beurling_iterated_kernel_closed_form():
    # for the pinned kernel -2 conj(u)/u^3 the disk integral at outside z is
    # -pi (2 conj(z)/z^3 - 3/z^4); verified against exact contour integration
    disk = GridFunction.disk(1.0, 1.0 / 32)
    for z in (2.0 + 0j, 1.5 + 1.2j):
        got = beurling_truncated(disk, z, 1.0 / 16, kernel="b2")
        want = -math.pi * (2 * np.conj(z) / z**3 - 3 / z**4)
        assert abs(got - want) < 6e-3 * abs(want) + 1e-4


def test_beurling_transform_grid_matches_closed_form():
    disk = GridFunction.disk(1.0, 1.0 / 16)
    bg = beurling_transform_grid(disk, (-3.0, -3.0), 1.0 / 8, (48, 48))
    zs = bg.centers(0)[:, None] + 1j * bg.centers(1)[None, :]
    mask = np.abs(zs) > 1.3
    err = np.max(np.abs(bg.values[mask] - math.pi / zs[mask] ** 2))
    assert err < 3e-2


def _subcells(h, n):
    offs = (np.arange(n) + 0.5) / n - 0.5
    ox, oy = np.meshgrid(offs * h, offs * h, indexing="ij")
    return (ox + 1j * oy).ravel()


def scan_beurling_sum(f, z, eps, kern):
    """Oracle: one truncation by a full pass over the cells, ring cells one by one."""
    gx, gy = np.meshgrid(f.centers(0), f.centers(1), indexing="ij")
    w = (gx - z.real) + 1j * (gy - z.imag)
    d = np.abs(w)
    half_diag = f.h * math.sqrt(2.0) / 2.0
    outer = d >= eps + half_diag
    total = complex(np.sum(f.values[outer] * kern(w[outer])) * f.h * f.h)
    ring = (~outer) & (d > eps - half_diag) & (f.values != 0)
    sub = _subcells(f.h, 16)
    for i, j in np.argwhere(ring):
        wij = w[i, j] + sub
        keep = np.abs(wij) > eps
        if keep.any():
            total += complex(f.values[i, j] * np.sum(kern(wij[keep])) * (f.h / 16) ** 2)
    return total


def scan_beurling_maximal(f, z, grid, kernel="b"):
    """Oracle: the per-radius scan of `beurling_maximal`."""
    kern = {"b": _kernel_b, "b2": _kernel_b2}[kernel]
    vals = [abs(scan_beurling_sum(f, complex(z), float(e), kern)) for e in grid.eps if e >= f.h / 2]
    return max(vals, default=0.0)


def direct_beurling_transform_grid(f, origin, h, shape):
    """Oracle: the target x source double sum, near pairs subdivided one by one."""
    gx, gy = np.meshgrid(f.centers(0), f.centers(1), indexing="ij")
    src = (gx + 1j * gy).ravel()
    vals = f.values.ravel()
    tx = origin[0] + h * (np.arange(shape[0]) + 0.5)
    ty = origin[1] + h * (np.arange(shape[1]) + 0.5)
    out = np.zeros(shape, dtype=complex)
    sub = _subcells(f.h, 8)
    for i, x in enumerate(tx):
        w = src - (x + 1j * ty[None, :].T)
        far = np.abs(w) >= 4.0 * f.h
        out[i, :] = np.where(far, _kernel_b(np.where(far, w, 1.0)) * f.h * f.h, 0.0) @ vals
        for r, c in zip(*np.nonzero(~far)):
            if abs(w[r, c]) < f.h * 1e-9:
                continue  # self cell: principal value vanishes by symmetry
            ws = w[r, c] + sub
            keep = np.abs(ws) > f.h * 1e-9
            out[i, r] += vals[c] * np.sum(_kernel_b(ws[keep])) * (f.h / 8) ** 2
    return out


def _planar_fields():
    rng = np.random.default_rng(11)
    real = GridFunction((-0.75, -0.5), 1.0 / 8, rng.choice([0.0, 1.0, -0.5], size=(9, 7)))
    cplx = GridFunction((0.25, -0.375), 1.0 / 8, rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8)))
    return [real, cplx, GridFunction.disk(0.5, 1.0 / 8)]


def test_beurling_transform_grid_matches_direct_oracle():
    with np.errstate(all="raise"):
        for f in _planar_fields():
            for r in (1, 2, 3):
                h = r * f.h
                # a lattice on the source centers (self-cell skip), a generic
                # one, and one whose targets sit on near-stencil sub-points
                for shift in ((0.0, 0.0), (0.11 * h, -0.37 * h), (f.h / 16, 3 * f.h / 16)):
                    origin = (f.origin[0] - 3 * h + f.h / 2 - h / 2 + shift[0],
                              f.origin[1] - 2 * h + f.h / 2 - h / 2 + shift[1])
                    shape = (f.values.shape[0] // r + 6, f.values.shape[1] // r + 4)
                    got = beurling_transform_grid(f, origin, h, shape)
                    want = direct_beurling_transform_grid(f, origin, h, shape)
                    assert got.h == h and got.origin == origin
                    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))
        # 64 source cells, r = 2 and 192 targets correlate over 446 = 2 * 223
        # offsets, run at 448: a real and a complex field
        rng = np.random.default_rng(3)
        for vals in (rng.uniform(-1.0, 1.0, (64, 3)), rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))):
            f = GridFunction((-1.0, 0.0), 1.0 / 32, vals)
            origin, h, shape = (-7.0 + 0.37 / 16, -0.11 / 16), 1.0 / 16, (192, 3)
            assert f.values.shape[0] + 2 * (shape[0] - 1) == 446 and gridops._fast_len(446) == 448
            got = beurling_transform_grid(f, origin, h, shape)
            want = direct_beurling_transform_grid(f, origin, h, shape)
            assert got.values.shape == shape
            assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_lattice_correlate_fast_length_matches_raw_length():
    rng = np.random.default_rng(17)

    def draw(shape, cplx):
        return rng.normal(size=shape) + (1j * rng.normal(size=shape) if cplx else 0.0)

    for src_cplx in (False, True):
        for table_cplx in (False, True):
            # 1D: 223 is prime, index-array outputs
            src, table = draw(40, src_cplx), draw(223, table_cplx)
            keep = (np.array([39, 40, 100, 222]),)
            raw = np.fft.ifft(np.fft.fft(src, 223) * np.fft.fft(table))[keep]
            got = gridops._lattice_correlate(src, table, keep)
            assert np.iscomplexobj(got) == (src_cplx or table_cplx)
            assert np.max(np.abs(got - raw)) <= 1e-13 * np.max(np.abs(raw))
            # 2D: 446 = 2 * 223 and 97 prime, strided outputs up to the last
            src, table = draw((64, 5), src_cplx), draw((446, 97), table_cplx)
            keep = (slice(63, 446, 2), slice(4, 97, 3))
            raw = np.fft.ifft2(np.fft.fft2(src, table.shape) * np.fft.fft2(table))[keep]
            got = gridops._lattice_correlate(src, table, keep)
            assert got.shape == raw.shape == (192, 31)
            assert np.max(np.abs(got - raw)) <= 1e-13 * np.max(np.abs(raw))
    assert [gridops._fast_len(n) for n in (1, 7, 11, 97, 223, 446, 12413)] == [1, 7, 12, 98, 224, 448, 12500]


def test_beurling_truncations_match_scan_oracle():
    # 90 radii give several ring-cell blocks per call
    radii = TruncationGrid(np.concatenate([[0.03, 1.0 / 16, 0.07], np.geomspace(0.1, 3.0, 90)]))
    with np.errstate(all="raise"):
        for f in _planar_fields():
            centre = complex(f.centers(0)[3], f.centers(1)[2])
            for z in (centre, centre + 0.013 - 0.021j, 0.3 + 0.2j, 2.7 + 0.4j):
                for kernel, kern in (("b", _kernel_b), ("b2", _kernel_b2)):
                    got = beurling_maximal(f, z, radii, kernel=kernel)
                    want = scan_beurling_maximal(f, z, radii, kernel=kernel)
                    assert abs(got - want) <= 1e-12 * want
                    for eps in radii.eps[radii.eps >= f.h / 2][::7]:
                        got = beurling_truncated(f, z, eps, kernel=kernel)
                        assert abs(got - scan_beurling_sum(f, z, eps, kern)) <= 1e-12 * want
            assert beurling_maximal(f, 0j, TruncationGrid(np.array([f.h / 4]))) == 0.0
        # inside the disk, b2: the sup sits at a small radius whose ring bound
        # dwarfs |total|, so the pruning must keep that radius
        disk, eps = GridFunction.disk(0.5, 1.0 / 8), radii.eps[1:]
        total, bound, ring = gridops._beurling_truncations(disk, 0.3 + 0.2j, eps, (_kernel_b2, 2.0))
        k = np.argmax(np.abs(total + ring(np.arange(len(eps)))))
        assert eps[k] < 0.1 and bound[k] > 5 * abs(total[k])


def test_beurling_ring_bound_holds_at_every_radius():
    # a lone cell puts the bound near its worst case: one ring cell and no outside part
    lone = GridFunction((0.0, 0.0), 1.0 / 8, np.array([[1.0]]))
    radii = np.concatenate([[1.0 / 16, 0.07], np.geomspace(0.1, 3.0, 90)])
    with np.errstate(all="raise"):
        for f in _planar_fields() + [lone]:
            centre = complex(f.centers(0)[0], f.centers(1)[0])
            eps = radii[radii >= f.h / 2]
            for z in (centre, centre - 0.163 + 0.051j, centre + 0.0625 - 0.3j, 2.7 + 0.4j):
                for kernel in ("b", "b2"):
                    kern = gridops._planar_kernel(kernel)
                    total, bound, ring = gridops._beurling_truncations(f, z, eps, kern)
                    got = np.abs(total + ring(np.arange(len(eps))))
                    # the bound `beurling_maximal` prunes with
                    assert np.all(got <= (np.abs(total) + bound) * (1.0 + 1e-12))


def test_beurling_maximal_subdivides_few_ring_cells(monkeypatch):
    # the numerator field of `exp_beurling_composition` at mesh 1/32, first sample
    bg = beurling_transform_grid(GridFunction.disk(1.0, 1.0 / 32), (-6.0 - 0.11 / 16,) * 2, 1.0 / 16, (192, 192))
    z, radii = COMPOSITION_SAMPLES[0], TruncationGrid.geometric(1.0 / 8, 40.0, 24)
    pairs = []
    masked = gridops._masked_kernel
    monkeypatch.setattr(
        gridops, "_masked_kernel", lambda k, w, keep: pairs.append(len(w) * (w.ndim == 2)) or masked(k, w, keep)
    )
    with np.errstate(all="raise"):
        got = beurling_maximal(bg, z, radii)
        pruned = sum(pairs)
        pairs.clear()
        total, _, ring = gridops._beurling_truncations(bg, z, radii.eps, (_kernel_b, 1.0))
        full = np.abs(total + ring(np.arange(len(radii.eps))))
    assert abs(got - np.max(full)) <= 1e-12 * got
    assert 0 < pruned <= 0.25 * sum(pairs)


def test_beurling_transform_grid_rejects_bad_targets():
    disk = GridFunction.disk(1.0, 1.0 / 16)
    for h in (1.0 / 24, 3.0 / 32, 0.0, -1.0 / 8):
        with pytest.raises(ValueError, match="not a positive integer multiple"):
            beurling_transform_grid(disk, (0.0, 0.0), h, (4, 4))
    for shape in ((0, 4), (4, 0), (), (4,)):
        with pytest.raises(ValueError, match="two positive cell counts"):
            beurling_transform_grid(disk, (0.0, 0.0), 1.0 / 8, shape)


def test_beurling_maximal_far_field():
    disk = GridFunction.disk(1.0, 1.0 / 16)
    bm = beurling_maximal(disk, 3.0 + 0j)
    assert bm >= math.pi / 9 * 0.97
    assert beurling_maximal(disk, 3.0 + 0j, kernel="b2") > 0
    with pytest.raises(ValueError, match="unknown kernel"):
        beurling_maximal(disk, 3.0 + 0j, kernel="b3")
    with pytest.raises(ValueError, match="unknown kernel"):
        beurling_truncated(disk, 3.0 + 0j, 0.5, kernel="B")


# -------------------------------------------------------------- grid plumbing


def test_grid_function_basics():
    f = step01(1.0 / 4)
    assert f.dim == 1 and abs(f.integral() - 1.0) < 1e-12
    assert f.value_at(0.1) == 1.0 and f.value_at(1.7) == 0.0
    d = GridFunction.disk(1.0, 1.0 / 16)
    assert abs(d.integral() - math.pi) < 2e-3
    assert d.value_at((0.0, 0.0)) == 1.0 and d.value_at((2.0, 2.0)) == 0.0
    with pytest.raises(ValueError):
        GridFunction(0.0, -1.0, np.ones(3))
    with pytest.raises(ValueError):
        TruncationGrid(np.array([0.5, 0.5]))


def test_box_2d_refuses_empty_or_unaligned_sides():
    box = GridFunction.box_2d(0.0, 0.5, -1.0, 1.0, 0.25)
    assert box.values.shape == (2, 8) and box.origin == (0.0, -1.0)
    for sides in ((0.0, 0.3, 0.0, 1.0), (0.0, -1.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.5, 0.5)):
        with pytest.raises(ValueError):
            GridFunction.box_2d(*sides, 0.25)
