"""Grid operator laboratory: exact 1D truncations, maximal functions,
planar truncations."""
import math
import re
import tracemalloc

import numpy as np
import pytest

from czkit.gridops import (
    GridFunction,
    TruncationGrid,
    beurling_maximal,
    beurling_transform_grid,
    hardy_littlewood,
    hardy_littlewood_all_centers,
    hilbert_maximal,
    hilbert_transform_many,
    iterated_m2,
    _interval_averages_max,
    _kernel_b,
    _kernel_b2,
    _HullTree,
    _window,
)
from czkit import gridops
from czkit.experiments import (
    ADVERSARIAL_WINDOWS,
    BEURLING_SAMPLES,
    COMPOSITION_SAMPLES,
    HILBERT_SAMPLES,
    _transform_grid,
    _transform_grid_2d,
    far_window_pieces,
    full_window_core,
    full_window_pieces,
    hilbert_test_suite,
    step_field,
    transform_closed_form,
)
from oracles import (
    beurling_parts,
    beurling_truncation,
    box_2d,
    centers,
    direct_beurling_transform_grid,
    hilbert_truncated_many,
    integral,
    m_llogl,
    phi_llogl,
    scan_beurling_maximal,
    scan_beurling_sum,
    value_at,
)


def step01(h=1.0 / 64):
    return GridFunction.indicator_1d(0.0, 1.0, h)


# ------------------------------------------------------------------ hilbert


def test_truncated_value_outside_support():
    assert abs(hilbert_truncated_many(step01(), 2.0, [0.5])[0] + math.log(2)) < 1e-12


def test_truncated_symmetry_zeros():
    even = GridFunction.indicator_1d(-1.0, 1.0, 1.0 / 64)
    assert abs(hilbert_truncated_many(even, 0.0, [0.25])[0]) < 1e-12
    assert abs(hilbert_truncated_many(step01(), 0.5, [0.25])[0]) < 1e-12


def test_truncated_grid_refinement_invariance():
    coarse, fine = step01(1.0 / 32), step01(1.0 / 256)
    eps = [0.05, 0.31, 1.7]
    for x in (1.9, -0.55, 0.31):
        assert np.max(np.abs(hilbert_truncated_many(coarse, x, eps) - hilbert_truncated_many(fine, x, eps))) < 1e-12


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
        jump = sum(value_at(g, x - h / 2) - value_at(g, x + h / 2) for g in pieces)
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


def test_multi_piece_maximal_with_tied_edge_distances():
    # ties: an edge shared by two pieces, an x midway between edges of
    # different pieces, and the full window, whose core shares its end edges
    h = 1.0 / 8
    rng = np.random.default_rng(5)
    left, right = GridFunction(0.0, h, rng.normal(size=16)), GridFunction(2.0, h, rng.normal(size=16))
    right.values[0] = left.values[-1]  # no jump across the shared edge
    far = GridFunction(3.0, h, rng.normal(size=8))
    core = full_window_core()
    cases = [([left, right], x) for x in (1.3, 2.0, 3.5 * h)]
    cases += [([left, far], 2.5), ([left, far], 2.5 + h / 2), ([left, right, far], 2.0)]
    cases += [(full_window_pieces(x, core), x) for x in (0.3, 5.0 + 1e-3, -11.7)]
    for pieces, x in cases:
        d = np.unique(np.concatenate([np.abs(g.edges() - x) for g in pieces]))
        want = np.max(np.abs(sum(hilbert_truncated_many(g, x, d[d > 0]) for g in pieces)))
        for order in (pieces, pieces[::-1]):
            assert abs(hilbert_maximal(order, x) - want) <= 1e-13 * want


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


@pytest.mark.parametrize(
    "call, f, x, match",
    [
        (hilbert_maximal, step01(), math.nan, "finite real coordinate"),
        (hilbert_maximal, step01(), math.inf, "finite real coordinate"),
        (hilbert_maximal, step01(), np.array([0.3, 0.4]), "finite real coordinate"),
        (hilbert_maximal, step01(), 1 + 1j, "finite real coordinate"),
        (hilbert_maximal, [], 0.3, "at least one grid function"),
        (hilbert_transform_many, step01(), [0.3, math.nan], "finite real coordinate"),
        (hilbert_transform_many, step01(), [0.3, math.inf], "finite real coordinate"),
        (hilbert_transform_many, step01(), np.array([0.3 + 0.5j, 2.3]), "finite real coordinate"),
        (hilbert_transform_many, box_2d(0.0, 1.0, 0.0, 1.0, 0.25), [0.3], "one-dimensional"),
    ],
)
def test_hilbert_entry_points_refuse_bad_input(call, f, x, match):
    with pytest.raises(ValueError, match=match):
        call(f, x)


def dense_transform_many(f, xs):
    """Oracle: sum over edges of log|x - e| (f(e-) - f(e+)) as one dense
    (targets x edges) log table."""
    table = np.log(np.abs(f.edges()[None, :] - np.asarray(xs, dtype=float)[:, None]))
    return table @ -np.diff(f.values, prepend=0, append=0)


def test_lattice_transform_matches_dense_oracle():
    cases = []
    for mesh in (1.0 / 128, 1.0 / 256, 1.0 / 100, 0.2):
        cases += [(f, centers(_transform_grid(f, 48.0, 3072))) for _, f in hilbert_test_suite(mesh)]
    for w in ADVERSARIAL_WINDOWS:
        gw = GridFunction.sample_1d(transform_closed_form, -w, w, 2048)
        cases.append((gw, centers(_transform_grid(gw, 4.0 * w, 2048))))
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


def test_hull_tree_matches_brute_force_prefix_hulls():
    # parent[i] is the smallest a < i of largest slope(a, i): i's left
    # neighbour on the lower hull of 0..i, collinear points dropped
    rng = np.random.default_rng(8)
    hat = dict(hilbert_test_suite(1.0 / 64))["hat"]
    edges = hat.origin[0] + hat.h * np.arange(-20, len(hat.values) + 21)
    cells = np.pad(hat.values, 20)  # zero runs: collinear prefix sums
    point_sets = [(edges, np.concatenate([[0.0], np.cumsum(cells * np.diff(edges))]))]
    for n in (1, 2, 3, 5, 40, 40, 120):
        xs = np.cumsum(rng.integers(1, 4, size=n)).astype(float)
        point_sets.append((xs, rng.integers(-6, 7, size=n).astype(float)))
    for xs, ys in point_sets:
        for x, y in ((xs, ys), (-xs[::-1], -ys[::-1])):
            tree = _HullTree(x, y)
            parent, key = [0], [-math.inf]
            for i in range(1, len(x)):
                slopes = [(y[i] - y[a]) / (x[i] - x[a]) for a in range(i)]
                parent.append(slopes.index(max(slopes)))
                key.append(max(slopes))
            assert tree.up[0].tolist() == parent and tree.key.tolist() == key
            for lo, hi in zip(tree.up, tree.up[1:]):
                assert np.array_equal(hi, lo[lo])
    # overflowed prefix sums give a slope of -inf, which the root's key does not stop
    tree = _HullTree(np.arange(4.0), np.array([0.0, -1e308, -math.inf, -math.inf]))
    assert tree.up[0].tolist() == [0, 0, 0, 2]


def wide_window(f, x, margin=3):
    """Oracle window: the aligned hull of supp f and x, widened on every
    side by margin times its longest side, as edges per axis and |f|."""
    hull = [
        (math.floor((min(lo, xa) - o) / f.h), math.ceil((max(hi, xa) - o) / f.h))
        for (lo, hi), xa, o in zip(f.support_box(), x, f.origin)
    ]
    grow = margin * max(i1 - i0 for i0, i1 in hull)
    bounds = [(i0 - grow, i1 + grow) for i0, i1 in hull]
    # the hull holds the support, cells 0..n-1 on each axis, so both pads are >= 0
    vals = np.pad(np.abs(f.values), [(-i0, i1 - n) for (i0, i1), n in zip(bounds, f.values.shape)])
    return [o + f.h * np.arange(i0, i1 + 1) for o, (i0, i1) in zip(f.origin, bounds)], vals


def test_hardy_littlewood_matches_dense_oracle_on_wide_window():
    # the derived window holds the sup over every interval containing x
    rng = np.random.default_rng(11)
    with np.errstate(all="raise"):
        for n in range(1, 61):
            h = float(rng.choice([1.0, 0.25, 1.0 / 3.0, 0.1]))
            f = GridFunction(h * int(rng.integers(-20, 20)), h, random_cells(rng, n, n % 4))
            lo, hi = f.support_box()[0]
            for x in (lo, hi, rng.uniform(lo, hi), lo - rng.uniform(0.0, 3.0 * (hi - lo)), hi + 7.3 * h):
                (edges,), vals = wide_window(f, (x,))
                assert_rel_close(hardy_littlewood(f, x), dense_interval_averages_max(edges, vals, x), 1e-14)


def test_interval_maximal_matches_dense_oracle_on_pinned_window():
    for _, f in hilbert_test_suite(1.0 / 128):
        (edges,), vals = _window(_transform_grid(f, 48.0, 3072), (0.0,))
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
    want = [iterated_m2(f, float(x)) for x in xs]
    assert all(type(v) is float for v in want)
    passes.clear()
    assert iterated_m2(f, xs).tolist() == want
    windows = {tuple(_window(f, (float(x),))[0][0][[0, -1]]) for x in xs}
    assert len(passes) == len(windows) == 4


def test_maximal_sublinearity_randomized():
    rng = np.random.default_rng(0)
    h = 1.0 / 8
    for _ in range(5):
        a = GridFunction(0.0, h, rng.uniform(0, 2, 32))
        b = GridFunction(0.0, h, rng.uniform(0, 2, 32))
        s = GridFunction(0.0, h, a.values + b.values)
        for x in (1.1, 3.7, -0.9):
            assert hardy_littlewood(s, x) <= hardy_littlewood(a, x) + hardy_littlewood(b, x) + 1e-9
            assert iterated_m2(s, x) <= iterated_m2(a, x) + iterated_m2(b, x) + 1e-9
            assert m_llogl(s, x) <= m_llogl(a, x) + m_llogl(b, x) + 1e-9


def test_hardy_littlewood_2d():
    f = box_2d(0.0, 1.0, 0.0, 1.0, 1.0 / 8)
    v = hardy_littlewood(f, (2.0, 0.5))
    # best square [0,2]x[-0.5,1.5]: mass 1, area 4
    assert abs(v - 0.25) < 1e-12
    const2 = GridFunction((0.0, 0.0), 0.5, np.full((16, 16), 2.0))
    assert abs(hardy_littlewood(const2, (4.2, 4.2)) - 2.0) < 1e-12


def test_hl_2d_squares_reach_past_the_support():
    # a thin bar: (s - 1/2) (1/8) / s^2 over the sides s in [1/2, 2] is largest at s = 1
    bar = box_2d(0.0, 1.5, 0.0, 0.125, 1.0 / 8)
    assert hardy_littlewood(bar, (2.0, 0.06)) == 1.0 / 16
    # the unit box from two sides away: the square [0, 3] x [-1, 2] averages 1/9
    box = box_2d(0.0, 1.0, 0.0, 1.0, 1.0 / 8)
    assert hardy_littlewood(box, (3.0, 0.5)) == 1.0 / 9


def test_window_beyond_the_cap_is_refused():
    line, plane = step01(1.0 / 8), box_2d(0.0, 1.0, 0.0, 1.0, 1.0 / 8)
    assert hardy_littlewood(line, 1000.0) == 1.0 / 1000.0  # 8000 cells: under the cap
    for call in (hardy_littlewood, iterated_m2, m_llogl):
        with pytest.raises(ValueError, match="^evaluation window of 16000 cells per axis exceeds 8192$"):
            call(line, 2000.0)
    # refused before any cell of the 2D window is allocated
    with pytest.raises(ValueError, match="^evaluation window of 16000 cells per axis exceeds 8192$"):
        hardy_littlewood(plane, (0.5, 2000.0))


def all_sides_hl_2d(f, x, window):
    """Oracle: the unpruned scan of every square side of the window
    (edges per axis, |f| on its cells) that contains x, with the number of
    candidate squares it evaluates."""
    (ex, ey), vals = window
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
            # squares tied in exact arithmetic may differ by one ulp in their sums
            assert_rel_close(hardy_littlewood(f, x), all_sides_hl_2d(f, x, wide_window(f, x))[0], 1e-14)
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
    # the denominator's M of `exp_beurling_composition` at mesh 1/32
    disk = GridFunction.disk(1.0, 1.0 / 32)
    evaluated = []
    square_max = gridops._square_max

    def counted(ii, s, x0, x1, y0, y1):
        evaluated.append((x1 - x0 + 1) * (y1 - y0 + 1))
        return square_max(ii, s, x0, x1, y0, y1)

    monkeypatch.setattr(gridops, "_square_max", counted)
    for z in COMPOSITION_SAMPLES[0], COMPOSITION_SAMPLES[7]:
        x = (z.real, z.imag)
        evaluated.clear()
        got = hardy_littlewood(disk, x)
        want, squares = all_sides_hl_2d(disk, x, _window(disk, x))
        assert got == want
    # the far sample: most sides are bounded below the best square found
    assert 0 < sum(evaluated) <= 0.25 * squares


def test_maximal_functions_refuse_bad_points():
    line, plane = GridFunction.indicator_1d(0.0, 1.0, 0.25), box_2d(0.0, 1.0, 0.0, 1.0, 0.25)
    assert abs(hardy_littlewood(line, 3.0) - 1.0 / 3.0) < 1e-12
    for call in (hardy_littlewood, m_llogl):
        for f, wrong in ((line, (0.5, 0.5)), (plane, (0.5, 0.5, 99.0))):
            for x in (wrong, np.full(f.dim, math.nan), np.full(f.dim, math.inf), np.full(f.dim, 0.5 + 0.5j)):
                with pytest.raises(ValueError, match="finite real coordinate"):
                    call(f, x)
    for x in (math.nan, np.array([0.5, math.inf]), np.array([0.5 + 7j])):
        with pytest.raises(ValueError, match="finite"):
            iterated_m2(line, x)
    # an all-zero field answers 0 without a bisection, yet still checks its point
    with pytest.raises(ValueError, match="finite real coordinate"):
        m_llogl(GridFunction(0.0, 0.25, np.zeros(4)), math.nan)


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


def segment_llogl_oracle(f, x):
    """Oracle: every interval [edges[a], edges[b]] that contains x, on the
    hull widened by one longest side each way (the table below grows as
    the cube of the window), each with its own 60-step Luxemburg bisection
    on (0, 4 max |f| over the interval], over one dense (interval x cell)
    table of |f|."""
    (edges,), vals = wide_window(f, (x,), margin=1)
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
        want = segment_llogl_oracle(f, x)
        assert abs(m_llogl(f, x) - want) <= 1e-12 * want
        assert (want == 0) == (trial == 0 or not vals.any())


def test_m_llogl_indicator_closed_form():
    # a cube of density t has L log L average 1/Phi^-1(1/t), largest where
    # t is: so Phi(1 / M_{L log L} chi) * M chi = 1
    cases = [(step01(1.0 / 8), x) for x in (0.31, 0.5, 1.0, 2.0, -0.7)]
    cases += [(box_2d(0.0, 1.0, 0.0, 1.0, 1.0 / 8), x) for x in ((0.31, 0.77), (2.0, 0.5), (1.6, -0.9))]
    for chi, x in cases:
        got = phi_llogl(1.0 / m_llogl(chi, x)) * hardy_littlewood(chi, x)
        assert abs(got - 1.0) <= 1e-12


def test_cotlar_control_stability():
    """sup H*f/(M_delta(Hf) + Mf) is bounded and refinement-stable."""

    def sup_ratio(mesh):
        f = step01(mesh)
        g = _transform_grid(f, 48.0, 1024)
        root = GridFunction(g.origin, g.h, np.abs(g.values) ** 0.5)  # |g|^delta, delta = 1/2
        worst = 0.0
        for x in np.array([-2.31, -0.47, 0.309, 1.613, 5.37]) + 1 / 3333:
            num = hilbert_maximal(f, float(x))
            den = hardy_littlewood(root, float(x)) ** 2.0 + hardy_littlewood(f, float(x))
            worst = max(worst, num / den)
        return worst

    a, b = sup_ratio(1.0 / 64), sup_ratio(1.0 / 128)
    assert a < 5.0
    assert abs(b - a) / a < 0.2


# ----------------------------------------------------------------- beurling


def test_beurling_radial_cancellation():
    disk = GridFunction.disk(1.0, 1.0 / 32)
    assert abs(beurling_truncation(disk, 0j, 0.5)) < 1e-6
    assert abs(beurling_truncation(disk, 0j, 0.5, kernel="b2")) < 2e-3  # quadrature only
    assert abs(beurling_truncation(disk, 0j, 1.5)) < 1e-9  # empty intersection


def test_beurling_closed_form_outside_disk():
    disk = GridFunction.disk(1.0, 1.0 / 32)
    got = beurling_truncation(disk, 2.0 + 0j, 1.0 / 16)
    assert abs(got - math.pi / 4) < 4e-3  # pi/z^2 at z = 2
    z = 1.5 + 1.2j
    got2 = beurling_truncation(disk, z, 1.0 / 16)
    assert abs(got2 - math.pi / z**2) < 5e-3


def test_beurling_iterated_kernel_closed_form():
    # for the pinned kernel -2 conj(u)/u^3 the disk integral at outside z is
    # -pi (2 conj(z)/z^3 - 3/z^4); verified against exact contour integration
    disk = GridFunction.disk(1.0, 1.0 / 32)
    for z in (2.0 + 0j, 1.5 + 1.2j):
        got = beurling_truncation(disk, z, 1.0 / 16, kernel="b2")
        want = -math.pi * (2 * np.conj(z) / z**3 - 3 / z**4)
        assert abs(got - want) < 6e-3 * abs(want) + 1e-4


def test_beurling_transform_grid_matches_closed_form():
    disk = GridFunction.disk(1.0, 1.0 / 16)
    bg = beurling_transform_grid(disk, (-3.0, -3.0), 1.0 / 8, (48, 48))
    zs = centers(bg, 0)[:, None] + 1j * centers(bg, 1)[None, :]
    mask = np.abs(zs) > 1.3
    err = np.max(np.abs(bg.values[mask] - math.pi / zs[mask] ** 2))
    assert err < 3e-2


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
        # 64 source cells at r = 2 give residue classes of 32 cells, which
        # with 192 targets correlate over 223 offsets (prime), run at 224: a
        # real and a complex field
        rng = np.random.default_rng(3)
        for vals in (rng.uniform(-1.0, 1.0, (64, 3)), rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))):
            f = GridFunction((-1.0, 0.0), 1.0 / 32, vals)
            origin, h, shape = (-7.0 + 0.37 / 16, -0.11 / 16), 1.0 / 16, (192, 3)
            assert f.values.shape[0] // 2 + shape[0] - 1 == 223 and gridops._fast_len(223) == 224
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
            # 1D, one pair: 223 is prime, index-array outputs
            src, table = draw(40, src_cplx), draw(223, table_cplx)
            keep = (np.array([39, 40, 100, 222]),)
            raw = np.fft.ifft(np.fft.fft(src, 223) * np.fft.fft(table))[keep]
            got = gridops._lattice_correlate([(src, table)], keep)
            assert np.iscomplexobj(got) == (src_cplx or table_cplx)
            assert np.max(np.abs(got - raw)) <= 1e-13 * np.max(np.abs(raw))
            # 2D, the 9 residue classes mod 3 of a 64 x 7 source, of uneven
            # sizes, against their own 223 x 97 tables (both prime), from a
            # generator; strided outputs from the largest class's last cell
            full = draw((64, 7), src_cplx)
            pairs = [(full[a1::3, a2::3], draw((223, 97), table_cplx)) for a1 in range(3) for a2 in range(3)]
            assert {s.shape for s, _ in pairs} == {(22, 3), (22, 2), (21, 3), (21, 2)}
            keep = (slice(21, 223), slice(2, 97, 3))
            raw = sum(np.fft.ifft2(np.fft.fft2(s, t.shape) * np.fft.fft2(t)) for s, t in pairs)[keep]
            got = gridops._lattice_correlate((pair for pair in pairs), keep)
            assert np.iscomplexobj(got) == (src_cplx or table_cplx)
            assert got.shape == raw.shape == (202, 32)
            assert np.max(np.abs(got - raw)) <= 1e-13 * np.max(np.abs(raw))
    assert [gridops._fast_len(n) for n in (1, 7, 11, 97, 223, 446, 12413)] == [1, 7, 12, 98, 224, 448, 12500]


def test_beurling_truncations_match_scan_oracle():
    # 90 radii give several ring-cell blocks per call
    radii = TruncationGrid(np.concatenate([[0.03, 1.0 / 16, 0.07], np.geomspace(0.1, 3.0, 90)]))
    with np.errstate(all="raise"):
        for f in _planar_fields():
            centre = complex(centers(f, 0)[3], centers(f, 1)[2])
            for z in (centre, centre + 0.013 - 0.021j, 0.3 + 0.2j, 2.7 + 0.4j):
                for kernel, kern in (("b", _kernel_b), ("b2", _kernel_b2)):
                    got = beurling_maximal(f, z, radii, kernel=kernel)
                    want = scan_beurling_maximal(f, z, radii, kernel=kernel)
                    assert abs(got - want) <= 1e-12 * want
                    for eps in radii.eps[radii.eps >= f.h / 2][::7]:
                        got = beurling_truncation(f, z, eps, kernel=kernel)
                        assert abs(got - scan_beurling_sum(f, z, eps, kern)) <= 1e-12 * want
            assert beurling_maximal(f, 0j, TruncationGrid(np.array([f.h / 4]))) == 0.0
        # inside the disk, b2: the sup sits at a small radius whose ring bound
        # dwarfs |total|, so the pruning must keep that radius
        disk, eps = GridFunction.disk(0.5, 1.0 / 8), radii.eps[1:]
        total, bound, ring = beurling_parts(disk, 0.3 + 0.2j, eps, (_kernel_b2, 2.0))
        k = np.argmax(np.abs(total + ring(np.arange(len(eps)))))
        assert eps[k] < 0.1 and bound[k] > 5 * abs(total[k])


def test_beurling_ring_bound_holds_at_every_radius():
    # a lone cell puts the bound near its worst case: one ring cell and no outside part
    lone = GridFunction((0.0, 0.0), 1.0 / 8, np.array([[1.0]]))
    radii = np.concatenate([[1.0 / 16, 0.07], np.geomspace(0.1, 3.0, 90)])
    with np.errstate(all="raise"):
        for f in _planar_fields() + [lone]:
            centre = complex(centers(f, 0)[0], centers(f, 1)[0])
            eps = radii[radii >= f.h / 2]
            for z in (centre, centre - 0.163 + 0.051j, centre + 0.0625 - 0.3j, 2.7 + 0.4j):
                for kernel in ("b", "b2"):
                    kern = gridops._planar_kernel(kernel)
                    total, bound, ring = beurling_parts(f, z, eps, kern)
                    got = np.abs(total + ring(np.arange(len(eps))))
                    # the bound `beurling_maximal` prunes with
                    assert np.all(got <= (np.abs(total) + bound) * (1.0 + 1e-12))


def test_beurling_transform_grid_peak_memory():
    # the composition-32 field and targets: one class table at the target
    # mesh and its spectra at a time peak near 4 MiB, while one 448 x 448
    # table over all offsets with its spectra takes 14 MiB
    disk = GridFunction.disk(1.0, 1.0 / 32)
    tracemalloc.start()
    try:
        _transform_grid_2d(disk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def test_beurling_maximal_subdivides_few_ring_cells(monkeypatch):
    # the numerator field of `exp_beurling_composition` at mesh 1/32, first sample
    bg = beurling_transform_grid(GridFunction.disk(1.0, 1.0 / 32), (-6.0 - 0.11 / 16,) * 2, 1.0 / 16, (192, 192))
    z, radii = COMPOSITION_SAMPLES[0], TruncationGrid.geometric(1.0 / 8, 40.0, 24)
    pairs = []

    def counted(w, keep):
        pairs.append(len(w) * (w.ndim == 2))  # (radius, ring cell) pairs, 256 sub-points each
        return _kernel_b(w, keep)

    monkeypatch.setitem(gridops._KERNELS, "b", (counted, 1.0))
    with np.errstate(all="raise"):
        got = beurling_maximal(bg, z, radii)
        pruned = sum(pairs)
        pairs.clear()
        total, _, ring = beurling_parts(bg, z, radii.eps, (counted, 1.0))
        full = np.abs(total + ring(np.arange(len(radii.eps))))
    assert abs(got - np.max(full)) <= 1e-12 * got
    assert 0 < pruned <= 0.25 * sum(pairs)
    # the eight samples share one lattice phase: one call over all of them
    # subdivides each (radius, ring cell offset) pair once
    pairs.clear()
    with np.errstate(all="raise"):
        scalar = [beurling_maximal(bg, z, radii) for z in COMPOSITION_SAMPLES]
        alone = sum(pairs)
        pairs.clear()
        assert beurling_maximal(bg, COMPOSITION_SAMPLES, radii).tolist() == scalar
    assert 0 < sum(pairs) <= 0.3 * alone


def test_lone_point_subdivides_each_ring_pair_once(monkeypatch):
    # a lone point is a phase of one: its ring sums go to the same cache as a phase's
    disk, z, radii = GridFunction.disk(1.0, 1.0 / 16), 0.3 + 0.2j, TruncationGrid.geometric(1.0 / 16, 4.0, 24)
    pairs = []

    def counted(w, keep):
        pairs.append(len(w) * (w.ndim == 2))  # (radius, ring cell) pairs, 256 sub-points each
        return _kernel_b(w, keep)

    monkeypatch.setitem(gridops._KERNELS, "b", (counted, 1.0))
    every = np.arange(len(radii.eps))
    with np.errstate(all="raise"):
        _, _, ring = beurling_parts(disk, z, radii.eps, gridops._planar_kernel("b"))
        some = ring(every[::3])
        part = sum(pairs)
        first = ring(every)
        assert 0 < part < sum(pairs)
        pairs.clear()
        again = ring(every)
    assert sum(pairs) == 0
    assert again.tolist() == first.tolist() and first[::3].tolist() == some.tolist()


def test_beurling_maximal_array_form_matches_scalar_calls():
    # the fields and samples of `exp_beurling_composition` (one phase per
    # field) and of `exp_pointwise_ratios --kernel beurling` (nine phases)
    radii = TruncationGrid.geometric(1.0 / 16, 16.0, 24)
    disk = GridFunction.disk(1.0, 1.0 / 16)
    cases = [(g, COMPOSITION_SAMPLES) for f in (disk, step_field(1.0 / 16)) for g in (f, _transform_grid_2d(f))]
    with np.errstate(all="raise"):
        for f, zs in cases + [(disk, BEURLING_SAMPLES)]:
            for kernel in ("b", "b2"):
                got = beurling_maximal(f, zs, radii, kernel)
                assert got.dtype == float and got.tolist() == [beurling_maximal(f, z, radii, kernel) for z in zs]
        assert type(beurling_maximal(disk, 0.52 + 0.31j, radii)) is float
        assert beurling_maximal(disk, np.array([], dtype=complex), radii).shape == (0,)


def test_beurling_maximal_phase_groups_match_lone_points(monkeypatch):
    # the shift count of every `_beurling_truncations` call: one per phase,
    # then one per point where the phase's union box is too sparse to share
    calls, truncations = [], gridops._beurling_truncations

    def spy(f, p, shifts, eps, kernel):
        calls.append(len(shifts))
        return truncations(f, p, shifts, eps, kernel)

    monkeypatch.setattr(gridops, "_beurling_truncations", spy)
    radii = TruncationGrid.geometric(1.0 / 16, 4.0, 12)
    rng = np.random.default_rng(7)
    field = GridFunction((-0.625, -0.5), 1.0 / 8, rng.choice([0.0, 1.0, -0.5], size=(10, 8)))
    tenth = GridFunction((-0.5, -0.3), 0.1, rng.normal(size=(8, 6)))
    cases = [
        # one phase, 1 and 2 meshes apart: an 11 x 10 union box, 110 <= 3 x 80 cells
        (field, [0.3125 + 0.1875j, 0.4375 + 0.1875j, 0.3125 + 0.4375j], [3]),
        # one phase, 8 meshes apart on each axis: 18 x 16 > 2 x 80 cells, each point alone
        (field, [0.3125 + 0.1875j, 1.3125 + 1.1875j], [2, 1, 1]),
        # cell centres, where one cell sits at w = 0, at negative coordinates
        (field, [-0.5625 - 0.4375j, -0.3125 - 0.1875j, 0.1875 - 0.4375j], [3]),
        # mesh 0.1: z / h is inexact, so points a whole number of meshes apart
        # mostly get phases that differ in the last bits and go alone; where
        # the rounding happens to agree they share a lattice, at the same values
        (tenth, [0.17 + 0.04j + (0.1 + 0.1j) * k for k in range(3)], [1, 1, 1]),
        (tenth, [0.23 + 0.11j + 0.1 * k for k in range(3)], [3]),
    ]
    with np.errstate(all="raise"):
        for f, zs, groups in cases:
            for kernel in ("b", "b2"):
                calls.clear()
                got = beurling_maximal(f, np.array(zs), radii, kernel)
                assert calls == groups
                assert got.tolist() == [beurling_maximal(f, z, radii, kernel) for z in zs]
                for z, value in zip(zs, got.tolist()):
                    want = scan_beurling_maximal(f, z, radii, kernel)
                    assert abs(value - want) <= 1e-12 * want
            if groups[0] == len(zs):
                # a shared lattice gives each point the outside parts and ring
                # bounds of its own box, bit for bit, so pruning matches too
                eps, kern = radii.eps[radii.eps >= f.h / 2], gridops._planar_kernel("b2")
                (p, _), *_ = phases = [gridops._phase(f, z) for z in zs]
                shared = truncations(f, p, [n for _, n in phases], eps, kern)
                for k, z in enumerate(zs):
                    (total, bound, _), (alone, alone_bound, _) = shared(k), beurling_parts(f, z, eps, kern)
                    assert total.tolist() == alone.tolist() and bound.tolist() == alone_bound.tolist()


def test_beurling_maximal_refuses_non_finite_points():
    disk = GridFunction.disk(1.0, 1.0 / 8)
    for bad in (complex(math.nan, 0.0), complex(0.5, math.inf), complex(-math.inf, 0.0)):
        for z in (bad, np.array([0.5 + 0.5j, bad])):
            with pytest.raises(ValueError, match=re.escape(f"point {bad!r} is not finite")):
                beurling_maximal(disk, z)
    with pytest.raises(ValueError, match="1D array"):
        beurling_maximal(disk, np.zeros((2, 2)))


def test_beurling_transform_grid_rejects_bad_targets():
    disk = GridFunction.disk(1.0, 1.0 / 16)
    for h in (1.0 / 24, 3.0 / 32):
        with pytest.raises(ValueError, match="not a positive integer multiple"):
            beurling_transform_grid(disk, (0.0, 0.0), h, (4, 4))
    for h in (0.0, -1.0 / 8, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"target mesh {h!r} is not positive and finite")):
            beurling_transform_grid(disk, (0.0, 0.0), h, (4, 4))
    for shape in ((0, 4), (4, 0), (), (4,)):
        with pytest.raises(ValueError, match="two positive cell counts"):
            beurling_transform_grid(disk, (0.0, 0.0), 1.0 / 8, shape)
    for origin in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan), (0.0,), (0.5j, 0.0)):
        with pytest.raises(ValueError, match=re.escape(f"point {origin!r} is not 2 finite real coordinate(s)")):
            beurling_transform_grid(disk, origin, 1.0 / 8, (4, 4))


def test_no_points_give_an_empty_array():
    line, disk = step01(), GridFunction.disk(1.0, 1.0 / 8)
    for got in (hilbert_transform_many(line, []), iterated_m2(line, []), beurling_maximal(disk, [])):
        assert isinstance(got, np.ndarray) and got.shape == (0,)
    assert hilbert_transform_many(GridFunction(0.0, 0.25, np.full(4, 1j)), np.array([])).dtype == complex


def test_beurling_maximal_far_field():
    disk = GridFunction.disk(1.0, 1.0 / 16)
    bm = beurling_maximal(disk, 3.0 + 0j)
    assert bm >= math.pi / 9 * 0.97
    assert beurling_maximal(disk, 3.0 + 0j, kernel="b2") > 0
    with pytest.raises(ValueError, match="unknown kernel"):
        beurling_maximal(disk, 3.0 + 0j, kernel="b3")
    with pytest.raises(ValueError, match="unknown kernel"):
        beurling_maximal(disk, 3.0 + 0j, kernel="B")


# -------------------------------------------------------------- grid plumbing


def test_grid_function_basics():
    f = step01(1.0 / 4)
    assert f.dim == 1 and abs(integral(f) - 1.0) < 1e-12
    assert value_at(f, 0.1) == 1.0 and value_at(f, 1.7) == 0.0
    d = GridFunction.disk(1.0, 1.0 / 16)
    assert abs(integral(d) - math.pi) < 2e-3
    assert value_at(d, (0.0, 0.0)) == 1.0 and value_at(d, (2.0, 2.0)) == 0.0
    for h in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="not positive and finite"):
            GridFunction(0.0, h, np.ones(3))
        # refused before the grid is built: no overflow, division or float warning
        for args, name in (((h, 0.25), "radius"), ((1.0, h), "mesh")):
            with pytest.raises(ValueError, match=f"^{name} {h!r} is not positive and finite$"):
                GridFunction.disk(*args)
        for args, name in (((h, 4.0), "lo"), ((0.25, h), "hi")):
            with pytest.raises(ValueError, match=f"^{name} {h!r} is not positive and finite$"):
                TruncationGrid.geometric(*args, 24)
    with pytest.raises(ValueError):
        TruncationGrid(np.array([0.5, 0.5]))


def test_box_2d_refuses_empty_or_unaligned_sides():
    box = box_2d(0.0, 0.5, -1.0, 1.0, 0.25)
    assert box.values.shape == (2, 8) and box.origin == (0.0, -1.0)
    for sides in ((0.0, 0.3, 0.0, 1.0), (0.0, -1.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.5, 0.5)):
        with pytest.raises(ValueError):
            box_2d(*sides, 0.25)
