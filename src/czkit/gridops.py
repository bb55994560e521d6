"""Grid-function operator laboratory.

Test functions are piecewise-constant on uniform 1D or 2D grids.  On that
class the truncated Hilbert transform has an exact closed form: with the
odd part o(t) = f(x+t) - f(x-t), the truncation is int_eps^inf o(t) dt/t,
and o is constant between consecutive cell-edge distances |e - x|, where
it is the suffix sum of the edge jumps f(e-) - f(e+).  Its supremum over
all truncation radii is attained at an edge distance, so the maximal
Hilbert transform is computed exactly, not scanned; at a point where f
jumps it is infinite.  The planar
(Beurling-type) truncations use a midpoint rule with 16 x 16 sub-points on
the cells crossing the truncation circle.  That rule is not exact: at a
one-mesh radius on the composition fields, its relative gap to a 256 x 256
rule was measured at up to about 1e-5 for the kernel b and up to 0.51 for
the iterated kernel b2 (disk at mesh 1/16).  Maximal functions take suprema
over grid-aligned intervals or squares inside an explicit evaluation
window, so both sides of any inequality tested here range over the same
cube family.

In 1D the largest average over windows [a, b] containing x is the steepest
slope between a prefix-sum point left of x and one right of it: the bridge
between the lower convex hull on the left and the upper hull on the right
(Chung & Lu, SIAM J. Comput. 34, 2005).  One point costs O(K) per
Dinkelbach step on a K-edge window; every cell center at once costs
O(K log K) time and memory through hull trees with binary lifting.  No
K x K table is built.

The L log L maximal function is the same engine under a bisection.  A
cube's Luxemburg average of |f| is at most lam exactly when its average of
Phi(|f|/lam) is at most 1, so M_{L log L} f(x) = min{lam : M(Phi(|f|/lam))(x)
<= 1} over the same cube family (C. Perez, J. Funct. Anal. 128, 1995, for
M_{L log L} ~ M^2).

In 2D one sort of the cells by distance gives every radius of a truncation
scan its outside-cell sum, as a suffix sum, and a bound on its ring term,
as a prefix sum of |f|: a sub-point outside the circle has |K| < c/eps^2.
The maximal function subdivides the ring cells only of the radii whose
bound still reaches the largest |T| found; the others cannot hold the sup.
The same move prunes the square sides of the 2D Hardy-Littlewood maximal
function: the rectangle enclosing every candidate square of one side
bounds all their averages, read from the integral image in one lookup,
and only the sides whose bound beats the best average found are scanned.

A transform sampled on targets commensurate with the source grid is a
lattice correlation in 1D as in 2D: one FFT correlation with a table over
the lattice of target-source offsets (after the precorrected FFT of
Phillips & White, IEEE TCAD 16, 1997).  In 1D the table is log|offset|
against the edge jumps, with no quadrature error; in 2D it holds the
kernel in the far field and a subdivided stencil within 4 meshes.  Both
run through `_lattice_correlate`: real FFTs of the real and imaginary
parts at the smallest 2-3-5-7-smooth length that no kept output wraps
at (Frigo & Johnson, Proc. IEEE 93, 2005, on real-input and
mixed-radix transforms).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Grid functions
# ---------------------------------------------------------------------------


def _whole_cells(length: float, mesh: float) -> int:
    """The number of mesh cells in length, refused unless it is a positive
    whole number."""
    cells = round(length / mesh)
    if cells < 1 or abs(cells * mesh - length) > 1e-9 * length:
        raise ValueError(f"mesh {mesh!r} does not divide {length!r} into whole cells")
    return cells


class GridFunction:
    """Piecewise-constant compactly supported function on a uniform grid.

    1D: cell i covers [origin + i*h, origin + (i+1)*h).
    2D: cell (i, j) covers the product of the axis intervals; values[i, j].
    The function is zero outside the stored extent.
    """

    def __init__(self, origin, h: float, values: np.ndarray):
        values = np.asarray(values)
        if values.ndim not in (1, 2):
            raise ValueError("values must be a 1D or 2D array")
        self.dim = values.ndim
        self.h = float(h)
        if self.h <= 0:
            raise ValueError("mesh must be positive")
        if self.dim == 1:
            self.origin = (float(origin),) if np.isscalar(origin) else (float(origin[0]),)
        else:
            self.origin = (float(origin[0]), float(origin[1]))
        self.values = values

    # ------------------------------------------------------------ geometry

    def edges(self, axis: int = 0) -> np.ndarray:
        n = self.values.shape[axis]
        return self.origin[axis] + self.h * np.arange(n + 1)

    def centers(self, axis: int = 0) -> np.ndarray:
        n = self.values.shape[axis]
        return self.origin[axis] + self.h * (np.arange(n) + 0.5)

    def support_box(self) -> tuple[tuple[float, float], ...]:
        return tuple(
            (self.origin[a], self.origin[a] + self.h * self.values.shape[a])
            for a in range(self.dim)
        )

    def integral(self) -> complex | float:
        return self.values.sum() * self.h**self.dim

    def value_at(self, point) -> complex | float:
        pos = zip(np.ravel(point), self.origin, strict=True)  # one coordinate per axis
        idx = [math.floor((float(p) - o) / self.h) for p, o in pos]
        if all(0 <= i < n for i, n in zip(idx, self.values.shape)):
            return self.values[tuple(idx)]
        return 0.0

    # --------------------------------------------------------- constructors

    @staticmethod
    def indicator_1d(a: float, b: float, h: float) -> "GridFunction":
        """Indicator of [a, b) on a grid whose edges include a and b."""
        return GridFunction(a, h, np.ones(_whole_cells(b - a, h)))

    @staticmethod
    def sample_1d(fn, lo: float, hi: float, cells: int) -> "GridFunction":
        """Midpoint sampling of a callable on [lo, hi]."""
        h = (hi - lo) / cells
        xs = lo + h * (np.arange(cells) + 0.5)
        return GridFunction(lo, h, np.asarray(fn(xs), dtype=float))

    @staticmethod
    def disk(radius: float, h: float, center=(0.0, 0.0)) -> "GridFunction":
        """Indicator of a disk; a rim cell holds the share of its 16 x 16
        sub-points inside the circle."""
        half = math.ceil(radius / h) + 1
        n = 2 * half
        origin = (center[0] - half * h, center[1] - half * h)
        xs = origin[0] + h * (np.arange(n) + 0.5)
        ys = origin[1] + h * (np.arange(n) + 0.5)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        d = np.hypot(gx - center[0], gy - center[1])
        vals = np.zeros((n, n))
        rim = np.abs(d - radius) <= h  # cells possibly cut by the circle
        vals[d < radius - h] = 1.0
        sub = (gx[rim] + 1j * gy[rim])[:, None] + _sub_offsets(h, 16)
        vals[rim] = (np.abs(sub - complex(*center)) < radius).mean(axis=1)
        return GridFunction(origin, h, vals)

    @staticmethod
    def box_2d(x0: float, x1: float, y0: float, y1: float, h: float) -> "GridFunction":
        """Indicator of [x0, x1) x [y0, y1); each side a whole number of meshes."""
        return GridFunction((x0, y0), h, np.ones((_whole_cells(x1 - x0, h), _whole_cells(y1 - y0, h))))


@dataclass(frozen=True)
class TruncationGrid:
    """Finite increasing list of truncation radii."""

    eps: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.eps, dtype=float)
        if e.ndim != 1 or len(e) == 0 or np.any(e <= 0) or np.any(np.diff(e) <= 0):
            raise ValueError("eps must be a strictly increasing positive 1D array")
        object.__setattr__(self, "eps", e)

    @staticmethod
    def geometric(lo: float, hi: float, per_decade: int) -> "TruncationGrid":
        """Geometric radii from lo to hi, about per_decade of them per decade."""
        count = max(2, int(per_decade * math.log10(hi / lo)) + 1)
        return TruncationGrid(np.geomspace(lo, hi, count))

    @staticmethod
    def default_for(f: GridFunction, per_decade: int = 64) -> "TruncationGrid":
        box = f.support_box()
        diam = max(hi - lo for lo, hi in box) * (2 ** 0.5 if f.dim == 2 else 1.0)
        return TruncationGrid.geometric(f.h / 2, 4.0 * diam, per_decade)


# ---------------------------------------------------------------------------
# Hilbert transform: exact truncations for piecewise-constant functions
# ---------------------------------------------------------------------------


def _edge_jumps(f: GridFunction) -> np.ndarray:
    """f(e-) - f(e+) at every cell edge e of f, in edge order."""
    return -np.diff(f.values, prepend=0, append=0)


def _truncation_profile(fs: Sequence[GridFunction], x: float) -> tuple[np.ndarray, ...]:
    """The truncations at x of the summed pieces fs, from their edge jumps.

    T(eps) = int_eps^inf o(t) dt/t with the odd part o(t) = f(x+t) - f(x-t).
    Returns the positive distances d = |e - x| of all cell edges e, sorted;
    o[i], the odd part on (d[i-1], d[i]) (d[-1] = 0); and T[i] = T(d[i]).
    o is constant between consecutive distances and is the suffix sum of
    the jumps f(e-) - f(e+) beyond them, so T is one more suffix sum of
    o * log(d[i+1] / d[i]).  With no positive distance, T is the single
    value 0.  The last array holds the jumps of the edges at x itself.
    """
    if any(g.dim != 1 for g in fs):
        raise ValueError("Hilbert machinery is one-dimensional")
    d = np.concatenate([np.abs(g.edges() - x) for g in fs])
    jump = np.concatenate([_edge_jumps(g) for g in fs])
    order = np.argsort(d)
    d, jump = d[order], jump[order]
    z = int(np.searchsorted(d, 0.0, side="right"))
    at_x, d, jump = jump[:z], d[z:], jump[z:]
    o = np.cumsum(jump[::-1])[::-1]
    gain = o[1:] * np.log1p(np.diff(d) / d[:-1])
    return d, o, np.cumsum(np.append(gain, 0.0)[::-1])[::-1], at_x


def hilbert_truncated_many(f: GridFunction, x: float, eps: np.ndarray) -> np.ndarray:
    """Exact truncated Hilbert transform at every radius in eps.

    Integrates f(y)/(y - x) over {|y - x| > eps}; no quadrature error for
    piecewise-constant f.  Between consecutive edge distances the
    truncation is T(d) + o * log(d / eps), with d the next distance out.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise ValueError("truncation radii must be positive")
    d, o, t, _ = _truncation_profile([f], x)
    k = np.searchsorted(d, eps, side="right")
    i = np.minimum(k, len(d) - 1)
    return np.where(k < len(d), t[i] + o[i] * np.log(d[i] / eps), 0.0)


def hilbert_truncated(f: GridFunction, x: float, eps: float) -> float | complex:
    return hilbert_truncated_many(f, x, np.array([float(eps)]))[0].item()


def hilbert_maximal(f: GridFunction | Sequence[GridFunction], x: float) -> float:
    """sup over eps > 0 of |truncated transform| at x, exactly.

    Accepts a single grid function or a list sharing the point x (their
    truncations add).  Between consecutive edge distances the truncation
    is A + B log eps, whose modulus is largest at an end point, so the sup
    is the largest |T| at a positive edge distance.  At an x where the
    summed pieces jump, T grows like |jump| log(1/eps) and the sup is inf;
    pieces whose jumps at x cancel (equal values across a shared edge), up
    to rounding in their sum, stay finite.
    """
    fs = [f] if isinstance(f, GridFunction) else list(f)
    _, _, t, at_x = _truncation_profile(fs, x)
    if abs(at_x.sum()) > 1e-12 * np.abs(at_x).sum():
        return math.inf
    return float(np.max(np.abs(t)))


def hilbert_transform_many(f: GridFunction, xs: np.ndarray) -> np.ndarray:
    """Principal-value transform at many non-edge points, exactly.

    Summation by parts gives H(x) = sum over edges e of log|x - e| (f(e-) - f(e+)).
    With the targets on one lattice xs[0] + m f.h / s, s <= 64 (to 1e-9
    relative), every target-edge offset lies on it too, and the sum is one
    real-FFT correlation (`_lattice_correlate`) of the edge jumps,
    zero-stuffed every s steps, with a log table over the lattice range:
    O((span s / f.h + s K) log), K edges.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    edges, jumps = f.edges(), _edge_jumps(f)
    near = edges[np.clip(np.rint((xs - edges[0]) / f.h), 0, len(edges) - 1).astype(np.intp)]
    if np.min(np.abs(xs - near)) < 1e-13 * max(1.0, float(np.max(np.abs(xs)))):
        raise ValueError("principal value undefined at a cell edge")
    for s in range(1, 65):
        t = (xs - xs[0]) * (s / f.h)
        m = np.rint(t).astype(np.intp)
        if np.max(np.abs(t - m)) <= 1e-9 * max(1.0, float(np.max(np.abs(t)))):
            break
    else:
        raise ValueError(f"targets lie on no lattice of step {f.h!r}/s, s <= 64, of the source mesh {f.h!r}")
    n = s * (len(edges) - 1)
    w = (xs[0] - edges[0]) + (f.h / s) * np.arange(m.min() - n, m.max() + 1)
    # a zero offset pairs no target with an edge (tested above): keep it finite
    table = np.log(np.abs(w), out=np.zeros_like(w), where=w != 0)
    u = np.zeros(n + 1, dtype=jumps.dtype)
    u[::s] = jumps
    return _lattice_correlate(u, table, (m - m.min() + n,))


def _fast_len(n: int) -> int:
    """The smallest 2-3-5-7-smooth length >= n.  numpy's FFT takes other
    lengths, such as 446 = 2 * 223, up to three times as long."""
    while True:
        k = n
        for p in (2, 3, 5, 7):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _lattice_correlate(src: np.ndarray, table: np.ndarray, keep: tuple) -> np.ndarray:
    """The sums out[j] = sum_k src[k] table[j - k] at the outputs j = keep.

    keep holds an index array or slice per axis, selecting outputs with
    len(src) - 1 <= j < len(table) on that axis: every term of those is in
    range, and none wraps in a circular convolution at any length of at
    least len(table).  Each axis runs at the smallest 2-3-5-7-smooth such
    length.  The real and imaginary parts go through real FFTs, one table
    part at a time, and combine as (a + ib)(c + id) = ac - bd + i(ad + bc).
    """
    size = [_fast_len(n) for n in table.shape]
    axes = list(range(table.ndim))

    def spectrum(a: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(a, size, axes)

    a = spectrum(src.real)
    b = spectrum(src.imag) if np.iscomplexobj(src) else None
    c = spectrum(table.real)
    re, im = a * c, (None if b is None else b * c)
    if np.iscomplexobj(table):
        del c
        d = spectrum(table.imag)
        if b is not None:
            re -= b * d
        im = a * d if im is None else im + a * d
    out = np.fft.irfftn(re, size, axes)[keep]
    return out if im is None else out + 1j * np.fft.irfftn(im, size, axes)[keep]


# ---------------------------------------------------------------------------
# Maximal functions over grid-aligned cubes
# ---------------------------------------------------------------------------


def _padded_window(values: np.ndarray, bounds) -> np.ndarray:
    """|values[i0:i1]| per axis (i0, i1) as floats, zero where a range
    leaves the stored extent."""
    out = np.zeros([i1 - i0 for i0, i1 in bounds])
    src, dst = [], []
    for (i0, i1), n in zip(bounds, values.shape):
        lo, hi = max(i0, 0), min(i1, n)
        if hi <= lo:
            return out
        src.append(slice(lo, hi))
        dst.append(slice(lo - i0, hi - i0))
    out[tuple(dst)] = np.abs(values[tuple(src)])
    return out


def _window(f: GridFunction, x, pad: float, max_cells: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Aligned window covering the support and the point x on every axis,
    padded by `pad` times their joint extent: the edges per axis and |f|
    on the window's cells, zero-extended.  An axis longer than max_cells
    first gives up padding, then the window is refused."""
    bounds, edges = [], []
    for axis, ((lo, hi), xa) in enumerate(zip(f.support_box(), x)):
        org = f.origin[axis]
        wlo, whi = min(lo, xa), max(hi, xa)
        width = max(whi - wlo, f.h)
        wlo -= pad * width
        whi += pad * width
        i0 = int(math.floor((wlo - org) / f.h))
        i1 = int(math.ceil((whi - org) / f.h))
        if i1 - i0 > max_cells:
            # shrink the padding before giving up on the cap
            i0 += (i1 - i0 - max_cells) // 2
            i1 = i0 + max_cells
            if org + i0 * f.h > min(lo, xa) or org + i1 * f.h < max(hi, xa):
                raise ValueError("window cap too small for support plus evaluation point")
        bounds.append((i0, i1))
        edges.append(org + f.h * np.arange(i0, i1 + 1))
    return edges, _padded_window(f.values, bounds)


def _slope(csum: np.ndarray, edges: np.ndarray, a, b):
    return (csum[b] - csum[a]) / (edges[b] - edges[a])


def _max_slope(csum: np.ndarray, edges: np.ndarray, p: int, q: int) -> float:
    """Largest slope from a point a <= p to a point b >= q, a < b, of the
    prefix-sum polyline, by Dinkelbach steps.

    Each step takes the left point minimising csum - s*edges and the right
    point maximising it; the slope of that pair is the next s.  Once s stops
    rising, every left point lies on or above the line of slope s through
    the pair and every right point on or below it, so s is the maximum.
    Either q = p + 1, or q = p and the shared point pairs only with itself.
    """
    s = _slope(csum, edges, 0, len(edges) - 1)
    while True:
        a = int(np.argmin(csum[: p + 1] - s * edges[: p + 1]))
        b = q + int(np.argmax(csum[q:] - s * edges[q:]))
        if a == b:
            return float(s)
        t = _slope(csum, edges, a, b)
        if not t > s:
            return float(s)
        s = t


def _interval_averages_max(edges: np.ndarray, cellvals: np.ndarray, x: float) -> float:
    """Largest average over windows [edges[a], edges[b]] that contain x.

    The average is the slope between two points of the prefix-sum polyline,
    one left of x and one right of it; `_max_slope` finds the steepest pair
    in O(K) per step, a handful of steps in practice.
    """
    csum = np.concatenate([[0.0], np.cumsum(cellvals * np.diff(edges))])
    tol = 1e-12 * max(1.0, abs(x))
    p = int(np.count_nonzero(edges <= x + tol)) - 1  # last left edge
    q = int(np.count_nonzero(edges < x - tol))  # first right edge
    if p < 0 or q >= len(edges) or len(edges) < 2:
        return 0.0
    # an edge within tol of x is on both sides; a < b then needs a split at it
    splits = [(t, t) for t in range(q, p + 1)] or [(p, q)]
    return max(_max_slope(csum, edges, lo, hi) for lo, hi in splits)


def _checked_point(f: GridFunction, x, pad: float) -> tuple[float, ...]:
    """x as f.dim finite coordinates, with pad refused unless finite and >= 0."""
    pt = np.ravel(x)
    if np.iscomplexobj(pt) or pt.size != f.dim or not np.isfinite(pt.astype(float)).all():
        raise ValueError(f"point {x!r} is not {f.dim} finite real coordinate(s)")
    if not (math.isfinite(pad) and pad >= 0):
        raise ValueError(f"pad {pad!r} is not a finite non-negative number")
    return tuple(pt.astype(float).tolist())


def hardy_littlewood(
    f: GridFunction, x, pad: float = 1.0, max_cells: int = 8192
) -> float:
    """Maximal average of |f| over grid-aligned cubes containing x.

    The cube family is every interval (square) with edges on the grid
    lattice inside the evaluation window: the support of f and the point x,
    padded by `pad` times their joint extent.  A point of other than f.dim
    coordinates, a non-finite point and a negative or non-finite pad raise
    ValueError.
    """
    x = _checked_point(f, x, pad)
    if f.dim == 1:
        (edges,), vals = _window(f, x, pad, max_cells)
        return _interval_averages_max(edges, vals, x[0])
    return _hl_2d(f, x, pad, max_cells)


def _hl_2d(f: GridFunction, x, pad: float, max_cells: int) -> float:
    """Largest average over the window's squares containing x, exactly.

    `_side_bounds` bounds every side's averages in one vectorised pass over
    the integral image.  The sides are visited in decreasing bound, and the
    scan stops at the first bound that does not exceed the best average
    found.  Cost: O(K^2) for a K-cell window, plus (s + 1)^2 box sums per
    visited side, in place of O(K^3) for all sides.
    """
    (ex, ey), vals = _window(f, x, pad, max_cells)
    ii = np.zeros((vals.shape[0] + 1, vals.shape[1] + 1))
    ii[1:, 1:] = np.cumsum(np.cumsum(vals, axis=0), axis=1)
    *corners, bound = _side_bounds(ii, (x[0] - ex[0]) / f.h, (x[1] - ey[0]) / f.h)
    best = 0.0
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] <= best:
            break
        best = max(best, _square_max(ii, *(int(a[k]) for a in corners)))
    return best


def _side_bounds(ii: np.ndarray, px: float, py: float) -> tuple[np.ndarray, ...]:
    """The sides s of the squares of the integral image ii that contain the
    point (px, py), in cells; the ranges [x0, x1] x [y0, y1] of their lower
    corners; and a bound on each side's `_square_max`.

    Every such square lies inside the rectangle [x0, x1 + s] x [y0, y1 + s],
    so that rectangle's mass over s^2 bounds their averages, as the image
    sums non-negative cells.
    """
    nx, ny = ii.shape[0] - 1, ii.shape[1] - 1
    tol = 1e-12
    s = np.arange(1, max(nx, ny) + 1)
    x0 = np.maximum(0, np.ceil(px - s - tol)).astype(np.intp)
    x1 = np.minimum(nx - s, math.floor(px + tol))
    y0 = np.maximum(0, np.ceil(py - s - tol)).astype(np.intp)
    y1 = np.minimum(ny - s, math.floor(py + tol))
    live = (x0 <= x1) & (y0 <= y1)
    s, x0, x1, y0, y1 = s[live], x0[live], x1[live], y0[live], y1[live]
    # An image entry sums non-negative terms in sequence, so it is off by at
    # most (nx + ny) u T, T the total mass and u = 2^-53; a four-term box sum
    # by 4 (nx + ny) u T + 3 u T.  The slack covers that twice, once for the
    # square and once for its rectangle, plus the rounding of the bound.
    slack = 1e-15 * (nx + ny + 2) * ii[-1, -1]
    bound = (ii[x1 + s, y1 + s] - ii[x0, y1 + s] - ii[x1 + s, y0] + ii[x0, y0] + slack) / (s * s)
    return s, x0, x1, y0, y1, bound


def _square_max(ii: np.ndarray, s: int, x0: int, x1: int, y0: int, y1: int) -> float:
    """Largest average over the side-s squares of the integral image ii
    whose lower corners lie in [x0, x1] x [y0, y1]."""
    lo_x, hi_x = slice(x0, x1 + 1), slice(x0 + s, x1 + s + 1)
    lo_y, hi_y = slice(y0, y1 + 1), slice(y0 + s, y1 + s + 1)
    mass = ii[hi_x, hi_y] - ii[lo_x, hi_y] - ii[hi_x, lo_y] + ii[lo_x, lo_y]
    return float(mass.max()) / (s * s)  # cell areas cancel


def hardy_littlewood_all_centers(
    edges: np.ndarray, cellvals: np.ndarray
) -> np.ndarray:
    """M of a 1D windowed function at every cell center of the window.

    The value at cell i is the largest slope from a prefix-sum point in
    {0..i} to one in {i+1..K-1}: the bridge between the lower hull of the
    first set and the upper hull of the second.  Both hull families are
    trees built in one O(K) stack pass each.  All centers then run
    Dinkelbach steps together, each step a binary-lifting tangent query
    per hull, until no slope rises.  O(K log K) time and memory.
    """
    csum = np.concatenate([[0.0], np.cumsum(cellvals * np.diff(edges))])
    k = len(edges)
    lower = _HullTree(edges, csum)
    # the upper hulls of suffixes are the lower hulls of the point set
    # turned by 180 degrees; slopes are unchanged, bit for bit
    upper = _HullTree(-edges[::-1], -csum[::-1])
    live = np.arange(k - 1)
    best = _slope(csum, edges, live, live + 1)
    while live.size:
        s = best[live]
        a = lower.tangent(live, s)
        b = k - 1 - upper.tangent(k - 2 - live, s)
        t = _slope(csum, edges, a, b)
        rise = t > s
        live = live[rise]
        best[live] = t[rise]
    return best


class _HullTree:
    """Lower convex hulls of every prefix of points with increasing x.

    parent[i] is i's left neighbour on the lower hull of points 0..i, so
    that hull is the path from i to the root 0.  key[i] is the slope of the
    edge parent[i] -> i (-inf at the root) and strictly decreases along
    every path.  up[j] holds each node's 2^j-th ancestor.
    """

    __slots__ = ("up", "key")

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        n = len(xs)
        x, y = xs.tolist(), ys.tolist()
        parent = [0] * n
        key = [-math.inf] * n
        stack = [0]
        for i in range(1, n):
            top = stack[-1]
            s = (y[i] - y[top]) / (x[i] - x[top])
            while len(stack) > 1 and key[top] >= s:
                stack.pop()
                top = stack[-1]
                s = (y[i] - y[top]) / (x[i] - x[top])
            parent[i] = top
            key[i] = s
            stack.append(i)
        up = [np.array(parent, dtype=np.intp)]
        for _ in range(max(1, (n - 1).bit_length()) - 1):
            up.append(up[-1][up[-1]])
        self.up = up
        self.key = np.array(key)

    def tangent(self, v: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Per query, the point of the hull path from v minimising y - s*x:
        walk toward the root while the edge into the node is steeper than s."""
        key = self.key
        for row in reversed(self.up):
            w = row[v]
            v = np.where(key[w] > s, w, v)
        return np.where(key[v] > s, self.up[0][v], v)


def m_delta(f: GridFunction, x, delta: float, pad: float = 1.0, max_cells: int = 8192) -> float:
    """M(|f|^delta)^(1/delta) for 0 < delta <= 1."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    g = GridFunction(f.origin, f.h, np.abs(f.values) ** delta)
    return hardy_littlewood(g, x, pad, max_cells) ** (1.0 / delta)


def iterated_m2(f: GridFunction, x, pad: float = 1.0, max_cells: int = 2048) -> float | np.ndarray:
    """M(Mf): the inner pass is sampled at the window's cell centers.  x is
    one point (a float returns) or a 1D array of points (an array of one
    value each returns); points whose windows coincide share one inner pass."""
    if f.dim != 1:
        raise ValueError("iterated maximal function implemented for dim 1")
    inner, out = {}, []
    for xx in np.atleast_1d(np.asarray(x, dtype=float)).tolist():
        (xx,) = _checked_point(f, xx, pad)
        (edges,), vals = _window(f, (xx,), pad, max_cells)
        key = (edges[0], len(edges))
        if key not in inner:
            inner[key] = hardy_littlewood_all_centers(edges, vals)
        out.append(_interval_averages_max(edges[0] + f.h * np.arange(len(edges)), inner[key], xx))
    return out[0] if np.ndim(x) == 0 else np.array(out)


# ---------------------------------------------------------------------------
# Orlicz averages and their maximal function
# ---------------------------------------------------------------------------


def phi_llogl(t: np.ndarray) -> np.ndarray:
    """Young function t (1 + log+ t)."""
    t = np.asarray(t, dtype=float)
    return t * (1.0 + np.log(np.maximum(t, 1.0)))


def _luxemburg(avg, vmax: float) -> float:
    """Smallest lam with avg(lam) <= 1, for avg(lam) a Phi-average of
    values of at most vmax divided by lam.  avg does not increase with lam
    and avg(4 vmax) <= Phi(1/4) <= 1, so 60 halvings of (0, 4 vmax] reach
    float resolution.  0 when vmax is 0."""
    if vmax <= 0:
        return 0.0
    lo, hi = 0.0, 4.0 * vmax
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if avg(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def orlicz_llogl_average(f: GridFunction, q) -> float:
    """Luxemburg L log L average of f over a grid-aligned cube q.

    1D: q = (a, b); 2D: q = ((x0, x1), (y0, y1)) with equal side lengths.
    The infimal lambda is found by bisection to float resolution.
    """
    bounds = []
    for org, (a, b) in zip(f.origin, [q] if f.dim == 1 else q):
        a, b = float(a), float(b)
        if b <= a:
            raise ValueError("empty interval")
        i0 = int(round((a - org) / f.h))
        i1 = int(round((b - org) / f.h))
        if abs(org + i0 * f.h - a) > 1e-9 or abs(org + i1 * f.h - b) > 1e-9:
            raise ValueError("cube must be grid aligned")
        bounds.append((i0, i1))
    if len({i1 - i0 for i0, i1 in bounds}) > 1:
        raise ValueError("cube must be square")
    cells = _padded_window(f.values, bounds)
    return _luxemburg(lambda lam: phi_llogl(cells / lam).mean(), float(cells.max(initial=0.0)))


def m_llogl(f: GridFunction, x, pad: float = 1.0, max_cells: int = 512) -> float:
    """sup over grid-aligned cubes containing x of the L log L average: the
    smallest lam with M(Phi(|f|/lam))(x) <= 1, on the window and cube family
    of `hardy_littlewood`."""
    x = _checked_point(f, x, pad)
    a = np.abs(f.values)

    def avg(lam: float) -> float:
        return hardy_littlewood(GridFunction(f.origin, f.h, phi_llogl(a / lam)), x, pad, max_cells)

    return _luxemburg(avg, float(a.max(initial=0.0)))


# ---------------------------------------------------------------------------
# Beurling-type planar truncations
# ---------------------------------------------------------------------------


def _kernel_b(w: np.ndarray) -> np.ndarray:
    return 1.0 / (w * w)


def _kernel_b2(w: np.ndarray) -> np.ndarray:
    return -2.0 * np.conj(w) / (w * w * w)


# name -> (kernel, c) with |K(w)| <= c / |w|^2
_KERNELS = {"b": (_kernel_b, 1.0), "b2": (_kernel_b2, 2.0)}


def _planar_kernel(name: str):
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}; expected one of {sorted(_KERNELS)}")
    return _KERNELS[name]


_SUBDIV = 16  # 2^4 per axis: dyadic subdivision depth 4 on boundary cells
_NEAR_SUBDIV = 8  # per axis, on source cells within 4 meshes of a target
# ring cells per vectorised block, 64k sub-points; blocks of 16 to 512 cells
# run equally fast, of 1024 about half as fast
_RING_BLOCK = 256


def _sub_offsets(h: float, n: int) -> np.ndarray:
    """Midpoints of the n x n subcells of a side-h cell centered at 0, as complex."""
    offs = (np.arange(n) + 0.5) / n - 0.5
    ox, oy = np.meshgrid(offs * h, offs * h, indexing="ij")
    return (ox + 1j * oy).ravel()


def _masked_kernel(kern, w: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """kern(w) where keep holds and 0 elsewhere, never evaluating a dropped w."""
    return np.where(keep, kern(np.where(keep, w, 1.0)), 0.0)


def _beurling_truncations(f: GridFunction, z: complex, eps: np.ndarray, kernel: tuple):
    """Integral of f(w) K(w - z) over {|w - z| > e} for the radii e in eps, in two parts.

    Midpoint rule on the cells fully outside the circle, 16 x 16 sub-points
    on the ring cells it may cut.  One sort of the C cells by center
    distance gives, at every radius, the outside part `total` as a suffix
    sum and a `bound` on the ring part: a counted sub-point has |w| > e, so
    |K(w)| < c / e^2 (c = 1 for b, 2 for b2) and |ring(e)| <= c (h/e)^2
    times the sum of |f| over the ring cells, one prefix-sum difference.
    `ring(sel)` subdivides the ring cells of the radii eps[sel] only.
    Cost: O(C log C + E log C) for E radii, plus 256 sub-points per
    (radius, ring cell) pair asked of `ring`.
    """
    if f.dim != 2:
        raise ValueError("planar truncation needs a 2D grid function")
    kern, c = kernel
    w = ((f.centers(0)[:, None] - z.real) + 1j * (f.centers(1)[None, :] - z.imag)).ravel()
    d = np.abs(w)
    order = np.argsort(d, kind="stable")
    w, d, vals = w[order], d[order], f.values.ravel()[order]
    half_diag = f.h * math.sqrt(2.0) / 2.0
    outer = np.searchsorted(d, eps + half_diag, side="left")
    inner = np.searchsorted(d, eps - half_diag, side="right")
    cellsum = vals * _masked_kernel(kern, w, d > 0)
    suffix = np.append(np.cumsum(cellsum[::-1])[::-1], 0.0)
    total = suffix[outer] * (f.h * f.h)
    absum = np.append(0.0, np.cumsum(np.abs(vals)))
    # the last term bounds the rounding of the prefix sums: 2 n u, u = 2^-53
    ring_abs = absum[outer] - absum[inner] + 2.3e-16 * len(vals) * absum[outer]
    bound = c * (f.h / eps) ** 2 * ring_abs

    def ring(sel: np.ndarray) -> np.ndarray:
        counts = outer[sel] - inner[sel]
        radius = np.repeat(np.arange(len(sel)), counts)
        cell = np.arange(counts.sum()) + np.repeat(inner[sel] - np.cumsum(counts) + counts, counts)
        live = vals[cell] != 0
        radius, cell = radius[live], cell[live]
        e, sub = eps[sel], _sub_offsets(f.h, _SUBDIV)
        acc = np.zeros(len(sel), dtype=complex)
        for b in range(0, len(cell), _RING_BLOCK):
            rb, cb = radius[b : b + _RING_BLOCK], cell[b : b + _RING_BLOCK]
            ws = w[cb, None] + sub
            part = vals[cb] * _masked_kernel(kern, ws, np.abs(ws) > e[rb, None]).sum(axis=1)
            acc += np.bincount(rb, part.real, len(sel)) + 1j * np.bincount(rb, part.imag, len(sel))
        return acc * (f.h / _SUBDIV) ** 2

    return total, bound, ring


def beurling_truncated(f: GridFunction, z: complex, eps: float, kernel: str = "b") -> complex:
    """Integral of f(w) K(w - z) over {|w - z| > eps}, for K(w) = 1/w^2
    (kernel "b") or the iterated kernel -2 conj(w)/w^3 ("b2").  Midpoint
    rule, boundary cells subdivided.  Cost: one O(C log C) sort of the C
    cells plus 256 sub-points per cell the circle may cut."""
    kern = _planar_kernel(kernel)
    if eps < f.h / 2:
        raise ValueError("truncation radius below half a mesh")
    total, _, ring = _beurling_truncations(f, complex(z), np.array([float(eps)]), kern)
    return complex(total[0] + ring(np.array([0]))[0])


def beurling_maximal(
    f: GridFunction, z: complex, grid: TruncationGrid | None = None, kernel: str = "b"
) -> float:
    """Scan sup over the radii of the truncation grid; a lower bound.

    One sorted pass of `_beurling_truncations` gives every radius of at
    least half a mesh an upper bound U = |total| + bound on its |T|, in
    O(log C) per radius for C cells.  The radii of largest U and of largest
    |total| are evaluated first; then only the radii whose U reaches the
    best |T| so far get their ring cells subdivided, together in one
    vectorised pass.  The result is the sup over every radius, up to the
    rounding of the ring sums.
    """
    if grid is None:
        grid = TruncationGrid.default_for(f)
    kern = _planar_kernel(kernel)
    eps = grid.eps[grid.eps >= f.h / 2]
    if len(eps) == 0:
        return 0.0
    total, bound, ring = _beurling_truncations(f, complex(z), eps, kern)
    upper = (np.abs(total) + bound) * (1.0 + 1e-12)  # the factor covers rounding
    first = np.zeros(len(eps), dtype=bool)
    first[[np.argmax(upper), np.argmax(np.abs(total))]] = True
    top = np.flatnonzero(first)
    best = np.max(np.abs(total[top] + ring(top)))
    rest = np.flatnonzero((upper >= best) & ~first)
    return float(max(best, np.max(np.abs(total[rest] + ring(rest)), initial=0.0)))


def beurling_transform_grid(
    f: GridFunction, origin, h: float, shape: tuple[int, int]
) -> GridFunction:
    """Principal-value transform of f sampled at the centers of a target grid.

    The target mesh h must be r * f.h for an integer r >= 1.  Every
    source-target offset is then c0 + f.h * m on one integer lattice, so
    the transform is a lattice convolution: one table holds K(w) f.h^2 per
    offset, except that offsets closer than 4 source meshes hold the cell
    integral on 8 x 8 sub-points, and the offset 0 holds 0, since the
    centered cell drops out of the principal value by quarter-turn
    symmetry.  `_lattice_correlate` convolves the values with the table
    and keeps every r-th output, none of which wraps.  Cost: five real FFTs
    (six for complex values) of the M = (n1 + r(s1 - 1)) (n2 + r(s2 - 1))
    table entries, each axis padded to a 2-3-5-7-smooth length, with n the
    source and s the target shape: O(M log M).
    """
    if f.dim != 2:
        raise ValueError("planar transform needs a 2D grid function")
    if len(shape) != 2 or min(shape) < 1:
        raise ValueError(f"target shape {tuple(shape)!r} must be two positive cell counts")
    r = round(h / f.h)
    if r < 1 or abs(h - r * f.h) > 1e-9 * f.h:
        raise ValueError(
            f"target mesh {h!r} is not a positive integer multiple of the source mesh {f.h!r}"
        )
    (n1, n2), (s1, s2) = f.values.shape, shape
    # table entry p holds the offset m = n - 1 - p, so out[i] = sum_k v[k] G[r i - k + n - 1]
    m1 = n1 - 1 - np.arange(n1 + r * (s1 - 1))
    m2 = n2 - 1 - np.arange(n2 + r * (s2 - 1))
    c0 = complex(
        f.origin[0] - origin[0] + (f.h - h) / 2, f.origin[1] - origin[1] + (f.h - h) / 2
    )
    w = c0 + f.h * (m1[:, None] + 1j * m2[None, :])
    near = np.abs(w) < 4.0 * f.h
    wn = w[near]
    w[near] = 1.0  # a finite stand-in, overwritten by the stencil below
    table = _kernel_b(w)
    del w  # no offset grid is held through the transforms
    table *= f.h * f.h
    ws = wn[:, None] + _sub_offsets(f.h, _NEAR_SUBDIV)
    stencil = _masked_kernel(_kernel_b, ws, np.abs(ws) > f.h * 1e-9).sum(axis=1)
    table[near] = np.where(np.abs(wn) < f.h * 1e-9, 0.0, stencil * (f.h / _NEAR_SUBDIV) ** 2)
    del near
    keep = (slice(n1 - 1, n1 - 1 + r * s1, r), slice(n2 - 1, n2 - 1 + r * s2, r))
    return GridFunction(origin, h, _lattice_correlate(f.values, table, keep))
