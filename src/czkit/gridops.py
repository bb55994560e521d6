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
over every grid-aligned interval or square containing x, scanned on the
aligned hull of the support and x (squared up in 2D), so both sides of any
inequality tested here range over the same cube family.

In 1D the largest average over windows [a, b] containing x is the steepest
slope between a prefix-sum point left of x and one right of it: the bridge
between the lower convex hull on the left and the upper hull on the right
(Chung & Lu, SIAM J. Comput. 34, 2005).  One point costs O(K) per
Dinkelbach step on a K-edge window; every cell center at once costs
O(K log K) time and memory through hull trees with binary lifting.  No
K x K table is built.

`iterated_m2` runs the same engine twice.  The tests bracket it by the
L log L maximal function, built on `hardy_littlewood` under a bisection
(C. Perez, J. Funct. Anal. 128, 1995, for M_{L log L} ~ M^2).

In 2D one sort of the cells by distance gives every radius of a truncation
scan its outside-cell sum, as a suffix sum, and a bound on its ring term,
as a prefix sum of |f|: a sub-point outside the circle has |K| < c/eps^2.
The maximal function subdivides the ring cells only of the radii whose
bound still reaches the largest |T| found; the others cannot hold the sup.
It takes one point or an array of points.  A cell lies at w = h (m - p)
from a point, m its integer offset and p the point's exact phase (its
position modulo the cell lattice), so the points of one call that share a
phase share one lattice of offsets, sorted by |w| once, and one sum per
(radius, ring cell), subdivided once per call.  A point alone on its
phase is a phase of one, whose union box is f's own box; a phase whose
union box holds more cells than its points' own boxes together goes one
point at a time.
The same move prunes the square sides of the 2D Hardy-Littlewood maximal
function: the rectangle enclosing every candidate square of one side
bounds all their averages, read from the integral image in one lookup,
and only the sides whose bound beats the best average found are scanned.

A transform sampled on targets commensurate with the source grid is a
lattice correlation in 1D as in 2D: FFT correlation with a table over the
lattice of target-source offsets (after the precorrected FFT of Phillips &
White, IEEE TCAD 16, 1997).  In 1D the table is log|offset| against the
edge jumps, with no quadrature error; in 2D it holds the kernel in the far
field and a subdivided stencil within 4 meshes, and is polyphase: targets r
meshes apart get one table per residue class mod r of the source cells, at
the target mesh, with the r^2 spectra summed before one inverse per part.
Both run through `_lattice_correlate`: real FFTs of the real and imaginary
parts at the smallest 2-3-5-7-smooth length that no kept output wraps at
(Frigo & Johnson, Proc. IEEE 93, 2005, on real-input and mixed-radix
transforms).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Grid functions
# ---------------------------------------------------------------------------


def _positive_finite(name: str, value: float) -> float:
    if not 0 < float(value) < math.inf:
        raise ValueError(f"{name} {float(value)!r} is not positive and finite")
    return float(value)


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
        self.h = _positive_finite("mesh", h)
        if self.dim == 1:
            self.origin = (float(origin),) if np.isscalar(origin) else (float(origin[0]),)
        else:
            self.origin = (float(origin[0]), float(origin[1]))
        self.values = values

    # ------------------------------------------------------------ geometry

    def edges(self) -> np.ndarray:
        """The cell edges along the first axis."""
        return self.origin[0] + self.h * np.arange(self.values.shape[0] + 1)

    def support_box(self) -> tuple[tuple[float, float], ...]:
        return tuple(
            (self.origin[a], self.origin[a] + self.h * self.values.shape[a])
            for a in range(self.dim)
        )

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
    def disk(radius: float, h: float) -> "GridFunction":
        """Indicator of the disk of the given radius about 0; a rim cell
        holds the share of its 16 x 16 sub-points inside the circle."""
        radius, h = _positive_finite("radius", radius), _positive_finite("mesh", h)
        half = math.ceil(radius / h) + 1
        n = 2 * half
        origin = (-half * h, -half * h)
        xs = origin[0] + h * (np.arange(n) + 0.5)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        d = np.hypot(gx, gy)
        vals = np.zeros((n, n))
        rim = np.abs(d - radius) <= h  # cells possibly cut by the circle
        vals[d < radius - h] = 1.0
        sub = (gx[rim] + 1j * gy[rim])[:, None] + _sub_offsets(h, 16)
        vals[rim] = (np.abs(sub) < radius).mean(axis=1)
        return GridFunction(origin, h, vals)


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
        lo, hi = _positive_finite("lo", lo), _positive_finite("hi", hi)
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


def _edge_jumps(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """f(e-) - f(e+) at every cell edge e of the 1D cell values, written into
    the contiguous out as ``-np.diff(values, prepend=0, append=0)`` forms
    them (numpy 2.4's in-place negative misreads a strided view)."""
    out[0], out[-1] = values[0], 0.0 - values[-1]
    np.subtract(values[1:], values[:-1], out=out[1:-1])
    return np.negative(out, out=out)


def _truncation_profile(fs: Sequence[GridFunction], x: float) -> tuple[np.ndarray, np.ndarray]:
    """The truncations at x of the summed pieces fs, from their edge jumps.

    T(eps) = int_eps^inf o(t) dt/t with the odd part o(t) = f(x+t) - f(x-t).
    Returns T[i] = T(d[i]) at the positive distances d = |e - x| of all cell
    edges e, sorted, and the jumps of the edges at x itself.  o is constant
    between consecutive distances and is the suffix sum of the jumps
    f(e-) - f(e+) beyond them, so T is one more suffix sum of
    o * log(d[i+1] / d[i]).  With no positive distance, T is the single
    value 0.  The distances |origin + h k - x| of all pieces fill one buffer;
    each piece adds a falling and a rising run, which a stable sort
    (timsort) merges.
    """
    if any(g.dim != 1 for g in fs):
        raise ValueError("Hilbert machinery is one-dimensional")
    ends = np.cumsum([len(g.values) + 1 for g in fs]).tolist()
    d = np.empty(ends[-1])
    jump = np.empty(ends[-1], dtype=np.result_type(*(g.values for g in fs)))
    for g, a, b in zip(fs, [0, *ends], ends):  # edges as `GridFunction.edges` forms them
        np.multiply(g.h, np.arange(b - a), out=d[a:b])
        d[a:b] += g.origin[0]
        _edge_jumps(g.values, jump[a:b])
    np.abs(np.subtract(d, x, out=d), out=d)
    order = np.argsort(d, kind="stable")
    d, jump = d[order], jump[order]
    z = int(np.searchsorted(d, 0.0, side="right"))
    at_x, d, jump = jump[:z], d[z:], jump[z:]
    o = jump[::-1].cumsum()[::-1]
    gain = np.zeros(max(len(d), 1), dtype=o.dtype)  # the last gain, beyond every edge, is 0
    gain[:-1] = o[1:] * np.log1p((d[1:] - d[:-1]) / d[:-1])
    return gain[::-1].cumsum()[::-1], at_x


def hilbert_maximal(f: GridFunction | Sequence[GridFunction], x: float) -> float:
    """sup over eps > 0 of |truncated transform| at x, exactly.

    Accepts a single grid function or a list sharing the point x (their
    truncations add).  Between consecutive edge distances the truncation
    is A + B log eps, whose modulus is largest at an end point, so the sup
    is the largest |T| at a positive edge distance.  At an x where the
    summed pieces jump, T grows like |jump| log(1/eps) and the sup is inf;
    pieces whose jumps at x cancel (equal values across a shared edge), up
    to rounding in their sum, stay finite.  x must be one finite real
    coordinate, and at least one piece is needed.
    """
    fs = [f] if isinstance(f, GridFunction) else list(f)
    if not fs:
        raise ValueError("hilbert_maximal needs at least one grid function")
    (x,) = _checked_point(1, x)
    t, at_x = _truncation_profile(fs, x)
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
    O((span s / f.h + s K) log), K edges.  f must be 1D and every target a
    finite real; no targets give an empty array.
    """
    if f.dim != 1:
        raise ValueError("Hilbert machinery is one-dimensional")
    xs = np.atleast_1d(np.asarray(xs))
    xs = xs if np.iscomplexobj(xs) else xs.astype(float)
    bad = np.iscomplexobj(xs) | ~np.isfinite(xs)
    if bad.any():
        raise ValueError(f"point {xs[bad][0].item()!r} is not 1 finite real coordinate(s)")
    if not xs.size:
        return np.zeros(0, dtype=np.result_type(f.values, float))
    edges = f.edges()
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
    u = np.zeros(n + 1, dtype=f.values.dtype)
    u[::s] = _edge_jumps(f.values, np.empty(len(edges), dtype=u.dtype))
    return _lattice_correlate([(u, table)], (m - m.min() + n,))


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


def _lattice_correlate(pairs, keep: tuple) -> np.ndarray:
    """The sums out[j] = sum over the pairs (src, table) and k of src[k] table[j - k]
    at j = keep, for tables of one shape and dtype over srcs of one dtype.

    keep holds an index array or slice per axis, selecting outputs with
    len(src) - 1 <= j < len(table) on that axis for every src: every term
    of those is in range, and none wraps in a circular convolution at any
    length of at least len(table).  Each axis runs at the smallest
    2-3-5-7-smooth such length.  Real and imaginary parts go through real
    FFTs, one table part at a time, as (a + ib)(c + id) = ac - bd + i(ad + bc),
    summed over the pairs, one held at a time, before one inverse per part.
    """
    re = im = None
    for src, table in pairs:
        size = [_fast_len(n) for n in table.shape]
        axes = list(range(table.ndim))

        def spectrum(a: np.ndarray) -> np.ndarray:
            return np.fft.rfftn(a, size, axes)

        a = spectrum(src.real)
        b = spectrum(src.imag) if np.iscomplexobj(src) else None
        c = spectrum(table.real)
        pr, pi = a * c, (None if b is None else b * c)
        if np.iscomplexobj(table):
            del c
            d = spectrum(table.imag)
            if b is not None:
                pr -= b * d
            pi = a * d if pi is None else pi + a * d
        src = table = a = b = c = d = None  # drop this pair before the next table is built
        re, im = (pr, pi) if re is None else (re + pr, None if pi is None else im + pi)
    out = np.fft.irfftn(re, size, axes)[keep]
    return out if im is None else out + 1j * np.fft.irfftn(im, size, axes)[keep]


# ---------------------------------------------------------------------------
# Maximal functions over grid-aligned cubes
# ---------------------------------------------------------------------------


_MAX_WINDOW_CELLS = 8192  # per axis; a 2D window at the cap holds 512 MiB of cells


def _window(f: GridFunction, x) -> tuple[list[np.ndarray], np.ndarray]:
    """The aligned hull of supp f and x, squared up in 2D to its longest
    side L, as edges per axis and |f| on its cells: the smallest window
    holding the sup over every aligned cube containing x.  An interval
    clipped to the hull keeps its mass and x and only shortens.  A square
    of side s <= L slides back in axis by axis, keeping x and its mass; one
    of side s > L averages at most total/s^2 < total/L^2, the average of
    the L-square holding the hull.  Over _MAX_WINDOW_CELLS cells per axis raises."""
    bounds = [
        (math.floor((min(lo, xa) - org) / f.h), math.ceil((max(hi, xa) - org) / f.h))
        for (lo, hi), xa, org in zip(f.support_box(), x, f.origin)
    ]
    side = max(i1 - i0 for i0, i1 in bounds)
    if side > _MAX_WINDOW_CELLS:
        raise ValueError(f"evaluation window of {side} cells per axis exceeds {_MAX_WINDOW_CELLS}")
    if f.dim == 2:
        bounds = [(i0, i0 + side) for i0, _ in bounds]
    edges = [org + f.h * np.arange(i0, i1 + 1) for org, (i0, i1) in zip(f.origin, bounds)]
    # the hull holds the stored extent, cells 0..n-1 on each axis, so both pads are >= 0
    return edges, np.pad(np.abs(f.values), [(-i0, i1 - n) for (i0, i1), n in zip(bounds, f.values.shape)])


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


def _checked_point(dim: int, x) -> tuple[float, ...]:
    """x as dim finite real coordinates, else ValueError.  A finite int or
    float in 1D passes without numpy: `hilbert_maximal` checks every call's point."""
    if dim == 1 and isinstance(x, (int, float)) and math.isfinite(x):
        return (float(x),)
    pt = np.ravel(x)
    if np.iscomplexobj(pt) or pt.size != dim or not np.isfinite(pt.astype(float)).all():
        raise ValueError(f"point {x!r} is not {dim} finite real coordinate(s)")
    return tuple(pt.astype(float).tolist())


def hardy_littlewood(f: GridFunction, x) -> float:
    """Maximal average of |f| over grid-aligned cubes containing x.

    The cube family is every interval (square) with edges on the grid
    lattice that contains x, scanned on the hull window of `_window`.  A
    point of other than f.dim coordinates, a non-finite point and a window
    of more than 8192 cells per axis raise ValueError.
    """
    x = _checked_point(f.dim, x)
    if f.dim == 1:
        (edges,), vals = _window(f, x)
        return _interval_averages_max(edges, vals, x[0])
    return _hl_2d(f, x)


def _hl_2d(f: GridFunction, x) -> float:
    """Largest average over the window's squares containing x, exactly.

    `_side_bounds` bounds every side's averages in one vectorised pass over
    the integral image.  The sides are visited in decreasing bound, and the
    scan stops at the first bound that does not exceed the best average
    found.  Cost: O(K^2) for a K-cell window, plus (s + 1)^2 box sums per
    visited side, in place of O(K^3) for all sides.
    """
    (ex, ey), vals = _window(f, x)
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
        for i in range(1, n):
            # the hull of 0..i-1 is the parent path from i-1, walked as a stack; the
            # root's key -inf ends each walk, and top == 0 ends one where s is -inf
            xi, yi, top = x[i], y[i], i - 1
            s = (yi - y[top]) / (xi - x[top])
            while key[top] >= s and top:
                top = parent[top]
                s = (yi - y[top]) / (xi - x[top])
            parent[i] = top
            key[i] = s
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


def iterated_m2(f: GridFunction, x) -> float | np.ndarray:
    """M(Mf) on the hull window of `_window`: the inner Mf is sampled at its
    cell centers, so this iterates Mf restricted to the hull, as
    `exp_pointwise_ratios` reads M^2(Hf).  x is one point (a float returns)
    or a 1D array of points (an array of one value each returns); points
    whose hulls coincide share one inner pass."""
    if f.dim != 1:
        raise ValueError("iterated maximal function implemented for dim 1")
    inner, out = {}, []
    for xx in np.atleast_1d(np.asarray(x)).tolist():
        (xx,) = _checked_point(1, xx)
        (edges,), vals = _window(f, (xx,))
        key = (edges[0], len(edges))
        if key not in inner:
            inner[key] = hardy_littlewood_all_centers(edges, vals)
        out.append(_interval_averages_max(edges[0] + f.h * np.arange(len(edges)), inner[key], xx))
    return out[0] if np.ndim(x) == 0 else np.array(out)


# ---------------------------------------------------------------------------
# Beurling-type planar truncations
# ---------------------------------------------------------------------------


# Each kernel is evaluated where ``keep`` holds and is 0 elsewhere; a dropped w is never divided by.


def _kernel_b(w: np.ndarray, keep) -> np.ndarray:
    return np.divide(1.0, w * w, out=np.zeros_like(w), where=keep)


def _kernel_b2(w: np.ndarray, keep) -> np.ndarray:
    return np.divide(-2.0 * np.conj(w), w * w * w, out=np.zeros_like(w), where=keep)


# name -> (kernel, c) with |K(w)| <= c / |w|^2
_KERNELS = {"b": (_kernel_b, 1.0), "b2": (_kernel_b2, 2.0)}


def _planar_kernel(name: str):
    if name not in _KERNELS:
        raise ValueError(f"unknown kernel {name!r}; expected one of {sorted(_KERNELS)}")
    return _KERNELS[name]


_SUBDIV = 16  # 2^4 per axis: dyadic subdivision depth 4 on boundary cells
_NEAR_SUBDIV = 8  # per axis, on source cells within 4 meshes of a target
# ring cells per vectorised block: 16k sub-points, 256 KiB per complex temporary.  Row sums
# do not depend on the block, so ring sums are bit-identical at any size; over the 30,793
# ring pairs of the four planar bench ops, 64 took 80-108 ms, 256 93-129 ms (best of 3, 2 vCPUs).
_RING_BLOCK = 64


@functools.lru_cache(maxsize=16)
def _sub_offsets(h: float, n: int) -> np.ndarray:
    """Midpoints of the n x n subcells of a side-h cell centered at 0, as complex; read-only."""
    offs = (np.arange(n) + 0.5) / n - 0.5
    ox, oy = np.meshgrid(offs * h, offs * h, indexing="ij")
    table = (ox + 1j * oy).ravel()
    table.flags.writeable = False
    return table


def _ring_sums(w: np.ndarray, e: np.ndarray, kern, h: float) -> np.ndarray:
    """Per pair, the sum of K(w + s) over the 16 x 16 sub-points s of a
    side-h cell with |w + s| > e, in blocks of _RING_BLOCK pairs."""
    sub, out = _sub_offsets(h, _SUBDIV), np.empty(len(w), dtype=complex)
    for b in range(0, len(w), _RING_BLOCK):
        ws = w[b : b + _RING_BLOCK, None] + sub
        out[b : b + _RING_BLOCK] = kern(ws, np.abs(ws) > e[b : b + _RING_BLOCK, None]).sum(axis=1)
    return out


def _phase(f: GridFunction, z: complex) -> tuple[tuple[float, float], tuple[int, int]]:
    """z's lattice phase p, in (-1, 1) per axis, and its shift n: z = origin
    + h (n + p + 1/2), so cell (i, j) of f lies at w = h ((i, j) - n - p) from
    z.  p is frac(z / h) - frac(origin / h + 1/2), so points an exact number of
    meshes apart get bitwise-equal phases where z / h is exact."""
    out = []
    for x, org in ((z.real, f.origin[0]), (z.imag, f.origin[1])):
        a, b = x / f.h, org / f.h + 0.5
        out.append(((a - math.floor(a)) - (b - math.floor(b)), math.floor(a) - math.floor(b)))
    return tuple(zip(*out))


def _beurling_truncations(f: GridFunction, p: tuple, shifts: Sequence, eps: np.ndarray, kernel: tuple):
    """Integral of f(w) K(w - z) over {|w - z| > e} for the radii e in eps, in
    two parts, at the points z of one lattice phase p with the given shifts
    (`_phase`), as a function of the index of a point.

    Midpoint rule on the cells fully outside the circle, 16 x 16 sub-points
    on the ring cells it may cut.  The cells lie at w = h (m - p) from the
    points, m over the union of their boxes; that lattice is sorted by |w|
    once, with K(w) and the ring ranks [inner, outer) of each radius (cell
    centers within half a diagonal of the circle).  A point then reads, at
    every radius, the outside part `total` as a suffix sum and a `bound` on
    the ring part: a counted sub-point has |w| > e, so |K(w)| < c / e^2
    (c = 1 for b, 2 for b2) and |ring(e)| <= c (h/e)^2 times the sum of |f|
    over the ring cells, one prefix-sum difference.  `ring(sel)` subdivides
    the ring cells of the radii eps[sel] only.  The points share the w bits,
    so each (radius, ring rank) sum is subdivided once, into a slot of
    `cache` that holds NaN until then; a lone point is a phase of one, whose
    union box is f's own box.  A union box of more cells than the points'
    own boxes together is split into one call per point.  Cost:
    O(C log C + E log C) for C cells and E radii, plus 256 sub-points per
    (radius, ring cell) pair that `ring` evaluates.
    """
    kern, c = kernel
    lo = [-max(n[a] for n in shifts) for a in (0, 1)]
    shape = [f.values.shape[a] - min(n[a] for n in shifts) - lo[a] for a in (0, 1)]
    if shape[0] * shape[1] > len(shifts) * f.values.size:
        return lambda k: _beurling_truncations(f, p, [shifts[k]], eps, kernel)(0)
    wx, wy = (f.h * (np.arange(a, a + s) - q) for a, s, q in zip(lo, shape, p))
    w = (wx[:, None] + 1j * wy[None, :]).ravel()
    d = np.abs(w)
    order = np.argsort(d, kind="stable")
    w, d = w[order], d[order]
    kw = kern(w, d > 0)
    half_diag = f.h * math.sqrt(2.0) / 2.0
    outer = np.searchsorted(d, eps + half_diag, side="left")
    inner = np.searchsorted(d, eps - half_diag, side="right")
    # the sum of radius r at ring rank k has the slot start[r] + k
    start = np.cumsum(outer - inner) - outer
    cache = np.full(start[-1] + outer[-1], np.nan, dtype=complex)

    def truncations(k: int):
        # f's cells sit at the offsets (i, j) - n of the union box
        i, j, box = -shifts[k][0] - lo[0], -shifts[k][1] - lo[1], np.zeros(shape, dtype=f.values.dtype)
        box[i : i + f.values.shape[0], j : j + f.values.shape[1]] = f.values
        vals = box.ravel()[order]
        suffix, absum = np.zeros(len(vals) + 1, dtype=complex), np.zeros(len(vals) + 1)
        np.cumsum((vals * kw)[::-1], out=suffix[-2::-1])  # suffix[i]: ranks i and up
        np.cumsum(np.abs(vals), out=absum[1:])  # absum[i]: ranks below i
        total = suffix[outer] * (f.h * f.h)
        # the last term bounds the rounding of the prefix sums: 2 n u, u = 2^-53, n the cell
        # count of f (the lattice's other cells add exact zeros), so every lattice prunes alike
        ring_abs = absum[outer] - absum[inner] + 2.3e-16 * f.values.size * absum[outer]
        bound = c * (f.h / eps) ** 2 * ring_abs

        def ring(sel: np.ndarray) -> np.ndarray:
            counts = outer[sel] - inner[sel]
            radius = np.repeat(np.arange(len(sel)), counts)
            cell = np.arange(counts.sum()) + np.repeat(inner[sel] - np.cumsum(counts) + counts, counts)
            live = vals[cell] != 0
            radius, cell = radius[live], cell[live]
            r = sel[radius]
            slot = start[r] + cell
            sums = cache[slot]
            miss = np.flatnonzero(np.isnan(sums))
            sums[miss] = cache[slot[miss]] = _ring_sums(w[cell[miss]], eps[r[miss]], kern, f.h)
            part = vals[cell] * sums
            acc = np.bincount(radius, part.real, len(sel)) + 1j * np.bincount(radius, part.imag, len(sel))
            return acc * (f.h / _SUBDIV) ** 2

        return total, bound, ring

    return truncations


def beurling_maximal(
    f: GridFunction, z, grid: TruncationGrid | None = None, kernel: str = "b"
) -> float | np.ndarray:
    """Scan sup over the radii of the truncation grid; a lower bound.

    z is one point (a float returns) or a 1D array of points (an array of
    one value each returns); a non-finite point raises ValueError.  Per
    point, the sorted cells of `_beurling_truncations` give every radius of
    at least half a mesh an upper bound U = |total| + bound on its |T|, in
    O(log C) per radius for C cells.  The radii of largest U and of largest
    |total| are evaluated first; then only the radii whose U reaches the
    best |T| so far get their ring cells subdivided, together in one
    vectorised pass.  The result is the sup over every radius, up to the
    rounding of the ring sums.  The points of one exact lattice phase
    (`_phase`) go through `_beurling_truncations` together; each point's
    value is the one a call for it alone gives, bit for bit.
    """
    if f.dim != 2:
        raise ValueError("planar truncation needs a 2D grid function")
    if grid is None:
        grid = TruncationGrid.default_for(f)
    kern = _planar_kernel(kernel)
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValueError(f"points must be one number or a 1D array, not an array of shape {zs.shape}")
    zs = zs.ravel()
    bad = zs[~np.isfinite(zs)]
    if bad.size:
        raise ValueError(f"point {complex(bad[0])!r} is not finite")
    eps = grid.eps[grid.eps >= f.h / 2]
    out = np.zeros(len(zs))
    phases: dict[tuple[float, float], list] = {}
    for k, zk in enumerate(zs.tolist() if len(eps) else []):
        p, n = _phase(f, zk)
        phases.setdefault(p, []).append((k, n))
    for p, members in phases.items():
        ks, shifts = zip(*members)
        truncations = _beurling_truncations(f, p, shifts, eps, kern)
        for i, k in enumerate(ks):
            total, bound, ring = truncations(i)
            upper = (np.abs(total) + bound) * (1.0 + 1e-12)  # the factor covers rounding
            first = np.zeros(len(eps), dtype=bool)
            first[[np.argmax(upper), np.argmax(np.abs(total))]] = True
            top = np.flatnonzero(first)
            best = np.max(np.abs(total[top] + ring(top)))
            rest = np.flatnonzero((upper >= best) & ~first)
            out[k] = max(best, np.max(np.abs(total[rest] + ring(rest)), initial=0.0))
    return float(out[0]) if np.ndim(z) == 0 else out


def _beurling_table(w: np.ndarray, h: float) -> np.ndarray:
    """K(w) h^2 at the source-target offsets w of side-h cells; within 4 meshes
    the cell integral on 8 x 8 sub-points, and 0 at the offset 0, whose centered
    cell drops out of the principal value by quarter-turn symmetry."""
    near = np.abs(w) < 4.0 * h
    wn = w[near]
    table = _kernel_b(w, ~near)  # the near entries are overwritten by the stencil below
    table *= h * h
    ws = wn[:, None] + _sub_offsets(h, _NEAR_SUBDIV)
    stencil = _kernel_b(ws, np.abs(ws) > h * 1e-9).sum(axis=1)
    table[near] = np.where(np.abs(wn) < h * 1e-9, 0.0, stencil * (h / _NEAR_SUBDIV) ** 2)
    return table


def beurling_transform_grid(
    f: GridFunction, origin, h: float, shape: tuple[int, int]
) -> GridFunction:
    """Principal-value transform of f sampled at the centers of a target grid.

    The target origin must be a finite planar point and the target mesh h
    must be r * f.h for an integer r >= 1.  Every source-target offset is
    then c0 + f.h * m on one integer lattice, and each of the r^2 residue
    classes a = m mod r, f.values[a1::r, a2::r], lies on the offsets
    c0 + f.h a + h q, q on a lattice of the target mesh.  `_lattice_correlate`
    correlates each class with its own `_beurling_table`, one at a time,
    and sums the spectra; no kept output wraps.  Cost: per class, three real
    FFTs (four for complex values) of M = (N1 + s1 - 1) (N2 + s2 - 1) table
    entries, N = ceil(n / r) for the source shape n and s the target shape,
    each axis padded to a 2-3-5-7-smooth length; then one inverse per real
    and imaginary part: O(r^2 M log M), with M about 1/r^2 of the offsets.
    """
    if f.dim != 2:
        raise ValueError("planar transform needs a 2D grid function")
    origin = _checked_point(2, origin)
    if len(shape) != 2 or min(shape) < 1:
        raise ValueError(f"target shape {tuple(shape)!r} must be two positive cell counts")
    r = round(_positive_finite("target mesh", h) / f.h)
    if r < 1 or abs(h - r * f.h) > 1e-9 * f.h:
        raise ValueError(
            f"target mesh {h!r} is not a positive integer multiple of the source mesh {f.h!r}"
        )
    (n1, n2), (s1, s2) = f.values.shape, shape
    big1, big2 = -(-n1 // r), -(-n2 // r)  # N = ceil(n / r), the cells of the largest class
    # class a's entry p is the offset a + r (N - 1 - p): out[i] = sum_k v[a + r k] G_a[i - k + N - 1]
    q1 = r * (big1 - 1 - np.arange(big1 + s1 - 1))[:, None]
    q2 = r * (big2 - 1 - np.arange(big2 + s2 - 1))[None, :]
    c0 = complex(
        f.origin[0] - origin[0] + (f.h - h) / 2, f.origin[1] - origin[1] + (f.h - h) / 2
    )
    pairs = ((f.values[a1::r, a2::r], _beurling_table(c0 + f.h * (a1 + q1 + 1j * (a2 + q2)), f.h))
             for a1 in range(r) for a2 in range(r))
    keep = (slice(big1 - 1, big1 - 1 + s1), slice(big2 - 1, big2 - 1 + s2))
    return GridFunction(origin, h, _lattice_correlate(pairs, keep))
