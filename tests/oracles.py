"""Reference implementations that the tests check kept code against.

None of these has a caller in the package.  Each is a slow or one-point
form of something the package computes, a closed form that a kept
function must reproduce, or a small helper (a cell lookup, a box, a float
value of a `SymScalar`) that only the tests use.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from czkit.exact import RationalLike, SymScalar, _as_fraction, _collect, gamma_product, riesz_multiplier
from czkit.gridops import (
    GridFunction,
    _beurling_truncations,
    _checked_point,
    _kernel_b,
    _kernel_b2,
    _phase,
    _planar_kernel,
    _sub_offsets,
    _truncation_profile,
    _whole_cells,
    hardy_littlewood,
)
from czkit.identities import fundamental_coeffs
from czkit.kernels import KernelError, KernelSpec
from czkit.polyalg import MultiPoly

Frac = Fraction


# ------------------------------------------------------------- value helpers


def value_at(f: GridFunction, point) -> complex | float:
    """f at a point: the value of the cell holding it, 0 outside the stored extent."""
    pos = zip(np.ravel(point), f.origin, strict=True)  # one coordinate per axis
    idx = [math.floor((float(p) - o) / f.h) for p, o in pos]
    if all(0 <= i < n for i, n in zip(idx, f.values.shape)):
        return f.values[tuple(idx)]
    return 0.0


def centers(f: GridFunction, axis: int = 0) -> np.ndarray:
    """The cell centres of f along one axis."""
    return f.origin[axis] + f.h * (np.arange(f.values.shape[axis]) + 0.5)


def degrees(kernel: KernelSpec) -> list[int]:
    """The degrees of the kernel's layers, lowest first."""
    return [c.degree for c in kernel.components]


def integral(f: GridFunction) -> complex | float:
    return f.values.sum() * f.h**f.dim


def box_2d(x0: float, x1: float, y0: float, y1: float, h: float) -> GridFunction:
    """Indicator of [x0, x1) x [y0, y1); each side a whole number of meshes."""
    return GridFunction((x0, y0), h, np.ones((_whole_cells(x1 - x0, h), _whole_cells(y1 - y0, h))))


def omega(kernel: KernelSpec) -> MultiPoly:
    """Sum of the components; equals the kernel numerator on |x| = 1."""
    out = MultiPoly.zero(kernel.dim)
    for c in kernel.components:
        out = out + c.poly
    return out


def imag_unit() -> SymScalar:
    return SymScalar(Fraction(1), 0, 1)


def is_real(s: SymScalar) -> bool:
    return s.k == 0 or s.q == 0


_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def to_complex(s: SymScalar) -> complex:
    if s.q == 0:
        return 0j
    return float(s.q) * math.pi ** (s.h / 2.0) * _I_POWERS[s.k]


def to_float(s: SymScalar) -> float:
    z = to_complex(s)
    if z.imag != 0.0:
        raise ValueError(f"{s!r} is not real")
    return z.real


# ---------------------------------------------------------------- truncations


def hilbert_truncated_many(f: GridFunction, x: float, eps: np.ndarray) -> np.ndarray:
    """Exact truncated Hilbert transform at every radius in eps.

    Integrates f(y)/(y - x) over {|y - x| > eps}; no quadrature error for
    piecewise-constant f.  Between consecutive edge distances the
    truncation is T(d) + o * log(d / eps), with d the next distance out,
    T(d) from `_truncation_profile` and o = f(x+t) - f(x-t) the odd part,
    read at the midpoint t of the two distances.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise ValueError("truncation radii must be positive")
    t, _ = _truncation_profile([f], x)
    d = np.sort(np.abs(f.edges() - x))
    d = d[d > 0]
    mid = (np.concatenate([[0.0], d[:-1]]) + d) / 2
    cell = np.floor((x + np.stack([mid, -mid]) - f.origin[0]) / f.h).astype(int)
    inside = (cell >= 0) & (cell < len(f.values))
    side = np.where(inside, f.values[np.where(inside, cell, 0)], 0.0)
    o = side[0] - side[1]
    k = np.searchsorted(d, eps, side="right")
    i = np.minimum(k, len(d) - 1)
    return np.where(k < len(d), t[i] + o[i] * np.log(d[i] / eps), 0.0)


def beurling_truncation(f: GridFunction, z: complex, eps: float, kernel: str = "b") -> complex:
    """Integral of f(w) K(w - z) over {|w - z| > eps}, for K(w) = 1/w^2
    (kernel "b") or the iterated kernel -2 conj(w)/w^3 ("b2"): the one
    radius eps of `_beurling_truncations`, outside part plus ring part."""
    total, _, ring = beurling_parts(f, z, np.array([float(eps)]), _planar_kernel(kernel))
    return complex(total[0] + ring(np.array([0]))[0])


def beurling_parts(f: GridFunction, z: complex, eps: np.ndarray, kernel: tuple):
    """`_beurling_truncations` at the one point z: the outside parts, the
    ring bounds and the ring function."""
    p, n = _phase(f, complex(z))
    return _beurling_truncations(f, p, [n], eps, kernel)(0)


def sorted_prefix_parts(f: GridFunction, z: complex, eps: np.ndarray, kernel: tuple):
    """Oracle: the outside parts and ring bounds of `_beurling_truncations` at
    the one point z, read as before the per-radius bins: f's cells sorted by
    |w|, a suffix sum of f K and a prefix sum of |f| over that order, each
    read at the ring ranks [inner, outer) of every radius."""
    kern, c = kernel
    p, n = _phase(f, complex(z))
    wx, wy = (f.h * (np.arange(-m, s - m) - q) for m, s, q in zip(n, f.values.shape, p))
    w = (wx[:, None] + 1j * wy[None, :]).ravel()
    d = np.abs(w)
    order = np.argsort(d, kind="stable")
    w, d, vals = w[order], d[order], f.values.ravel()[order]
    half_diag = f.h * math.sqrt(2.0) / 2.0
    outer = np.searchsorted(d, eps + half_diag, side="left")
    inner = np.searchsorted(d, eps - half_diag, side="right")
    suffix, absum = np.zeros(len(vals) + 1, dtype=complex), np.zeros(len(vals) + 1)
    np.cumsum((vals * kern(w, d > 0))[::-1], out=suffix[-2::-1])  # suffix[i]: ranks i and up
    np.cumsum(np.abs(vals), out=absum[1:])  # absum[i]: ranks below i
    # the last term bounds the rounding of the prefix sums: 2 n u, u = 2^-53, n the cells of f
    ring_abs = absum[outer] - absum[inner] + 2.3e-16 * f.values.size * absum[outer]
    return suffix[outer] * (f.h * f.h), c * (f.h / eps) ** 2 * ring_abs


def _subcells(h, n):
    offs = (np.arange(n) + 0.5) / n - 0.5
    ox, oy = np.meshgrid(offs * h, offs * h, indexing="ij")
    return (ox + 1j * oy).ravel()


def scan_beurling_sum(f, z, eps, kern):
    """Oracle: one truncation by a full pass over the cells, ring cells one by one."""
    gx, gy = np.meshgrid(centers(f, 0), centers(f, 1), indexing="ij")
    w = (gx - z.real) + 1j * (gy - z.imag)
    d = np.abs(w)
    half_diag = f.h * math.sqrt(2.0) / 2.0
    outer = d >= eps + half_diag
    total = complex(np.sum(f.values[outer] * kern(w[outer], True)) * f.h * f.h)
    ring = (~outer) & (d > eps - half_diag) & (f.values != 0)
    sub = _subcells(f.h, 16)
    for i, j in np.argwhere(ring):
        wij = w[i, j] + sub
        keep = np.abs(wij) > eps
        if keep.any():
            total += complex(f.values[i, j] * np.sum(kern(wij[keep], True)) * (f.h / 16) ** 2)
    return total


def scan_beurling_maximal(f, z, grid, kernel="b"):
    """Oracle: the per-radius scan of `beurling_maximal`."""
    kern = {"b": _kernel_b, "b2": _kernel_b2}[kernel]
    vals = [abs(scan_beurling_sum(f, complex(z), float(e), kern)) for e in grid.eps if e >= f.h / 2]
    return max(vals, default=0.0)


def direct_beurling_transform_grid(f, origin, h, shape):
    """Oracle: the target x source double sum, near pairs subdivided one by one."""
    gx, gy = np.meshgrid(centers(f, 0), centers(f, 1), indexing="ij")
    src = (gx + 1j * gy).ravel()
    vals = f.values.ravel()
    tx = origin[0] + h * (np.arange(shape[0]) + 0.5)
    ty = origin[1] + h * (np.arange(shape[1]) + 0.5)
    out = np.zeros(shape, dtype=complex)
    sub = _subcells(f.h, 8)
    for i, x in enumerate(tx):
        w = src - (x + 1j * ty[None, :].T)
        far = np.abs(w) >= 4.0 * f.h
        out[i, :] = np.where(far, _kernel_b(np.where(far, w, 1.0), True) * f.h * f.h, 0.0) @ vals
        for r, c in zip(*np.nonzero(~far)):
            if abs(w[r, c]) < f.h * 1e-9:
                continue  # self cell: principal value vanishes by symmetry
            ws = w[r, c] + sub
            keep = np.abs(ws) > f.h * 1e-9
            out[i, r] += vals[c] * np.sum(_kernel_b(ws[keep], True)) * (f.h / 8) ** 2
    return out


# ---------------------------------------------- earlier forms of the lab's inputs


def kernel_b_out_of_place(w: np.ndarray, keep) -> np.ndarray:
    """`gridops._kernel_b` into a zero-filled output, beside the w * w temporary."""
    return np.divide(1.0, w * w, out=np.zeros_like(w), where=keep)


def disk_whole_rim(radius: float, h: float) -> GridFunction:
    """`GridFunction.disk` with the 16 x 16 sub-points of every rim cell at once."""
    half = math.ceil(radius / h) + 1
    origin = (-half * h, -half * h)
    xs = origin[0] + h * (np.arange(2 * half) + 0.5)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    d = np.hypot(gx, gy)
    vals = np.zeros((2 * half, 2 * half))
    rim = np.abs(d - radius) <= h
    vals[d < radius - h] = 1.0
    sub = (gx[rim] + 1j * gy[rim])[:, None] + _sub_offsets(h, 16)
    vals[rim] = (np.abs(sub) < radius).mean(axis=1)
    return GridFunction(origin, h, vals)


def ring_sums(w: np.ndarray, e: np.ndarray, kern, h: float) -> np.ndarray:
    """Per pair, the sum of K(w + s) over the 16 x 16 sub-points s of a
    side-h cell with |w + s| > e, in blocks of 64 pairs: the ring sums of
    `_beurling_truncations` before `gridops._subcell_sums`."""
    sub, out = _sub_offsets(h, 16), np.empty(len(w), dtype=complex)
    for b in range(0, len(w), 64):
        ws = w[b : b + 64, None] + sub
        out[b : b + 64] = kern(ws, np.abs(ws) > e[b : b + 64, None]).sum(axis=1)
    return out


def near_stencil(wn: np.ndarray, h: float, kern) -> np.ndarray:
    """The unscaled 8 x 8 sub-point sums of `gridops._beurling_table` at its near
    offsets wn, every offset at once, for the kernel kern (`_kernel_b` there),
    as before `gridops._subcell_sums`."""
    ws = wn[:, None] + _sub_offsets(h, 8)
    return kern(ws, np.abs(ws) > h * 1e-9).sum(axis=1)


def seeded_step_field(mesh: float) -> GridFunction:
    """`experiments.step_field` with its levels drawn from seed 5."""
    coarse = np.random.default_rng(5).choice([0.0, 1.0, -0.5], size=(16, 16), p=[0.5, 0.3, 0.2])
    rep = _whole_cells(1.0 / 8, mesh)
    return GridFunction((-1.0, -1.0), mesh, np.repeat(np.repeat(coarse, rep, axis=0), rep, axis=1))


# ------------------------------------------------------ L log L maximal function
# A cube's Luxemburg average of |f| is at most lam exactly when its average
# of Phi(|f|/lam) is at most 1, so M_{L log L} f(x) = min{lam :
# M(Phi(|f|/lam))(x) <= 1} over the cube family of `hardy_littlewood`.
# M_{L log L} ~ M^2 (C. Perez, J. Funct. Anal. 128, 1995) makes it the
# bracket of `iterated_m2`.


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


def m_llogl(f: GridFunction, x) -> float:
    """sup over every grid-aligned cube containing x of the L log L
    average: the smallest lam with M(Phi(|f|/lam))(x) <= 1.  Phi(0) = 0,
    so `hardy_littlewood` scans it on the hull window of f and x."""
    x = _checked_point(f.dim, x)
    a = np.abs(f.values)

    def avg(lam: float) -> float:
        return hardy_littlewood(GridFunction(f.origin, f.h, phi_llogl(a / lam)), x)

    return _luxemburg(avg, float(a.max(initial=0.0)))


# ------------------------------------------------------------ exact closed forms


def _positive_definite(a: list[list[int]]) -> bool:
    """Whether a symmetric integer matrix is positive definite: the pivots of fraction-free
    (Bareiss) elimination, its leading principal minors, are all > 0 (Sylvester)."""
    a, prev = [row[:] for row in a], 1
    for k, row in enumerate(a):
        if row[k] <= 0:
            return False
        for below in a[k + 1 :]:
            below[k + 1 :] = [(row[k] * x - below[k] * y) // prev for x, y in zip(below[k + 1 :], row[k + 1 :])]
        prev = row[k]
    return True


def cap_derivatives(f: MultiPoly, pt: Sequence[Fraction]) -> tuple[list[int], list[list[int]]]:
    """sigma grad F(pt) / D and sigma Hess F(pt) / D^2 in integers, monomial by
    monomial, for pt = a / D (D the lcm of its denominators), sigma = S D^top, S
    the lcm of F's denominators and top its degree: the loops of
    `admissibility._exclusion_cap` before it read `_Bounds`'s partial polynomials."""
    n, den = len(pt), math.lcm(*(Fraction(x).denominator for x in pt))
    a = [int(x * den) for x in pt]
    scale = math.lcm(*(c.denominator for c in f.terms.values()))
    top = max(map(sum, f.terms), default=0)
    grad, hess = [0] * n, [[0] * n for _ in range(n)]
    for alpha, c in f.terms.items():
        w = c.numerator * (scale // c.denominator) * den ** (top - sum(alpha))
        for i in (i for i in range(n) if alpha[i]):
            e = [k - (m == i) for m, k in enumerate(alpha)]
            grad[i] += w * alpha[i] * math.prod(map(pow, a, e))
            for j in (j for j in range(n) if e[j]):
                hess[i][j] += w * alpha[i] * e[j] * math.prod(map(pow, a, [k - (m == j) for m, k in enumerate(e)]))
    return grad, hess


def sphere_monomial_integral(alpha: Sequence[int], dim: int) -> SymScalar:
    """Integral of x^alpha over the unit sphere, normalized measure.

    Zero when any exponent is odd; otherwise
        Gamma(n/2) * prod Gamma((a_i+1)/2) / (Gamma((n+|a|)/2) * pi^(n/2)).
    The result is always rational (sqrt(pi) powers cancel).
    """
    alpha = tuple(alpha)
    if len(alpha) != dim:
        raise ValueError("exponent vector length must equal the dimension")
    if any(a < 0 for a in alpha):
        raise ValueError("negative exponent")
    if any(a % 2 for a in alpha):
        return SymScalar.zero()
    out = gamma_product((dim, *(a + 1 for a in alpha)), (dim + sum(alpha),), 1, -dim)
    if out.h != 0 or out.k != 0:
        raise AssertionError("sphere integral did not reduce to a rational")
    return out


def sphere_mean(p: MultiPoly) -> Fraction:
    """Exact mean of a polynomial over the unit sphere of R^p.nvars, monomial by monomial."""
    return sum((coef * sphere_monomial_integral(mono, p.nvars).q for mono, coef in p.terms.items()), Frac(0))


def spherical_gradient_bound(f: MultiPoly) -> float:
    """Upper bound for sup |grad F| on the closed unit ball.

    Each partial derivative is bounded on the ball by the sum of the
    absolute values of its coefficients (every monomial is at most 1 there);
    summing the per-partial bounds dominates the Euclidean norm of the
    gradient.  The exact rational bound is nudged up one ulp on conversion.
    """
    total = sum((abs(c) for i in range(f.nvars) for c in f.partial(i).terms.values()), Frac(0))
    return float(total) * (1.0 + 2.0**-50)


def fundamental_coeff_product_form(dim: int, order: int) -> Fraction:
    """alpha as the inverse of the defining product (beta = 0 cases only)."""
    n, N = dim, order
    prod = Frac(1)
    for j in range(N):
        prod *= (2 * N + 1 - n - 2 * j) * (2 * N + 1 - 2 * (j + 1))
    if prod == 0:
        raise ValueError("product form degenerates (log case)")
    return 1 / prod


def radial_laplacian(terms: dict[tuple[Fraction, int], Fraction], dim: int) -> dict:
    """Laplacian of a radial function in dimension n: r^a -> a(a+n-2) r^(a-2),
    and r^a log r -> a(a+n-2) r^(a-2) log r + (2a+n-2) r^(a-2)."""
    return _collect(
        pair
        for (a, e), s in terms.items()
        for pair in (((a - 2, e), s * a * (a + dim - 2)), ((a - 2, 0), s * e * (2 * a + dim - 2)))
    )


def fundamental_solution(dim: int, order: int) -> dict[tuple[Fraction, int], Fraction]:
    """The radial solution in r, as terms {(a, e): s} for sum s r^a (log r)^e in units of c
    (log r^2 = 2 log r), with the free power coefficient of the log regime 0."""
    alpha, beta = fundamental_coeffs(dim, order)
    a = Frac(2 * order + 1 - dim)
    return _collect((((a, 0), alpha or Frac(0)), ((a, 1), 2 * beta)))


def t_derivative(terms: dict[tuple[Fraction, int], Fraction]) -> dict:
    """d/dt with the variable read as t: t^a -> a t^(a-1), and
    t^a log t -> a t^(a-1) log t + t^(a-1)."""
    return _collect(
        pair for (a, e), s in terms.items() for pair in (((a - 1, e), s * a), ((a - 1, 0), s * e))
    )


def bessel_ratio_coeff_scaled(q: RationalLike, i: int) -> SymScalar:
    """Coefficient of r^(2i) in 2^q * J_q(r)/r^q:  (-1)^i / (i! 4^i Gamma(q+i+1))."""
    if i < 0:
        raise ValueError("series index must be >= 0")
    return gamma_product((), (2 * i + 2, 2 * (q + i + 1)), Frac((-1) ** i, 4**i))


def bessel_ratio_float(q: RationalLike, r: float, terms: int = 30) -> float:
    """Float value of J_q(r)/r^q from the power series."""
    q = _as_fraction(q)
    scale = 2.0 ** (-float(q))
    total = 0.0
    for i in range(terms):
        total += to_float(bessel_ratio_coeff_scaled(q, i)) * r ** (2 * i)
    return scale * total


def multiplier_eval(kernel: KernelSpec, xi: Sequence[float]) -> complex:
    """Fourier multiplier of the kernel at a point of the unit sphere.

    xi is normalized internally; the per-degree constants are exact and
    converted to floats only here.
    """
    v = np.asarray(xi, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise KernelError("multiplier is undefined at xi = 0")
    v = v / norm
    total = 0j
    for c in kernel.components:
        gamma = to_complex(riesz_multiplier(c.degree, kernel.dim))
        ev = c.poly.float_evaluator()
        total += gamma * complex(ev(v[None, :])[0])
    return total
