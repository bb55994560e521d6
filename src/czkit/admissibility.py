"""Decide whether a maximal singular integral is controlled by its operator.

For an odd kernel given by finitely many harmonic layers P_1, P_3, ...,
control of the maximal operator (pointwise by the iterated maximal
function, or in L^2) is equivalent to a checkable algebraic condition:
the lowest-degree layer must divide every other layer exactly, and the
multiplier-weighted sum of the quotients must not vanish anywhere on the
unit sphere.

Divisibility is decided by exact polynomial division.  The quotient sum F
has (after factoring out one shared unit) real rational coefficients.  If its
terms have degrees 0 and 2 only, F = a + x^T B x equals x^T M x on the sphere,
M = aI + B, so F has no zero there iff M is definite (Sylvester; Horn and
Johnson, Matrix Analysis, 7.2), which fraction-free symmetric elimination
decides in integers: PASS with a rational t > 0 such that +-M - tI is definite
(|F| >= t; t is halved from the least diagonal entry, then bisected to a
relative 2^-40 below the least eigenvalue), FAIL with an exact zero or u, v
with u^T M u < 0 < v^T M v.
Otherwise the sign of F on the sphere is decided by branch-and-bound over a
cube-sphere cover: the 2n facets of the cube [-1, 1]^n, each split by a
2^(n-1)-ary tree of boxes and projected radially onto the sphere.  A cell
with center c and angular radius r keeps the sign of F(c) when

    |F(c)|  >  |grad_T F(c)| * r  +  H * r^2 / 2  +  rho,

where grad_T F is the tangential gradient, H an exact coefficient bound
on the second derivative of F along any unit-speed great circle, and rho
an a-priori bound on float rounding (evaluating F and its gradient, and
computed centers lying off the sphere).  Only undecided cells are split,
one vectorised level at a time, with points held coordinate-major; the float
operations are the row-major ones, in order (coordinate sums left to right),
so rho stands as derived.  A cell is also decided inside an exclusion cap
(Schichl and Neumaier, SIAM J. Numer. Anal. 42, 2004) about a rational
sphere point p tested for a zero, F(p) = v != 0.  On great circles from p,

    sign(v) F  >=  |v|  -  G t  +  mu t^2 / 2  -  C3 t^3 / 6,

with G >= |grad_T F(p)|, mu > 0 below sign(v) M on the tangent space (M =
P Hess F(p) P - (p . grad F(p)) P, P = I - p p^T) and C3 = sum |c| d^3
over the terms c x^a of F (d = |a|), which bounds the third derivative.
So |F| >= L = |v| - G R on the cap of radius R = min(3 mu / C3, |v| / 2G,
3/2): v, G, mu (by exact elimination), C3, R and L are rationals; only the
test of a cell against a cap is in floats.  The verdicts carry certificates:

* PASS: every cell is decided with one sign; ``certified_min`` is the
  smallest gap, |F(c)| - bound or a cap's L, a lower bound for |F|.
* FAIL(vanishing): two evaluated points where F > rho and F < -rho (the
  sphere is connected for n >= 2, so F has a zero; the witness is refined
  by bisection along the arc between them), or F = 0 in exact arithmetic
  at a rational sphere point (facet centers are the axis points; others
  come from inverse stereographic projection of snapped cell centers).
* INCONCLUSIVE: only when the depth cap or the cell budget is hit, for
  instance at a tangential zero of F at an irrational point.

The cost is set by the zero set and the extrema of |F|: a level holds
2^(n-1) children of each undecided cell.  Near a nondegenerate extremum of
margin m at a rational point (the axis points, for the model kernels) a
cap decides the cells once they fit inside it, about 4-6 levels down; at
an irrational one the tree stops where H r^2 falls below m, about depth
22 for m = 1e-12.
"""
from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import riesz_multiplier
from .kernels import KernelError, KernelSpec
from .polyalg import HarmonicComponent, MultiPoly, divide_exact

EPS = 2.0**-53  # unit roundoff of float64
# At depth d a cell's side on its facet is 2^(1-d), so r^2 is about 2^-2d;
# from depth 26 on, H r^2 / 2 is of the order of EPS * H, below the
# rounding bound rho, and a deeper level cannot decide what rho leaves open.
MAX_DEPTH = 26
CELL_BUDGET = 1_000_000  # cells over all levels of one certification
_CHUNK = 1 << 14  # cells per vectorised evaluation; keeps peak memory flat
_EXACT_TRIES = 2  # undecided cells per level tested for an exact rational zero
_SLACK = 1.0 + 2.0**-40  # relative cover for the handful of roundings in a bound


class Cap(NamedTuple):
    """Every unit vector within angle ``radius`` of ``point`` has sign(F) = sign(F(point)), |F| >= ``lower``."""

    point: tuple[Fraction, ...]
    radius: Fraction
    lower: Fraction

    def floats(self) -> tuple[np.ndarray, float, float]:
        """The point, and floats below the radius and the bound: the nearest ones, moved toward 0."""
        return np.array(self.point, dtype=float), *(math.nextafter(float(x), 0) for x in self[1:])


class TraceRow(NamedTuple):
    """One tree level of the sign certifier."""

    depth: int
    cells: int
    undecided: int
    min_abs_f: float
    seconds: float


@dataclass(kw_only=True)
class SphereCertificate:
    """The sign certifier's verdict on F over the unit sphere, with its evidence."""

    verdict: str = "INCONCLUSIVE"
    stop_reason: str | None = None  # exact (quadratic F); certified, sign-change, exact-zero, depth-cap or cell-budget
    lipschitz_bound: float = 0.0
    rounding_bound: float = 0.0  # rho for a value: |F(c)| beyond it has a certain sign
    grid_min: float = math.inf  # smallest |F| at an evaluated cell center
    certified_min: float | None = None
    witness: tuple[float, ...] | None = None
    witness_value: float | None = None
    sign_pair: tuple[tuple[float, ...], tuple[float, ...]] | None = None  # F > rho, F < -rho (rho = 0 if exact)
    depth_used: int = 0
    grid_points: int = 0  # cell centers evaluated
    caps: list[Cap] = field(default_factory=list)
    trace: list[TraceRow] = field(default_factory=list)


@dataclass(kw_only=True)
class CheckReport(SphereCertificate):
    """Verdict plus the evidence that produced it."""

    dim: int
    verdict: str  # PASS / FAIL(divisibility) / FAIL(vanishing) / INCONCLUSIVE
    divisor: HarmonicComponent
    divisibility_ok: bool = False
    failed_degree: int | None = None

    def format_text(self) -> str:
        lines = [
            f"verdict        : {self.verdict}",
            f"dimension      : {self.dim}",
            f"divisor degree : {self.divisor.degree}",
            f"divisibility   : {'ok' if self.divisibility_ok else f'failed at degree {self.failed_degree}'}",
        ]
        if self.divisibility_ok:
            lines.append(f"stop reason    : {self.stop_reason}")
            if self.trace:  # the tree ran
                lines.append(f"gradient bound : {self.lipschitz_bound:.6g}")
                lines.append(f"tree depth     : {self.depth_used} ({self.grid_points} cells)")
                lines.append(f"min |F| seen   : {self.grid_min:.6g}")
            if self.certified_min is not None:
                lines.append(f"certified min  : {self.certified_min:.6g}")
            if self.witness is not None:
                pt = ", ".join(f"{x:.12g}" for x in self.witness)
                lines.append(f"witness        : ({pt})")
            if self.witness_value is not None:
                lines.append(f"|F(witness)|   : {self.witness_value:.6g}")
            if self.sign_pair is not None:
                for label, pt in zip(("F > rho at", "F < -rho at"), self.sign_pair):
                    lines.append(f"{label:15s}: ({', '.join(f'{x:.12g}' for x in pt)})")
                lines.append(f"rounding rho   : {self.rounding_bound:.6g}")
            for i, cap in enumerate(self.caps):
                pt = ", ".join(f"{float(x):.12g}" for x in cap.point)
                lines.append(f"cap {i:<11d}: ({pt}), radius {float(cap.radius):.6g}, |F| >= {float(cap.lower):.6g}")
            if self.trace:
                lines.append("level      cells  undecided       min |F|   seconds")
            for row in self.trace:
                lines.append(
                    f"{row.depth:5d} {row.cells:10d} {row.undecided:10d} "
                    f"{row.min_abs_f:13.6g} {row.seconds:9.4f}"
                )
        return "\n".join(lines)

    def format_kv(self) -> str:
        pairs = {
            "verdict": self.verdict,
            "dim": self.dim,
            "divisor_degree": self.divisor.degree,
            "divisibility_ok": int(self.divisibility_ok),
            "grid_depth": self.depth_used,
            "grid_points": self.grid_points,
            **({"grid_min": repr(self.grid_min), "lipschitz_bound": repr(self.lipschitz_bound)} if self.trace else {}),
            "caps": len(self.caps),
        }
        if self.stop_reason is not None:
            pairs["stop_reason"] = self.stop_reason
        if self.failed_degree is not None:
            pairs["failed_degree"] = self.failed_degree
        if self.certified_min is not None:
            pairs["certified_min"] = repr(self.certified_min)
        if self.witness is not None:
            pairs["witness"] = ",".join(repr(x) for x in self.witness)
        if self.witness_value is not None:
            pairs["witness_value"] = repr(self.witness_value)
        if self.sign_pair is not None:
            pairs["sign_pair"] = ";".join(",".join(repr(x) for x in pt) for pt in self.sign_pair)
            pairs["rounding_bound"] = repr(self.rounding_bound)
        for i, cap in enumerate(self.caps):
            pt = ",".join(repr(float(x)) for x in cap.point)
            pairs[f"cap_{i}"] = f"point:{pt};radius:{float(cap.radius)!r};lower:{float(cap.lower)!r}"
        for row in self.trace:
            pairs[f"level_{row.depth}"] = (
                f"cells:{row.cells},undecided:{row.undecided},"
                f"min_abs_f:{row.min_abs_f!r},seconds:{row.seconds:.6f}"
            )
        return "\n".join(f"{k}={v}" for k, v in pairs.items())


def _coef_sum(p: MultiPoly) -> Fraction:
    return sum((abs(c) for c in p.terms.values()), Fraction(0))


def _rounding_bound(p: MultiPoly) -> float:
    """A-priori bound on |float_evaluator(p)(x) - p(x)| for |x| <= 1 + 2^-40.

    Each term takes one rounding for its coefficient, at most two ulps per
    power and one per product of the n factors; the dot product of m terms
    adds at most m roundings of the sum of |terms|, which is at most the
    coefficient sum.  The factor 2 covers the second-order terms and the
    growth of the monomials off the unit sphere.  The coordinate-major
    evaluator does these operations in this order, less exact x^0 = 1 factors.
    """
    return 2.0 * (3 * p.nvars + len(p.terms) + 3) * EPS * float(_coef_sum(p))


class _Bounds:
    """Evaluators for F and grad F, with the exact constants of the cell test, and F's
    exact first and second partial polynomials, which give the caps their derivatives."""

    def __init__(self, f: MultiPoly):
        n = f.nvars
        self.gradient = partials = [f.partial(i) for i in range(n)]
        self.hessian = [[p.partial(j) for j in range(n)] for p in partials]
        second = sum((_coef_sum(q) for row in self.hessian for q in row), Fraction(0))
        first = sum((_coef_sum(p) for p in partials), Fraction(0))
        # sup |grad F| on the unit ball: each partial is at most its coefficient sum there
        self.lip = float(first) * (1.0 + 2.0**-50)
        # |d^2/dt^2 F(gamma(t))| <= |Hess F| + |grad F . gamma| on a unit-speed great circle
        self.hess = float(second + first) * (1.0 + 2.0**-50)
        # for the exact caps: scale clears F's denominators, its terms have degrees up to top; F(-x) = F(x) if even
        self.scale = math.lcm(*(c.denominator for c in f.terms.values()))
        self.top, self.even = max(map(sum, f.terms), default=0), all(sum(a) % 2 == 0 for a in f.terms)
        # the bound of hess for d^3/dt^3 = D^3F[g',g',g'] - 3 D^2F[g,g'] - DF[g']: a term
        # c x^a of degree d contributes at most |c| (d(d-1)(d-2) + 3d(d-1) + d) = |c| d^3
        self.third = sum((abs(c) * sum(a) ** 3 for a, c in f.terms.items()), Fraction(0))
        self.delta = _center_error(n)
        # value at a computed center versus F at the true center
        self.value = _rounding_bound(f) + 2.0 * self.lip * self.delta
        # computed tangential gradient versus the true one at the true center
        grad_eval = sum(_rounding_bound(p) for p in partials)
        self.grad = 2.0 * (grad_eval + self.hess * self.delta) + 8.0 * (n + 4) * EPS * self.lip
        self.f = f.float_evaluator()
        self.partials = [p.float_evaluator() for p in partials]


class Cells:
    """Cells of the cube-sphere cover at one tree depth.

    Cell i is the radial projection onto the unit sphere of the box with
    center ``u[i]`` and half-width 2^-depth in the facet x[axis[i]] =
    sign[i] of the cube [-1, 1]^n; the 2n facets are the depth-0 cells.
    """

    def __init__(self, axis: np.ndarray, sign: np.ndarray, u: np.ndarray, depth: int):
        self.axis, self.sign, self.u, self.depth = axis, sign, u, depth

    @classmethod
    def root(cls, dim: int) -> "Cells":
        axis = np.repeat(np.arange(dim), 2)
        sign = np.tile([1.0, -1.0], dim)
        return cls(axis, sign, np.zeros((2 * dim, dim - 1)), 0)

    def __len__(self) -> int:
        return len(self.axis)

    @property
    def half_width(self) -> float:
        return 2.0**-self.depth

    def take(self, idx) -> "Cells":
        return Cells(self.axis[idx], self.sign[idx], self.u[idx], self.depth)

    def split(self) -> "Cells":
        """The 2^(n-1) children of every cell, child-major within a parent."""
        k, m = self.u.shape
        offsets = np.array(list(itertools.product((-0.5, 0.5), repeat=m))) * self.half_width
        rep = len(offsets)
        u = (self.u[:, None, :] + offsets[None, :, :]).reshape(k * rep, m)
        return Cells(np.repeat(self.axis, rep), np.repeat(self.sign, rep), u, self.depth + 1)

    def embed(self, u: np.ndarray) -> np.ndarray:
        """Facet points with coordinates ``u`` (one row per cell) as points of R^n, stored coordinate-major."""
        k, m = u.shape
        cols = np.arange(k)
        others = np.array([[j for j in range(m + 1) if j != a] for a in range(m + 1)])
        v = np.empty((m + 1, k))
        v[self.axis, cols] = self.sign
        v[others[self.axis], cols[:, None]] = u
        return v.T


def sphere_grid(cells: Cells) -> tuple[np.ndarray, np.ndarray]:
    """Centers on the unit sphere of the cells of one level, and upper
    bounds on their angular radii.

    Within one cell every facet point makes an acute angle with the
    center (the box lies in one orthant of the facet, or is the whole
    facet around its center), and the sublevel sets of that angle are
    convex on the facet plane, so its maximum is at a box corner.  The
    angles do not depend on the facet, so they are taken with the axis
    coordinate first, one corner at a time for all cells, so memory does
    not grow with the 2^(n-1) corners.  The radii are inflated to cover the
    rounding of the chords and of the normalised points.
    """
    k, m = cells.u.shape
    centers = _normalize(cells.embed(cells.u).T)
    facet = np.concatenate([np.ones((1, k)), np.ascontiguousarray(cells.u.T)])  # axis coordinate first
    base = _normalize(facet)
    chord2 = 0.0  # sqrt is monotone, so it is taken once, of the largest square
    for corner in itertools.product((0.0,), *[(-1.0, 1.0)] * m):
        w = _normalize(facet + np.array(corner)[:, None] * cells.half_width)
        chord2 = np.maximum(chord2, ((base - w) ** 2).sum(0))
    radii = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * np.sqrt(chord2) * _SLACK + _center_error(m + 1))) * _SLACK
    return centers.T, radii


def _center_error(n: int) -> float:
    """Bound on the distance from a normalised float point of R^n to the
    exact projection of its (exactly representable) preimage."""
    return (n + 8) * EPS


def _normalize(v: np.ndarray) -> np.ndarray:
    """A point, or points stored one row per coordinate, scaled to unit length."""
    return v / np.sqrt((v * v).sum(0))


def _evaluate(cells: Cells, b: _Bounds) -> tuple[np.ndarray, ...]:
    """F at the cell centers, |F| minus the cell bound, the centers and the radii."""
    parts = []
    for start in range(0, len(cells), _CHUNK):
        c, r = sphere_grid(cells.take(slice(start, start + _CHUNK)))
        v = b.f(c)
        g = np.array([ev(c) for ev in b.partials])
        gt = g - (c.T * g).sum(0) * c.T
        slope = np.sqrt((gt * gt).sum(0)) + b.grad
        bound = (slope * r + 0.5 * b.hess * r * r + b.value) * _SLACK
        parts.append((v, np.abs(v) - bound, c, r))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _rational_point(center: np.ndarray, axis: int, sign: float, depth: int) -> tuple[Fraction, ...]:
    """A rational point of the sphere near ``center``, on the cell's facet side.

    The stereographic coordinates of ``center`` from the pole -sign*e_axis
    are snapped to denominators at most 2^max(depth-4, 0), so a rational point
    with a small denominator is hit once the cells around it are small
    enough; inverse projection keeps the point exactly on the sphere.  A
    cell centre has |x_j| <= |x_axis|, so each |x_j| / (1 + |x_axis|) < 0.42
    and denominator 1 (depth <= 4) snaps all to 0: the axis point.
    """
    den = 1 << max(depth - 4, 0)
    scale = 1.0 + abs(float(center[axis]))
    t = [Fraction(float(x) / scale).limit_denominator(den) for j, x in enumerate(center) if j != axis]
    s2 = sum((ti * ti for ti in t), Fraction(0))
    pt = [2 * ti / (1 + s2) for ti in t]
    pt.insert(axis, int(sign) * (1 - s2) / (1 + s2))
    return tuple(pt)


def _exclusion_cap(b: _Bounds, pt: tuple[Fraction, ...], value: Fraction, centers, radii) -> Cap | None:
    """The cap about pt of the module docstring, F(pt) = value != 0, or None when mu <= 0 or
    when a float estimate of the cap meets no cell of ``centers``/``radii``.  With pt = a / D
    and sigma = S D^top (S clears F's coefficients), the work is in integers: the gradient
    and the Hessian at pt are the partial polynomials of ``b``, evaluated exactly."""
    n, s, den = len(pt), 1 if value > 0 else -1, math.lcm(*(x.denominator for x in pt))
    a, sigma, d2 = [int(x * den) for x in pt], b.scale * den**b.top, den * den
    grad = [int(p.eval_exact(pt) * sigma / den) for p in b.gradient]  # sigma grad F / D
    hess = [[int(q.eval_exact(pt) * sigma / d2) for q in row] for row in b.hessian]  # sigma Hess F / D^2
    r = sum(map(operator.mul, a, grad))  # sigma pt . grad F
    ax, eye = np.array(a, dtype=object), np.eye(n, dtype=object)
    proj = d2 * eye - np.outer(ax, ax)  # D^2 P
    curv = s * proj @ (d2 * np.array(hess, dtype=object) - r * eye) @ proj  # sigma D^4 s M
    # the Rayleigh quotients of s M at P e_i bound its least tangential eigenvalue from above
    rayleigh = min(curv[i, i] / (sigma * d2 * (d2 - x * x)) for i, x in enumerate(a) if x * x < d2)
    tangent2 = d2 * sum(g * g for g in grad) - r * r  # (sigma |grad_T F|)^2
    slope = Fraction(math.isqrt(tangent2 << 128) + 1, sigma << 64) if tangent2 else 0  # G >= |grad_T F|
    reach = min(Fraction(3, 2), abs(value) / (2 * slope)) if slope else Fraction(3, 2)  # 3/2 < pi/2
    chord = np.sqrt(((centers - np.array(a) / den) ** 2).sum(1))  # shorter than the arc, as the screen needs
    if rayleigh <= 0.0 or not np.any(chord - radii < min(3.0 * rayleigh / float(b.third), float(reach))):
        return None
    for mu in (Fraction(rayleigh * (1.0 - 2.0**-10) / 2**k) for k in range(10)):
        shifted = mu.denominator * (curv + sigma * d2 * np.outer(ax, ax)) - mu.numerator * sigma * d2 * proj
        if _sign_or_witness(shifted.tolist())[0] == 1:  # sigma D^4 (s M - mu P + pt pt^T), times mu's denominator
            radius = min(3 * mu / b.third, reach)
            return Cap(pt, radius, abs(value) - slope * radius)
    return None


def _outside_caps(caps: list[Cap], idx: np.ndarray, centers, radii, low: float) -> tuple[np.ndarray, float]:
    """The cells of idx inside none of ``caps``, tested in ``Cap.floats``, and low lowered to
    the bound of each cap that holds one: radius + angle to point <= R."""
    for point, radius, bound in map(Cap.floats, caps):
        if len(idx) and radii[idx].min() <= radius:
            chord = np.sqrt(((centers[idx] - point) ** 2).sum(1))  # as in sphere_grid, to the exact center
            angle = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord * _SLACK + _center_error(len(point)))) * _SLACK
            inside = (angle + radii[idx]) * _SLACK <= radius
            idx, low = idx[~inside], min(low, bound) if inside.any() else low
    return idx, low


def _bisect_zero(ev, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """A point where the float sign of F changes, on an arc from p (F > 0) to q (F < 0)."""
    if p @ q < -0.5:  # route through a point orthogonal to p: the arc stays defined
        e = np.zeros_like(p)
        e[int(np.argmin(np.abs(p)))] = 1.0
        m = _normalize(e - (e @ p) * p)
        if ev(m[None])[0] > 0:
            p = m
        else:
            q = m
    for _ in range(80):
        mid = _normalize(p + q)
        if np.array_equal(mid, p) or np.array_equal(mid, q):
            break
        if ev(mid[None])[0] > 0:
            p = mid
        else:
            q = mid
    return p if abs(ev(p[None])[0]) <= abs(ev(q[None])[0]) else q


def certify_nonvanishing(f: MultiPoly) -> SphereCertificate:
    """Decide whether F vanishes on the unit sphere of R^n, n >= 2.

    Branch-and-bound over the cube-sphere cover (see the module docstring);
    levels 0..MAX_DEPTH are evaluated while the total number of cells
    stays within CELL_BUDGET.
    """
    n = f.nvars
    if n < 2:
        raise ValueError("the sign certifier needs n >= 2, where the sphere is connected")
    b = _Bounds(f)
    cert = SphereCertificate(lipschitz_bound=b.lip, rounding_bound=b.value)
    pos = neg = None  # the evaluated points with the largest and the smallest certified value
    certified_min = math.inf
    tested: set[tuple[Fraction, ...]] = set()  # rational points tried for a zero and a cap
    parents = None  # the undecided cells of the previous level
    for depth in range(MAX_DEPTH + 1):
        count = 2 * n if parents is None else len(parents) << (n - 1)
        if cert.grid_points + count > CELL_BUDGET:
            cert.stop_reason = "cell-budget"
            return cert
        t0 = time.perf_counter()
        cells = Cells.root(n) if parents is None else parents.split()
        vals, gaps, centers, radii = _evaluate(cells, b)
        absval = np.abs(vals)
        i = int(np.argmin(absval))
        if absval[i] < cert.grid_min:
            cert.grid_min = float(absval[i])
            cert.witness, cert.witness_value = tuple(float(x) for x in centers[i]), float(absval[i])
        decided = gaps > 0.0
        if decided.any():
            certified_min = min(certified_min, float(gaps[decided].min()))
        hi, lo = int(np.argmax(vals)), int(np.argmin(vals))
        if vals[hi] > b.value and (pos is None or vals[hi] > pos[0]):
            pos = (float(vals[hi]), centers[hi])
        if vals[lo] < -b.value and (neg is None or vals[lo] < neg[0]):
            neg = (float(vals[lo]), centers[lo])
        undecided = np.flatnonzero(~decided)
        cert.depth_used = depth
        cert.grid_points += len(cells)
        if pos is not None and neg is not None:
            w = _bisect_zero(b.f, pos[1], neg[1])
            cert.verdict, cert.stop_reason = "FAIL(vanishing)", "sign-change"
            cert.sign_pair = (tuple(float(x) for x in pos[1]), tuple(float(x) for x in neg[1]))
            cert.witness = tuple(float(x) for x in w)
            cert.witness_value = float(abs(b.f(w[None])[0]))
        else:
            undecided, certified_min = _outside_caps(cert.caps, undecided, centers, radii, certified_min)
            for j in undecided[np.argsort(absval[undecided], kind="stable")[:_EXACT_TRIES]]:
                pt = _rational_point(centers[j], int(cells.axis[j]), float(cells.sign[j]), depth)
                if pt in tested:
                    continue
                tested.add(pt)
                value = f.eval_exact(pt)
                if value == 0:
                    cert.verdict, cert.stop_reason = "FAIL(vanishing)", "exact-zero"
                    cert.witness, cert.witness_value = tuple(float(x) for x in pt), 0.0
                    break
                cap = _exclusion_cap(b, pt, value, centers[undecided], radii[undecided])
                if cap is not None:
                    new = [cap, cap._replace(point=tuple(-x for x in pt))] if b.even else [cap]
                    cert.caps += new
                    tested.add(new[-1].point)
                    undecided, certified_min = _outside_caps(new, undecided, centers, radii, certified_min)
        if cert.stop_reason is None and len(undecided) == 0:
            cert.verdict, cert.stop_reason = "PASS", "certified"
            cert.certified_min = certified_min
        cert.trace.append(TraceRow(depth, len(cells), len(undecided), float(absval[i]), time.perf_counter() - t0))
        if cert.stop_reason is not None:
            return cert
        parents = cells.take(undecided)
    cert.stop_reason = "depth-cap"
    return cert


def _form(s: list[list[int]], x: list[int], y: list[int]) -> int:  # x^T S y
    return sum(xi * sum(map(operator.mul, row, y)) for xi, row in zip(x, s))


def _sign_or_witness(s: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Symmetric fraction-free elimination on the integer S: (+-1, []) when each pivot, x^T S x at one of n
    S-orthogonal x, has that sign (S is definite), else (0, [x]), x^T S x = 0, or (0, [u, v]), u^T S u < 0 < v^T S v."""
    rest, seen = [[int(i == j) for j in range(len(s))] for i in range(len(s))], {}
    while rest:
        p = rest.pop()
        pp, cs = _form(s, p, p), [_form(s, x, p) for x in rest]
        if pp == 0:
            return 0, [p]
        seen[pp > 0] = p
        if len(seen) == 2:
            return 0, [seen[False], seen[True]]
        for k, c in enumerate(cs):  # (p^T S p) x - (x^T S p) p is S-orthogonal to p; over its gcd, signed like x
            y = [pp * a - c * b for a, b in zip(rest[k], p)]
            rest[k] = [a // math.gcd(*y) * (1 if pp > 0 else -1) for a in y]
    return (1 if True in seen else -1), []


def _quadratic_certificate(f: MultiPoly) -> SphereCertificate:
    """Decide F = a + x^T B x on the unit sphere exactly by the sign of S = 2 lcm (aI + B); see the module docstring."""
    n, scale, a = f.nvars, math.lcm(*(c.denominator for c in f.terms.values())), f.terms.get((0,) * f.nvars, 0)
    s = [[int((f.terms.get(tuple((k == i) + (k == j) for k in range(n)), 0) + a * (i == j)) * scale * (1 + (i == j)))
          for j in range(n)] for i in range(n)]  # x_i x_j has the coefficient M_ij (1 + (i != j)) in F on the sphere
    sign, found = _sign_or_witness(s)
    if sign:  # halve t below the least eigenvalue l of sign S; l >= 1 / trace^(n-1) (det >= 1): n bits per trace bit
        def definite(t: Fraction) -> bool:  # sign S - t I, times t's denominator
            return _sign_or_witness([[t.denominator * sign * x - t.numerator * (i == j) for j, x in enumerate(row)]
                                     for i, row in enumerate(s)])[0] == 1

        t = Fraction(min(sign * s[i][i] for i in range(n)) * (1.0 - 2.0**-44))  # min diag >= least eigenvalue
        for halvings in range(n * abs(sum(s[i][i] for i in range(n))).bit_length() + 2):
            if definite(t):
                width = t if halvings else 0  # 2t failed: bisect [t, 2t], keeping t definite, to 2^-40 of t
                while width > t / 2**40:
                    width /= 2
                    if definite(t + width):
                        t += width
                return SphereCertificate(verdict="PASS", stop_reason="exact",
                                         certified_min=math.nextafter(float(t / (2 * scale)), 0))
            t /= 2
        raise AssertionError("the elimination read an indefinite S as definite")
    if len(found) == 1:  # an exact zero
        return SphereCertificate(verdict="FAIL(vanishing)", stop_reason="exact", witness_value=0.0,
                                 witness=tuple(_normalize(np.array(found[0], dtype=float)).tolist()))
    neg, pos, cross = _form(s, found[0], found[0]), _form(s, found[1], found[1]), _form(s, *found)  # found = [u, v]
    if not neg < 0 < pos:
        raise AssertionError("the sign pair of S does not change sign")
    root = math.sqrt(cross * cross - neg * pos)  # neg + 2 cross t + pos t^2 = 0 along u + t v, t > 0: no cancellation
    u, v = np.array(found, dtype=float)
    w = _normalize(u + (-neg / (cross + root) if cross > 0 else (root - cross) / pos) * v)
    return SphereCertificate(verdict="FAIL(vanishing)", stop_reason="exact", witness=tuple(w.tolist()),
                             witness_value=float(abs(f.float_evaluator()(w[None])[0])),
                             sign_pair=(tuple(_normalize(v).tolist()), tuple(_normalize(u).tolist())))


def quotient_sum(kernel: KernelSpec) -> tuple[MultiPoly | None, int | None]:
    """Divide every layer by the lowest one and form the weighted sum.

    Returns (F, None), or (None, the degree of the first layer that the
    lowest one does not divide).  F has rational coefficients:
    the true weighted sum is F times the sqrt(pi)/i factor that the
    per-degree multiplier constants share (all odd degrees share one
    basis, the sign alternation being rational), and a nonzero factor
    moves no zero of F.
    """
    divisor = kernel.components[0]
    quotients: list[MultiPoly] = []
    for comp in kernel.components:
        q = divide_exact(comp.poly, divisor.poly)
        if q is None:
            return None, comp.degree
        quotients.append(q)
    gammas = [riesz_multiplier(comp.degree, kernel.dim) for comp in kernel.components]
    if len({(g.h, g.k) for g in gammas}) != 1:
        raise AssertionError("multiplier constants do not share a basis")
    return sum((q * g.q for q, g in zip(quotients, gammas)), MultiPoly.zero(kernel.dim)), None


def check_maximal_control(kernel: KernelSpec) -> CheckReport:
    """Run the divisibility-plus-nonvanishing check for an odd kernel, exactly for a quadratic F."""
    if kernel.parity != "odd":
        raise KernelError(f"check requires an odd kernel, got parity {kernel.parity!r}")
    f, failed = quotient_sum(kernel)
    divisor = kernel.components[0]
    if f is None:
        return CheckReport(
            dim=kernel.dim,
            verdict="FAIL(divisibility)",
            divisor=divisor,
            divisibility_ok=False,
            failed_degree=failed,
        )
    cert = _quadratic_certificate(f) if f.total_degree() <= 2 else certify_nonvanishing(f)
    return CheckReport(
        **vars(cert),
        dim=kernel.dim,
        divisor=divisor,
        divisibility_ok=True,
    )
