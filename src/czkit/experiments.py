"""Scripted numerical experiments over the grid-operator laboratory.

Each experiment reproduces a model phenomenon at desk scale, at one pinned
configuration, and emits a deterministic table (CSV) plus a summary of
fitted statistics:

* counterexample-growth: for f the unit-interval indicator, the maximal
  transform of its Hilbert transform decays like log(x)/x, far slower than
  the 1/x of a weak-(1,1) operator;
* weak11-failure: the level-set mass lam * |{H*(Hf) > lam}| grows without
  bound as lam decreases, while the analogous planar scan for the
  Beurling pair stays bounded;
* llogl-modular: the same composition obeys a modular L log L bound with
  a stable constant across four decades of the level;
* pointwise-ratios: the sup of H*f / M^2(Hf) (and of B*f / M(Bf)) over a
  pinned suite is finite and refinement-stable, while H*f / M(Hf) grows
  along an adversarial window sweep;
* beurling-composition: the ratio of B*(Bf) against the iterated-kernel
  maximal plus the maximal function stays bounded and refinement-stable.

Reference statistics quoted in the summaries ("frozen" constants) were
fitted once at that configuration and are asserted by the regression tests
with 20% slack.  So its evaluation points, window cells, levels, sample
points, fields and quadrature settings are module constants: at a second
configuration no frozen constant would apply.  An experiment takes exactly
its command line options: the kernel and mesh of pointwise-ratios, and the
source mesh of beurling-composition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gridops import (
    GridFunction,
    TruncationGrid,
    _whole_cells,
    beurling_maximal,
    beurling_transform_grid,
    hardy_littlewood,
    hilbert_maximal,
    hilbert_transform_many,
    iterated_m2,
)

M_CUT = 2.0  # lower end of the far-field scan; log(1+1/y)*y is in (1/2, 3/2) beyond it


@dataclass
class ExperimentResult:
    name: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    summary: dict[str, float | bool | str] = field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def summary_text(self) -> str:
        lines = [f"experiment: {self.name}"]
        for k, v in self.summary.items():
            lines.append(f"  {k} = {_fmt(v)}")
        return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# ---------------------------------------------------------------------------
# The composed-transform profile machinery
# ---------------------------------------------------------------------------


def transform_closed_form(y: np.ndarray) -> np.ndarray:
    """The transform log|y-1| - log|y| of the unit-interval indicator, in the
    lab's convention (`hilbert_transform_many`), sampled by the
    composed-operator scans."""
    y = np.asarray(y, dtype=float)
    return np.log(np.abs(y - 1.0)) - np.log(np.abs(y))


def far_window_pieces(x: float, cells: int) -> list[GridFunction]:
    """Sampled transform on the window {m+x < |y-x| <= 2(m+x)}.

    The left part reaches from -(x+2m) to -m (denser near -m where the
    integrand varies fastest), the right part from 2x+m to 3x+2m; this one
    doubling of the truncation radius is the pinned configuration of the
    far-field scans.
    """
    pieces = []
    lo, hi = -(x + 2 * M_CUT), -M_CUT
    split = max(lo, -64.0)
    if split > lo + 1e-9:
        pieces.append(GridFunction.sample_1d(transform_closed_form, lo, split, cells))
    pieces.append(GridFunction.sample_1d(transform_closed_form, split, hi, cells))
    pieces.append(GridFunction.sample_1d(transform_closed_form, 2 * x + M_CUT, 3 * x + 2 * M_CUT, cells))
    return pieces


def full_window_core() -> GridFunction:
    return GridFunction.sample_1d(transform_closed_form, -4.0, 5.0, 1024)


def full_window_pieces(x: float, core: GridFunction) -> list[GridFunction]:
    """Sampled transform around x: the fixed source core [-4, 5] from
    `full_window_core`, 1024 cells, and 512 cells on each far piece."""
    r = 4.0 * (abs(x) + 2.0) + 8.0
    lo, hi = min(x - r, -5.0), max(x + r, 6.0)
    pieces = [core]
    if lo < -4.0 - 1e-9:
        pieces.append(GridFunction.sample_1d(transform_closed_form, lo, -4.0, 512))
    if hi > 5.0 + 1e-9:
        pieces.append(GridFunction.sample_1d(transform_closed_form, 5.0, hi, 512))
    return pieces


def _adaptive_simpson(fn, a: float, b: float) -> float:
    """Adaptive Simpson rule to an absolute tolerance of 1e-10, at most 48
    halvings deep."""
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        if depth <= 0 or abs(left + right - whole) < 15 * tol:
            return left + right + (left + right - whole) / 15
        return rec(a, m, fa, flm, fm, left, tol / 2, depth - 1) + rec(
            m, b, fm, frm, fb, right, tol / 2, depth - 1
        )

    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return rec(a, b, fa, fm, fb, whole, 1e-10, 48)


def far_field_lower_terms(x: float) -> tuple[float, float]:
    """Quadrature values of the two window integrals at the point x.

    The left integral is the log-growth term (comparable to log(x)/x), the
    right one is the remainder, bounded by 1/x.
    """
    a = _adaptive_simpson(lambda y: math.log1p(1.0 / y) / (x + y), M_CUT, x + 2 * M_CUT)
    b = _adaptive_simpson(
        lambda y: math.log(y / (y - 1.0)) / (y - x), 2 * x + M_CUT, 3 * x + 2 * M_CUT
    )
    return a, b


# The pinned evaluation points of counterexample-growth, levels of
# weak11-failure and levels of llogl-modular, each in decreasing order of
# the level
GROWTH_X = (10.0, 100.0, 1000.0, 10000.0)
GROWTH_CELLS = 1024  # cells per window piece of counterexample-growth
WEAK11_LAM = (1e-2, 1e-3, 1e-4)
LLOGL_T = (1.0, 0.1, 0.01, 1e-3)

# Frozen statistics of the pinned configuration (mesh 1024, window factor 2).
GROWTH_RATIO_BRACKET = (0.48, 1.03)  # x H*(Hf)(x)/log x over x in 10..1e4, 20% slack
WEAK11_GROWTH_MIN = 2.0  # lam*measure growth from lam=1e-2 to 1e-4
MODULAR_RATIO_MAX = 6.5  # L log L modular ratio bound across the level sweep
POINTWISE_M2_SUP = 1.0  # sup H*f / M^2(Hf) on the pinned suite
BEURLING_M_SUP = 0.38  # sup B*f / M(Bf) on the pinned suite
COMPOSITION_SUP = {"disk": 12.0, "steps": 3.4}  # per-field composition ratios


def exp_counterexample_growth() -> ExperimentResult:
    """Tabulate the log-growth of the composed maximal transform at GROWTH_X."""

    def one(x: float):
        hstar = hilbert_maximal(far_window_pieces(x, GROWTH_CELLS), x)
        a, b = far_field_lower_terms(x)
        return (x, hstar, x * hstar / math.log(x), a, b, b <= 1.0 / x + 1e-12)

    rows = [one(x) for x in GROWTH_X]
    ratios = [r[2] for r in rows]
    return ExperimentResult(
        "counterexample-growth",
        ["x", "hstar", "ratio_x_hstar_over_logx", "left_term", "right_term", "right_le_inv_x"],
        rows,
        {
            "ratio_min": min(ratios),
            "ratio_max": max(ratios),
            "ratio_span": max(ratios) / min(ratios),
            "bracket_lo": GROWTH_RATIO_BRACKET[0],
            "bracket_hi": GROWTH_RATIO_BRACKET[1],
            "within_bracket": GROWTH_RATIO_BRACKET[0] <= min(ratios)
            and max(ratios) <= GROWTH_RATIO_BRACKET[1],
        },
    )


def weak11_profile(x_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Far-window maximal profile on 16 log-spaced points per decade of
    [m, x_max], each window piece on 512 cells, and the width of the cell
    of [m, x_max] that each point stands for."""
    lo = M_CUT * 1.05
    xs = np.geomspace(lo, x_max, int(16 * math.log10(x_max / lo)) + 1)
    prof = np.array([hilbert_maximal(far_window_pieces(float(x), 512), float(x)) for x in xs])
    inner = np.sqrt(xs[1:] * xs[:-1])
    edges = np.concatenate([[M_CUT], inner, [x_max]])
    return prof, np.diff(edges)


def exp_weak11_failure() -> ExperimentResult:
    """Level-set scan of the composed maximal transform at the levels
    WEAK11_LAM, with the bounded planar counterpart on the unit disk at
    mesh 1/16."""
    lam_min = WEAK11_LAM[-1]
    x_max = 40.0 * math.log(1.0 / lam_min) / lam_min
    prof, widths = weak11_profile(x_max)

    disk = GridFunction.disk(1.0, 1.0 / 16)
    r_max = 1.5 * math.sqrt(4.0 / lam_min)
    radii = np.geomspace(1.3, r_max, 60)
    bprof = beurling_maximal(disk, radii)
    r_inner = np.sqrt(radii[1:] * radii[:-1])
    r_edges = np.concatenate([[1.0], r_inner, [r_max * 1.1]])

    rows = []
    for lam in WEAK11_LAM:
        measure = float(widths[prof > lam].sum())
        mask = bprof > lam
        area = float(np.sum(math.pi * (r_edges[1:][mask] ** 2 - r_edges[:-1][mask] ** 2)))
        rows.append((lam, measure, lam * measure, area, lam * area))
    lm = [r[2] for r in rows]
    la = [r[4] for r in rows]
    return ExperimentResult(
        "weak11-failure",
        ["lam", "measure", "lam_measure", "beurling_area", "beurling_lam_area"],
        rows,
        {
            "monotone_growth": all(lm[i] < lm[i + 1] for i in range(len(lm) - 1)),
            "growth_ratio": lm[-1] / lm[0],
            "growth_ok": lm[-1] / lm[0] >= WEAK11_GROWTH_MIN,
            "beurling_span": max(la) / min(la),
            "beurling_bounded": max(la) / min(la) <= 1.25,
        },
    )


def exp_llogl_modular() -> ExperimentResult:
    """Distribution of the composed maximal transform against the modular
    integral Phi(1/t) with Phi(t) = t log(e + t), at the levels LLOGL_T, on
    20 log-spaced points per decade."""
    t_min = LLOGL_T[-1]
    x_max = 30.0 * math.log(1.0 / t_min) / t_min
    off = 1.0 / 3333.0
    pos = np.geomspace(0.011, x_max, int(20 * math.log10(x_max / 0.011)) + 1) + off
    core = np.linspace(-3.0, 4.0, 141) + off
    xs = np.sort(np.concatenate([-pos, core, pos]))
    xs = xs[np.append(True, xs[1:] != xs[:-1])]  # np.unique's bits, without loading numpy.ma
    source = full_window_core()
    prof = np.array([hilbert_maximal(full_window_pieces(float(x), source), float(x)) for x in xs])
    mid = 0.5 * (xs[1:] + xs[:-1])
    edges = np.concatenate([[xs[0] - (xs[1] - xs[0]) / 2], mid, [xs[-1] + (xs[-1] - xs[-2]) / 2]])
    widths = np.diff(edges)
    rows = []
    for t in LLOGL_T:
        lhs = float(widths[prof > t].sum())
        rhs = (1.0 / t) * math.log(math.e + 1.0 / t)
        rows.append((t, lhs, rhs, lhs / rhs))
    ratios = [r[3] for r in rows]
    return ExperimentResult(
        "llogl-modular",
        ["t", "superlevel_measure", "modular_bound", "ratio"],
        rows,
        {
            "ratio_max": max(ratios),
            "ratio_min": min(ratios),
            "ratio_cap": MODULAR_RATIO_MAX,
            "bounded": max(ratios) <= MODULAR_RATIO_MAX,
        },
    )


# ---------------------------------------------------------------------------
# Pointwise-control ratios
# ---------------------------------------------------------------------------

HILBERT_SAMPLES = np.array([-3.31, -1.73, -0.467, 0.309, 0.771, 1.613, 2.843, 6.337, 15.71]) + 1.0 / 3333
BEURLING_SAMPLES = np.array([0.13 + 0.07j, 0.52 + 0.31j, -0.41 + 0.76j, 0.93 + 0.21j, 1.21 - 0.33j,
                             -1.62 + 0.48j, 2.31 + 1.12j, -3.1 - 2.2j, 0.02 - 0.89j])
ADVERSARIAL_WINDOWS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def hilbert_test_suite(mesh: float) -> list[tuple[str, GridFunction]]:
    """The pinned 1D suite: indicator, three-level step, hat.  1 must be a
    whole multiple of the mesh."""
    unit = _whole_cells(1.0, mesh)
    f1 = GridFunction.indicator_1d(0.0, 1.0, mesh)
    f2 = GridFunction(-1.0, mesh, np.repeat([1.0, -0.5, 0.25], unit))
    f3 = GridFunction.sample_1d(lambda y: np.maximum(0.0, 1.0 - np.abs(y)), -1.0, 1.0, 2 * unit)
    return [("step", f1), ("threestep", f2), ("hat", f3)]


def _transform_grid(f: GridFunction, half_width: float, cells: int) -> GridFunction:
    gh = 2.0 * half_width / cells
    org = -half_width + 0.37 * gh  # centers off the source edges, on its lattice where f.h divides gh
    return GridFunction(org, gh, hilbert_transform_many(f, org + gh * (np.arange(cells) + 0.5)))


def _transform_grid_2d(f: GridFunction) -> GridFunction:
    """Beurling transform of f on the square [-6, 6)^2 at twice the mesh
    of f, its origin shifted by -0.11 target meshes on each axis; a target
    mesh that does not tile the square raises ValueError.

    Known defect: the targets then sit 0.28 source meshes off a source
    center on each axis, where the 8 x 8 near stencil of
    `beurling_transform_grid` puts a sub-point about 0.05 meshes from the
    singularity.  On the unit disk B(chi_D) reads about -6.19i everywhere
    inside it, where the principal value is 0, at source meshes 1/16 and
    1/32 alike.  Exact tables in `beurling_transform_grid` would remove it.
    """
    h = 2.0 * f.h
    sz = _whole_cells(12.0, h)
    return beurling_transform_grid(f, (-6.0 - 0.11 * h, -6.0 - 0.11 * h), h, (sz, sz))


def exp_pointwise_ratios(kernel: str = "hilbert", mesh: float | None = None) -> ExperimentResult:
    """Per-sample control ratios plus the adversarial window sweep.

    Default meshes: 1/128 on the line, 1/16 in the plane.
    """
    if kernel == "hilbert":
        mesh = 1.0 / 128 if mesh is None else mesh
        rows = []
        for name, f in hilbert_test_suite(mesh):
            g = _transform_grid(f, 48.0, 3072)
            m2s = iterated_m2(g, HILBERT_SAMPLES)
            for x, m2 in zip(HILBERT_SAMPLES.tolist(), m2s.tolist()):
                hstar = hilbert_maximal(f, x)
                m1 = hardy_littlewood(g, x)
                rows.append((name, x, hstar, m1, m2, hstar / m1, hstar / m2))
        sup_m, sup_m2 = (max((r[j] for r in rows), default=0.0) for j in (5, 6))
        adv = []
        for w in ADVERSARIAL_WINDOWS:
            gw = GridFunction.sample_1d(transform_closed_form, -w, w, 2048)
            x_far = 2.0 * w + 1.0 / 3.0
            hg = _transform_grid(gw, 4.0 * w, 2048)
            ratio = hilbert_maximal(gw, x_far) / hardy_littlewood(hg, x_far)
            adv.append(ratio)
            rows.append(("adversarial", x_far, ratio, w, 0.0, ratio, 0.0))
        return ExperimentResult(
            "pointwise-ratios-hilbert",
            ["function", "x", "hstar", "m_of_transform", "m2_of_transform", "ratio_m", "ratio_m2"],
            rows,
            {
                "sup_ratio_m2": sup_m2,
                "sup_ratio_m": sup_m,
                "frozen_sup_m2": POINTWISE_M2_SUP,
                "adversarial_monotone": all(a < b for a, b in zip(adv, adv[1:])),
                "adversarial_growth": adv[-1] / adv[0],
            },
        )
    if kernel == "beurling":
        disk = GridFunction.disk(1.0, 1.0 / 16 if mesh is None else mesh)
        bg = _transform_grid_2d(disk)
        rows = []
        for z, bstar in zip(BEURLING_SAMPLES.tolist(), beurling_maximal(disk, BEURLING_SAMPLES).tolist()):
            mbf = hardy_littlewood(bg, (z.real, z.imag))
            rows.append(("disk", z.real, z.imag, bstar, mbf, bstar / mbf))
        return ExperimentResult(
            "pointwise-ratios-beurling",
            ["function", "re_z", "im_z", "bstar", "m_of_transform", "ratio"],
            rows,
            {"sup_ratio": max(r[5] for r in rows), "frozen_sup": BEURLING_M_SUP},
        )
    raise ValueError(f"unknown kernel {kernel!r}")


# ---------------------------------------------------------------------------
# Beurling composition
# ---------------------------------------------------------------------------

# sample points sit at the centers of the base 1/8 blocks: the transform of
# a step field is log-singular along the block edges, where the pointwise
# bound degenerates on a null set
COMPOSITION_SAMPLES = [
    0.0625 + 0.1875j, 0.4375 + 0.3125j, -0.4375 + 0.6875j, 1.1875 - 0.3125j,
    -1.5625 + 0.4375j, 2.3125 + 1.0625j, 0.0625 - 0.9375j, 3.6875 + 0.3125j,
]


# the 16 x 16 levels of the step field, one row of 1/8 blocks per string: "." is 0, "+" is 1, "-" is -0.5
STEP_ROWS = (
    "--+......-+..---", "..+.+.-.+-.--.+.", "+...-..+.+..+++.", ".-.-.-.-+.+++..+",
    ".++.+..+.++--+-.", "+-.+.-....+--.-.", "-...--.+..+.-...", "...--..+-.+.++++",
    "+.......+-...++-", ".+.-.-+++....+.-", ".+.++++.+.++.-+-", "......-.+...+++.",
    "..-.+....-......", "+--.+-.-.+.++.+-", "..-.-.......+...", "-..-..-..-+...--",
)


def step_field(mesh: float) -> GridFunction:
    """Three-level field on the 1/8 blocks of [-1, 1)^2, refinable by
    subdivision.  Its levels, STEP_ROWS, are the seed-5 draw
    `np.random.default_rng(5).choice([0.0, 1.0, -0.5], size=(16, 16),
    p=[0.5, 0.3, 0.2])`, frozen bit for bit so that the lab does not load
    `numpy.random`.  The block side must be a whole multiple of the mesh."""
    level = {".": 0.0, "+": 1.0, "-": -0.5}
    coarse = np.array([[level[s] for s in row] for row in STEP_ROWS])
    rep = _whole_cells(1.0 / 8, mesh)
    vals = np.repeat(np.repeat(coarse, rep, axis=0), rep, axis=1)
    return GridFunction((-1.0, -1.0), mesh, vals)


def exp_beurling_composition(mesh: float = 1.0 / 16) -> ExperimentResult:
    """Ratio of B*(Bf) to the iterated-kernel maximal plus Mf, at each of
    COMPOSITION_SAMPLES, for the unit disk and the step field at the
    source mesh `mesh`.

    Bf is sampled by `_transform_grid_2d`, at twice the source mesh: a
    fixed target mesh over a fine source grid would put the targets close
    to source centers, 0.06 source meshes at 1/8 over 1/32, where the
    near-cell quadrature degenerates.  The truncation radii are pinned
    (mesh-independent), so a refinement changes only quadrature, not the
    scanned radii.
    """
    eps_f = TruncationGrid.geometric(1.0 / 16, 16.0)
    eps_b = TruncationGrid.geometric(1.0 / 8, 40.0)
    rows = []
    sups: dict[str, float] = {}
    for name, f in (("disk", GridFunction.disk(1.0, mesh)), ("steps", step_field(mesh))):
        bg = _transform_grid_2d(f)
        sup = 0.0
        nums = beurling_maximal(bg, COMPOSITION_SAMPLES, eps_b, kernel="b").tolist()
        b2s = beurling_maximal(f, COMPOSITION_SAMPLES, eps_f, kernel="b2").tolist()
        for z, num, b2 in zip(COMPOSITION_SAMPLES, nums, b2s):
            den = b2 + hardy_littlewood(f, (z.real, z.imag))
            ratio = num / (den + 1e-12)
            rows.append((name, z.real, z.imag, num, den, ratio))
            sup = max(sup, ratio)
        sups[name] = sup
    return ExperimentResult(
        "beurling-composition",
        ["function", "re_z", "im_z", "numerator", "denominator", "ratio"],
        rows,
        {
            **{f"sup_{k}": v for k, v in sups.items()},
            **{f"frozen_sup_{k}": v for k, v in COMPOSITION_SUP.items()},
        },
    )


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "counterexample-growth": exp_counterexample_growth,
    "weak11-failure": exp_weak11_failure,
    "llogl-modular": exp_llogl_modular,
    "pointwise-ratios": exp_pointwise_ratios,
    "beurling-composition": exp_beurling_composition,
}
