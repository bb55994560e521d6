"""Experiment drivers: tables, summaries, determinism."""
import math

import numpy as np
import pytest

from czkit.experiments import (
    COMPOSITION_SUP,
    GROWTH_X,
    POINTWISE_M2_SUP,
    ExperimentResult,
    _transform_grid_2d,
    exp_beurling_composition,
    exp_counterexample_growth,
    exp_llogl_modular,
    exp_pointwise_ratios,
    exp_weak11_failure,
    far_field_lower_terms,
    far_window_pieces,
    full_window_core,
    full_window_pieces,
    step_field,
    transform_closed_form,
    weak11_profile,
)
from czkit.gridops import GridFunction, hilbert_maximal, hilbert_transform_many
from oracles import seeded_step_field


def test_closed_form_sampling():
    # the closed form is the lab's transform of the indicator of [0, 1)
    ys = np.array([2.3, -0.7, 0.43])
    want = hilbert_transform_many(GridFunction.indicator_1d(0.0, 1.0, 1.0 / 64), ys)
    assert np.max(np.abs(transform_closed_form(ys) - want)) < 1e-12


@pytest.mark.parametrize("mesh", [1.0 / 8, 1.0 / 16, 1.0 / 32])
def test_step_field_is_the_seed_5_draw(mesh):
    got, want = step_field(mesh), seeded_step_field(mesh)
    assert (got.origin, got.h, got.values.shape) == (want.origin, want.h, want.values.shape)
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


def test_far_window_pieces_cover_one_doubling():
    pieces = far_window_pieces(100.0, cells=128)
    lo = min(p.support_box()[0][0] for p in pieces)
    hi = max(p.support_box()[0][1] for p in pieces)
    assert abs(lo + 104.0) < 1e-9  # -(x + 2m)
    assert abs(hi - 304.0) < 1e-9  # 3x + 2m


def test_counterexample_growth_summary():
    assert GROWTH_X == (10.0, 100.0, 1000.0, 10000.0)
    res = exp_counterexample_growth()
    assert res.summary["within_bracket"]
    assert res.summary["ratio_span"] < 3.0
    # the right-hand window term is below 1/x at every row
    assert all(bool(row[5]) for row in res.rows)
    x100 = [r for r in res.rows if r[0] == 100.0][0]
    assert x100[4] <= 1.0 / 100.0


def test_far_field_terms_accuracy():
    # left term at large x approaches log((x+m)/m)/x from below
    a, b = far_field_lower_terms(1000.0)
    assert 0 < a < math.log(1002.0 / 2.0) / 1000.0
    assert 0 < b <= 1.0 / 1000.0


def test_weak11_failure_summary():
    res = exp_weak11_failure()
    assert res.summary["monotone_growth"]
    assert res.summary["growth_ratio"] >= 2.0
    assert res.summary["beurling_bounded"]
    lam_col = [r[0] for r in res.rows]
    assert lam_col == sorted(lam_col, reverse=True)


def test_weak11_level_above_sup_has_zero_measure():
    prof, widths = weak11_profile(5000.0)
    lam = float(prof.max()) * 1.5
    assert widths[prof > lam].sum() == 0.0


def test_llogl_modular_summary():
    res = exp_llogl_modular()
    assert res.summary["bounded"]
    ts = [r[0] for r in res.rows]
    lhs = [r[1] for r in res.rows]
    rhs = [r[2] for r in res.rows]
    # both sides grow as the level drops, the ratio does not
    assert lhs[-1] > lhs[0] * 100 and rhs[-1] > rhs[0] * 100
    assert res.summary["ratio_max"] / res.summary["ratio_min"] < 2.5
    assert ts == sorted(ts, reverse=True)


def test_full_window_profile_plateau_inside_support():
    # inside (0,1) the maximal composition reaches the principal-value level
    val = hilbert_maximal(full_window_pieces(0.5003, full_window_core()), 0.5003)
    assert val > math.pi**2 * 0.9


def test_pointwise_ratios_beurling():
    res = exp_pointwise_ratios("beurling")
    assert res.summary["sup_ratio"] <= res.summary["frozen_sup"] * 1.2
    assert res.summary["sup_ratio"] >= res.summary["frozen_sup"] * 0.8


def test_transform_grid_tiles_its_square_or_refuses():
    # the bench's source meshes 1/16 and 1/32 tile [-6, 6)^2 at twice the mesh;
    # at 0.07 the 85 target cells of side 0.14 would end at 5.88
    for mesh in (1.0 / 16, 1.0 / 32):
        bg = _transform_grid_2d(GridFunction((0.0, 0.0), mesh, np.ones((1, 1))))
        assert bg.values.shape == (round(6.0 / mesh),) * 2 and bg.values.shape[0] * bg.h == 12.0
    with pytest.raises(ValueError, match=rf"^mesh {2 * 0.07!r} does not divide 12.0 into whole cells$"):
        _transform_grid_2d(GridFunction((0.0, 0.0), 0.07, np.ones((1, 1))))


# the meshes of the benchmark's composition-* and pointwise-hilbert-* ops
@pytest.mark.parametrize("mesh", [1.0 / 16, 1.0 / 32])
def test_beurling_composition_holds_its_frozen_sups(mesh):
    res = exp_beurling_composition(mesh)
    for name, frozen in COMPOSITION_SUP.items():
        assert res.summary[f"frozen_sup_{name}"] == frozen
        assert 0.8 * frozen <= res.summary[f"sup_{name}"] <= 1.2 * frozen


@pytest.mark.parametrize("mesh", [1.0 / 128, 1.0 / 256])
def test_pointwise_ratios_hilbert_holds_its_frozen_sup(mesh):
    res = exp_pointwise_ratios("hilbert", mesh)
    assert res.summary["frozen_sup_m2"] == POINTWISE_M2_SUP
    assert 0.8 * POINTWISE_M2_SUP <= res.summary["sup_ratio_m2"] <= 1.2 * POINTWISE_M2_SUP


def test_composition_guard_at_center(monkeypatch):
    # radial field, sample at the exact center: numerator and iterated-kernel
    # term are near zero; the floor keeps the ratio finite and small
    from czkit import experiments

    monkeypatch.setattr(experiments, "COMPOSITION_SAMPLES", [0j])
    res = experiments.exp_beurling_composition()
    disk_rows = [r for r in res.rows if r[0] == "disk"]
    assert len(disk_rows) == 1
    _, _, _, num, den, ratio = disk_rows[0]
    assert den > 0.9  # the maximal-function term keeps the denominator away from 0
    assert num < 0.2 and ratio < 0.3


def test_composition_default_target_mesh_is_the_cli_pairing(tmp_path, monkeypatch):
    # a fixed 1/8 target mesh over a 1/32 source grid puts every target
    # 0.06 source meshes from a source center; the target mesh is twice the
    # source mesh, in the API as through the CLI
    from czkit import experiments
    from czkit.cli import main

    monkeypatch.setattr(experiments, "COMPOSITION_SAMPLES", [0.4375 + 0.3125j])
    api = experiments.exp_beurling_composition(mesh=1.0 / 32)
    api.to_csv(str(tmp_path / "api.csv"))
    assert main(["exp", "beurling-composition", "--mesh", repr(1 / 32), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "api.csv").read_bytes() == (tmp_path / "beurling-composition.csv").read_bytes()
    assert max(row[3] for row in api.rows) < 10.0


def test_csv_output_and_determinism(tmp_path):
    res1 = exp_counterexample_growth()
    res2 = exp_counterexample_growth()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    res1.to_csv(str(p1))
    res2.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.split(",") == res1.columns
    # 17 significant digits survive the round trip
    row = p1.read_text().splitlines()[1].split(",")
    assert float(row[1]) == res1.rows[0][1]


def test_experiment_result_rendering():
    res = ExperimentResult("demo", ["a"], [(1.0,)], {"ok": True, "v": 0.5})
    text = res.summary_text()
    assert "demo" in text and "ok = 1" in text
