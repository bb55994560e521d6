"""Tests of the benchmark's own oracles, statistics and tracing.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

MODS = run.import_czkit()


def check_verdict(n, lam, mu=F(0)):
    kernel = MODS["kernels"].parse_kernel_spec(workloads.model_kernel_text(n, lam, mu))
    return MODS["admissibility"].check_maximal_control(kernel).verdict


# -- check oracle ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, lam, verdict",
    [(2, F(1), "FAIL(vanishing)"), (3, F(1), "FAIL(vanishing)"), (2, F(1, 2), "PASS"), (3, F(1, 2), "PASS"),
     (2, F(-1), "FAIL(vanishing)")],
)
def test_truth_matches_criterion_3_cases(n, lam, verdict):
    assert workloads.truth(lam) == verdict
    assert check_verdict(n, lam) == verdict


def test_non_divisible_variant_fails_divisibility():
    assert workloads.truth(F(1, 4), F(1, 3)) == "FAIL(divisibility)"
    assert check_verdict(3, F(1, 4), F(1, 3)) == "FAIL(divisibility)"


def test_truth_boundaries_are_open():
    assert workloads.truth(F(-1, 3)) == "FAIL(vanishing)"
    assert workloads.truth(F(-1, 3) + F(1, 10**12)) == "PASS"
    assert workloads.truth(F(1) - F(1, 10**12)) == "PASS"
    assert workloads.truth(F(1) + F(1, 10**12)) == "FAIL(vanishing)"


def test_strata_keep_the_known_defects_and_repeat_per_seed():
    a = workloads.draw_strata(random.Random(7))
    assert a == workloads.draw_strata(random.Random(7))
    assert all(len(v) == workloads.PER_STRATUM for v in a.values())
    lams = [lam for lam, _ in a["exterior"]]
    assert F(-1, 2) in lams and F(2) in lams
    below_one = [lam for lam, _ in a["near"] if 0 < 1 - lam < F(1, 10**11)]
    above_third = [lam for lam, _ in a["near"] if 0 < lam + F(1, 3) < F(1, 10**11)]
    assert below_one and above_third
    assert all(workloads.truth(lam) == "PASS" for lam, _ in a["interior"])
    assert all(workloads.truth(lam, mu) == "FAIL(divisibility)" for lam, mu in a["nondiv"])


def kv_stdout(**kv):
    return "verdict        : x\n\n" + "\n".join(f"{k}={v}" for k, v in kv.items()) + "\n"


def test_injected_wrong_verdict_is_a_failure():
    wrong_pass = workloads.judge_check("FAIL(vanishing)", 0, kv_stdout(verdict="PASS"))
    assert wrong_pass.failed and not wrong_pass.sound
    tolerance_fail = workloads.judge_check("PASS", 0, kv_stdout(verdict="FAIL(vanishing)", witness_value=5e-11))
    assert tolerance_fail.failed and tolerance_fail.sound
    missing_kv = workloads.judge_check("PASS", 0, "verdict        : PASS\n")
    assert missing_kv.failed and not missing_kv.sound
    inconclusive = workloads.judge_check("PASS", 1, kv_stdout(verdict="INCONCLUSIVE"))
    assert not inconclusive.failed and not inconclusive.decided
    right = workloads.judge_check("PASS", 0, kv_stdout(verdict="PASS"))
    assert not right.failed and right.sound and right.decided


def test_each_layer_runs_in_exactly_one_workload(tmp_path):
    ops = {w: workloads.build_ops(w, 5, str(tmp_path)) for w in workloads.WORKLOADS}
    checks = len(workloads.DECIDE_DIMS) * 4 * workloads.PER_STRATUM
    assert sum(op.kind == "check" for op in ops["check-line"]) == checks
    assert {op.op_id for op in ops["check-line"] if op.kind == "lab"} == set(workloads.LAB_OPS["line"])
    assert {op.op_id for op in ops["identities-plane"]} == set(workloads.IDENTITY_OPS) | set(workloads.LAB_OPS["plane"])


def test_ops_repeat_per_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    ops = workloads.build_ops("check-line", 5, str(a))
    assert len({op.op_id for op in ops}) == len(ops)
    same = workloads.build_ops("check-line", 5, str(b))
    assert [(op.op_id, op.expect) for op in same] == [(op.op_id, op.expect) for op in ops]
    other = workloads.build_ops("check-line", 6, str(c))
    assert [op.op_id for op in other] != [op.op_id for op in ops]


class FakeCli:
    """Prints a canned output per verb."""

    def __init__(self, outputs):
        self.outputs = outputs

    def main(self, argv):
        out, rc = self.outputs[argv[0]]
        print(out, end="")
        return rc


def test_decided_ratio_counts_kernels_only():
    ref = workloads.load_identity_refs()["identities-default"]
    ops = [workloads.Op("k", ["check"], "check", "PASS"), workloads.Op("i", ["identities"], "identities", ref)]
    cli = FakeCli({"check": (kv_stdout(verdict="INCONCLUSIVE"), 1), "identities": ("\n".join(ref) + "\n", 0)})
    lg = run.Ledger()
    lg.run_pass(cli, ops)
    assert (lg.attempted, lg.failed, lg.checks, lg.undecided) == (2, 0, 1, 1)


# -- lab and identity oracles ------------------------------------------------


def perturbed_run(tmp_path, rel):
    ref = workloads.load_lab_refs("line")["llogl-modular"]
    rows = [list(r) for r in ref["csv"]]
    rows[2][1] = repr(float(rows[2][1]) * (1 + rel))
    out = tmp_path / "out"
    out.mkdir()
    (out / "llogl-modular.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    stdout = "\n".join(ref["summary"] + ["rows written to x"]) + "\n"
    return workloads.judge_lab(ref, str(out), 0, stdout)


def test_csv_cell_perturbed_beyond_tolerance_is_a_failure(tmp_path):
    outcome = perturbed_run(tmp_path, 3e-9)
    assert outcome.failed and not outcome.sound


def test_csv_cell_within_tolerance_passes(tmp_path):
    assert not perturbed_run(tmp_path, 1e-11).failed


def test_cell_rules():
    assert workloads.cell_matches("1.0000000001", "1")
    assert not workloads.cell_matches("1e-300", "0")
    assert not workloads.cell_matches("disk", "steps")


def test_identity_count_drift_is_a_failure():
    ref = workloads.load_identity_refs()["identities-default"]
    assert len(ref) == 143
    ok = "\n".join(ref) + "\n143/143 identities verified\n"
    assert not workloads.judge_identities(ref, 0, ok).failed
    assert workloads.judge_identities(ref, 0, "\n".join(ref[:-1])).failed
    assert workloads.judge_identities(ref, 1, ok.replace("PASS", "FAIL", 1)).failed


# -- statistics --------------------------------------------------------------


@pytest.mark.parametrize("n, p", [(19, None), (20, 50.0), (36, 2600 / 36), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    values = [float(i) for i in range(n)]
    random.Random(n).shuffle(values)
    tail = stats.tail_percentile(values)
    if p is None:
        assert tail is None
    else:
        assert tail["percentile"] == pytest.approx(p) and tail["samples"] == n
        assert sum(1 for v in values if v > tail["value"]) == 10


# -- tracing -----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):  # 0 .. 10
        with tracer.span("mid"):  # 1 .. 6
            with tracer.span("leaf"):  # 3 .. 4
                pass
            with tracer.span("leaf"):  # 4.5 .. 6
                pass
    totals = tracer.totals()
    assert totals["outer"]["self_s"] == pytest.approx(10.0 - 5.0)
    assert totals["mid"]["self_s"] == pytest.approx(5.0 - 2.5)
    assert totals["leaf"] == {"s": pytest.approx(2.5), "self_s": pytest.approx(2.5), "calls": 2}
    buf = io.StringIO()
    tracer.write_jsonl(buf)
    records = [dict(zip(spans.SPAN_FIELDS, json.loads(line))) for line in buf.getvalue().splitlines()]
    assert [r["parent"] for r in records] == [None, 0, 1, 1]
    assert [r["name"] for r in records] == ["outer", "mid", "leaf", "leaf"]


def test_install_traces_a_cli_call_and_uninstall_restores():
    original = MODS["exact"].binomial
    tracer = spans.Tracer()
    tracer.install(MODS)
    try:
        assert MODS["identities"].binomial is not original
        with io.StringIO() as buf, contextlib.redirect_stdout(buf):
            assert MODS["cli"].main(["identities", "--n-max", "3", "--N-max", "2"]) == 0
    finally:
        tracer.uninstall()
    assert MODS["exact"].binomial is original and MODS["identities"].binomial is original
    assert tracer.missing == []
    values = spans.layer_metrics(tracer.totals(), tracer.counts)
    assert values["exact.binomial.calls"] > 0
    assert values["identities.verify_radial_sum_identity.calls"] > 0
    assert values["cli.self_s"] > 0
    assert values["gridops.hilbert_maximal.calls"] == 0


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    e2e = run.end_to_end(_ledger(), 0.5)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, v["unit"]) for k, v in e2e.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _ledger():
    lg = run.Ledger()
    lg.by_op, lg.pass_times = {"a": [0.1], "b": [0.2]}, [0.3]
    return lg


def test_checkout_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "check-line", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
