"""czkit benchmark: drives `czkit.cli.main` in-process the way users call it.

    python3 bench/run.py --workload check-line|identities-plane|all \
        --seed N --seconds S --trace 0|1

One workload runs per process, so its peak memory is its own; `all` runs
the two in turn as child processes and prints one table.  One closed-loop
client repeats whole passes over the workload's ops for `--seconds` (at
least one pass; none that would end past it); every op's output is checked.
The last stdout line is the result object; the line before it carries the
detail (tail latency, ratios, machine block), also written to bench/out/.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
plus the tracing overhead; its spans go to bench/out/ as JSON lines.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

import stats  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 21
MAX_RUN_S = 150.0  # no pass starts once it could end past this, whatever --seconds says
CZKIT_MODULES = ("cli", "kernels", "polyalg", "admissibility", "exact", "identities", "gridops", "experiments")


class SetupError(RuntimeError):
    pass


def import_czkit():
    """Import czkit from this checkout's src/, never from an installed copy."""
    for name in [m for m in sys.modules if m == "czkit" or m.startswith("czkit.")]:
        del sys.modules[name]
    if not os.path.isfile(os.path.join(SRC, "czkit", "cli.py")):
        raise SetupError(f"no czkit sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    importlib.import_module("czkit.cli")
    mods = {name: sys.modules[f"czkit.{name}"] for name in CZKIT_MODULES}
    if os.path.dirname(os.path.abspath(mods["cli"].__file__)) != os.path.join(SRC, "czkit"):
        raise SetupError(f"czkit imported from {mods['cli'].__file__}, not from {SRC}")
    return mods


def setup(workload: str, seed: int, work_dir: str):
    """Import plus input generation, repeated; returns the median time and
    the modules and ops of the last repetition."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        mods = import_czkit()
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        ops = workloads.build_ops(workload, seed, work_dir)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), mods, ops


def run_op(cli, op):
    """One closed-loop call; returns (exit code or None on a crash, stdout, seconds)."""
    buf = io.StringIO()
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=sys.stderr)
    return rc, buf.getvalue(), time.perf_counter() - t0


class Ledger:
    """Per-op latencies and judgements across passes."""

    def __init__(self):
        self.by_op: dict[str, list[float]] = {}
        self.pass_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.undecided = 0
        self.sound = True
        self.reasons: dict[str, str] = {}

    @property
    def latencies(self) -> list[float]:
        return [dt for times in self.by_op.values() for dt in times]

    def run_pass(self, cli, ops, tracer=None, pass_no: int = 0) -> None:
        total = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op_id = f"p{pass_no}:{op.op_id}"
            if op.out_dir is not None:  # judge only what this call writes
                shutil.rmtree(op.out_dir, ignore_errors=True)
            rc, out, dt = run_op(cli, op)
            total += dt
            self.by_op.setdefault(op.op_id, []).append(dt)
            self.attempted += 1
            if rc is None:
                outcome = workloads.Outcome(failed=True, sound=False, decided=False, reason="crashed")
            else:
                outcome = workloads.judge(op, rc, out)
            self.failed += outcome.failed
            self.checks += op.kind == "check"
            self.undecided += op.kind == "check" and not outcome.decided
            self.sound &= outcome.sound
            if outcome.failed:
                self.reasons.setdefault(op.op_id, outcome.reason)
        self.pass_times.append(total)


def timed_phase(mods, ops, seconds: float, traced: bool):
    """Closed loop over whole passes: at least one, and no further pass once
    it would likely end past `seconds`.  With tracing, untraced and traced
    passes alternate so the overhead is measured in the same process."""
    cli = mods["cli"]
    plain, traced_ledger = Ledger(), Ledger()
    per_pass: list[tuple[dict, dict]] = []
    tracers = []
    start = time.perf_counter()
    pass_no = 0
    while True:
        plain.run_pass(cli, ops)
        if traced:
            tracer = spans.Tracer()
            tracer.install(mods)
            try:
                traced_ledger.run_pass(cli, ops, tracer, pass_no)
            finally:
                tracer.uninstall()
            per_pass.append((tracer.totals(), dict(tracer.counts)))
            tracers.append(tracer)
        pass_no += 1
        elapsed = time.perf_counter() - start
        if elapsed * (pass_no + 1) / pass_no > min(seconds, MAX_RUN_S):
            break
    return plain, traced_ledger, per_pass, tracers


def end_to_end(ledger: Ledger, setup_s: float) -> dict:
    return {
        "wall_s": {"value": statistics.median(ledger.pass_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(per_pass, plain: Ledger, traced: Ledger) -> tuple[dict, bool]:
    """Per-layer metrics: times are medians over traced passes, counts come
    from the first traced pass; returns whether counts repeated exactly."""
    values = [spans.layer_metrics(totals, counts) for totals, counts in per_pass]
    wall_traced = statistics.median(traced.pass_times)
    out = {}
    for name, unit in spans.PER_LAYER:
        if name == "trace.wall_s":
            v = wall_traced
        elif name == "trace.overhead_s":
            v = wall_traced - statistics.median(plain.pass_times)
        elif unit == "s":
            v = statistics.median(p[name] for p in values)
        else:
            v = values[0][name]
        out[name] = {"value": v, "unit": unit}
    counts_repeat = all(
        p[name] == values[0][name] for p in values for name, unit in spans.PER_LAYER if unit != "s"
    )
    return out, counts_repeat


def machine_block() -> dict:
    """Host, versions, thread settings, commit and src/czkit line counts."""
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    llc = None
    for key in ("SC_LEVEL3_CACHE_SIZE", "SC_LEVEL2_CACHE_SIZE"):
        try:
            llc = llc or (os.sysconf(key) or None)
        except (ValueError, OSError):
            pass
    loc = {}
    pkg = os.path.join(SRC, "czkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                loc[name] = sum(1 for _ in fh)
    loc["total"] = sum(loc.values())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "czkit_threads_env": os.environ.get("CZKIT_THREADS"),
        "commit": git_commit(),
        "loc": loc,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def run_workload(args) -> int:
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        try:
            setup_s, mods, ops = setup(args.workload, args.seed, work_dir)
        except (SetupError, ImportError, OSError, KeyError) as exc:
            print(f"bench: set-up failed: {exc}", file=sys.stderr)
            return 2
        plain, traced, per_pass, tracers = timed_phase(mods, ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ledgers = [plain, traced] if args.trace else [plain]
    attempted = sum(lg.attempted for lg in ledgers)
    failed = sum(lg.failed for lg in ledgers)
    checks = sum(lg.checks for lg in ledgers)
    undecided = sum(lg.undecided for lg in ledgers)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(plain.pass_times),
        "ops_per_pass": len(ops),
        "pass_s": plain.pass_times,
        "fail_ratio": failed / attempted,
        "failures": {**plain.reasons, **traced.reasons},
        "op_p50_ms": 1e3 * statistics.median(plain.latencies),
        "op_tail_ms": stats.tail_percentile([1e3 * x for x in plain.latencies]),
        "op_median_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(plain.by_op.items())},
        "machine": machine_block(),
    }
    if checks:
        detail["decided_ratio"] = (checks - undecided) / checks
    if args.trace:
        metrics, counts_repeat = per_layer(per_pass, plain, traced)
        detail["counts_repeat"] = counts_repeat
        detail["untraced_layers"] = tracers[0].missing
        detail["spans"] = os.path.relpath(write_spans(args, tracers), ROOT)
    else:
        metrics = end_to_end(plain, setup_s)
    result = {"correct": plain.sound and traced.sound, "attempted": attempted, "failed": failed, "metrics": metrics}

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload:<11} {'op_p50_ms':<44} {detail['op_p50_ms']:>14.6g} ms")
        tail = detail["op_tail_ms"]
        if tail is not None:
            print(f"{args.workload:<11} {'op_tail_ms':<44} {tail['value']:>14.6g} ms"
                  f" (p{tail['percentile']:.4g} of {tail['samples']} ops)")
        if "decided_ratio" in detail:
            print(f"{args.workload:<11} {'decided_ratio':<44} {detail['decided_ratio']:>14.6g} 1")
    print(f"{args.workload:<11} attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4g}"
          f" correct={result['correct']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def write_spans(args, tracers) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": spans.SPAN_FIELDS}) + "\n")
        next_id = 0
        for tracer in tracers:
            next_id = tracer.write_jsonl(fh, next_id)
    return path


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]), flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
