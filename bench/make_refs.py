"""Regenerate the lab and identity references in bench/ref/.

    python3 bench/make_refs.py

Run it only at a commit whose outputs are the accepted ones: the benchmark
judges every later commit against what this writes.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    mods = run.import_czkit()
    os.makedirs(workloads.REF_DIR, exist_ok=True)
    scratch = os.path.join(run.OUT_DIR, "refs-scratch")
    summaries = {}
    for ops in workloads.LAB_OPS.values():
        for op_id, argv in ops.items():
            out = os.path.join(scratch, op_id)
            rc, stdout, _ = run.run_op(mods["cli"], workloads.Op(op_id, argv + ["--out", out], "lab"))
            if rc != 0:
                print(f"{op_id}: exit code {rc}", file=sys.stderr)
                return 1
            (name,) = [f for f in os.listdir(out) if f.endswith(".csv")]
            shutil.copyfile(os.path.join(out, name), os.path.join(workloads.REF_DIR, f"{op_id}.csv"))
            summaries[op_id] = workloads.summary_lines(stdout)
    shutil.rmtree(scratch, ignore_errors=True)
    records = {}
    for op_id, argv in workloads.IDENTITY_OPS.items():
        rc, stdout, _ = run.run_op(mods["cli"], workloads.Op(op_id, argv, "identities"))
        if rc != 0:
            print(f"{op_id}: exit code {rc}", file=sys.stderr)
            return 1
        records[op_id] = workloads.identity_records(stdout)
    for name, obj in (("summaries.json", summaries), ("identities.json", records)):
        with open(os.path.join(workloads.REF_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
