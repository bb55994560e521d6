"""The benchmark's workloads: the argv each op passes to `czkit.cli.main`,
and the oracle that judges each op's output.

Every op is an argv a user would type.  The seed draws the `check`
kernels and orders the ops of every workload; the identity suite and the
experiments run pinned configurations, because their references exist only
there.

Each workload pairs one exact-answer verb with one family of experiments:
`check-line` is `check` on the model kernels plus the 1D experiments,
`identities-plane` the identity suite plus the planar ones.  Every layer is
exercised by one workload and bypassed by the other.  The pairing is for
steadiness: on a shared host the compute-bound Python of `check` and
`identities` drifted by 20-40% over ten minutes while the array-bound
experiments held within 5-10%, so on their own these verbs spread across
runs by more than the benchmark's bound.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(BENCH_DIR, "ref")
REL_TOL = 1e-9
ZERO_TOL = 1e-10  # czkit's documented zero tolerance; a FAIL(vanishing) witness must be below it
DECIDE_DIMS = (2, 3, 4)
PER_STRATUM = 3
LOWER, UPPER = Fraction(-1, 3), Fraction(1)


@dataclass
class Op:
    op_id: str
    argv: list[str]
    kind: str  # "check", "identities" or "lab"
    expect: object = None  # truth verdict, reference record lines, or reference CSV and summary
    out_dir: str | None = None


@dataclass
class Outcome:
    """Judgement of one op: `failed` counts against the workload's fail
    ratio; `sound` is False when the output breaks an invariant that must
    hold at every commit (crash, malformed output, lab or identity drift,
    a certificate given to a kernel that does not deserve it)."""

    failed: bool
    sound: bool
    decided: bool = True
    reason: str = ""


# ---------------------------------------------------------------------------
# check: model kernels with a closed-form truth
# ---------------------------------------------------------------------------


def model_kernel_text(n: int, lam: Fraction, mu: Fraction = Fraction(0)) -> str:
    """Kernel file for x1|x|^2 + lam (n+1)(x1^3 - 3 x1 x2^2) + mu (x2^3 - 3 x1^2 x2)."""
    terms: dict[tuple[int, ...], Fraction] = {}

    def add(expo: tuple[int, ...], c: Fraction) -> None:
        e = tuple(expo) + (0,) * (n - len(expo))
        terms[e] = terms.get(e, Fraction(0)) + c

    for i in range(n):
        e = [0] * n
        e[0] += 1
        e[i] += 2
        add(tuple(e), Fraction(1))
    c = lam * (n + 1)
    add((3,), c)
    add((1, 2), -3 * c)
    add((0, 3), mu)
    add((2, 1), -3 * mu)
    lines = [f"# model kernel n={n} lam={lam} mu={mu}", f"dim {n}"]
    lines += [f"{v} " + " ".join(map(str, e)) for e, v in sorted(terms.items()) if v]
    return "\n".join(lines) + "\n"


def truth(lam: Fraction, mu: Fraction = Fraction(0)) -> str:
    """Exact verdict for the model kernel: a non-zero mu breaks divisibility
    by the degree-1 layer x1; otherwise the quotient sum vanishes somewhere
    on the sphere unless -1/3 < lam < 1."""
    if mu != 0:
        return "FAIL(divisibility)"
    return "PASS" if LOWER < lam < UPPER else "FAIL(vanishing)"


def _unit(rng: random.Random) -> Fraction:
    """Uniform draw in (0, 1) on a 1e-6 lattice, kept exact."""
    return Fraction(rng.randrange(1, 10**6), 10**6)


def _mantissa(rng: random.Random) -> Fraction:
    """Uniform draw in [1, 10) on a 1e-6 lattice."""
    return Fraction(rng.randrange(10**6, 10**7), 10**6)


# Interior windows (centre, half-width).  A kernel's cost is set by the grid
# depth its check reaches, a step function of lam; each window lies inside
# one step for n = 3 and n = 4 (depth 2, depth 4, and the depth cap at
# n = 4), so the seed varies the inputs without moving ops between cost
# classes.  Draws over the whole interval moved `wall_s` by about 5%
# between seeds.
INTERIOR_WINDOWS = ((Fraction(-1, 10), Fraction(1, 20)), (Fraction(27, 50), Fraction(1, 20)),
                    (Fraction(39, 50), Fraction(1, 20)))


def draw_strata(rng: random.Random) -> dict[str, list[tuple[Fraction, Fraction]]]:
    """PER_STRATUM (lam, mu) pairs from each of the four strata.

    interior: one uniform draw in each of INTERIOR_WINDOWS.
    exterior: the pinned points -1/2 and 2, then one draw below -1/3 - 1e-2
        or above 1 + 1e-2.
    near: 1 - d and -1/3 + d with d < 1e-11 (admissible, where the grid
        scan's zero tolerance answers FAIL(vanishing)); then one point at
        distance m 10^-k from a drawn boundary, outside (k in 2..10) or
        inside (k in 4..10, where n = 3 and n = 4 reach the depth cap).
    non-divisible: any lam in (-3, 3) with a drawn non-zero mu.
    """
    interior = [(c + w * (2 * _unit(rng) - 1), Fraction(0)) for c, w in INTERIOR_WINDOWS]
    low = Fraction(-3) + (Fraction(8, 3) - Fraction(1, 100)) * _unit(rng)
    high = Fraction(101, 100) + Fraction(199, 100) * _unit(rng)
    exterior = [(Fraction(-1, 2), Fraction(0)), (Fraction(2), Fraction(0)), (rng.choice((low, high)), Fraction(0))]
    tiny = Fraction(1, 10**12)
    near = [(UPPER - _mantissa(rng) * tiny, Fraction(0)), (LOWER + _mantissa(rng) * tiny, Fraction(0))]
    boundary, outward = rng.choice(((UPPER, 1), (LOWER, -1)))
    if rng.random() < 0.5:
        near.append((boundary + outward * _mantissa(rng) / 10 ** rng.randrange(2, 11), Fraction(0)))
    else:
        near.append((boundary - outward * _mantissa(rng) / 10 ** rng.randrange(4, 11), Fraction(0)))
    nondiv = []
    for _ in range(PER_STRATUM):
        lam = Fraction(-3) + 6 * _unit(rng)
        mu = Fraction(rng.randrange(1, 1000), 100) * rng.choice((1, -1))
        nondiv.append((lam, mu))
    return {"interior": interior, "exterior": exterior, "near": near, "nondiv": nondiv}


def decide_ops(rng: random.Random, work_dir: str) -> list[Op]:
    ops = []
    for n in DECIDE_DIMS:
        for stratum, pairs in draw_strata(rng).items():
            for i, (lam, mu) in enumerate(pairs):
                op_id = f"check-n{n}-{stratum}{i}"
                path = os.path.join(work_dir, f"{op_id}.kern")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(model_kernel_text(n, lam, mu))
                ops.append(Op(op_id, ["check", path, "--kv", "--allow-fail"], "check", truth(lam, mu)))
    return ops


def parse_kv(stdout: str) -> dict[str, str]:
    """The key=value block `check --kv` prints after a blank line."""
    _, sep, tail = stdout.partition("\n\n")
    if not sep:
        return {}
    return dict(line.split("=", 1) for line in tail.splitlines() if "=" in line)


def judge_check(expected: str, rc: int, stdout: str) -> Outcome:
    kv = parse_kv(stdout)
    verdict = kv.get("verdict")
    if verdict not in ("PASS", "FAIL(vanishing)", "FAIL(divisibility)", "INCONCLUSIVE"):
        return Outcome(True, False, False, "missing or malformed kv block")
    decided = verdict != "INCONCLUSIVE"
    if rc != (0 if decided else 1):
        return Outcome(True, False, decided, f"exit code {rc} for {verdict}")
    if not decided:
        return Outcome(False, True, False, "inconclusive")
    if verdict == expected:
        return Outcome(False, True, True)
    # A wrong verdict is a failed op.  It is also unsound, unless it is a
    # FAIL(vanishing) whose witness lies below the documented zero
    # tolerance: that is the grid scan's tolerance answering, which a PASS
    # certificate or an exact divisibility verdict never may.
    within_tol = verdict == "FAIL(vanishing)" and float(kv.get("witness_value", "inf")) < ZERO_TOL
    sound = within_tol and expected == "PASS"
    return Outcome(True, sound, True, f"verdict {verdict}, truth {expected}")


# ---------------------------------------------------------------------------
# identities and lab: pinned invocations with committed references
# ---------------------------------------------------------------------------

IDENTITY_OPS = {
    "identities-default": ["identities"],
    "identities-n8-N10": ["identities", "--n-max", "8", "--N-max", "10"],
}
LAB_OPS = {
    "line": {
        "counterexample-growth": ["exp", "counterexample-growth"],
        "llogl-modular": ["exp", "llogl-modular"],
        "pointwise-hilbert-128": ["exp", "pointwise-ratios", "--kernel", "hilbert", "--mesh", repr(1 / 128)],
        "pointwise-hilbert-256": ["exp", "pointwise-ratios", "--kernel", "hilbert", "--mesh", repr(1 / 256)],
    },
    "plane": {
        "weak11-failure": ["exp", "weak11-failure"],
        "pointwise-beurling-16": ["exp", "pointwise-ratios", "--kernel", "beurling", "--mesh", repr(1 / 16)],
        "pointwise-beurling-32": ["exp", "pointwise-ratios", "--kernel", "beurling", "--mesh", repr(1 / 32)],
        "composition-16": ["exp", "beurling-composition", "--mesh", repr(1 / 16)],
        "composition-32": ["exp", "beurling-composition", "--mesh", repr(1 / 32)],
    },
}


def identity_records(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith(("PASS ", "FAIL "))]


def load_identity_refs() -> dict[str, list[str]]:
    with open(os.path.join(REF_DIR, "identities.json"), encoding="utf-8") as fh:
        return json.load(fh)


def identities_ops(refs: dict[str, list[str]]) -> list[Op]:
    return [Op(op_id, list(argv), "identities", refs[op_id]) for op_id, argv in IDENTITY_OPS.items()]


def judge_identities(expected: list[str], rc: int, stdout: str) -> Outcome:
    records = identity_records(stdout)
    bad = [r for r in records if r.startswith("FAIL ")]
    if rc != 0 or bad:
        return Outcome(True, False, reason=f"exit {rc}, {len(bad)} FAIL lines")
    if records != expected:
        return Outcome(True, False, reason=f"{len(records)} records, reference has {len(expected)}")
    return Outcome(False, True)


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def summary_lines(stdout: str) -> list[str]:
    """The experiment summary the CLI prints, without the output path."""
    return [line for line in stdout.splitlines() if not line.startswith("rows written to ")]


def load_lab_refs(family: str) -> dict[str, dict]:
    with open(os.path.join(REF_DIR, "summaries.json"), encoding="utf-8") as fh:
        summaries = json.load(fh)
    return {
        op_id: {"csv": read_csv(os.path.join(REF_DIR, f"{op_id}.csv")), "summary": summaries[op_id]}
        for op_id in LAB_OPS[family]
    }


def lab_ops(family: str, work_dir: str) -> list[Op]:
    refs = load_lab_refs(family)
    ops = []
    for op_id, argv in LAB_OPS[family].items():
        out = os.path.join(work_dir, op_id)
        ops.append(Op(op_id, argv + ["--out", out], "lab", refs[op_id], out))
    return ops


def cell_matches(got: str, ref: str, rel_tol: float = REL_TOL) -> bool:
    """Numeric cells agree to rel_tol; text and exact zeros must be equal."""
    if got == ref:
        return True
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return False
    if a == 0.0 or b == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def table_mismatch(got: list[list[str]], ref: list[list[str]]) -> str | None:
    if not ref or not got or got[0] != ref[0]:
        return "columns differ"
    if len(got) != len(ref) or any(len(g) != len(r) for g, r in zip(got, ref)):
        return "shape differs"
    for i, (g_row, r_row) in enumerate(zip(got, ref)):
        for j, (g, r) in enumerate(zip(g_row, r_row)):
            if not cell_matches(g, r):
                return f"cell ({i}, {ref[0][j]}) is {g}, reference {r}"
    return None


def summary_mismatch(got: list[str], ref: list[str]) -> str | None:
    if len(got) != len(ref):
        return "summary length differs"
    for g, r in zip(got, ref):
        gk, _, gv = g.partition(" = ")
        rk, _, rv = r.partition(" = ")
        if gk != rk or not cell_matches(gv.strip(), rv.strip()):
            return f"summary line {g!r}, reference {r!r}"
    return None


def judge_lab(ref: dict, out_dir: str, rc: int, stdout: str) -> Outcome:
    if rc != 0:
        return Outcome(True, False, reason=f"exit code {rc}: a summary flag is false")
    names = [f for f in os.listdir(out_dir) if f.endswith(".csv")] if os.path.isdir(out_dir) else []
    if len(names) != 1:
        return Outcome(True, False, reason=f"expected one CSV, found {names}")
    why = table_mismatch(read_csv(os.path.join(out_dir, names[0])), ref["csv"])
    why = why or summary_mismatch(summary_lines(stdout), ref["summary"])
    if why:
        return Outcome(True, False, reason=why)
    return Outcome(False, True)


def judge(op: Op, rc: int, stdout: str) -> Outcome:
    if op.kind == "check":
        return judge_check(op.expect, rc, stdout)
    if op.kind == "identities":
        return judge_identities(op.expect, rc, stdout)
    return judge_lab(op.expect, op.out_dir, rc, stdout)


WORKLOADS = ("check-line", "identities-plane")


def build_ops(workload: str, seed: int, work_dir: str) -> list[Op]:
    """Inputs of one pass, in seeded order: kernel files written, argv
    lists built, references loaded."""
    rng = random.Random(seed)
    if workload == "check-line":
        ops = decide_ops(rng, work_dir) + lab_ops("line", work_dir)
    else:
        ops = identities_ops(load_identity_refs()) + lab_ops("plane", work_dir)
    rng.shuffle(ops)
    return ops
