"""Command-line interface."""
import argparse
import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import czkit
from czkit import identities
from czkit.cli import main
from czkit.experiments import EXPERIMENTS

RIESZ3 = """dim 2
1 3 0
-3 1 2
"""

DEGENERATE = """dim 2
1 3 0
1 1 2
3 3 0
-9 1 2
"""

NONDIVISIBLE = """dim 2
1 3 0
1 1 2
1 0 3
-3 2 1
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_pass(tmp_path, capsys):
    rc = main(["check", write(tmp_path, "k.kern", RIESZ3), "--kv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "verdict=PASS" in out


def test_check_fail_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "k.kern", DEGENERATE)
    assert main(["check", path]) == 1
    assert main(["check", path, "--allow-fail"]) == 0
    out = capsys.readouterr().out
    assert "FAIL(vanishing)" in out
    # F is quadratic: decided exactly, its zero the null vector (1, 0) of M, and no tree lines
    assert "\nstop reason    : exact\nwitness        : (1, 0)\n|F(witness)|   : 0\n" in out
    assert "tree depth" not in out and "level " not in out


def test_check_divisibility_verdict(tmp_path, capsys):
    rc = main(["check", write(tmp_path, "k.kern", NONDIVISIBLE), "--allow-fail"])
    out = capsys.readouterr().out
    assert rc == 0 and "FAIL(divisibility)" in out


def test_identities_verb(capsys):
    rc = main(["identities", "--n-max", "2", "--N-max", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out
    assert "identities verified" in out


def test_exp_verb(tmp_path, capsys):
    rc = main(["exp", "counterexample-growth", "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert os.path.exists(tmp_path / "out" / "counterexample-growth.csv")
    assert "within_bracket = 1" in out


def test_version(capsys):
    assert main(["version"]) == 0
    assert "czkit" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(czkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-m", "czkit", "version"], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert "czkit" in run.stdout


def test_exp_ops_load_no_lazy_numpy_module(tmp_path):
    # numpy 2 loads numpy.random and numpy.ma at their first use, for megabytes
    # of RSS each; numpy 1 loads both with numpy, and then they do not count
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = """if True:
        import contextlib, io, os, sys
        import numpy
        base = set(sys.modules)
        from workloads import LAB_OPS
        from czkit.cli import main
        for ops in LAB_OPS.values():
            for op_id, argv in ops.items():
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv + ["--out", os.path.join(sys.argv[1], op_id)]) == 0, op_id
        print(*sorted(m for m in set(sys.modules) - base if m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"])))
    """
    path = os.pathsep.join(os.path.join(root, d) for d in ("src", "bench"))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def test_identities_verb_streams_records(monkeypatch, capsys):
    def later_verifier(*args):
        raise RuntimeError("stop")

    monkeypatch.setattr(identities, "verify_series_stabilization", later_verifier)
    with pytest.raises(RuntimeError):
        main(["identities", "--n-max", "2", "--N-max", "1"])
    out = capsys.readouterr().out
    assert out.startswith("PASS radial-laplacian [n=2 N=1]\n")
    assert "identities verified" not in out


def test_identities_verb_reports_a_wrong_closed_form(monkeypatch, capsys):
    exact_form = identities.matching_coeff_closed

    def off_by_one_part_in_a_billion(*a):
        return exact_form(*a) * Fraction(10**9 + 1, 10**9)

    monkeypatch.setattr(identities, "matching_coeff_closed", off_by_one_part_in_a_billion)
    rc = main(["identities", "--n-max", "3", "--N-max", "3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL matching-coeffs [n=2 N=1]" in out.splitlines()


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["exp", "nonsense"])


# (file text or None for a missing file, the line at fault or None)
MALFORMED = [
    ("dim 2\n1/0 1 2\n", 2),
    ("dim two\n1 1 0\n", 1),
    ("dim 2\nx 1 0\n", 2),
    ("dim 2\n1 1\n", 2),
    ("dim 2\n1 0 0\n", None),  # nonzero sphere mean
    ("dim 2\n1 2 0\n-1 0 2\n", None),  # even kernel
    (None, None),
    ("1 1 0\n", None),  # no dim line
    ("dim 2\n# again\ndim 2\n1 1 0\n", 3),
    ("", None),
]


@pytest.mark.parametrize("text,line", MALFORMED)
def test_check_reports_malformed_kernel_file(tmp_path, capsys, text, line):
    path = str(tmp_path / "missing.kern") if text is None else write(tmp_path, "bad.kern", text)
    assert main(["check", path]) == 2
    out, err = capsys.readouterr()
    prefix = f"czkit: {path}: " if line is None else f"czkit: {path}:{line}: "
    assert out == "" and err.startswith(prefix) and err.count("\n") == 1


# meshes the experiment itself refuses: they do not tile its fields
UNTILED_MESHES = [
    ["beurling-composition", "--mesh", "0.3"],
    ["beurling-composition", "--mesh", "0.25"],
    ["pointwise-ratios", "--mesh", "0.3"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["llogl-modular", "--mesh", "0.5", "--cells", "7", "--kernel", "beurling"],
        ["counterexample-growth", "--window", "7"],
        ["llogl-modular", "--mesh", "0.5"],
        ["llogl-modular", "--cells", "7"],
        ["llogl-modular", "--kernel", "beurling"],
        ["beurling-composition", "--kernel", "hilbert"],
        ["counterexample-growth", "--mesh", "0.5"],
        ["pointwise-ratios", "--cells", "7"],
        ["pointwise-ratios", "--mesh", "0"],
        ["beurling-composition", "--mesh", "-0.5"],
        ["counterexample-growth", "--cells", "0"],
        *UNTILED_MESHES,
        ["pointwise-ratios", "--kernel", "beurling", "--mesh", "inf"],
        ["beurling-composition", "--mesh", "nan"],
    ],
)
def test_exp_rejects_bad_options(tmp_path, capsys, argv):
    run = ["exp", *argv, "--out", str(tmp_path)]
    if argv in UNTILED_MESHES:
        assert main(run) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"czkit: exp {argv[0]}: mesh {argv[2]} ") and err.count("\n") == 1
    else:
        with pytest.raises(SystemExit) as exc:
            main(run)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert ("unrecognized arguments" in err) == ("--cells" in argv or "--window" in argv)
    assert not os.listdir(tmp_path)


def test_pointwise_beurling_refuses_an_untiled_transform_grid(tmp_path, capsys):
    # source mesh 0.07: the transform grid's target mesh 0.14 does not tile [-6, 6)^2
    argv = ["exp", "pointwise-ratios", "--kernel", "beurling", "--mesh", "0.07", "--out", str(tmp_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"czkit: exp pointwise-ratios: mesh {2 * 0.07!r} does not divide 12.0 into whole cells\n"
    assert not os.listdir(tmp_path)


def test_exp_options_are_the_experiment_parameters(tmp_path, monkeypatch, capsys):
    # each parameter of an experiment is its option --<name>, passed as that keyword; every
    # other option of `exp` is refused for it
    values = {"mesh": ("0.25", 0.25), "kernel": ("beurling", "beurling")}
    seen = []

    def stub(**kwargs):
        seen.append(kwargs)
        raise ValueError("stub")

    for name, fn in list(EXPERIMENTS.items()):
        params = set(inspect.signature(fn).parameters)
        assert params <= set(values), name
        monkeypatch.setitem(EXPERIMENTS, name, stub)
        for opt, (text, value) in values.items():
            argv = ["exp", name, f"--{opt}", text, "--out", str(tmp_path)]
            if opt in params:
                seen.clear()
                assert main(argv) == 2 and seen == [{opt: value}], (name, opt)
                assert capsys.readouterr().err == f"czkit: exp {name}: stub\n"
            else:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                assert f"{name} does not take --{opt}" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True])
def test_exp_refuses_an_unusable_out_before_the_run(tmp_path, monkeypatch, capsys, under):
    def never(**kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(EXPERIMENTS, "counterexample-growth", never)
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = blocker / "sub" if under else blocker
    assert main(["exp", "counterexample-growth", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("czkit: exp counterexample-growth: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["taken"] and blocker.read_text() == "a file\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check", "KERNEL", "--depth", "-3"], "unrecognized arguments: --depth -3"),
        (["identities", "--n-max", "1"], "--n-max must be at least 2, got 1"),
        (["identities", "--N-max", "0"], "--N-max must be at least 1, got 0"),
    ],
)
def test_out_of_range_counts_rejected(tmp_path, capsys, argv, message):
    argv = [write(tmp_path, "k.kern", RIESZ3) if a == "KERNEL" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {message}" in err


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_args", lambda self, *a: parsers.append(self) or parse_args(self, *a)
    )
    kernel, out = write(tmp_path, "k.kern", RIESZ3), str(tmp_path / "o")
    quick = ["identities", "--n-max", "2", "--N-max", "1"]
    assert main(quick) == 0
    first = capsys.readouterr().out
    refused = [
        (["check", kernel, "--depth", "3"], "unrecognized arguments: --depth 3"),
        (["exp", "pointwise-ratios", "--mesh", "inf", "--out", out], "--mesh must be positive and finite, got inf"),
        (["exp", "llogl-modular", "--mesh", "0.5", "--out", out], "llogl-modular does not take --mesh"),
        (["identities", "--n-max", "3", "--bogus"], "unrecognized arguments: --bogus"),
    ]
    for _ in range(3):
        for argv, message in refused:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            stdout, err = capsys.readouterr()
            assert stdout == "" and f"error: {message}" in err
    assert main(quick) == 0
    assert capsys.readouterr().out == first
    assert len(parsers) == 2 + 3 * len(refused) and all(p is parsers[0] for p in parsers)
    assert not os.path.exists(out)
