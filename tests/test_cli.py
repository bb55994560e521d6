"""Command-line interface."""
import os

import pytest

from czkit import identities
from czkit.cli import main

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


def test_identities_verb_streams_records(monkeypatch, capsys):
    def later_verifier(*args):
        raise RuntimeError("stop")

    monkeypatch.setattr(identities, "verify_series_stabilization", later_verifier)
    with pytest.raises(RuntimeError):
        main(["identities", "--n-max", "2", "--N-max", "1"])
    out = capsys.readouterr().out
    assert out.startswith("PASS radial-laplacian [n=2 N=1]\n")
    assert "identities verified" not in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["exp", "nonsense"])
