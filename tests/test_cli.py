"""Command-line surface: flags, exit codes, report formats, config files.

Exit code contract: 0 success, 2 bad input, 3 verification failure,
4 axiom violation."""

import json
import subprocess
import sys
from fractions import Fraction

from conftest import ctx_of, table_of
from walgebra import serialize as ser
from walgebra.cli import main

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_2_1(capsys):
    code, out, _ = run(capsys, "algebra", "--kind", "sl", "--partition", "2,1")
    assert code == 0
    assert "generators: 4" in out
    for token in ("q[1](2,2)", "q[3/2](1,2)", "q[3/2](2,1)", "q[2](1,1)"):
        assert token in out


def test_algebra_super_equal_parts_rejected(capsys):
    code, _, err = run(capsys, "algebra", "--kind", "sl-super",
                       "--partition", "2", "--partition2", "2")
    assert code == 2
    assert "SuperEqualParts" in err


def test_algebra_6_4_3_count(capsys):
    code, out, _ = run(capsys, "algebra", "--partition", "6,4,3")
    assert code == 0
    assert "generators: 32" in out


def test_bracket_text_sl2(capsys):
    code, out, _ = run(capsys, "bracket", "--partition", "2", "2,1,1", "2,1,1")
    assert code == 0
    assert "d^1(q[2](1,1))" in out      # the lambda^0 slot
    assert "(2)*q[2](1,1)" in out       # the lambda^1 slot
    assert "-1/2" in out                # the central lambda^3 constant


def test_bracket_json_roundtrips(capsys):
    code, out, _ = run(capsys, "bracket", "--partition", "3,2",
                       "--ktilde", "symbolic", "--format", "json",
                       "5/2,1,2", "5/2,2,1")
    assert code == 0
    doc = json.loads(out)
    ctx = ctx_of("sl", (3, 2))
    tab = table_of("sl", (3, 2))
    a = ser.gen_from_json(ctx, doc["left"])
    b = ser.gen_from_json(ctx, doc["right"])
    assert ser.lambda_poly_from_json(ctx, doc["bracket"]) == tab.lookup(a, b)


def test_bracket_unknown_generator(capsys):
    code, _, err = run(capsys, "bracket", "--partition", "2", "9,1,1", "2,1,1")
    assert code == 2
    assert "UnknownGenerator" in err
    code, _, err = run(capsys, "bracket", "--partition", "2", "nonsense", "2,1,1")
    assert code == 2


def test_verify_pass_and_fail_codes(capsys):
    code, out, _ = run(capsys, "verify", "--flavor", "big", "--partition", "3,2")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "--flavor", "small", "--partition", "2,1")
    assert code == 0
    # principal blocks admit no schedule: bad input, not a failed derivation
    code, _, err = run(capsys, "verify", "--partition", "4")
    assert code == 2
    assert "ScheduleInapplicable" in err


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--flavor", "small",
                       "--partition", "3,2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["flavor"] == "small"
    assert [g[:2] for g in doc["weak_set"]][0] == [3, 1]


def test_closure_codes(capsys):
    code, out, _ = run(capsys, "closure", "--seed", "big", "--partition", "2,2")
    assert code == 0 and "COMPLETE" in out
    code, out, _ = run(capsys, "closure", "--seed", "none", "--partition", "2,2")
    assert code == 3 and "INCOMPLETE" in out


def test_closure_caps_flags(capsys):
    code, out, _ = run(capsys, "closure", "--seed", "big", "--partition", "2,2",
                       "--max-n", "1", "--max-weight", "3/2")
    assert code == 3
    code, _, err = run(capsys, "closure", "--partition", "2,1", "--max-weight", "abc")
    assert code == 2 and err.count("\n") == 1 and "max_weight" in err


def test_axioms_clean(capsys):
    code, out, _ = run(capsys, "axioms", "--partition", "2,1")
    assert code == 0
    assert "skew: 0 violations" in out
    assert "jacobi: 0 violations" in out
    assert "conformal action: ok" in out


def test_axioms_json(capsys):
    code, out, _ = run(capsys, "axioms", "--partition", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["skew_violations"] == 0 and doc["jacobi_violations"] == 0
    assert doc["conformal_ok"] is True
    assert doc["central_coeff"] == {"num": "-1", "den": "2"}


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--flavor", "big", "--partition", "2,2",
                       "--format", "json", "--output", str(target))
    assert code == 0
    assert str(target) in out
    doc = json.loads(target.read_text())
    assert doc["ok"] is True


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kind": "sl", "partition": [3, 2],
                               "flavor": "small"}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0 and "small" in out
    # explicit flags beat the config file
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--flavor", "big")
    assert code == 0 and "big" in out
    # malformed config values are input errors with a one-line message
    for bad in ({"partition": [3, 2], "max_n": "3"}, [3, 2], {"partition": [2, "x"]}):
        cfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, "closure", "--config", str(cfg))
        assert code == 2 and err.count("\n") == 1, (bad, err)


def test_bad_partition_is_input_error(capsys):
    code, _, err = run(capsys, "algebra", "--partition", "1,2")
    assert code == 2
    code, _, err = run(capsys, "algebra", "--partition", "a,b")
    assert code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "walgebra.cli", "algebra", "--partition", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "generators: 1" in proc.stdout
