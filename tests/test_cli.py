"""Command-line surface: flags, exit codes, report formats, config files.

Exit code contract: 0 success, 2 bad input, 3 verification failure,
4 axiom violation."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (ABSENT_SMALL_SEED_SHAPES, corrupted_table, ctx_of, table_of,
                      wrong_parity_table)
from walgebra import cli, serialize as ser
from walgebra.cli import main
from walgebra.liestruct import MAX_MATRIX_SIZE, PartitionSpec
from walgebra.pvacore import BracketTable, DiffPoly, LambdaPoly, check_jacobi, check_skew

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


@pytest.mark.parametrize("shape", ABSENT_SMALL_SEED_SHAPES)
def test_a_small_weak_set_naming_an_absent_generator_fails_alike(capsys, shape):
    # closure from the small weak set and the small schedule refuse the set
    # with the same one-line ScheduleInapplicable, naming q[2](2,1)
    _, p1, p2 = shape
    flags = ["--kind", "sl-super", "--partition", ",".join(map(str, p1)),
             "--partition2", ",".join(map(str, p2))]
    errs = []
    for argv in (["closure", "--seed", "small"], ["verify", "--flavor", "small"]):
        code, out, err = run(capsys, *argv, *flags)
        assert code == 2 and out == "" and err.count("\n") == 1, (argv, err)
        errs.append(err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error ScheduleInapplicable: ") and "q[2](2,1)" in errs[0]


def test_closure_caps_flags(tmp_path, capsys):
    code, out, _ = run(capsys, "closure", "--seed", "big", "--partition", "2,2",
                       "--max-n", "1", "--max-weight", "3/2")
    assert code == 3
    code, _, err = run(capsys, "closure", "--partition", "2,1", "--max-weight", "abc")
    assert code == 2 and err.count("\n") == 1 and "max_weight" in err
    # a non-positive cap is bad input, from a flag or from a config file
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"max_weight": 0}))
    for flags in (["--max-weight", "0"], ["--max-n", "0"], ["--max-elements", "-3"],
                  ["--config", str(cfg)]):
        code, _, err = run(capsys, "closure", "--partition", "2,1", *flags)
        assert code == 2 and err.count("\n") == 1 and "positive" in err, flags


def test_axioms_clean(capsys):
    code, out, _ = run(capsys, "axioms", "--partition", "2,1")
    assert code == 0
    assert "skew: 0 violations" in out
    assert "jacobi: 0 violations" in out
    assert "conformal action: ok" in out
    assert len(out.splitlines()) == 3


def test_axioms_json(capsys):
    code, out, _ = run(capsys, "axioms", "--partition", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["skew_violations"] == 0 and doc["jacobi_violations"] == 0
    assert doc["conformal_ok"] is True
    assert doc["central_coeff"] == {"num": "-1", "den": "2"}
    assert "first_failures" not in doc


def test_axioms_names_the_first_failing_triples(capsys, monkeypatch):
    tab = corrupted_table()
    monkeypatch.setattr(cli, "_table", lambda ctx, cfg: tab)
    gens = tab.variables
    first = check_jacobi(tab, [(a, b, c) for a in gens for b in gens for c in gens])[:3]
    code, out, _ = run(capsys, "axioms", "--partition", "2,1")
    assert code == 4
    lines = out.splitlines()
    assert lines[:2] == ["skew: 0 violations over 16 pairs", "jacobi: 12 violations over 64 triples"]
    assert len(lines) == 6
    assert lines[3] == ("jacobi violation at (q[3/2](1,2), q[3/2](1,2), q[3/2](2,1)): "
                        "L^0 M^1[(-3/2*k)*q[3/2](1,2)] + L^1 M^0[(3/2*k)*q[3/2](1,2)]")
    assert lines[4:] == [f"jacobi violation at ({', '.join(map(str, v['triple']))}): {v['diff']!r}"
                         for v in first[1:]]

    code, out, _ = run(capsys, "axioms", "--partition", "2,1", "--format", "json")
    assert code == 4
    doc = json.loads(out)
    assert doc["jacobi_violations"] == 12
    assert [f["kind"] for f in doc["first_failures"]] == ["jacobi"] * 3
    assert [f["triple"] for f in doc["first_failures"]] == \
        [[ser.gen_to_json(g) for g in v["triple"]] for v in first]
    diff = first[0]["diff"].coeffs
    assert doc["first_failures"][0]["diff"] == [
        {"lpow": i, "mupow": j, "poly": ser.diff_poly_to_json(diff[(i, j)])}
        for i, j in [(0, 1), (1, 0)]]


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
    # malformed config values, a choice-valued key off its flag's choices and
    # an unknown key are input errors with a one-line message
    for command, bad in [("closure", {"partition": [3, 2], "max_n": "3"}),
                         ("closure", [3, 2]),
                         ("closure", {"partition": [2, "x"]}),
                         ("verify", {"partition": [3, 2.5]}),
                         ("verify", {"partition": [2, True]}),
                         ("verify", {"partition": [3, 2], "flavor": "x"}),
                         ("verify", {"kind": 3}),
                         ("verify", {"ktilde": "two"}),
                         ("verify", {"format": "xml"}),
                         ("verify", {"bogus": 1}),
                         ("closure", {"seed": "zzz"}),
                         ("algebra", {"partition": [2], "output": 1})]:
        cfg.write_text(json.dumps(bad))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2 and out == "" and err.count("\n") == 1, (bad, err)
    # a TOML syntax error and a file that is not UTF-8 name the file in one line
    bad_toml = tmp_path / "run.toml"
    bad_toml.write_text('partition = [3, 2\n')
    cfg.write_bytes(b"\xff\xfe{}")
    for path in (bad_toml, cfg):
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert code == 2 and out == "" and err.count("\n") == 1, (path, err)
        assert str(path) in err


def test_bad_partition_is_input_error(capsys):
    code, _, err = run(capsys, "algebra", "--partition", "1,2")
    assert code == 2
    code, _, err = run(capsys, "algebra", "--partition", "a,b")
    assert code == 2


def test_matrix_size_above_the_bound_is_input_error(capsys):
    # a huge N raised MemoryError from the construction; the bound is named
    for argv in (["--partition", "99999999999"],
                 ["--kind", "sl-super", "--partition", "40", "--partition2", "25"]):
        code, out, err = run(capsys, "algebra", *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, (argv, err)
        assert f"N <= {MAX_MATRIX_SIZE}" in err
    assert sum(PartitionSpec("sl", (MAX_MATRIX_SIZE,)).sizes) == MAX_MATRIX_SIZE  # accepted


def test_partition_parts_are_digit_strings(capsys):
    # int() would read '1_0' as 10 and '+3' as 3, and empty parts were
    # dropped: these ran as (3,2), (3,2), sl(10) and (3,2)
    for bad in ("3,,2", "3,2,", "1_0", "+3,2"):
        code, out, err = run(capsys, "algebra", "--partition", bad)
        assert code == 2 and out == "" and err.count("\n") == 1, (bad, err)
        assert repr(bad) in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "walgebra.cli", "algebra", "--partition", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "generators: 1" in proc.stdout


def test_module_entry_point_reports_bad_input_in_one_line(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"partition": [3, 2], "flavor": "x"}))
    proc = subprocess.run(
        [sys.executable, "-m", "walgebra", "verify", "--config", str(cfg)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def test_axioms_names_a_failing_pair(capsys, monkeypatch):
    ctx = ctx_of("sl", (2, 1))
    clean = table_of("sl", (2, 1))
    a, b = ctx.gen(F(3, 2), 1, 2), ctx.gen(F(3, 2), 2, 1)
    entries = dict(clean.entries)
    entries[(a, b)] = entries[(a, b)] + LambdaPoly({0: DiffPoly.variable(ctx.gen(F(2), 1, 1))})
    dirty = BracketTable(clean.variables, entries)
    monkeypatch.setattr(cli, "_table", lambda ctx, cfg: dirty)
    [first, second] = check_skew(dirty)
    code, out, _ = run(capsys, "axioms", "--partition", "2,1", "--format", "json")
    assert code == 4
    doc = json.loads(out)
    assert doc["first_failures"][:2] == [
        {"kind": "skew", "pair": [ser.gen_to_json(g) for g in v["pair"]],
         "diff": ser.lambda_poly_to_json(v["diff"])} for v in (first, second)]
    assert doc["first_failures"][2]["kind"] == "jacobi"


def test_axioms_names_entries_of_the_wrong_parity(capsys, monkeypatch):
    # a skew-symmetric table whose odd bracket holds an even monomial: the
    # skew check reports it with kind "parity", in the text, the JSON and
    # the exit code
    tab = wrong_parity_table()
    monkeypatch.setattr(cli, "_table", lambda ctx, cfg: tab)
    parity = check_skew(tab)
    assert [v["kind"] for v in parity] == ["parity", "parity"]
    code, out, _ = run(capsys, "axioms", "--kind", "sl-super", "--partition", "2",
                       "--partition2", "1")
    assert code == 4
    assert out.splitlines()[0] == "skew: 2 violations over 16 pairs (2 of parity)"
    assert (f"parity violation at ({', '.join(map(str, parity[0]['pair']))}): "
            f"{parity[0]['terms']!r}") in out
    code, out, _ = run(capsys, "axioms", "--kind", "sl-super", "--partition", "2",
                       "--partition2", "1", "--format", "json")
    assert code == 4
    doc = json.loads(out)
    assert doc["skew_violations"] == 2 and doc["parity_violations"] == 2
    assert doc["first_failures"][:2] == [
        {"kind": "parity", "pair": [ser.gen_to_json(g) for g in v["pair"]],
         "terms": ser.lambda_poly_to_json(v["terms"])} for v in parity]
