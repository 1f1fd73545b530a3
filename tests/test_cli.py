"""Command-line interface: values, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from recmac.cli import main


def run_main(*args, out=None):
    argv = list(args)
    if out is not None:
        argv += ["--out", str(out)]
    return main(argv)


def run_json(tmp_path, *args):
    out = tmp_path / "out.json"
    code = run_main(*args, out=out)
    assert code == 0
    return json.loads(out.read_text())


def test_epsilon_values(tmp_path):
    doc = run_json(tmp_path, "epsilon", "--family", "mul:m=2")
    assert doc["epsilon"] == "1/4"
    assert doc["kind"] == "axu2" and doc["mode"] == "exact"
    doc = run_json(tmp_path, "epsilon", "--family", "poly:m=4,L=3")
    assert doc["epsilon"] == "3/16"
    doc = run_json(tmp_path, "epsilon", "--family", "toeplitz:n=4,m=3")
    assert doc["epsilon"] == "1/8"
    doc = run_json(tmp_path, "epsilon", "--family", "mul:m=2", "--kind", "asu2",
                   "--lift")
    assert doc["epsilon"] == "1/4"
    assert doc["family"] == "lift(mul:m=2)"


def test_epsilon_csv(tmp_path):
    out = tmp_path / "eps.csv"
    assert run_main("epsilon", "--family", "mul:m=3", "--format", "csv", out=out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,kind,mode,epsilon,witness"
    assert lines[1].startswith("mul:m=3,axu2,exact,1/8,")


def test_epsilon_sampling(tmp_path):
    doc = run_json(tmp_path, "epsilon", "--family", "mul:m=6", "--sample",
                   "--pairs", "100", "--seed", "4")
    assert doc["mode"] == "sample"
    assert doc["pairs_sampled"] == 100
    assert doc["seed"] == 4
    num, den = doc["epsilon_lower_bound"].split("/")
    assert int(num) >= 1 and int(den) == 64


def test_table_family_via_cli(tmp_path):
    famfile = tmp_path / "fam.json"
    famfile.write_text(json.dumps({
        "keys": 2, "messages": [0, 1], "table": [[0, 0], [1, 1]], "m": 1,
    }))
    doc = run_json(tmp_path, "epsilon", "--family", f"table:@{famfile}")
    assert doc["epsilon"] == "1/1"   # both rows are constant


def test_uc_distance(tmp_path):
    doc = run_json(tmp_path, "uc-distance", "--family", "mul:m=2", "--recycle")
    assert doc["distance"] == "1/4" == doc["epsilon_measured"]
    assert doc["mode"] == "recycling"
    w = doc["witness_strategy"]
    assert w["mode"] == "substitution"
    assert len(w["map"]) >= 1
    doc = run_json(tmp_path, "uc-distance", "--family", "mul:m=2", "--recycle",
                   "--identity")
    assert doc["distance"] == "0/1"


def test_impersonate(tmp_path):
    doc = run_json(tmp_path, "impersonate", "--family", "mul:m=2", "--recycle",
                   "--inject", "1,3")
    assert doc["distance"] == "1/4"
    assert doc["witness_strategy"]["inject"] == [1, 3]
    doc = run_json(tmp_path, "impersonate", "--family", "mul:m=3", "--recycle")
    assert doc["distance"] == "1/8"


def test_attack_exact_table(tmp_path):
    out = tmp_path / "attack.csv"
    assert run_main("attack", "--family", "mul:m=2", "--rounds", "4", out=out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rounds,success_exact,success_formula,entropy_exact,entropy_formula"
    assert lines[1].split(",")[:3] == ["1", "1/4", "1/4"]
    assert lines[4].split(",")[:3] == ["4", "1/1", "1/1"]
    assert lines[2].split(",")[3] == "0.5"


def test_attack_montecarlo(tmp_path):
    doc = run_json(tmp_path, "attack", "--family", "mul:m=4", "--rounds", "3",
                   "--montecarlo", "--trials", "4000", "--seed", "8", "--format",
                   "json")
    assert doc["trials"] == 4000
    assert doc["expected"] == "3/16"
    assert doc["within_3sigma"] is True


def test_compose(tmp_path):
    doc = run_json(tmp_path, "compose", "--family", "mul:m=4", "--r", "3",
                   "--rounds", "2", "--qkd-eps", "1/100", "--format", "json")
    assert doc["bound"] == "81/200"
    assert len(doc["ledger"]) == 9
    doc = run_json(tmp_path, "compose", "--family", "mul:m=2", "--r", "2",
                   "--rounds", "2", "--simulate", "--format", "json")
    assert doc["simulated_distance"] == "1/1"
    out = tmp_path / "led.csv"
    assert run_main("compose", "--family", "mul:m=2", "--r", "1", "--rounds", "1",
                    "--qkd-eps", "0", out=out) == 0
    lines = out.read_text().splitlines()
    assert lines[-1] == ",total-bound,1/4,1/4"


def test_roundtrip(tmp_path):
    doc = run_json(tmp_path, "roundtrip", "--family", "mul:m=2", "--message", "2",
                   "--k1", "3", "--pad", "1")
    assert doc["tag"] == 0
    assert doc["wire_hex"] == "0200"
    assert doc["verified"] is True
    assert doc["tamper_rejected"] is True
    assert doc["roundtrip_equal"] is True
    doc = run_json(tmp_path, "roundtrip", "--family", "poly:m=4,L=2",
                   "--message", "33", "--k1", "7", "--pad", "9")
    assert doc["message"] == [2, 1]
    assert doc["verified"] is True


def test_fieldtab(tmp_path):
    doc = run_json(tmp_path, "fieldtab", "--family", "mul:m=2", "--format", "json")
    assert doc["modulus"] == 7
    assert doc["mul"][2][2] == 3
    out = tmp_path / "tab.csv"
    assert run_main("fieldtab", "--family", "mul:m=2", out=out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b,product"
    assert len(lines) == 17
    assert "2,2,3" in lines


def test_exit_codes(tmp_path, capsys):
    assert run_main("epsilon", "--family", "bogus:m=2") == 2
    assert "error" in capsys.readouterr().err
    assert run_main("epsilon", "--family", "toeplitz:n=12,m=12") == 1
    assert "budget" in capsys.readouterr().err
    assert run_main("epsilon", "--family", "table:@/no/such/file.json") == 2
    capsys.readouterr()
    assert run_main("impersonate", "--family", "mul:m=2", "--inject", "zap") == 2
    assert run_main("attack", "--family", "mul:m=2", "--rounds", "9") == 2
    assert run_main("fieldtab", "--family", "mul:m=9") == 1
    assert run_main("epsilon", "--family", "mul:m=2", "--kind", "asu2",
                    "--sample") == 2
    with pytest.raises(SystemExit):
        main(["attack", "--family", "mul:m=2"])   # missing --rounds
    with pytest.raises(SystemExit):
        main(["nonsense"])


def one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("recmac: error: ") and err.count("\n") == 1


def test_sampling_without_pairs_is_a_usage_error(capsys):
    assert run_main("epsilon", "--family", "mul:m=3", "--sample", "--pairs", "0") == 2
    assert one_error_line(capsys)


@pytest.mark.parametrize("command", ["uc-distance", "impersonate"])
def test_lift_with_recycle_is_a_usage_error(capsys, command):
    assert run_main(command, "--family", "mul:m=2", "--recycle", "--lift") == 2
    assert one_error_line(capsys)


@pytest.mark.parametrize("args", [
    ("uc-distance", "--family", "mul:m=2", "--seed", "1"),
    ("impersonate", "--family", "mul:m=2", "--seed", "1"),
    ("compose", "--family", "mul:m=2", "--r", "1", "--rounds", "1", "--seed", "1"),
    ("roundtrip", "--family", "mul:m=2", "--message", "1", "--k1", "2", "--pad", "3",
     "--seed", "1"),
    ("roundtrip", "--family", "mul:m=2", "--message", "1", "--k1", "2", "--pad", "3",
     "--budget", "9"),
    ("fieldtab", "--family", "mul:m=2", "--seed", "1"),
    ("fieldtab", "--family", "mul:m=2", "--budget", "9"),
], ids=lambda a: a[0] + a[-2])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"recmac: error: unrecognized arguments: {args[-2]} {args[-1]}\n"


def test_usage_error_is_one_line_without_traceback():
    r = subprocess.run([sys.executable, "-m", "recmac", "fieldtab", "--family", "mul:m=2",
                        "--seed", "1"], capture_output=True, text=True, timeout=60)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "recmac: error: unrecognized arguments: --seed 1\n"


def one_refusal_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("recmac: budget refusal: ") and err.count("\n") == 1


def test_montecarlo_and_sampling_refuse_over_budget(capsys):
    assert run_main("attack", "--family", "mul:m=4", "--rounds", "2", "--montecarlo",
                    "--budget", "1") == 1
    assert one_refusal_line(capsys)
    assert run_main("epsilon", "--family", "mul:m=3", "--sample", "--pairs", "10",
                    "--budget", "79") == 1
    assert one_refusal_line(capsys)


@pytest.mark.parametrize("table", [[["a", 1], [1, 0]], [[True, 1], [1, 0]]],
                         ids=["string", "bool"])
def test_table_with_non_integer_tags_is_a_usage_error(tmp_path, capsys, table):
    famfile = tmp_path / "fam.json"
    famfile.write_text(json.dumps({"keys": 2, "messages": [0, 1], "table": table}))
    assert run_main("epsilon", "--family", f"table:@{famfile}") == 2
    assert one_error_line(capsys)


ALL_COMMANDS = [
    ("epsilon", "--family", "mul:m=3"),
    ("epsilon", "--family", "mul:m=5", "--sample", "--pairs", "50", "--seed", "7"),
    ("uc-distance", "--family", "mul:m=2", "--recycle"),
    ("uc-distance", "--family", "toeplitz:n=3,m=2", "--recycle", "--format", "csv"),
    ("impersonate", "--family", "mul:m=2", "--recycle"),
    ("attack", "--family", "mul:m=2", "--rounds", "4"),
    ("attack", "--family", "mul:m=4", "--rounds", "2", "--montecarlo",
     "--trials", "500", "--seed", "1"),
    ("compose", "--family", "mul:m=2", "--r", "2", "--rounds", "2",
     "--qkd-eps", "3/1000", "--simulate"),
    ("roundtrip", "--family", "mul:m=2", "--message", "1", "--k1", "2", "--pad", "3"),
    ("fieldtab", "--family", "mul:m=3"),
]


@pytest.mark.parametrize("args", ALL_COMMANDS, ids=lambda a: a[0] + "-" + a[2])
def test_byte_identical_reruns(tmp_path, args):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_main(*args, out=a) == 0
    assert run_main(*args, out=b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_matches_file_output(tmp_path, capsys):
    out = tmp_path / "o.json"
    assert run_main("epsilon", "--family", "mul:m=2", out=out) == 0
    capsys.readouterr()
    assert run_main("epsilon", "--family", "mul:m=2") == 0
    assert capsys.readouterr().out == out.read_text()


def test_module_and_script_entry_points():
    r = subprocess.run(
        [sys.executable, "-m", "recmac", "epsilon", "--family", "mul:m=2"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["epsilon"] == "1/4"
    r2 = subprocess.run(
        [sys.executable, "-m", "recmac", "epsilon", "--family", "nope"],
        capture_output=True, text=True,
    )
    assert r2.returncode == 2
