"""Command-line interface: values, determinism, exit codes."""

import ast
import hashlib
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from recmac import EnvStrategy, parse_family, uc_distance
from recmac.cli import _dump_json, main


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


def test_attack_montecarlo_expects_the_exact_share_off_uniform_families(tmp_path):
    # every difference of the counterexample is nonzero: guess 0 never wins
    doc = run_json(tmp_path, "attack", "--family", "counterexample:m=3", "--rounds", "1",
                   "--montecarlo", "--trials", "2000", "--format", "json")
    assert doc["expected"] == "0/1" and doc["hits"] == 0
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


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(doc=JSON_DOCS)
def test_json_output_is_the_indenting_encoders(doc):
    # every document key is a str, so sorting the keys sorts them as json does
    assert _dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_attack_without_rounds_is_a_usage_error(capsys, rounds, fmt):
    assert run_main("attack", "--family", "mul:m=2", "--rounds", rounds, "--format", fmt) == 2
    assert one_error_line(capsys)


@pytest.mark.parametrize("family", ["poly:m=2,L=2,l=1", "mul:m=3,m=2"])
def test_repeated_family_parameter_is_a_usage_error(capsys, family):
    assert run_main("epsilon", "--family", family) == 2
    assert one_error_line(capsys)


def test_zero_denominator_qkd_eps_is_a_usage_error(capsys):
    assert run_main("compose", "--family", "mul:m=2", "--r", "1", "--rounds", "1",
                    "--qkd-eps", "1/0") == 2
    assert capsys.readouterr().err == "recmac: error: --qkd-eps '1/0' has a zero denominator\n"


@pytest.mark.parametrize("qkd_eps", ["x", "inf", "1/2/3"])
def test_qkd_eps_that_is_no_fraction_is_a_usage_error(capsys, qkd_eps):
    assert run_main("compose", "--family", "mul:m=2", "--r", "1", "--rounds", "1",
                    "--qkd-eps", qkd_eps) == 2
    assert capsys.readouterr().err == f"recmac: error: --qkd-eps {qkd_eps!r} is not a fraction\n"


@pytest.mark.parametrize("command", [
    ["epsilon", "--family", "mul:m=2"],
    ["attack", "--family", "mul:m=2", "--rounds", "1", "--montecarlo"],
    ["compose", "--family", "mul:m=2", "--r", "1", "--rounds", "1"],
], ids=lambda c: c[0])
def test_negative_budget_is_a_usage_error_and_zero_a_refusal(command):
    assert call_main(command + ["--budget", "-1"]) == \
        (2, "", "recmac: error: argument --budget: must be at least 0, got -1\n")
    code, out, err = call_main(command + ["--budget", "0"])
    assert (code, out) == (1, "") and err.startswith("recmac: budget refusal: ")
    assert err.count("\n") == 1


def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    assert run_main("epsilon", "--family", "mul:m=2", out=tmp_path / "no" / "out.json") == 2
    assert one_error_line(capsys)


@pytest.mark.parametrize("inject", ["3,1,2", "1", "-1,0", "16,0"])
def test_inject_takes_only_a_message_index_and_a_tag(capsys, inject):
    # a message is named on the wire by its index, never by its blocks
    assert run_main("impersonate", "--family", "poly:m=2,L=2", f"--inject={inject}") == 2
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
    ("compose", "--family", "mul:m=2", "--r", "1", "--rounds", "1", "--qkd-bits", "2"),
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


def test_attack_rows_over_budget_refuse_at_once(capsys):
    # 65536 rows would hold 65536 * 65537 / 2 conditionals
    start = time.perf_counter()
    assert run_main("attack", "--family", "toeplitz:n=1,m=16", "--rounds", "65536") == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "recmac: budget refusal: exact attack rows for toeplitz:n=1,m=16 needs 2147516416 "
        "cells, budget is 16777216\n")


@pytest.fixture
def parsed(monkeypatch):
    """The families the CLI parses, in order."""
    import recmac.cli as cli

    made = []

    def parse(desc):
        made.append(parse_family(desc))
        return made[-1]

    monkeypatch.setattr(cli, "parse_family", parse)
    return made


@pytest.mark.parametrize("mode", [["--recycle"], []], ids=["recycle", "standard"])
def test_refused_uc_distance_measures_no_epsilon(monkeypatch, capsys, parsed, mode):
    import recmac.cli as cli

    def measured(*args, **kwargs):
        raise AssertionError("epsilon measured before the search was admitted")

    monkeypatch.setattr(cli, "measure_axu2", measured)
    monkeypatch.setattr(cli, "measure_asu2", measured)
    assert run_main("uc-distance", "--family", "toeplitz:n=6,m=4", *mode) == 1
    assert "worst-case search" in capsys.readouterr().err
    assert parsed[0]._table is None


def test_refused_identity_uc_distance_builds_no_table(tmp_path, capsys, parsed):
    # a table's strong bound scans its 2 * 16 * 15 / 2 = 240 column-pair cells,
    # while the identity run would pass a budget of 100 and build the tag table
    famfile = tmp_path / "fam.json"
    famfile.write_text(json.dumps({"keys": 2, "messages": list(range(16)),
                                   "table": [[x & 1 for x in range(16)], [0] * 16]}))
    argv = ["uc-distance", "--family", f"table:@{famfile}", "--identity"]
    assert run_main(*argv, "--budget", "100") == 1
    assert "exact asu2" in capsys.readouterr().err
    assert parsed[0]._table is None
    fam = parse_family(f"table:@{famfile}")
    assert uc_distance(fam, EnvStrategy.substitute(fam.messages[0], {}), budget=100) == 0
    assert fam._table is not None
    assert run_main(*argv, "--budget", "240") == 0


@pytest.mark.parametrize("table", [[["a", 1], [1, 0]], [[True, 1], [1, 0]]],
                         ids=["string", "bool"])
def test_table_with_non_integer_tags_is_a_usage_error(tmp_path, capsys, table):
    famfile = tmp_path / "fam.json"
    famfile.write_text(json.dumps({"keys": 2, "messages": [0, 1], "table": table}))
    assert run_main("epsilon", "--family", f"table:@{famfile}") == 2
    assert one_error_line(capsys)


@pytest.mark.parametrize("table", [5, None, True, 1.5, "01", {"0": [0], "1": [1]}])
def test_table_that_is_not_a_list_of_rows_is_a_usage_error(tmp_path, capsys, table):
    famfile = tmp_path / "fam.json"
    famfile.write_text(json.dumps({"keys": 2, "messages": [0, 1], "table": table}))
    assert run_main("epsilon", "--family", f"table:@{famfile}") == 2
    assert one_error_line(capsys)


def test_refused_simulation_measures_nothing(monkeypatch, capsys):
    import recmac.compose as compose

    def measured(*args, **kwargs):
        raise AssertionError("the ledger measured before the simulation was admitted")

    monkeypatch.setattr(compose, "measure_axu2", measured)
    assert run_main("compose", "--family", "mul:m=12", "--r", "1", "--rounds", "2",
                    "--simulate") == 1
    assert capsys.readouterr().err == (
        "recmac: budget refusal: multi-round outcome space needs 68719476736 cells, "
        "budget is 16777216\n")


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


# -- the exit contract over drawn argv -----------------------------------------

FAMILIES = [
    "mul:m=1", "mul:m=2", "mul:m=3", "poly:m=2,L=2", "toeplitz:n=2,m=1", "toeplitz:n=2,m=2",
    "toeplitz:n=3,m=1", "toeplitz:n=3,m=2", "counterexample:m=1", "counterexample:m=2",
]
MALFORMED_FAMILIES = [
    "", "bogus:m=2", "mul", "mul:", "mul:m", "mul:m=", "mul:m=0", "mul:m=-1", "mul:m=x",
    "mul:m=1.5", "mul:m=2,m=3", "mul:n=2", "poly:m=2", "poly:m=2,L=0", "toeplitz:n=0,m=1",
    "toeplitz:n=2", "counterexample:m=0", "table:", "table:@", "table:@no-such-table.json",
]
INTS = ["0", "-1", "1", "2", "3", "5", "1.5", "x", ""]
# --r, --rounds and --trials stay small: a huge ledger has its own refusal test
# in test_compose.py, and the Monte Carlo is held to 1000 trials
HUGE = INTS + ["99999999"]
VALUES = {
    "--family": FAMILIES * 2 + MALFORMED_FAMILIES,
    "--budget": INTS + ["100", "10000"],
    "--seed": HUGE,
    "--pairs": HUGE,
    "--rounds": INTS,
    "--trials": INTS + ["1000"],
    "--r": INTS,
    "--qkd-bits": HUGE,
    "--message": HUGE,
    "--k1": HUGE,
    "--pad": HUGE,
    "--kind": ["axu2", "asu2", "bogus"],
    "--format": ["json", "csv", "xml"],
    "--inject": ["0,0", "1,1", "0,1,2", "1,99", "-1,0", "zap", ",", "1"],
    "--qkd-eps": ["0", "1/100", "-1", "2", "x", "1/0"],
}
SWITCHES = ["--recycle", "--lift", "--identity", "--sample", "--montecarlo", "--simulate"]
# (required flags, optional flags) of each subcommand; --trials is always given
# so a Monte Carlo run stays at most 1000 trials
COMMAND_FLAGS = {
    "epsilon": ([], ["--budget", "--seed", "--kind", "--lift", "--sample", "--pairs"]),
    "uc-distance": ([], ["--budget", "--recycle", "--lift", "--identity"]),
    "impersonate": ([], ["--budget", "--recycle", "--lift", "--inject"]),
    "attack": (["--rounds", "--trials"], ["--budget", "--seed", "--montecarlo"]),
    "compose": (["--r", "--rounds"], ["--budget", "--qkd-eps", "--simulate"]),
    "roundtrip": (["--message", "--k1", "--pad"], []),
    "fieldtab": ([], []),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    required, optional = COMMAND_FLAGS[command]
    flags = ["--family"] + required
    flags += draw(st.lists(st.sampled_from(optional + ["--format"]), unique=True))
    if draw(st.integers(0, 9)) == 0:  # now and then a flag the command does not read
        flags.append(draw(st.sampled_from(sorted(VALUES) + SWITCHES)))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag in VALUES:
            argv.append(draw(st.sampled_from(VALUES[flag])))
    return argv


def call_main(argv):
    """(exit status, stdout, stderr) as `python -m recmac` would give them."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue(), err.getvalue()


def keeps_the_exit_contract(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_every_argv_keeps_the_exit_contract(argv):
    keeps_the_exit_contract(*call_main(argv))


# -- the exit contract over drawn family descriptors ------------------------------

FAMILY_PARAMS = {"mul": ["m"], "poly": ["m", "L"], "toeplitz": ["n", "m"],
                 "counterexample": ["m"]}
ODD_KINDS = ["table", "MUL", " toeplitz ", "bogus", ""]
PARAM_NAMES = ["m", "n", "L", "l", " M", "x", ""]
# values stay small or far out of range: mul:m=12 alone takes seconds
GOOD_VALUES = ["1", "2", "3", "0_2", " 2 ", "+2", "\u0663"]
PARAM_VALUES = GOOD_VALUES + ["-1", "0", "-0", "17", "99999999", "1.5", "0x3", "2e0", "x", ""]
# no "/", so a drawn table path stays relative and names no device
NOISE = st.text(alphabet=":=,@ .-_mnL0123x\n\x00", max_size=10)


@st.composite
def family_descriptor(draw):
    """kind:key=value,... with the kind's own keys or with drawn ones."""
    if draw(st.integers(0, 4)) == 0:
        return draw(NOISE)
    kind = draw(st.sampled_from(sorted(FAMILY_PARAMS) + ODD_KINDS))
    if kind in FAMILY_PARAMS and draw(st.integers(0, 3)) > 0:
        names = FAMILY_PARAMS[kind]
        seps = ["="] * len(names)
        value = st.sampled_from(GOOD_VALUES) | st.sampled_from(PARAM_VALUES)
    else:
        names = draw(st.lists(st.sampled_from(PARAM_NAMES), max_size=3))
        seps = [draw(st.sampled_from(["=", "", "=="])) for _ in names]
        value = st.sampled_from(PARAM_VALUES)
    values = [draw(value) for _ in names]
    desc = kind + draw(st.sampled_from([":", ":", ":", "", "::"]))
    desc += ",".join(map("".join, zip(names, seps, values)))
    return desc + draw(st.sampled_from(["", "", "", " ", ",", "@"]))


@settings(max_examples=300, deadline=None)
@given(family_descriptor(), st.sampled_from(["json", "csv"]))
@example("--=\n", "json")   # argparse repeats the argument in its message
def test_every_family_descriptor_keeps_the_exit_contract(desc, fmt):
    keeps_the_exit_contract(*call_main(["epsilon", "--family", desc, "--format", fmt]))


@pytest.mark.parametrize("arg", ["a\nb", "a\r\nb\n", "a\u2028b\x85"], ids=repr)
def test_an_unrecognized_argument_with_line_breaks_is_one_escaped_stderr_line(arg):
    code, out, err = call_main(["epsilon", "--family", "mul:m=3", arg])
    keeps_the_exit_contract(code, out, err)
    assert code == 2 and len(err.splitlines()) == 1
    assert err == f"recmac: error: unrecognized arguments: {ascii(arg)[1:-1]}\n"


# -- the exit contract over drawn table files -------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from([1.5, "a", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["keys", "messages", "table", "m"]), inner, max_size=4),
    max_leaves=12,
)
TABLE_MESSAGES = st.integers(0, 3) | st.sampled_from(["a", "b"]) \
    | st.lists(st.integers(0, 1), max_size=2)


@st.composite
def table_document(draw):
    """A small table file; now and then a field, or the whole file, is of the wrong shape."""
    if draw(st.integers(0, 7)) == 0:
        return draw(JSON_VALUES)
    nk, nm = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    doc = {
        "keys": nk,
        "messages": draw(st.lists(TABLE_MESSAGES, min_size=nm, max_size=nm,
                                  unique_by=json.dumps)),
        "table": draw(st.lists(st.lists(st.integers(0, 3), min_size=nm, max_size=nm),
                               min_size=nk, max_size=nk)),
    }
    if draw(st.booleans()):
        doc["m"] = draw(st.integers(0, 3))
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from(["keys", "messages", "table", "m"]))] = draw(JSON_VALUES)
    return doc


TABLE_COMMANDS = [
    ["epsilon"], ["epsilon", "--kind", "asu2", "--lift"], ["epsilon", "--sample", "--pairs", "5"],
    ["uc-distance"], ["uc-distance", "--recycle", "--identity"], ["impersonate", "--recycle"],
    ["impersonate", "--inject", "0,1"], ["attack", "--rounds", "1"],
    ["attack", "--rounds", "2", "--montecarlo", "--trials", "20"],
    ["compose", "--r", "1", "--rounds", "1", "--simulate"],
    ["roundtrip", "--message", "0", "--k1", "1", "--pad", "0"], ["fieldtab"],
]


@pytest.mark.parametrize("command", TABLE_COMMANDS, ids=" ".join)
@settings(max_examples=40, deadline=None)
@given(doc=table_document(), fmt=st.sampled_from(["json", "csv"]))
def test_every_table_file_keeps_the_exit_contract(tmp_path_factory, command, doc, fmt):
    famfile = tmp_path_factory.getbasetemp() / "drawn-table.json"
    famfile.write_text(json.dumps(doc))
    argv = [command[0], "--family", f"table:@{famfile}", *command[1:], "--format", fmt]
    keeps_the_exit_contract(*call_main(argv))


@pytest.mark.parametrize("command", TABLE_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("messages", [
    [None, 0, 1], [None, False, 1.5], [0, 1.5, 2], [[0, None], 1, 2],
], ids=["null", "null-float", "float", "null-in-list"])
def test_null_or_float_table_message_is_a_usage_error(tmp_path, capsys, command, messages):
    # a null message would read as the receiver's rejection, and a float has no outcome order
    famfile = tmp_path / "fam.json"
    famfile.write_text(json.dumps({"keys": 3, "messages": messages, "m": 1,
                                   "table": [[1, 1, 0], [1, 0, 0], [1, 0, 1]]}))
    assert run_main(command[0], "--family", f"table:@{famfile}", *command[1:]) == 2
    assert one_error_line(capsys)


# -- stdout pins ------------------------------------------------------------------

# Tables the pins read, under relative names so that the family descriptor, and
# with it the output, does not depend on the directory the test runs in.
PIN_TABLES = {
    "one.json": {"keys": 2, "messages": [0], "table": [[0], [1]]},
    "pairs.json": {"keys": 4, "messages": [[0, 1], [1, 0], [1, 1]],
                   "table": [[0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 0]]},
    "words.json": {"keys": 2, "messages": ["a", True], "table": [[0, 1], [1, 0]]},
}
# sha256 of stdout, for output shapes the perfbench references do not cover
STDOUT_PINS = [
    ("epsilon --family mul:m=3 --format csv",
     "bed5febf129be2169b3a950c713c9d030108cac6dcd3c1f12049574b60e3ef10"),
    ("epsilon --family mul:m=5 --sample --pairs 50 --seed 7 --format csv",
     "24215aa3db6676dc28d9e0673b56b8d9c8f22aa21cc01571da75bb0fb17816b8"),
    ("epsilon --family table:@one.json --format csv",
     "ad2a9d78b2c25c889dbc8e4abbd5fc10a1567ab131647653af0cf4d130b3200b"),
    ("epsilon --family table:@pairs.json --format csv",
     "a5a4e909dd6332c8cac64b412861f9b37a37542ea9f47ffe50b08eb7c24e951a"),
    ("uc-distance --family mul:m=2 --identity --format csv",
     "04bb1ef5d0190c36d0b073730b55fce6e52c5d07e7c9e79fae6d1eceed3460ba"),
    ("uc-distance --family mul:m=2 --recycle --identity --format csv",
     "2e7cc010b71d2e7ea2c112399311d9929938bb2c23faee11445c7e6d83568d1e"),
    ("uc-distance --family mul:m=2 --lift --format csv",
     "41556cfb4747e87ae01817c28d9d832ec85005904b050d1c8b18248cacf2f971"),
    ("impersonate --family mul:m=2 --recycle --format csv",
     "5afe285b01cfe1aa49f38d9b89967d93829797cdd60fb9cae6a58d684fb2f81a"),
    ("impersonate --family mul:m=2 --inject 1,3 --format csv",
     "105d8fce4dd8d45ee53f6e4e83bb8cefb8b4db5c1f0be76c841623fa2b4a46af"),
    # tuple-valued cells: nested tuple wires in a JSON map, a tuple wire and a
    # tuple witness in a CSV cell
    ("uc-distance --family poly:m=2,L=2 --recycle",
     "41ecb541ed51a50a44b0db5de07650021d0dcf532c40b75c4c9929f050c505c1"),
    ("impersonate --family poly:m=2,L=2 --recycle --format csv",
     "45c595678ed4021379ebc50f5e8ab2f293cbde3a94ee977a26ac7e9ee6c6b179"),
    ("epsilon --family poly:m=2,L=2 --kind asu2 --format csv",
     "0dcb77748f5e1afb1914c8b2f41f20817eaa1b065f097b0fd7b015b86bc2c8fc"),
    ("attack --family mul:m=3 --rounds 3 --format json",
     "f7df5075dcf40bc0bf351c161c0ea4fb21a44206299f75c424ae8ba2f75b64c1"),
    ("attack --family mul:m=4 --rounds 2 --montecarlo --trials 500 --seed 1",
     "d822c1ea553aa977abed93936fa27ee753634f8ca0fa861e41b44637fbc836ea"),
    ("compose --family mul:m=2 --r 2 --rounds 2 --qkd-eps 1/100 --simulate --format json",
     "7f6b7764e0cecc1e2c81bd874152c8010504fd9c5cda32ebf4bbdcfa7ca83933"),
    ("roundtrip --family poly:m=2,L=2 --message 6 --k1 3 --pad 1 --format csv",
     "8409c5fe40a48234425f9f78bd4a004118ce4ad38514dccdf9d05fd33161d8ac"),
    ("roundtrip --family table:@words.json --message 0 --k1 0 --pad 0 --format csv",
     "1721962e0ccd3134e2731fbabb898e33de87111062a96ec1bd23c67ce238cc55"),
    ("roundtrip --family table:@words.json --message 1 --k1 1 --pad 0 --format csv",
     "5879824df334587947e7c2e679253bad2c2170d1299e044eb844daeb0c5cfcc6"),
    ("fieldtab --family mul:m=2 --format json",
     "f57d50001fa50ad44a7dc4bbedd88db876ab4b750a3a1980b360a324b70580a5"),
]


@pytest.mark.parametrize("command, digest", STDOUT_PINS, ids=[c for c, _ in STDOUT_PINS])
def test_stdout_is_pinned(tmp_path, monkeypatch, command, digest):
    monkeypatch.chdir(tmp_path)
    for name, doc in PIN_TABLES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = call_main(command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_output(command: str) -> str:
    """The text README.md shows under `$ recmac <command>`, up to the blank line."""
    text = README.read_text()
    start = text.index(f"$ recmac {command}\n") + len(f"$ recmac {command}\n")
    return text[start:text.index("\n\n", start) + 1]


@pytest.mark.parametrize("command", [
    "epsilon --family mul:m=3",
    "attack --family mul:m=2 --rounds 2 --format csv",
])
def test_readme_examples_show_the_real_stdout(command):
    assert call_main(command.split()) == (0, readme_output(command), "")


def readme_tour() -> tuple[dict, list[tuple[object, str]]]:
    """Run README.md's python block; its namespace and (value, comment) per expression line."""
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, shown = block.splitlines(), {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            shown.append((value, lines[node.lineno - 1].partition("#")[2].strip()))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, shown


def test_readme_library_tour_shows_the_real_values():
    namespace, shown = readme_tour()
    assert [value for value, _ in shown[:3]] == [F(1, 8), F(1, 8), F(1, 4)]
    for value, comment in shown[:3]:
        assert comment.startswith(repr(value))
    # the float is shown as its leading digits, cut off, not rounded
    (value, comment), = shown[3:]
    assert comment.startswith("1.9387218...") and repr(value).startswith("1.9387218")
    assert namespace["computed"] == namespace["formula"]
