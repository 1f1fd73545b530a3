"""Guards on the package source and the scripts."""

import ast
import importlib
from pathlib import Path

import pytest

import recmac
from recmac import CounterexampleProtocol, MulFamily, ToeplitzFamily, lift_to_asu2, ucsim

SOURCES = sorted(Path(recmac.__file__).parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))

# python -O strips assert statements, so no check may rest on one


def assert_statements(paths):
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_no_assert_statements_in_the_package():
    assert len(SOURCES) >= 12
    assert assert_statements(SOURCES) == []


def test_no_assert_statements_in_the_scripts():
    assert len(SCRIPTS) >= 3
    assert assert_statements(SCRIPTS) == []


# main alone turns --family into a family and picks the output format, and
# _render alone writes it; the handlers only compute
CLI_ONE_CALLER = {"parse_family": "main", "lift_to_asu2": "main", "_render": "main",
                  "_dump_json": "_render", "_dump_csv": "_render"}


def cli_one_caller_sites():
    tree = ast.parse((Path(recmac.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    sites = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "format" \
                    and isinstance(node.value, ast.Name) and node.value.id == "args":
                sites.add((fn.name, "args.format"))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in CLI_ONE_CALLER:
                sites.add((fn.name, node.func.id))
    return sites


def test_only_main_parses_the_family_and_picks_the_format():
    assert cli_one_caller_sites() == {("main", "args.format")} | {
        (caller, name) for name, caller in CLI_ONE_CALLER.items()}


# the worst-case searches and uc_distance count keys by bitmasks: no Counter in
# ucsim, and the numerators and their popcounts come from the one kernel, called
# from uc_distance and from the one private search that all three public
# searches wrap
UCSIM = Path(recmac.__file__).parent / "ucsim.py"


def calls_by_function(path):
    """{function name: the functions and methods it calls}."""
    found = {}
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, ast.FunctionDef):
            found[fn.name] = {
                c.func.id if isinstance(c.func, ast.Name) else c.func.attr
                for c in ast.walk(fn) if isinstance(c, ast.Call)
                and isinstance(c.func, (ast.Name, ast.Attribute))}
    return found


def test_ucsim_builds_no_counter():
    tree = ast.parse(UCSIM.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "Counter"
                or isinstance(node, ast.Attribute) and node.attr == "Counter"
                or isinstance(node, ast.alias) and node.name == "Counter"]


def test_both_searches_count_through_the_one_kernel():
    found = calls_by_function(UCSIM)
    callers = {name for name, calls in found.items() if "_disagreeing" in calls}
    assert callers == {"_search", "uc_distance"}
    searches = {name for name, calls in found.items() if "_search" in calls}
    assert searches == {"worst_case_substitution", "worst_case_impersonation",
                        "worst_case_distance"}
    popcounts = {name for name, calls in found.items() if "bit_count" in calls}
    assert popcounts == {"_search", "uc_distance"}


def test_runs_count_in_integers_over_one_pass():
    # a run counts integers over one denominator and its Dist keeps them, so
    # Fraction is built only for the key counts' numerators and a caller's
    # weights; each run makes one pass over the deliveries of its own world,
    # and only the outcome-level re-run of a witness builds both Dists
    found = calls_by_function(UCSIM)
    assert {name for name, calls in found.items() if "Fraction" in calls} == {
        "_search", "uc_distance", "substitute"}
    assert {name for name, calls in found.items() if "_deliveries" in calls} == {
        "run_real", "run_ideal", "uc_distance"}
    assert {name for name, calls in found.items() if "Dist" in calls} == {
        "run_real", "run_ideal", "substitute"}
    assert {name for name, calls in found.items() if "statistical_distance" in calls} == {
        "_verified"}
    assert "verdicts" not in found["run_ideal"]
    dist = calls_by_function(Path(recmac.__file__).parent / "dist.py")
    assert "Fraction" not in dist["project"]


def test_nothing_in_ucsim_calls_receive():
    # every run and search asks verdicts() for a whole key group, never for
    # one key at a time, so a protocol's one wire check serves the group
    tree = ast.parse(UCSIM.read_text(encoding="utf-8"))
    assert not [c for c in ast.walk(tree) if isinstance(c, ast.Call)
                and isinstance(c.func, ast.Attribute) and c.func.attr == "verdicts"
                and c.args and isinstance(c.args[0], ast.List) and len(c.args[0].elts) == 1]


def definitions(*names):
    """(file, class or None, name) of every function of the package named one of `names`."""
    defined = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body}
        defined |= {(path.name, owner.get(fn), fn.name) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and fn.name in names}
    return defined


def test_only_the_base_family_encodes_messages():
    # a message's wire integer is its index in `messages`, for every family
    assert definitions("message_to_int", "message_index", "message_from_int") == {
        ("families.py", "HashFamily", "message_index"),
        ("families.py", "HashFamily", "message_from_int")}


def test_the_protocol_base_alone_reads_the_family_spaces():
    # the wire values come from the family, once, and a protocol checks a
    # message only by encoding it; a target becomes a protocol in
    # ucsim._admitted alone, and no measure is kept on a family
    assert definitions("wire_values", "check_message", "as_protocol", "bits_consumed") == {
        ("ucsim.py", "AuthProtocol", "wire_values")}
    assert "_axu2" not in vars(MulFamily(2))


ATTACK = Path(recmac.__file__).parent / "attack.py"


def test_montecarlo_draws_apart_from_the_protocol_path():
    # the Monte Carlo replays randrange's stream on getrandbits, a draw a call
    # or words in bulk, and reads only k1 from it; sample_transcript stays on
    # randrange and the protocol, so the tests that hold their hits equal
    # compare two independent paths.  No other function of attack.py draws
    # with randrange or runs the protocol.
    found = calls_by_function(ATTACK)
    protocol_path = {"randrange", "authenticate", "verify"}
    assert [name for name, calls in found.items() if calls & protocol_path] == \
        ["sample_transcript"]
    assert found["sample_transcript"] >= protocol_path
    assert {"_drawn_k1s", "_bulk_k1s"} <= found["run_attack_montecarlo"]
    # both engines draw and hash nothing but k1; the hit is decided in one place,
    # by one c(k1) column that also gives the expected rate
    for engine in ("_drawn_k1s", "_bulk_k1s"):
        assert "getrandbits" in found[engine] and "tag" not in found[engine]
    assert "_difference_column" in found["run_attack_montecarlo"]
    assert not {"tag", "_eliminated"} & found["run_attack_montecarlo"]
    defined = {node.name for node in ast.parse(ATTACK.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"_Draws", "_lanes", "_accepted", "_lane_hits", "_draw_hits"} & defined


# start-up: no module loads dataclasses (which loads inspect, ast, dis and
# tokenize); the value classes derive from errors.Record, and each one's
# annotations name its __slots__ fields in order


def test_no_module_imports_dataclasses():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n.partition(".")[0] == "dataclasses"]
    assert found == []


def record_classes():
    """{class name: (its __slots__, its annotated names)} of every Record subclass."""
    found = {}
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Record" for b in cls.bases):
                slots = next(ast.literal_eval(s.value) for s in cls.body
                             if isinstance(s, ast.Assign)
                             and [t.id for t in s.targets] == ["__slots__"])
                annotated = tuple(s.target.id for s in cls.body
                                  if isinstance(s, ast.AnnAssign))
                found[cls.name] = (slots, annotated)
    return found


def test_value_classes_are_records_with_annotated_slots():
    found = record_classes()
    assert sorted(found) == sorted([
        "Measurement", "SampledMeasurement", "ExactEntropy", "AttackReport",
        "MonteCarloReport", "ToyQkdFunctionality", "ErrorLedger", "EnvStrategy"])
    assert {name: slots for name, (slots, annotated) in found.items()
            if slots != annotated} == {}


# one elimination count: the canonical pair and its difference counts live in
# measure, compose reads them there without loading attack (or protocol), and
# the posterior entropy is entropy_of of the acceptance pattern, not a copy of
# its grouping loop
COMPOSE = Path(recmac.__file__).parent / "compose.py"


def test_the_elimination_count_is_defined_once_in_measure():
    defined = [(path.name, fn.name) for path in SOURCES
               for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(fn, ast.FunctionDef) and fn.name in ("_eliminated", "_attack_pair")]
    assert sorted(defined) == [("measure.py", "_attack_pair"), ("measure.py", "_eliminated")]


def test_compose_imports_nothing_from_attack():
    imported = set()
    for node in ast.walk(ast.parse(COMPOSE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {f"{node.module or ''}.{a.name}".lstrip(".") for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert imported and not {m for m in imported
                             if "attack" in m.split(".") or "protocol" in m.split(".")}


def test_posterior_entropy_reads_entropy_of_and_builds_no_counter():
    # the posterior entropy is built in the one pass over the rounds
    found = calls_by_function(ATTACK)
    assert "entropy_of" in found["_reports"]
    assert "Counter" not in found["_reports"]


def test_the_attack_entry_points_read_one_pass():
    found = calls_by_function(ATTACK)
    assert {name for name, calls in found.items() if "_reports" in calls} == {
        "run_attack_exact", "_attack_reports", "posterior_entropy", "success_recurrence"}
    assert not {"_conditionals", "_attack_report", "_posterior_entropy"} & set(found)


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """The (module, attribute) pairs perfbench/tracer.py wraps, read from its TARGETS."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(ast.literal_eval(t.elts[1]), ast.literal_eval(t.elts[2]))
                    for t in node.value.elts]
    raise LookupError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    # the tracer looks each one up in its owner's __dict__
    targets = tracer_targets()
    assert len(targets) >= 30
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(module) if module.startswith("recmac.") else None
        cls_name, _, name = attr.rpartition(".")
        if owner is not None and cls_name:
            owner = vars(owner).get(cls_name)
        if owner is None or name not in vars(owner):
            missing.append(f"{module}:{attr}")
    assert missing == []


def tracer_function(name):
    """A top-level function of perfbench/tracer.py, compiled on its own from the file."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    namespace = {}
    exec(compile(ast.Module([fn], []), str(TRACER), "exec"), namespace)
    return namespace[name]


@pytest.mark.parametrize("search", ["worst_case_substitution", "worst_case_impersonation"])
@pytest.mark.parametrize("args, kwargs", [
    ((MulFamily(2),), {}),
    ((MulFamily(2), True), {}),
    ((ToeplitzFamily(2, 2),), {"recycle": True}),
    ((lift_to_asu2(MulFamily(2)),), {}),
    ((CounterexampleProtocol(2),), {}),
], ids=["mul", "mul-recycle", "toeplitz-recycle-keyword", "lift", "counterexample-protocol"])
def test_tracer_counts_a_search_by_the_library_formula(monkeypatch, search, args, kwargs):
    # the tracer's ucsim.search_cells re-derives the cells a search admits;
    # both are read from one call, the library's as _admitted passes it on
    admitted = []
    real = ucsim._search_cells
    monkeypatch.setattr(ucsim, "_search_cells",
                        lambda *a: admitted.append(real(*a)) or admitted[-1])
    getattr(ucsim, search)(*args, **kwargs)
    counted = tracer_function("_search_cells")(None, args, kwargs)
    assert counted == {"ucsim.searches": 1, "ucsim.search_cells": admitted[0]}
    assert len(admitted) == 1


# one first-maximum rule: _first_max alone counts the candidates of a maximum, and
# the difference walk, both tag-table scans and the sampler all feed it
MEASURE = Path(recmac.__file__).parent / "measure.py"


def test_every_two_point_maximum_goes_through_first_max():
    found = calls_by_function(MEASURE)
    assert {name for name, calls in found.items() if "_first_max" in calls} == {
        "measure_axu2", "measure_asu2", "sample_axu2"}
    assert {name for name, calls in found.items() if "Counter" in calls} == {
        "_first_max", "_eliminated", "tag_marginal"}
    assert {"_difference_walk", "_table_pairs"} <= set(found)
    assert not {"_tally", "_axu2"} & set(found)
