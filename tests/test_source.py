"""Guards on the package source and the scripts."""

import ast
import importlib
from pathlib import Path

import recmac

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


# the worst-case searches count keys by bitmasks: no Counter in ucsim, and the
# numerator and its popcounts come from the one kernel, called from the one
# private search that all three public searches wrap
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
    assert callers == {"_search"}
    searches = {name for name, calls in found.items() if "_search" in calls}
    assert searches == {"worst_case_substitution", "worst_case_impersonation",
                        "worst_case_distance"}
    popcounts = {name for name, calls in found.items() if "bit_count" in calls}
    assert popcounts == {"_search"}


def test_runs_count_in_integers_over_one_pass():
    # a run counts integers over one denominator and its Dist keeps them, so
    # Fraction is built only for a search's numerators and a caller's weights,
    # and one private pass makes the deliveries for both worlds
    found = calls_by_function(UCSIM)
    assert {name for name, calls in found.items() if "Fraction" in calls} == {
        "_search", "substitute"}
    assert {name for name, calls in found.items() if "_deliveries" in calls} == {"_runs"}
    dist = calls_by_function(Path(recmac.__file__).parent / "dist.py")
    assert "Fraction" not in dist["project"]


def test_nothing_in_ucsim_calls_receive():
    # every run and search asks verdicts() for a whole key group, so a
    # protocol's one wire check is the only way to its receiver
    tree = ast.parse(UCSIM.read_text(encoding="utf-8"))
    assert not [c for c in ast.walk(tree) if isinstance(c, ast.Call)
                and isinstance(c.func, ast.Attribute) and c.func.attr == "receive"]


def test_only_the_base_family_encodes_messages():
    # a message's wire integer is its index in `messages`, for every family
    defined = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body}
        defined |= {(path.name, owner.get(fn), fn.name) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    and fn.name in ("message_to_int", "message_from_int")}
    assert defined == {("families.py", "HashFamily", "message_to_int"),
                       ("families.py", "HashFamily", "message_from_int")}


ATTACK = Path(recmac.__file__).parent / "attack.py"


def test_montecarlo_draws_apart_from_the_protocol_path():
    # the Monte Carlo replays randrange's stream on getrandbits and plays the
    # pads itself, a draw a call or words in bulk; sample_transcript stays on
    # randrange and the protocol, so the tests that hold their hits equal
    # compare two independent paths.  No other function of attack.py draws
    # with randrange or runs the protocol.
    found = calls_by_function(ATTACK)
    protocol_path = {"randrange", "authenticate", "verify"}
    assert [name for name, calls in found.items() if calls & protocol_path] == \
        ["sample_transcript"]
    assert found["sample_transcript"] >= protocol_path
    assert {"_draw_hits", "_lane_hits"} <= found["run_attack_montecarlo"]
    assert "getrandbits" in found["_draw_hits"]
    assert "getrandbits" in found["take"]          # _Draws.take, the lane path's words
    assert "_Draws" in found["_lane_hits"]


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
        "Measurement", "SampledMeasurement", "ExactEntropy", "Transcript", "AttackReport",
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


def tracer_targets():
    """The (module, attribute) pairs perfbench/tracer.py wraps, read from its TARGETS."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text(encoding="utf-8")).body:
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
