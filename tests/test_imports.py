"""Start-up cost: which recmac modules each entry point loads, and the lazy exports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recmac
from recmac import measure

SRC = str(Path(recmac.__file__).resolve().parents[1])

# Prints the sorted recmac.* modules loaded once the statement in argv[1] has
# run, then every module that statement loaded.
PROBE = """\
import sys
before = set(sys.modules)
exec(sys.argv[1])
print(" ".join(sorted(m for m in sys.modules if m == "recmac" or m.startswith("recmac."))))
print(" ".join(sorted(set(sys.modules) - before)))
"""

RUN_CLI = """\
import contextlib, io, sys
import recmac.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = recmac.cli.main(sys.argv[2:])
if code != 0:
    raise SystemExit(f"exit status {code}")
"""

CLI = ["recmac", "recmac.cli", "recmac.errors", "recmac.families", "recmac.gf2m",
       "recmac.measure"]

# dataclasses and what it imports: each would be compiled anew by every job
# run without a bytecode cache
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def loaded(statement, *argv):
    """The recmac modules loaded after `statement`, and every module it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", PROBE, statement, *argv], env=env,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    ours, new = r.stdout.split("\n")[:2]
    return ours.split(), set(new.split())


def test_import_recmac_loads_only_the_package():
    assert loaded("import recmac")[0] == ["recmac"]


def test_import_cli_loads_what_epsilon_needs():
    ours, new = loaded("import recmac.cli")
    assert ours == CLI
    assert "recmac.cli" in new and not new & HEAVY


SUBCOMMANDS = [
    (["epsilon", "--family", "mul:m=2"], []),
    (["fieldtab", "--family", "mul:m=2"], []),
    (["roundtrip", "--family", "mul:m=2", "--message", "1", "--k1", "2", "--pad", "3"],
     ["protocol"]),
    (["attack", "--family", "mul:m=2", "--rounds", "2"], ["attack"]),
    (["compose", "--family", "mul:m=2", "--r", "1", "--rounds", "2", "--simulate"],
     ["compose"]),
    (["uc-distance", "--family", "mul:m=2", "--recycle"], ["dist", "ucsim"]),
    (["impersonate", "--family", "mul:m=2"], ["dist", "ucsim"]),
]


@pytest.mark.parametrize("argv, extra", SUBCOMMANDS, ids=[a[0] for a, _ in SUBCOMMANDS])
def test_each_subcommand_loads_only_what_it_runs(argv, extra):
    ours, new = loaded(RUN_CLI, *argv)
    assert ours == sorted(CLI + [f"recmac.{m}" for m in extra])
    assert "recmac.cli" in new and not new & HEAVY


def test_every_export_resolves_to_its_home_module_object():
    assert len(recmac.__all__) == len(set(recmac.__all__)) == 61
    for module, names in recmac._EXPORTS.items():
        home = importlib.import_module(f"recmac.{module}")
        for name in names:
            assert getattr(recmac, name) is getattr(home, name)


def test_star_import_binds_every_export():
    ns = {}
    exec("from recmac import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == sorted(recmac.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        recmac.no_such_name
    assert not hasattr(recmac, "no_such_name")


def test_dir_lists_the_exports():
    names = dir(recmac)
    assert "__all__" in names and "__version__" in names
    assert set(recmac.__all__) <= set(names)


def test_patched_home_attribute_shows_through_the_package(monkeypatch):
    def fake(*args, **kwargs):
        return "patched"

    monkeypatch.setattr(measure, "measure_axu2", fake)
    assert recmac.measure_axu2 is fake
    monkeypatch.undo()
    assert recmac.measure_axu2 is measure.measure_axu2 is not fake
