"""Tests for the benchmark's own code.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import tracer
import workloads
from tracer import Span, Tracer, covered, self_times
from workloads import Job, Judge

SRC = Path(__file__).resolve().parent.parent / "src"


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 4), (3, 6), (5, 7)]) == 6
    assert covered(0, 10, [(8, 12), (-3, 1)]) == 3
    assert covered(0, 10, [(2, 3), (2, 3)]) == 1


def test_self_time_on_nested_and_overlapping_children():
    spans = [
        Span("root", "cli", 0.0, 10.0, None, hot_s=0.5),
        Span("a", "ucsim", 1.0, 4.0, 0),
        Span("b", "dist", 3.0, 6.0, 0),      # overlaps a
        Span("c", "dist", 2.0, 3.0, 1),      # nested in a
        Span("d", "measure", 8.0, 12.0, 0),  # runs past the end of root
        Span("e", "gf2m", 8.5, 9.0, 4, hot_s=0.25),
    ]
    # root: 10 - |[1,6] u [8,10]| - 0.5 hot = 10 - 7 - 0.5
    assert self_times(spans) == [2.5, 2.0, 3.0, 1.0, 3.5, 0.25]


class FakeClock:
    """A clock that advances one tick per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_accounts_nested_hot_calls_to_their_own_layers():
    tr = Tracer(clock=FakeClock())
    mul = tr.hot_call("FieldCtx.mul", "gf2m", lambda: None)
    tag = tr.hot_call("HashFamily.tag", "families", lambda: (mul(), mul()))
    measure = tr.span("measure_axu2", "measure", lambda: (tag(), tag()),
                      hook=lambda t, a, k: {"measure.calls": 1})
    root = tr.span("cli.main", "cli", lambda: measure())
    root()
    layers = tr.layer_self_s()
    # Each reading of the clock advances it by one tick.  A mul spans one
    # tick, a tag five (its two muls take two), measure thirteen (its two tags
    # take ten) and the root fifteen.
    assert layers["gf2m"] == 4.0
    assert layers["families"] == 6.0
    assert layers["measure"] == 3.0
    assert layers["cli"] == 2.0
    assert tr.hot_calls("FieldCtx.mul") == 4
    assert tr.hot_calls("HashFamily.tag") == 2
    assert tr.counts["measure.calls"] == 1
    total = tr.spans[0].end - tr.spans[0].start
    assert sum(layers.values()) == total


def test_hook_counts_are_dropped_when_the_call_raises():
    tr = Tracer()

    def refuse():
        raise RuntimeError("budget")

    wrapped = tr.span("simulate_composition", "compose", refuse,
                      hook=lambda t, a, k: {"compose.enum_cells": 99})
    with pytest.raises(RuntimeError):
        wrapped()
    assert tr.counts["compose.enum_cells"] == 0
    assert tr._stack == []


def _judge_one(job: Job, code: int, out: bytes, err: bytes = b"") -> Judge:
    judge = Judge({job.name: {"exit": job.exit, "sha256": workloads.digest(b"ok\n")}},
                  seed=workloads.DEFAULT_SEED)
    judge(job, code, out, err)
    return judge


def test_a_flipped_stdout_byte_or_wrong_exit_status_is_a_failure():
    job = Job("j", ("epsilon",))
    assert _judge_one(job, 0, b"ok\n").pass_ratio == 1.0
    assert _judge_one(job, 0, b"oK\n").pass_ratio == 0.0
    assert _judge_one(job, 2, b"ok\n").pass_ratio == 0.0
    assert _judge_one(job, 0, b"ok\n", b"Traceback (most recent call last):\n").failed == 1


def test_refusals_need_exactly_one_stderr_line():
    job = Job("r", ("compose",), exit=1)
    ref = {"r": {"exit": 1, "sha256": workloads.digest(b"")}}
    for err, ok in ((b"recmac: budget refusal: x\n", True), (b"a\nb\n", False), (b"", False)):
        judge = Judge(ref, workloads.DEFAULT_SEED)
        assert judge(job, 1, b"", err) is ok


def test_seeded_jobs_on_other_seeds_must_repeat_their_first_output():
    job = Job("s", ("roundtrip",), seeded=True)
    judge = Judge({"s": {"exit": 0, "sha256": "not used on this seed"}}, seed=7)
    assert judge(job, 0, b"first\n", b"")
    assert not judge(job, 0, b"second\n", b"")
    assert (judge.attempted, judge.failed) == (2, 1)


def test_closed_form_checks_reject_wrong_numbers():
    good = json.dumps({"trials": 10, "hits": 1, "rate": "1/10", "expected": "1/16",
                       "within_3sigma": True})
    bad = good.replace('"within_3sigma": true', '"within_3sigma": false')
    check = workloads.montecarlo_ok(16, 256, 10)
    check(good)
    with pytest.raises(workloads.Mismatch):
        check(bad)
    csv_rows = "rounds,success_exact,success_formula,entropy_exact,entropy_formula\n" \
               "1,1/4,1/4,1.5,1.5\n"
    workloads.attack_rows_exact(1)(csv_rows)
    with pytest.raises(workloads.Mismatch):
        workloads.attack_rows_exact(1)(csv_rows.replace("1.5\n", "1.25\n"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_give_the_same_job_shapes(workload):
    a, b = workloads.jobs_for(workload, 1), workloads.jobs_for(workload, 2)
    assert [j.name for j in a] == [j.name for j in b]
    for ja, jb in zip(a, b):
        assert (ja.exit, ja.seeded) == (jb.exit, jb.seeded)
        flags = [x for x in ja.argv if not x[0].isdigit()]
        assert flags == [x for x in jb.argv if not x[0].isdigit()]
        if not ja.seeded:
            assert ja.argv == jb.argv


def test_two_seeds_give_different_inputs():
    a, b = workloads.jobs_for("sweep", 1), workloads.jobs_for("sweep", 2)
    assert [j.argv for j in a] != [j.argv for j in b]
    assert workloads.jobs_for("game", 1)[0].argv != workloads.jobs_for("game", 2)[0].argv
    ta, tb = workloads.table_document(1), workloads.table_document(2)
    assert ta["table"] != tb["table"]
    assert {k: v for k, v in ta.items() if k != "table"} == \
           {k: v for k, v in tb.items() if k != "table"}
    assert len(ta["table"]) == 16 and {len(r) for r in ta["table"]} == {8}
    assert workloads.table_document(1) == ta


def test_reference_covers_every_job():
    ref = json.loads((Path(__file__).parent / "reference.json").read_text())
    for workload in workloads.WORKLOADS:
        jobs = workloads.jobs_for(workload, workloads.DEFAULT_SEED)
        assert sorted(ref[workload]) == sorted(j.name for j in jobs)
        assert all(ref[workload][j.name]["exit"] == j.exit for j in jobs)


def test_wrappers_reach_every_name_a_caller_uses_and_are_removed_after():
    sys.path.insert(0, str(SRC))
    try:
        from recmac import attack, cli, compose, gf2m, measure, protocol
    finally:
        sys.path.remove(str(SRC))
    original = measure.measure_axu2
    tr = Tracer()
    with tracer.installed(tr):
        assert attack.measure_axu2 is compose.measure_axu2 is cli.measure_axu2
        assert attack.measure_axu2 is not original
        assert attack.authenticate is protocol.authenticate
        assert attack.authenticate.__name__ == "wrapper"
        root = tr.span("cli.main", "cli", cli.main)
        fam = cli.parse_family("mul:m=3")
        code, out, err = tracer.call_cli(root, Job("mc", (
            "attack", "--family", "mul:m=3", "--rounds", "2", "--montecarlo",
            "--trials", "10", "--format", "json")))
    assert attack.measure_axu2 is original and cli.measure_axu2 is original
    assert gf2m.FieldCtx.mul.__name__ == "mul"
    assert (code, err) == (0, b"") and json.loads(out)["trials"] == 10
    assert tr.counts["attack.mc_trials"] == 10
    assert tr.hot_calls("authenticate") == tr.hot_calls("verify") > 0
    assert fam.descriptor() == "mul:m=3"
