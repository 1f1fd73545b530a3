"""Traced run: recmac.cli.main in-process, each layer's public functions wrapped
from outside the program.

A wrapped call records a span: its name, layer, start, end and the span it
ran under.  Spans stay in memory; the layer numbers are computed once the
pass has ended.  A span's self time is its duration minus the part of it that
its child spans cover, and minus the time of the hot calls made directly
under it.

Hot calls are the leaf functions called millions of times per pass
(FieldCtx.mul, HashFamily.tag, authenticate, verify, KeyStream.next_key).
They get no span each: per parent span they get a call count, their summed
time and the summed time of hot calls nested in them.  A hot function must
not call a span function; none of them does.  The wrapper's own cost for a
hot call lands in the caller's self time, and trace.overhead_ratio reports
the total cost of tracing.

Private helpers are not wrapped, so their time counts toward the layer of
the nearest wrapped caller: measure.py's loops over HashFamily._tag count as
measure, and ucsim's Fraction arithmetic counts as ucsim.

Every function is wrapped under each name a module looks it up by: attack
imports authenticate, verify and measure_axu2 directly, and compose and cli
import measure_axu2, so patching only the defining module would miss those
calls.
"""

from __future__ import annotations

import importlib
import io
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

from workloads import Job, Judge

LAYERS = ("cli", "ucsim", "dist", "measure", "families", "gf2m",
          "protocol", "attack", "compose")

Hook = Callable[["Tracer", tuple, dict], Optional[dict]]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]    # index into Tracer.spans
    hot_s: float = 0.0       # time of hot calls made directly under this span


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's covered time and its hot calls."""
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, children[i]) - s.hot_s
            for i, s in enumerate(spans)]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # (parent span index, name) -> [layer, calls, total s, nested hot s]
        self.hot: dict[tuple[int, str], list] = {}
        self.counts: Counter = Counter()
        self.measured: set = set()    # (job, family, measure) triples seen
        self.job = 0
        self._stack: list[list] = []  # open frames: [nearest span index, hot child s]

    def span(self, name: str, layer: str, fn: Callable, hook: Optional[Hook] = None):
        tracer, clock, stack, spans = self, self.clock, self._stack, self.spans

        def wrapper(*args, **kwargs):
            counts = hook(tracer, args, kwargs) if hook else None
            s = Span(name, layer, 0.0, 0.0, stack[-1][0] if stack else None)
            frame = [len(spans), 0.0]
            spans.append(s)
            stack.append(frame)
            s.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = clock()
                stack.pop()
                s.hot_s = frame[1]
            if counts:
                tracer.counts.update(counts)
            return result
        return wrapper

    def hot_call(self, name: str, layer: str, fn: Callable):
        clock, stack, hot = self.clock, self._stack, self.hot

        def wrapper(*args, **kwargs):
            frame = [stack[-1][0], 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                agg = hot.get((frame[0], name))
                if agg is None:
                    agg = hot[(frame[0], name)] = [layer, 0, 0.0, 0.0]
                agg[1] += 1
                agg[2] += dt
                agg[3] += frame[1]
        return wrapper

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, self_times(self.spans)):
            out[s.layer] += t
        for layer, _, total, nested in self.hot.values():
            out[layer] += total - nested
        return out

    def hot_calls(self, name: str) -> int:
        return sum(agg[1] for (_, n), agg in self.hot.items() if n == name)

    def span_calls(self, name: str, parent: Optional[str] = None) -> int:
        return sum(1 for s in self.spans if s.name == name and (
            parent is None or (s.parent is not None and self.spans[s.parent].name == parent)))


# -- what is wrapped -------------------------------------------------------------


def _family(args, kwargs):
    return args[0] if args else kwargs["fam"]


def _measured(kind: str) -> Hook:
    def hook(tracer, args, kwargs):
        tracer.measured.add((tracer.job, _family(args, kwargs).descriptor(), kind))
        return {"measure.calls": 1}
    return hook


def _search_cells(tracer, args, kwargs):
    """Cells of a worst-case search, by the formula of ucsim._search_budget."""
    from recmac import ucsim

    target = args[0] if args else kwargs["fam_or_proto"]
    if isinstance(target, ucsim.AuthProtocol):
        nx, nkeys, nwire = (len(target.messages), len(target.keys()),
                            len(target.wire_values()))
    else:
        recycle = args[1] if len(args) > 1 else kwargs.get("recycle", False)
        nx = len(target.messages)
        nkeys = target.key_count * (target.tag_count if recycle else 1)
        nwire = nx * target.tag_count
    return {"ucsim.searches": 1, "ucsim.search_cells": nx * nkeys * (1 + nwire)}


def _table_cells(tracer, args, kwargs):
    """A tag_table call that builds the table, by the formula of its budget check."""
    fam = args[0]
    if fam._table is not None:
        return None
    return {"families.table_builds": 1,
            "families.table_cells": fam.key_count * len(fam.messages)}


def _enum_cells(tracer, args, kwargs):
    """Cells of simulate_composition, by the formula of its budget check."""
    fam, r, l = args[:3]
    return {"compose.enum_cells": fam.key_count * fam.tag_count ** (r * l)}


def _dist_built(tracer, args, kwargs):
    weights = args[2] if len(args) > 2 else kwargs["weights"]
    return {"dist.dists_built": 1, "dist.outcomes_built": len(weights)}


def _mc_trials(tracer, args, kwargs):
    return {"attack.mc_trials": args[2] if len(args) > 2 else kwargs["trials"]}


# (layer, module, attribute, hot, hook).  Counts from hooks are kept only for
# calls that return; a refused call touches no cells.
TARGETS = [
    ("gf2m", "recmac.gf2m", "FieldCtx.mul", True, None),
    ("gf2m", "recmac.gf2m", "FieldCtx.pow", False, None),
    ("gf2m", "recmac.gf2m", "FieldCtx.inv", False, None),
    ("gf2m", "recmac.gf2m", "is_irreducible", False, None),
    ("families", "recmac.families", "parse_family", False, None),
    ("families", "recmac.families", "lift_to_asu2", False, None),
    ("families", "recmac.families", "HashFamily.tag_table", False, _table_cells),
    ("families", "recmac.families", "HashFamily.tag", True, None),
    ("measure", "recmac.measure", "measure_axu2", False, _measured("axu2")),
    ("measure", "recmac.measure", "measure_asu2", False, _measured("asu2")),
    ("measure", "recmac.measure", "sample_axu2", False, _measured("sample")),
    ("measure", "recmac.measure", "tag_marginal", False, _measured("marginal")),
    ("dist", "recmac.dist", "Dist.__init__", False, _dist_built),
    ("dist", "recmac.dist", "Dist.project", False, None),
    ("dist", "recmac.dist", "statistical_distance", False, None),
    ("protocol", "recmac.protocol", "authenticate", True, None),
    ("protocol", "recmac.protocol", "verify", True, None),
    ("protocol", "recmac.protocol", "KeyStream.next_key", True, None),
    ("protocol", "recmac.protocol", "pack_tagged", False, None),
    ("protocol", "recmac.protocol", "unpack_tagged", False, None),
    ("ucsim", "recmac.ucsim", "run_real", False, None),
    ("ucsim", "recmac.ucsim", "run_ideal", False, None),
    ("ucsim", "recmac.ucsim", "uc_distance", False, None),
    ("ucsim", "recmac.ucsim", "impersonation_distance", False, None),
    ("ucsim", "recmac.ucsim", "worst_case_substitution", False, _search_cells),
    ("ucsim", "recmac.ucsim", "worst_case_impersonation", False, _search_cells),
    ("ucsim", "recmac.ucsim", "worst_case_distance", False, None),
    ("attack", "recmac.attack", "run_attack_exact", False, None),
    ("attack", "recmac.attack", "run_attack_montecarlo", False, _mc_trials),
    ("attack", "recmac.attack", "posterior_entropy", False, None),
    ("attack", "recmac.attack", "success_recurrence", False, None),
    ("attack", "recmac.attack", "sample_transcript", False, None),
    ("attack", "recmac.attack", "entropy_of", False, None),
    ("compose", "recmac.compose", "compose_ledger", False, None),
    ("compose", "recmac.compose", "simulate_composition", False, _enum_cells),
]

PROTOCOL_CALLS = ("authenticate", "verify", "KeyStream.next_key",
                  "pack_tagged", "unpack_tagged")


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "recmac" or name.startswith("recmac.")]
    undo = []
    try:
        for layer, module, attr, hot, hook in TARGETS:
            owner = importlib.import_module(module)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[fn_name]
            wrapper = (tracer.hot_call(attr, layer, original) if hot
                       else tracer.span(attr, layer, original, hook))
            if cls_name:
                undo.append((owner, fn_name, original))
                setattr(owner, fn_name, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, name, original))
                        setattr(m, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# -- the traced run --------------------------------------------------------------


def call_cli(main: Callable, job: Job) -> tuple[int, bytes, bytes]:
    """Run one job in-process the way `python -m recmac` would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(job.argv))
        except SystemExit as exc:  # as the interpreter maps it: None 0, non-int 1
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # the process would die with a traceback and status 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_pass(jobs: list[Job], judge: Judge, main: Callable,
             tracer: Optional[Tracer] = None) -> float:
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        code, out, err = call_cli(main, job)
        judge(job, code, out, err)
        if tracer is not None and code == 1:
            tracer.counts["cli.refusals"] += 1
    return time.perf_counter() - t0


def layer_metrics(tracer: Tracer, traced_s: float) -> dict[str, float]:
    """The per-layer numbers of one traced pass, before units are attached."""
    c = tracer.counts
    out = {f"{layer}.self_s": t for layer, t in tracer.layer_self_s().items()}
    out.update({
        "cli.refusals": c["cli.refusals"],
        "ucsim.searches": c["ucsim.searches"],
        "ucsim.reverify_runs": tracer.span_calls("uc_distance", "worst_case_substitution"),
        "ucsim.search_cells": c["ucsim.search_cells"],
        "dist.dists_built": c["dist.dists_built"],
        "dist.outcomes_built": c["dist.outcomes_built"],
        "measure.calls": c["measure.calls"],
        "measure.repeat_ratio": c["measure.calls"] / max(1, len(tracer.measured)),
        "families.table_builds": c["families.table_builds"],
        "families.table_cells": c["families.table_cells"],
        "families.tag_calls": tracer.hot_calls("HashFamily.tag"),
        "gf2m.mul_calls": tracer.hot_calls("FieldCtx.mul"),
        "protocol.calls": sum(tracer.hot_calls(n) + tracer.span_calls(n)
                              for n in PROTOCOL_CALLS),
        "attack.mc_trials": c["attack.mc_trials"],
        "compose.enum_cells": c["compose.enum_cells"],
        "trace.wall_s": traced_s,
    })
    return out


def traced_pass(jobs: list[Job], judge: Judge, main: Callable) -> tuple[dict, Tracer]:
    """One pass with every target wrapped: (layer numbers, tracer); plain_wall_s
    and overhead_ratio are left for the caller, which times the plain pass."""
    tracer = Tracer()
    with installed(tracer):
        traced_s = run_pass(jobs, judge, tracer.span("cli.main", "cli", main), tracer)
    return layer_metrics(tracer, traced_s), tracer
