"""The benchmark's workloads: the recmac CLI jobs each one runs, and the checks
every job's output must pass.

A job is one `python -m recmac <subcommand> ...` invocation.  Its inputs come
from the workload seed only: the Monte Carlo and sampling seeds, the
roundtrip message and keys, the injected wire message and the entries of the
generated table family.  The shapes (families, sizes, flags) never depend on
the seed, so every seed does the same amount of work.

Every job is judged on its exit status, its stderr, the sha256 of its stdout
and, where the source paper gives one, a closed form its output must equal.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

DEFAULT_SEED = 0

# Relative to the checkout root, which is every job's working directory.  The
# CLI echoes the path ("family": "table:@..."), so it must be the same on
# every run for the stdout digest to be comparable.
TABLE_PATH = "perfbench/_work/table.json"
TABLE_FAMILY = f"table:@{TABLE_PATH}"
TABLE_KEYS, TABLE_MESSAGES, TABLE_TAG_BITS = 16, 8, 2

WORKLOADS = ("search", "game", "sweep")


class Mismatch(Exception):
    """A job's output differs from what the closed form says it must be."""


Check = Callable[[str], None]


@dataclass(frozen=True)
class Job:
    name: str                    # stable across seeds; keys the reference digests
    argv: tuple[str, ...]        # arguments after `python -m recmac`
    exit: int = 0                # expected exit status
    seeded: bool = False         # stdout depends on the seed
    check: Optional[Check] = None

    @property
    def family(self) -> str:
        return self.argv[self.argv.index("--family") + 1]


def _rng(seed: int, purpose: str) -> random.Random:
    # One stream per purpose, so adding a job never shifts another's inputs.
    return random.Random(f"{purpose}/{seed}")


def table_document(seed: int) -> dict:
    """The generated table family: 16 keys x 8 messages x 2-bit tags."""
    rng = _rng(seed, "table")
    return {
        "keys": TABLE_KEYS,
        "m": TABLE_TAG_BITS,
        "messages": list(range(TABLE_MESSAGES)),
        "table": [[rng.randrange(1 << TABLE_TAG_BITS) for _ in range(TABLE_MESSAGES)]
                  for _ in range(TABLE_KEYS)],
    }


def write_table(root: Path, seed: int) -> None:
    path = root / TABLE_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table_document(seed), sort_keys=True) + "\n",
                    encoding="utf-8")


# -- closed-form checks --------------------------------------------------------


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def epsilon_is(value: Fraction, field: str = "epsilon") -> Check:
    """epsilon on mul:m is 2^-m."""
    def check(out: str) -> None:
        got = Fraction(json.loads(out)[field])
        _expect(got == value, f"{field} {got} != {value}")
    return check


def distance_is_epsilon(out: str) -> None:
    """Recycled uc-distance on mul and toeplitz: distance == epsilon_measured."""
    doc = json.loads(out)
    _expect(doc["distance"] == doc["epsilon_measured"],
            f"distance {doc['distance']} != epsilon {doc['epsilon_measured']}")


def attack_rows_exact(rounds: int) -> Check:
    """Exact attack: success_exact == success_formula, entropy columns equal."""
    def check(out: str) -> None:
        rows = list(csv.DictReader(io.StringIO(out)))
        _expect(len(rows) == rounds, f"{len(rows)} rows, expected {rounds}")
        for row in rows:
            _expect(row["success_exact"] == row["success_formula"],
                    f"round {row['rounds']}: success {row['success_exact']} "
                    f"!= formula {row['success_formula']}")
            _expect(row["entropy_exact"] == row["entropy_formula"],
                    f"round {row['rounds']}: entropy {row['entropy_exact']} "
                    f"!= formula {row['entropy_formula']}")
    return check


def montecarlo_ok(rounds: int, tag_count: int, trials: int) -> Check:
    """Monte Carlo: rate is hits/trials, expected is L/|T|, within 3 sigma."""
    def check(out: str) -> None:
        doc = json.loads(out)
        _expect(doc["trials"] == trials, f"trials {doc['trials']} != {trials}")
        _expect(Fraction(doc["rate"]) == Fraction(doc["hits"], trials), "rate != hits/trials")
        _expect(Fraction(doc["expected"]) == Fraction(rounds, tag_count),
                f"expected {doc['expected']} != {rounds}/{tag_count}")
        _expect(doc["within_3sigma"] is True, "rate outside the 3-sigma band")
    return check


def compose_ok(r: int, l: int, eps: Fraction, qkd_eps: Fraction, tag_count: int,
               simulate: bool, fmt: str) -> Check:
    """Ledger total r*(l*eps + eps'); compose --simulate gives min(1, r*l/|T|)."""
    bound = r * (l * eps + qkd_eps)
    simulated = min(Fraction(1), Fraction(r * l, tag_count))

    def check(out: str) -> None:
        if fmt == "json":
            doc = json.loads(out)
            got_bound = Fraction(doc["bound"])
            got_sim = Fraction(doc["simulated_distance"]) if simulate else None
        else:
            rows = {row["component"]: row for row in csv.DictReader(io.StringIO(out))}
            got_bound = Fraction(rows["total-bound"]["epsilon"])
            got_sim = Fraction(rows["simulated-distance"]["epsilon"]) if simulate else None
        _expect(got_bound == bound, f"bound {got_bound} != {bound}")
        _expect(got_sim == (simulated if simulate else None),
                f"simulated distance {got_sim} != {simulated}")
    return check


def roundtrip_ok(out: str) -> None:
    doc = json.loads(out)
    for key in ("roundtrip_equal", "verified", "tamper_rejected"):
        _expect(doc[key] is True, f"{key} is {doc[key]!r}")


# -- workloads -----------------------------------------------------------------


def _job(name: str, *argv: str, **kw) -> Job:
    return Job(name, tuple(argv), **kw)


def search_jobs(seed: int) -> list[Job]:
    """Worst-case real/ideal searches: ucsim and its Fraction arithmetic."""
    return [
        _job("uc-distance toeplitz:n=4,m=3 recycle",
             "uc-distance", "--family", "toeplitz:n=4,m=3", "--recycle",
             check=distance_is_epsilon),
        _job("uc-distance toeplitz:n=4,m=2 recycle",
             "uc-distance", "--family", "toeplitz:n=4,m=2", "--recycle",
             check=distance_is_epsilon),
        _job("uc-distance mul:m=3 lift",
             "uc-distance", "--family", "mul:m=3", "--lift"),
        _job("impersonate toeplitz:n=4,m=3 recycle",
             "impersonate", "--family", "toeplitz:n=4,m=3", "--recycle"),
    ]


def game_jobs(seed: int) -> list[Job]:
    """The multi-round key-elimination game and its composition.

    Composition stays at n = r*l <= 7 authentications: the simulation
    enumerates kc * tc^n outcomes, and n = 8 already takes about 200 MB.
    """
    return [
        _job("attack mul:m=8 rounds=16 montecarlo",
             "attack", "--family", "mul:m=8", "--rounds", "16", "--montecarlo",
             "--trials", "100000", "--seed", str(seed), "--format", "json",
             seeded=True, check=montecarlo_ok(16, 256, 100000)),
        _job("attack mul:m=8 rounds=48",
             "attack", "--family", "mul:m=8", "--rounds", "48",
             check=attack_rows_exact(48)),
        _job("compose mul:m=2 r=1 rounds=7 simulate",
             "compose", "--family", "mul:m=2", "--r", "1", "--rounds", "7", "--simulate",
             check=compose_ok(1, 7, Fraction(1, 4), Fraction(0), 4, True, "csv")),
        _job("compose mul:m=3 r=2 rounds=2 qkd-eps=1/100 simulate",
             "compose", "--family", "mul:m=3", "--r", "2", "--rounds", "2",
             "--qkd-eps", "1/100", "--simulate",
             check=compose_ok(2, 2, Fraction(1, 8), Fraction(1, 100), 8, True, "csv")),
    ]


def sweep_jobs(seed: int) -> list[Job]:
    """Short invocations of all 7 subcommands on all 5 family kinds."""
    wire = _rng(seed, "inject")
    rt = _rng(seed, "roundtrip")
    inject = f"{wire.randrange(4)},{wire.randrange(4)}"
    message, k1, pad = rt.randrange(1 << 8), rt.randrange(16), rt.randrange(16)
    return [
        _job("epsilon mul:m=4", "epsilon", "--family", "mul:m=4",
             check=epsilon_is(Fraction(1, 16))),
        _job("epsilon mul:m=8", "epsilon", "--family", "mul:m=8",
             check=epsilon_is(Fraction(1, 256))),
        _job("epsilon poly:m=4,L=3", "epsilon", "--family", "poly:m=4,L=3"),
        _job("epsilon toeplitz:n=6,m=6", "epsilon", "--family", "toeplitz:n=6,m=6"),
        _job("epsilon asu2 mul:m=6", "epsilon", "--kind", "asu2", "--family", "mul:m=6"),
        _job("epsilon asu2 poly:m=4,L=2", "epsilon", "--kind", "asu2",
             "--family", "poly:m=4,L=2"),
        _job("epsilon asu2 mul:m=4 lift", "epsilon", "--kind", "asu2",
             "--family", "mul:m=4", "--lift"),
        _job("epsilon counterexample:m=3", "epsilon", "--family", "counterexample:m=3"),
        _job("epsilon mul:m=6 sample", "epsilon", "--family", "mul:m=6", "--sample",
             "--pairs", "100", "--seed", str(seed),
             seeded=True, check=epsilon_is(Fraction(1, 64), "epsilon_lower_bound")),
        _job("epsilon asu2 table", "epsilon", "--kind", "asu2", "--family", TABLE_FAMILY,
             seeded=True),
        _job("uc-distance table recycle", "uc-distance", "--family", TABLE_FAMILY,
             "--recycle", seeded=True),
        _job("uc-distance mul:m=2 recycle", "uc-distance", "--family", "mul:m=2",
             "--recycle", check=distance_is_epsilon),
        _job("impersonate mul:m=2 recycle inject", "impersonate", "--family", "mul:m=2",
             "--recycle", "--inject", inject, seeded=True),
        _job("attack mul:m=2 rounds=4", "attack", "--family", "mul:m=2", "--rounds", "4",
             check=attack_rows_exact(4)),
        _job("compose mul:m=3 r=3 rounds=1 json", "compose", "--family", "mul:m=3",
             "--r", "3", "--rounds", "1", "--format", "json",
             check=compose_ok(3, 1, Fraction(1, 8), Fraction(0), 8, False, "json")),
        _job("roundtrip poly:m=4,L=2", "roundtrip", "--family", "poly:m=4,L=2",
             "--message", str(message), "--k1", str(k1), "--pad", str(pad),
             seeded=True, check=roundtrip_ok),
        _job("fieldtab mul:m=3", "fieldtab", "--family", "mul:m=3"),
        _job("fieldtab mul:m=8 json", "fieldtab", "--family", "mul:m=8", "--format", "json"),
        _job("refusal uc-distance toeplitz:n=6,m=4 recycle", "uc-distance",
             "--family", "toeplitz:n=6,m=4", "--recycle", exit=1),
        _job("refusal compose mul:m=2 r=2 rounds=6 simulate", "compose",
             "--family", "mul:m=2", "--r", "2", "--rounds", "6", "--simulate", exit=1),
    ]


def jobs_for(workload: str, seed: int) -> list[Job]:
    builders = {"search": search_jobs, "game": game_jobs, "sweep": sweep_jobs}
    return builders[workload](seed)


def families_of(jobs: list[Job]) -> list[str]:
    """Distinct family descriptors, in first-use order."""
    return list(dict.fromkeys(job.family for job in jobs))


# -- judging -------------------------------------------------------------------


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def judge(job: Job, exit_code: int, stdout: bytes, stderr: bytes,
          expected_digest: Optional[str]) -> Optional[str]:
    """Why the job failed, or None if it passed.

    A job fails on a wrong exit status, a traceback, a refusal whose stderr is
    not exactly one line, a stdout digest other than `expected_digest` (when
    one is given) or a failed closed-form check.
    """
    err = stderr.decode("utf-8", errors="replace")
    if "Traceback" in err:
        return "traceback on stderr"
    if exit_code != job.exit:
        return f"exit status {exit_code}, expected {job.exit}"
    if job.exit != 0 and len(err.splitlines()) != 1:
        return f"refusal wrote {len(err.splitlines())} stderr lines, expected 1"
    if expected_digest is not None and digest(stdout) != expected_digest:
        return "stdout digest differs from the reference"
    if job.check is not None and job.exit == 0:
        try:
            job.check(stdout.decode("utf-8"))
        except (Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"closed-form check: {type(exc).__name__}: {exc}"
    return None


class Judge:
    """Judges a run's jobs against the reference digests.

    The stored reference holds each job's stdout digest for DEFAULT_SEED.  It
    applies to every seed for jobs whose inputs do not depend on the seed.  A
    seeded job on another seed is held to the digest of its first execution
    in the run, so every repetition must be byte-identical.
    """

    def __init__(self, reference: dict[str, dict], seed: int):
        self.reference = reference
        self.seed = seed
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def __call__(self, job: Job, exit_code: int, stdout: bytes, stderr: bytes) -> bool:
        if not job.seeded or self.seed == DEFAULT_SEED:
            expected = self.reference[job.name]["sha256"]
        else:
            expected = self.first.setdefault(job.name, digest(stdout))
        why = judge(job, exit_code, stdout, stderr, expected)
        self.attempted += 1
        if why is not None:
            self.failures.append((job.name, why))
        return why is None

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def pass_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def load_reference(path: Path, workload: str) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)[workload]
