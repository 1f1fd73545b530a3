"""Acceptance gate: one test per numbered claim, exact tolerances, timed.

Every check here is an exact rational equality or inequality; floats appear
only in the Monte Carlo confidence interval, whose acceptance band is the
binomial 3-sigma rule.  Each test prints one summary line (shown under -s)
and enforces the stated runtime where there is one.
"""

import itertools
import random
import time
from fractions import Fraction as F

from recmac import (
    EnvStrategy,
    IDENTITY,
    LIST_ELIMINATION,
    MulFamily,
    PolyFamily,
    ToeplitzFamily,
    ToyQkdFunctionality,
    compose_ledger,
    counterexample_protocol,
    impersonation_distance,
    measure_asu2,
    measure_axu2,
    posterior_entropy,
    run_attack_exact,
    run_attack_montecarlo,
    run_real,
    simulate_composition,
    success_recurrence,
    worst_case_distance,
    worst_case_impersonation,
    worst_case_substitution,
)
from recmac.attack import ExactEntropy
from recmac.cli import main as cli_main

from conftest import (
    build_table16,
    impersonation_tv_oracle,
    substitution_tv_oracle,
)


def timed():
    return time.perf_counter()


def test_criterion_1_hash_family_parameters():
    t0 = timed()
    for m in (2, 3, 4):
        assert measure_axu2(MulFamily(m)).epsilon == F(1, 2 ** m)
    for length in (2, 3):
        assert measure_axu2(PolyFamily(4, length)).epsilon <= F(length, 16)
    assert measure_axu2(ToeplitzFamily(4, 3)).epsilon == F(1, 8)
    dt = timed() - t0
    assert dt < 10
    print(f"criterion 1 PASS: family bounds exact, {dt:.2f}s")


def test_criterion_2_worst_case_equals_epsilon():
    t0 = timed()
    grid = [MulFamily(m) for m in (1, 2, 3)]
    grid += [ToeplitzFamily(4, m) for m in (1, 2, 3)]
    for fam in grid:
        eps = measure_axu2(fam).epsilon
        d, env = worst_case_distance(fam, recycle=True)
        assert d <= eps
        assert d == eps
        assert env.mode == "substitution" and env.subst
        (x,) = next(iter(env.msg_dist.weights))
        assert substitution_tv_oracle(fam, x, dict(env.subst), recycle=True) == d
    dt = timed() - t0
    assert dt < 60
    print(f"criterion 2 PASS: worst case equals epsilon on {len(grid)} families, "
          f"with oracle-checked witnesses, {dt:.2f}s")


def test_criterion_3_recycled_key_conditionally_uniform():
    t0 = timed()
    rng = random.Random(3)
    checked = 0
    for fam, n_random in ((MulFamily(2), 0), (MulFamily(3), 40),
                          (ToeplitzFamily(3, 2), 40), (ToeplitzFamily(4, 3), 15)):
        kc = fam.key_count
        unit = F(1, kc)
        wires = [(x, t) for x in fam.messages for t in fam.tags()]
        for x in fam.messages:
            reachable = [(x, t) for t in fam.tags()]
            maps = [{}]
            if fam.tag_bits == 2 and isinstance(fam, MulFamily):
                # exhaustive single-swap maps at the smallest size
                maps += [{y: w} for y in reachable for w in wires]
            maps += [
                {y: rng.choice(wires) for y in reachable if rng.random() < 0.8}
                for _ in range(n_random)
            ]
            for subst in maps:
                env = EnvStrategy.substitute(x, subst)
                joint = run_real(fam, env, recycle=True).project(("x", "y", "k1"))
                marg = joint.project(("x", "y"))
                for (vx, vy), pxy in marg.items():
                    for k1 in range(kc):
                        assert joint.p((vx, vy, k1)) == pxy * unit
                    checked += 1
    dt = timed() - t0
    print(f"criterion 3 PASS: recycled key uniform given the view in {checked} "
          f"(x, y) cells across environments, {dt:.2f}s")


def test_criterion_4_attack_and_entropy():
    t0 = timed()
    fam = MulFamily(2)
    for rounds in (1, 2, 3, 4):
        rep = run_attack_exact(fam, rounds)
        assert rep.success_prob == F(rounds, 4)
    eps = F(1, 4)
    rec = success_recurrence(fam, 3)
    assert list(rec) == [eps / (1 - l * eps) for l in range(4)]
    for m in (2, 3):
        f = MulFamily(m)
        for rounds in range(0, f.tag_count + 1):
            computed, formula = posterior_entropy(f, rounds)
            assert computed == formula
    table16 = build_table16()
    assert table16.key_count == 16 and table16.tag_count == 4
    computed, formula = posterior_entropy(table16, 2)
    assert computed == formula == ExactEntropy(F(5, 2), ())
    assert float(computed) == 2.5
    dt = timed() - t0
    assert dt < 10
    print(f"criterion 4 PASS: attack success, recurrence, and entropy closed "
          f"forms exact, table fixture at 2.5 bits, {dt:.2f}s")


def test_criterion_5_montecarlo_cross_check():
    t0 = timed()
    rep = run_attack_montecarlo(MulFamily(8), 16, trials=100_000, seed=1)
    assert rep.expected == F(16, 256)
    assert rep.within_3sigma
    dt = timed() - t0
    print(f"criterion 5 PASS: empirical rate {rep.rate} within 3 sigma of "
          f"{rep.expected} over {rep.trials} trials, {dt:.2f}s")


def test_criterion_6_standard_auth_all_strategies():
    t0 = timed()
    fam = build_table16()
    assert len(fam.messages) == 4 and fam.tag_count == 4
    eps = measure_asu2(fam).epsilon
    assert eps == F(1, 4)
    wires = [(x, t) for x in fam.messages for t in fam.tags()]
    best = F(0)
    n_envs = 0
    for x in fam.messages:
        reachable = [(x, t) for t in fam.tags()]
        for choice in itertools.product(wires, repeat=len(reachable)):
            subst = {y: yp for y, yp in zip(reachable, choice) if yp != y}
            d = substitution_tv_oracle(fam, x, subst, recycle=False)
            assert d <= eps
            best = max(best, d)
            n_envs += 1
    for wire in wires:
        assert impersonation_tv_oracle(fam, wire, recycle=False) <= eps
        n_envs += 1
    lib, _ = worst_case_substitution(fam, recycle=False)
    assert lib == best <= eps
    dt = timed() - t0
    print(f"criterion 6 PASS: {n_envs} strategies enumerated, max distance "
          f"{best} <= {eps}, {dt:.2f}s")


def test_criterion_7_impersonation_lemmas():
    t0 = timed()
    for m in (2, 3):
        fam = MulFamily(m)
        want = F(1, fam.tag_count)
        for x in fam.messages:
            for t in fam.tags():
                assert impersonation_distance(fam, (x, t), recycle=True) == want
    for fam in (MulFamily(2), MulFamily(3), ToeplitzFamily(3, 2),
                ToeplitzFamily(4, 3)):
        di, _ = worst_case_impersonation(fam, recycle=True)
        ds, _ = worst_case_substitution(fam, recycle=True)
        assert di <= ds
    proto = counterexample_protocol(2)
    assert impersonation_distance(proto, (0, 0)) == 1
    dsub, _ = worst_case_substitution(proto)
    assert dsub >= F(1, 2)
    dt = timed() - t0
    print(f"criterion 7 PASS: impersonation exactly 1/|T| under recycling, "
          f"never beats substitution, counterexample separates at "
          f"(1, {dsub}), {dt:.2f}s")


def test_criterion_8_composition():
    t0 = timed()
    rng = random.Random(8)
    fams = [MulFamily(2), MulFamily(3), MulFamily(4), ToeplitzFamily(3, 2),
            PolyFamily(3, 2), PolyFamily(4, 2)]
    for _ in range(20):
        fam = rng.choice(fams)
        r = rng.randint(1, 8)
        l = rng.randint(1, 8)
        eps_prime = F(rng.randint(0, 99), rng.randint(100, 999))
        qkd = ToyQkdFunctionality(l * fam.tag_bits, eps_prime)
        ledger, bound = compose_ledger(fam, r, l, qkd)
        eps = measure_axu2(fam).epsilon
        assert ledger.total == bound == r * (l * eps + eps_prime)
    fam = MulFamily(2)
    for r, l in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)):
        assert simulate_composition(fam, r, l, env=LIST_ELIMINATION) == \
            min(F(1), F(r * l, 4))
        assert simulate_composition(fam, r, l, env=IDENTITY) == 0
    # past saturation on mul:m=3 (r*l up to 9 > |T| = 8), and on toeplitz
    for fam, n_max in ((MulFamily(3), 9), (ToeplitzFamily(3, 2), 5)):
        tc = fam.tag_count
        for r, l in itertools.product(range(1, n_max + 1), repeat=2):
            if r * l > n_max:
                continue
            budget = fam.key_count * tc ** (r * l)
            assert simulate_composition(fam, r, l, env=LIST_ELIMINATION, budget=budget) == \
                min(F(1), F(r * l, tc)), (fam.descriptor(), r, l)
            assert simulate_composition(fam, r, l, env=IDENTITY, budget=budget) == 0
    dt = timed() - t0
    assert dt < 120
    print(f"criterion 8 PASS: 20 random ledgers exact, simulated distance "
          f"min(1, r*l/|T|) on mul:m=2, mul:m=3 and toeplitz:n=3,m=2, identity 0, "
          f"{dt:.2f}s")


def test_criterion_9_cli_determinism(tmp_path):
    t0 = timed()
    commands = [
        ("epsilon", "--family", "mul:m=4"),
        ("epsilon", "--family", "mul:m=6", "--sample", "--pairs", "100",
         "--seed", "11"),
        ("epsilon", "--family", "poly:m=4,L=2", "--format", "csv"),
        ("uc-distance", "--family", "mul:m=2", "--recycle"),
        ("uc-distance", "--family", "mul:m=2", "--recycle", "--identity"),
        ("impersonate", "--family", "mul:m=2", "--recycle", "--inject", "1,2"),
        ("impersonate", "--family", "toeplitz:n=3,m=2", "--recycle"),
        ("attack", "--family", "mul:m=2", "--rounds", "4"),
        ("attack", "--family", "mul:m=4", "--rounds", "2", "--montecarlo",
         "--trials", "1000", "--seed", "5"),
        ("compose", "--family", "mul:m=2", "--r", "2", "--rounds", "2",
         "--qkd-eps", "1/50", "--simulate"),
        ("compose", "--family", "mul:m=3", "--r", "3", "--rounds", "1",
         "--qkd-eps", "0", "--format", "json"),
        ("roundtrip", "--family", "mul:m=2", "--message", "2", "--k1", "3",
         "--pad", "1"),
        ("fieldtab", "--family", "mul:m=2", "--format", "json"),
        ("fieldtab", "--family", "mul:m=3"),
    ]
    for i, args in enumerate(commands):
        a = tmp_path / f"{i}a.out"
        b = tmp_path / f"{i}b.out"
        assert cli_main(list(args) + ["--out", str(a)]) == 0
        assert cli_main(list(args) + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), args
    dt = timed() - t0
    print(f"criterion 9 PASS: {len(commands)} invocations byte-identical on "
          f"rerun across all 7 subcommands, {dt:.2f}s")
