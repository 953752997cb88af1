"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; all tolerances are exact counts and rates pinned below.
"""
import copy
import json
import random
import time

from cyclepack import (
    brute_force_pack,
    gen_random_mindeg,
    make_profile,
    pack,
    verify_packing,
)
from cyclepack import packer
from cyclepack.cli import main
from oracle_partition import partition_feasible

_cli_cache: dict[str, dict] = {}


def report(num: int, name: str, check):
    try:
        detail = check()
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def run_cli_json(key: str, argv: list[str], capsys) -> dict:
    if key not in _cli_cache:
        code = main(argv)
        out = capsys.readouterr().out
        _cli_cache[key] = {"code": code, "summary": json.loads(out)}
    return _cli_cache[key]


def canonical_without_timing(summary: dict) -> str:
    clone = copy.deepcopy(summary)
    clone.pop("timing", None)
    return json.dumps(clone, sort_keys=True)


CRIT2_ARGS = ["trials", "--side", "6", "--delta", "5", "--profile", "6,6",
              "--trials", "200", "--seed", "7", "--json"]
# --oracle-limit 0: within the limit the oracle alone decides, so the engine
# runs on these 18-vertex hosts only with the oracle off
CRIT3_ARGS = ["trials", "--side", "9", "--delta", "5", "--profile", "6,6",
              "--trials", "50", "--seed", "11", "--oracle-limit", "0", "--json"]


def test_criterion_1_exhaustive_tiny_scale(capsys):
    def check():
        started = time.monotonic()
        run = run_cli_json("crit1", ["exhaustive", "--side", "4", "--profile", "6", "--json"], capsys)
        elapsed = time.monotonic() - started
        s = run["summary"]
        assert run["code"] == 0
        assert s["space_size"] == 65536
        assert s["violations"] == []
        assert s["hypothesis_satisfying"] == s["packed"] > 0
        assert elapsed < 60.0
        return (
            f"space 65536, {s['hypothesis_satisfying']} graphs with min degree >= 3, "
            f"all contain a >=6-cycle, {elapsed:.1f}s"
        )

    report(1, "exhaustive side-4 guarantee", check)


def test_criterion_2_random_regime(capsys):
    def check():
        started = time.monotonic()
        run = run_cli_json("crit2", CRIT2_ARGS, capsys)
        elapsed = time.monotonic() - started
        s = run["summary"]
        agg = s["aggregates"]
        assert run["code"] == 0
        assert agg["success_rate"] == 1.0
        assert agg["theorem_violations"] == 0
        assert sum(agg["outcomes"].values()) == 200
        assert elapsed < 300.0
        return f"200/200 packed, {agg['oracle_fallbacks']} oracle escalations, {elapsed:.1f}s"

    report(2, "random-regime side-6 trials", check)


def test_criterion_3_uniform_profile_beyond_oracle(capsys):
    def check():
        started = time.monotonic()
        run = run_cli_json("crit3", CRIT3_ARGS, capsys)
        elapsed = time.monotonic() - started
        s = run["summary"]
        agg = s["aggregates"]
        assert run["code"] == 0
        assert agg["success_rate"] == 1.0
        assert agg["outcomes"].get("unknown", 0) == 0
        assert agg["oracle_fallbacks"] == 0  # the move engine must succeed unaided
        return f"50/50 packed by the move engine alone, {elapsed:.1f}s"

    report(3, "uniform-profile side-9 trials (engine only)", check)


def test_criterion_4_sharpness_regression(capsys):
    def check():
        started = time.monotonic()
        run = run_cli_json("crit4", ["sharpness", "--k", "2", "--json"], capsys)
        elapsed = time.monotonic() - started
        s = run["summary"]
        assert run["code"] == 0
        assert s["verdict"] == "infeasible" and s["certified_infeasible"]
        assert s["min_degree"] == 3 and s["threshold"] == 4 and s["vertices"] == 10
        assert elapsed < 10.0
        return f"10-vertex construction certified unpackable at delta 3 = threshold - 1, {elapsed:.1f}s"

    report(4, "sharpness construction", check)


def test_criterion_5_oracle_cross_validation():
    def check():
        cases = [
            ([4], "conjecture"), ([6], "theorem"), ([4, 4], "conjecture"),
            ([4, 6], "conjecture"), ([6, 6], "theorem"),
        ]
        agree = feasible = 0
        for i in range(300):
            rng = random.Random(2000 + i)
            side = rng.randint(2, 6)
            delta = rng.randint(0, side)
            fill = rng.choice([0.1, 0.3, 0.5])
            g = gen_random_mindeg(side, side, delta, seed=2000 + i, fill_p=fill)
            lengths, mode = cases[i % len(cases)]
            verdict = brute_force_pack(g, make_profile(lengths, mode)).status == "packed"
            independent = partition_feasible(g.x_size, g.y_size, list(g.edges()), lengths)
            assert verdict == independent, f"instance {i}: oracle {verdict} vs partition {independent}"
            agree += 1
            feasible += verdict
        assert agree == 300
        return f"300/300 verdicts agree ({feasible} feasible, {300 - feasible} infeasible)"

    report(5, "oracle cross-validation", check)


def test_criterion_6_property_suite(monkeypatch):
    def check():
        profile = make_profile([6, 6])
        rng = random.Random(987654)

        base = []
        for i in range(60):
            g = gen_random_mindeg(6, 6, 5, seed=40_000 + i)
            result = pack(g, profile, seed=i)
            assert result.status == "packed"
            base.append((g, [list(c) for c in result.packing]))

        # (a) 6000 mutated packings, 2000 per class, every one rejected
        mutation_checks = 0
        per_class = {"substitute": 0, "truncate": 0, "disjoint": 0}
        while mutation_checks < 6000:
            g, cycles = base[rng.randrange(len(base))]
            mutated = [list(c) for c in cycles]
            cls = ("substitute", "truncate", "disjoint")[mutation_checks % 3]
            if cls == "substitute":
                c = mutated[rng.randrange(2)]
                pos = rng.randrange(len(c))
                src = (pos + 1 + rng.randrange(len(c) - 1)) % len(c)
                c[pos] = c[src]
                expect = "simplicity"
            elif cls == "truncate":
                idx = rng.randrange(2)
                mutated[idx] = mutated[idx][:2]
                expect = "length"
            else:
                mutated[1][rng.randrange(len(mutated[1]))] = mutated[0][rng.randrange(len(mutated[0]))]
                expect = "disjointness"
            report_ = verify_packing(g, profile, mutated)
            assert not report_.ok, (cls, mutated)
            assert any(c.name == expect and not c.passed for c in report_.checks), (cls, report_.to_dict())
            per_class[cls] += 1
            mutation_checks += 1
        assert all(v == 2000 for v in per_class.values())

        # (b) 3000 potential-monotonicity checks over logged move traces
        trace = []
        original_record = packer._record

        def logged_record(st, counts, before, moves):
            trace.append((before, st.potential()))
            return original_record(st, counts, before, moves)

        trace_checks = 0
        seed_stream = 0
        with monkeypatch.context() as mp:
            mp.setattr(packer, "_record", logged_record)
            while trace_checks < 3000:
                g = gen_random_mindeg(6, 6, rng.randint(3, 5), seed=50_000 + seed_stream)
                trace.clear()
                pack(g, profile, seed=seed_stream, oracle_limit=0)  # the engine, not the oracle
                seed_stream += 1
                for before, after in trace:
                    assert after > before, (before, after)
                    trace_checks += 1
                    if trace_checks == 3000:
                        break
        assert trace_checks == 3000

        # (c) 1000 per-cycle parity checks on accepted packings
        parity_checks = 0
        seed_stream = 0
        while parity_checks < 1000:
            g = gen_random_mindeg(6, 6, 5, seed=60_000 + seed_stream)
            result = pack(g, profile, seed=seed_stream)
            seed_stream += 1
            if result.packing is None:
                continue
            assert verify_packing(g, profile, result.packing).ok
            for cyc in result.packing:
                assert len(cyc) % 2 == 0
                parity_checks += 1
                if parity_checks == 1000:
                    break
        total = mutation_checks + trace_checks + parity_checks
        assert total == 10_000
        return "10000 checks: 6000 mutations all caught, 3000 monotone moves, 1000 even cycles"

    report(6, "randomized property suite", check)


def test_criterion_7_determinism(capsys):
    def check():
        first2 = run_cli_json("crit2", CRIT2_ARGS, capsys)["summary"]
        first3 = run_cli_json("crit3", CRIT3_ARGS, capsys)["summary"]
        again2 = run_cli_json("crit2_repeat", CRIT2_ARGS, capsys)["summary"]
        again3 = run_cli_json("crit3_repeat", CRIT3_ARGS, capsys)["summary"]
        assert canonical_without_timing(first2) == canonical_without_timing(again2)
        assert canonical_without_timing(first3) == canonical_without_timing(again3)
        return "criteria 2 and 3 summaries byte-identical modulo the timing key"

    report(7, "seeded determinism", check)
