import copy
import gc
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from cyclepack import (
    GraphError,
    OracleLimitError,
    brute_force_pack,
    gen_complete,
    gen_random_mindeg,
    gen_sharpness,
    make_profile,
    parse_graph,
    serialize_graph,
    verify_packing,
)
from cyclepack import cli, harness
from cyclepack.cli import main
from cyclepack.graphs import graph_of_rows
from cyclepack.harness import (
    ConfigError,
    run_exhaustive,
    run_sharpness,
    run_trials,
)
from cyclepack.packer import INFEASIBLE, MOVE_KINDS, UNKNOWN, PackResult, mix_seed


def summary_without_timing(summary: dict) -> str:
    clone = copy.deepcopy(summary)
    clone.pop("timing", None)
    return json.dumps(clone, sort_keys=True)


class TestRunTrials:
    def test_dense_regime_all_pack(self):
        s = run_trials(side=6, profile=make_profile([6, 6]), delta=5, trials=25, seed=7)
        agg = s["aggregates"]
        assert agg["success_rate"] == 1.0
        assert agg["theorem_violations"] == 0
        assert sum(agg["outcomes"].values()) == 25
        for row in s["trials"]:
            assert row["outcome"] == "packed"
            assert row["verified"] is True

    def test_forced_complete_graph(self):
        s = run_trials(side=3, profile=make_profile([6]), delta=3, trials=5, seed=1)
        assert s["aggregates"]["success_rate"] == 1.0

    def test_below_threshold_mixed_outcomes_allowed(self):
        s = run_trials(side=5, profile=make_profile([4, 6], mode="conjecture"), delta=1, trials=20,
                       seed=3, fill_p=0.15)
        agg = s["aggregates"]
        assert sum(agg["outcomes"].values()) == 20
        assert agg["theorem_violations"] == 0  # no guarantee claimed, but also no false proofs

    def test_rows_record_verified_not_the_report(self):
        rows = run_trials(side=6, profile=make_profile([6, 6]), delta=2, trials=12, seed=3, fill_p=0.2)["trials"]
        assert {row["outcome"] for row in rows} == {"packed", "infeasible"}
        for row in rows:
            assert "verification" not in row
            assert row["verified"] == (row["outcome"] == "packed")

    def test_certified_infeasible_in_guaranteed_regime_is_a_violation(self, monkeypatch, capsys):
        # the counterexample contract: each such row makes trials exit 1, and
        # gen random with the row's seed writes exactly the host it was drawn on
        hosts = {}

        def infeasible(g, profile, *, seed, oracle_limit):
            hosts[seed] = g
            return PackResult(INFEASIBLE, oracle_used=True)

        monkeypatch.setattr(harness, "pack", infeasible)
        s = run_trials(side=6, profile=make_profile([6, 6]), delta=5, trials=4, seed=1)
        assert all(row["hypotheses_hold"] for row in s["trials"])
        assert s["aggregates"]["theorem_violations"] == 4
        assert main(["trials", "--side", "6", "--delta", "5", "--profile", "6,6",
                     "--trials", "4", "--seed", "1", "--json"]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["aggregates"]["theorem_violations"] == 4
        for row in summary["trials"]:
            assert row["theorem_violation"]
            assert main(["gen", "random", "--x", "6", "--y", "6", "--delta", "5", "--seed", str(row["seed"]),
                         "--fill-p", str(summary["config"]["fill_p"]), "--out", "-"]) == 0
            assert capsys.readouterr().out == serialize_graph(hosts[row["seed"]])

    def test_host_failing_the_hypotheses_is_not_a_violation(self, monkeypatch, capsys):
        # a generator fault leaves every host below delta: a certified "infeasible" on it refutes nothing
        def below(side, _y, delta, seed, _fill_p):
            return gen_random_mindeg(side, side, delta - 1, seed, fill_p=0.0)

        monkeypatch.setattr(harness, "gen_random_mindeg", below)
        monkeypatch.setattr(harness, "pack", lambda *a, **kw: PackResult(INFEASIBLE, oracle_used=True))
        assert main(["trials", "--side", "4", "--profile", "4,4", "--mode", "conjecture",
                     "--trials", "5", "--seed", "5", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["trials"]
        assert len(rows) == 5
        assert not any(row["hypotheses_hold"] or row["theorem_violation"] for row in rows)

    @pytest.mark.parametrize("side, lengths, trials", [(4, [4, 4], 25), (5, [4, 6], 200)])
    def test_conjecture_campaign_finds_no_violation(self, side, lengths, trials):
        # every host meets the hypotheses and lies within the oracle limit, so a
        # violation here would refute the relaxed-mode guarantee
        profile = make_profile(lengths, mode="conjecture")
        s = run_trials(side=side, profile=profile, trials=trials, seed=5)
        assert s["config"]["delta"] == profile.threshold
        assert all(row["hypotheses_hold"] for row in s["trials"])
        assert s["aggregates"]["hypotheses_hold"] == trials
        assert s["aggregates"]["theorem_violations"] == 0
        assert s["aggregates"]["outcomes"] == {"packed": trials}

    def test_campaign_below_balance_counts_no_guaranteed_row(self, capsys):
        # side 5 < n/2 = 6: every host is a pigeonhole "infeasible" and none
        # meets the hypotheses, so its 0 violations refute nothing
        assert main(["trials", "--side", "5", "--profile", "6,6", "--trials", "50", "--seed", "1", "--json"]) == 0
        agg = json.loads(capsys.readouterr().out)["aggregates"]
        assert agg["outcomes"] == {"infeasible": 50}
        assert agg["hypotheses_hold"] == 0 and agg["theorem_violations"] == 0

    def test_same_seed_identical_summary(self):
        config = dict(side=6, profile=make_profile([6, 6]), delta=5, trials=15, seed=42)
        a = run_trials(**config)
        b = run_trials(**config)
        assert summary_without_timing(a) == summary_without_timing(b)

    def test_relaxed_threshold_window_pinned(self):
        # recorded before double exchange built its departure lists: a change
        # to the order in which swap patterns are tried moves these; the
        # packings of two rows moved again when double exchange took its
        # cycles from the move loop instead of an exhaustive search.
        # Re-recorded with the oracle off once the oracle alone decided within
        # its limit: the 8 rows the oracle packed after a stall now restart
        # (8 restarts, all 40 packed), which adds their moves and packings.
        # Re-recorded when its delta-6 hosts became the complement of 3
        # matching rounds: 13 restarts, all 40 packed. Re-recorded when an
        # exact window re-pack replaced double exchange at the stall: it fires
        # at any stage, and the restarts fall 13 -> 1. Re-recorded when a
        # stage began from the remainder of the last path: extend 1,718 -> 795,
        # and the one restart is gone. Re-recorded when the engine became
        # extend, close and window alone: one row restarts again (0 -> 1), and
        # the packings of that row moved
        s = run_trials(side=9, profile=make_profile([4, 4, 4, 6], mode="conjecture"), trials=40,
                       seed=3, fill_p=0.05, oracle_limit=0)
        assert s["aggregates"]["move_histogram"] == {"close": 143, "extend": 809, "window": 20}
        assert s["aggregates"]["outcomes"] == {"packed": 40}
        assert sum(row["restarts"] for row in s["trials"]) == 1
        outcomes = json.dumps([[row["outcome"], row["packing"]] for row in s["trials"]])
        assert hashlib.sha256(outcomes.encode()).hexdigest() == (
            "d62156b891dc01cb21008e834d59f0c4020d9fe7d4d8df810e40b5af766c6fbe"
        )

    @pytest.mark.parametrize("config, outcomes, moves, restarts, digest", [
        # the window packs the 74 hosts that ended unknown before it replaced
        # double exchange, and restarts fall 1,249 -> 55. Since a stage
        # begins from the remainder of the last path: restarts 55 -> 58.
        # Since the engine is extend, close and window alone: restarts
        # 58 -> 71, and the window fires 249 -> 273 times
        (dict(side=9, delta=4, profile=make_profile([4, 4, 4, 6], mode="conjecture"), fill_p=0.0, trials=300,
              seed=3072, oracle_limit=0),
         {"packed": 300},
         {"close": 1140, "extend": 7838, "window": 273}, 71,
         "d6456d1e8aa84ed574d12d37d65b533dcf9b79034a613a35161c4c970b1394ee"),
        # sparse hosts below the threshold; the window fires 884 times here
        # without packing another host
        (dict(side=8, delta=2, profile=make_profile([4] * 4, mode="conjecture"), fill_p=0.1, trials=400,
              seed=1024, oracle_limit=0),
         {"packed": 12, "unknown": 388},
         {"close": 7550, "extend": 60859, "window": 884}, 3104,
         "dd8b0839522775db82c9ad0d0c7bf67927d75032d029f56ff50b9e86d6b1f289"),
    ], ids=["exchange", "shrink"])
    def test_oracle_free_replace_classes_pinned(self, config, outcomes, moves, restarts, digest):
        # two classes of the CI workflow, named by the moves they were first
        # chosen to exercise (both since deleted): with the oracle off every
        # verdict is the engine's, and each window goes through replace_cycle,
        # so a change to how it keeps the pool moves these
        s = run_trials(**config)
        agg = s["aggregates"]
        assert agg["outcomes"] == outcomes
        assert agg["move_histogram"] == moves
        assert sum(row["restarts"] for row in s["trials"]) == restarts
        rows = json.dumps([[row["outcome"], row["packing"], row["restarts"]] for row in s["trials"]])
        assert hashlib.sha256(rows.encode()).hexdigest() == digest

    def test_desk_campaign_outcomes_pinned(self):
        # four desk-scale configs, two guaranteed and two sparse below the
        # threshold, at campaign seed 1024; recorded while the engine still ran
        # before the oracle within its limit. Handing those hosts to the oracle
        # alone moved no row's outcome or hypotheses_hold
        configs = [
            (dict(side=6, delta=5, fill_p=0.5, profile=make_profile([6, 6]), trials=200), {"packed": 200}),
            (dict(side=9, delta=5, fill_p=0.5, profile=make_profile([6, 6]), trials=1000), {"packed": 1000}),
            (dict(side=8, delta=2, fill_p=0.1, profile=make_profile([4] * 4, "conjecture"), trials=400),
             {"infeasible": 388, "packed": 12}),
            (dict(side=9, delta=3, fill_p=0.05, profile=make_profile([6, 6, 6]), trials=200),
             {"infeasible": 70, "packed": 130}),
        ]
        digest = hashlib.sha256()
        for config, outcomes in configs:
            s = run_trials(seed=1024, **config)
            assert s["aggregates"]["outcomes"] == outcomes
            assert s["aggregates"]["oracle_fallbacks"] == config["trials"]
            digest.update(json.dumps([[row["outcome"], row["hypotheses_hold"]] for row in s["trials"]]).encode())
        assert digest.hexdigest() == "daf849bb36a5dffbf9e9013f949e936705ad99660d07d1f5db93627f019d64bb"

    def test_guaranteed_regime_summaries_pinned(self):
        # recorded before the detour scan dropped the alternating walks of a
        # maximum matching; at the threshold the engine never reached them.
        # Re-recorded when double exchange took its cycles from the move loop:
        # 8 of 1,300 packings moved, each where it fired; no count or outcome did.
        # Re-recorded when the aggregates gained "hypotheses_hold", the only
        # key that moved (it reads 200, 1000 and 100), and again when they
        # gained "guaranteed_unknown", the only key that moved (it reads 0).
        # Re-recorded when the oracle alone decided within its limit: the
        # side-9 rows carry the oracle's packings, no moves and
        # oracle_fallback true; no row's outcome or hypotheses_hold moved.
        # Re-recorded when the aggregates gained "guaranteed_restarted" (it
        # reads 0 on all three) together with the hosts past half density
        # becoming complements of matching rounds: every host still packs
        # with no restart. Re-recorded when an exact window re-pack replaced
        # double exchange: the move key is renamed, and the window fires on
        # exactly the rows and as often as double exchange did (47 and 26
        # times), whose packings alone moved. Re-recorded when a stage began
        # from the remainder of the last path: packings and move counts moved
        # (extend 25,198 -> 7,705 and 27,798 -> 6,436, window 47 -> 35 and
        # 26 -> 14); every row still packs with no restart. Re-recorded when
        # the engine became extend, close and window alone: two move keys are
        # gone, and on the three side-18 rows where exchange fired the window
        # fires instead (35 -> 38), whose packings alone moved
        configs = [
            dict(side=18, profile=make_profile([6] * 6), fill_p=0.0, oracle_limit=0, trials=200, seed=3),
            dict(side=9, profile=make_profile([6, 6]), delta=5, trials=1000, seed=7),
            dict(side=30, profile=make_profile([10, 8] + [6] * 7), fill_p=0.02, trials=100, seed=5),
        ]
        digest = hashlib.sha256()
        for config in configs:
            s = run_trials(**config)
            assert s["aggregates"]["success_rate"] == 1.0
            assert s["aggregates"]["guaranteed_restarted"] == 0
            digest.update(summary_without_timing(s).encode())
        assert digest.hexdigest() == "bfd1b963d94d1bf84371565c48c2267c65c495dfdf639e14f78cf8ccc1a60822"

    def test_conjecture_gap_class_pinned(self):
        # the 4-cycle endgame gap: every host meets the hypotheses, so a
        # packing exists; a regression shows as an unknown row or more
        # restarted rows. Re-recorded when these delta-7 hosts became the
        # complement of 5 matching rounds: the unknown trials were 22, 27, 83
        # and 155, and 181 rows took 446 restarts. Re-recorded when an exact
        # window re-pack replaced double exchange at the stall: the gap closed
        # from 296 packed + 4 unknown (trials 9, 104, 224 and 288) and 200
        # rows taking 506 restarts. Re-recorded when a stage began from the
        # remainder of the last path: 12 rows taking 12 restarts before.
        # Re-recorded when the engine became extend, close and window alone:
        # 11 rows taking 11 restarts before
        s = run_trials(side=12, profile=make_profile([4] * 6, mode="conjecture"), trials=300, seed=5, fill_p=0)
        agg = s["aggregates"]
        assert agg["outcomes"] == {"packed": 300}
        assert agg["guaranteed_unknown"] == 0
        assert agg["guaranteed_restarted"] == 12
        restarts = [row["restarts"] for row in s["trials"]]
        assert (sum(r > 0 for r in restarts), sum(restarts)) == (12, 12)

    def test_guaranteed_unknown_counts_only_rows_in_the_regime(self, monkeypatch, capsys):
        # every row ends unknown after a restart; only those whose host meets
        # the hypotheses are engine gaps, and only they count as restarted
        monkeypatch.setattr(harness, "pack", lambda *a, **kw: PackResult(UNKNOWN, restarts=2))
        agg = run_trials(side=6, profile=make_profile([6, 6]), delta=4, fill_p=0.8, trials=30, seed=1)["aggregates"]
        assert agg["outcomes"] == {"unknown": 30}
        assert agg["guaranteed_unknown"] == agg["guaranteed_restarted"] == agg["hypotheses_hold"] == 20
        assert main(["trials", "--side", "6", "--delta", "4", "--fill-p", "0.8", "--profile", "6,6",
                     "--trials", "30", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  guaranteed unknown 20" in lines and "  guaranteed restarted 20" in lines

    def test_delta_defaults_to_threshold(self):
        s = run_trials(side=6, profile=make_profile([6, 6]), trials=3, seed=0)
        assert s["config"]["delta"] == 5

    def test_config_validation(self):
        # the side and delta are the generator's to check; the trial count is run_trials' own
        with pytest.raises(GraphError, match="delta 3 infeasible for sides 2\\+2"):
            run_trials(side=2, profile=make_profile([6]), delta=3, trials=1, seed=0)
        with pytest.raises(ConfigError, match="trials"):
            run_trials(side=3, profile=make_profile([6]), trials=0, seed=0)
        with pytest.raises(GraphError, match="sides must be nonempty"):
            run_trials(side=0, profile=make_profile([6]), trials=1, seed=0)


class TestRunExhaustive:
    def test_side3_only_complete_graph_qualifies(self):
        s = run_exhaustive(3, make_profile([6]))
        assert s["space_size"] == 512
        assert s["hypothesis_satisfying"] == 1
        assert s["packed"] == 1
        assert s["violations"] == []

    def test_side4_eight_cycle_profile(self):
        s = run_exhaustive(4, make_profile([8]))
        assert s["config"]["threshold"] == 4
        assert s["hypothesis_satisfying"] == s["packed"] == 1  # only K_{4,4} has min degree 4
        assert s["violations"] == []

    def test_side_cap_enforced(self):
        with pytest.raises(ConfigError):
            run_exhaustive(6, make_profile([6]))

    @pytest.mark.parametrize(
        "side, oracle_limit, message", [(0, 18, "side must be >= 1"), (4, 7, "oracle limit")]
    )
    def test_side_rejected(self, side, oracle_limit, message):
        with pytest.raises(ConfigError, match=message):
            run_exhaustive(side, make_profile([6]), oracle_limit=oracle_limit)

    def test_balance_failure_short_circuits(self):
        s = run_exhaustive(2, make_profile([6]))
        assert not s["balance_hypothesis_ok"]
        assert s["hypothesis_satisfying"] == 0 and s["violations"] == []

    @staticmethod
    def min_degree_histogram(side):
        """Labelled graphs on side + side vertices by minimum degree, counted over
        every tuple of X rows."""
        hist = Counter()
        for rows in itertools.product(range(1 << side), repeat=side):
            cols = [sum(row >> j & 1 for row in rows) for j in range(side)]
            hist[min(min(row.bit_count() for row in rows), min(cols))] += 1
        return hist

    def test_weights_match_labelled_enumeration(self):
        profiles = [
            make_profile([6]),
            make_profile([8]),
            make_profile([4], mode="conjecture"),
            make_profile([4, 4], mode="conjecture"),
        ]
        for side in (3, 4):
            hist = self.min_degree_histogram(side)
            assert sum(hist.values()) == 1 << (side * side)
            for profile in profiles:
                balanced = side >= profile.n // 2
                want = sum(c for d, c in hist.items() if d >= profile.threshold) if balanced else 0
                s = run_exhaustive(side, profile)
                assert s["hypothesis_satisfying"] == want, (side, profile)
                assert s["packed"] == want and s["violations"] == []

    def test_one_decision_per_row_multiset(self, monkeypatch):
        # each kept multiset is decided once: by the oracle, or by the last packing it found
        calls, hits = [], []
        real_oracle, real_fits = harness.brute_force_pack, harness._fits

        def counted(g, profile, oracle_limit):
            calls.append(g)
            return real_oracle(g, profile, oracle_limit)

        def fits(certificate, rows):
            hit = real_fits(certificate, rows)
            hits.append(hit)
            return hit

        monkeypatch.setattr(harness, "brute_force_pack", counted)
        monkeypatch.setattr(harness, "_fits", fits)
        for side, oracle_calls, reused, labelled in ((4, 6, 10, 209), (5, 425, 3209, 304186)):
            calls.clear()
            hits.clear()
            s = run_exhaustive(side, make_profile([6]))
            assert (len(calls), sum(hits)) == (oracle_calls, reused)
            assert s["hypothesis_satisfying"] == s["packed"] == labelled
            assert s["violations"] == []

    @pytest.mark.parametrize(
        "side, profile",
        [(4, make_profile([6])), (5, make_profile([6])), (5, make_profile([4, 4], mode="conjecture"))],
    )
    def test_certificate_agrees_with_verifier(self, monkeypatch, side, profile):
        # the mask test says yes exactly when the last oracle packing verifies on the new host
        last, hits = [], []
        real_oracle, real_fits = harness.brute_force_pack, harness._fits

        def oracle(g, profile, oracle_limit):
            result = real_oracle(g, profile, oracle_limit)
            last[:] = [result.packing]
            return result

        def fits(certificate, rows):
            hit = real_fits(certificate, rows)
            assert verify_packing(graph_of_rows(side, side, rows), profile, last[0]).ok == hit, rows
            hits.append(hit)
            return hit

        monkeypatch.setattr(harness, "brute_force_pack", oracle)
        monkeypatch.setattr(harness, "_fits", fits)
        s = run_exhaustive(side, profile)
        assert any(hits) and s["packed"] == s["hypothesis_satisfying"] and s["violations"] == []

    def test_violation_entry_carries_weight(self, monkeypatch):
        # the oracle never packs, so no certificate exists and every multiset reaches it
        monkeypatch.setattr(harness, "brute_force_pack", lambda *a: PackResult(INFEASIBLE, oracle_used=True))
        side, target = 4, [11, 13, 15, 15]  # two equal rows: 4!/2! = 12 labelled graphs
        s = run_exhaustive(side, make_profile([6]))
        (v,) = [v for v in s["violations"] if v["rows"] == target]
        assert v["weight"] == 12
        g = parse_graph(v["graph"])
        assert sorted(g.adjacency[x] >> side for x in range(side)) == target
        assert s["packed"] == 0
        assert sum(v["weight"] for v in s["violations"]) == s["hypothesis_satisfying"] == 209

    def test_summaries_pinned(self):
        # recorded while multisets were enumerated by a recursive column-pruned descent
        configs = [
            (4, make_profile([6]), False),
            (5, make_profile([6]), False),
            (5, make_profile([4, 4], mode="conjecture"), False),
            (4, make_profile([4], mode="conjecture"), False),
            (6, make_profile([6, 6]), True),
        ]
        digest = hashlib.sha256()
        for side, profile, force in configs:
            digest.update(summary_without_timing(run_exhaustive(side, profile, force=force)).encode())
        assert digest.hexdigest() == "a271050e8c7996ed0e444cecac7069db6ad6a4e600bfabcab27d088b133d8420"

    def test_violations_keep_multiset_order(self, monkeypatch):
        # every multiset is a violation, so the list is the enumeration order itself
        monkeypatch.setattr(harness, "brute_force_pack", lambda *a: PackResult(INFEASIBLE, oracle_used=True))
        side = 4
        s = run_exhaustive(side, make_profile([6]))
        assert [(v["rows"], v["weight"]) for v in s["violations"]] == [
            ([7, 11, 13, 14], 24), ([7, 11, 13, 15], 24), ([7, 11, 14, 15], 24), ([7, 11, 15, 15], 12),
            ([7, 13, 14, 15], 24), ([7, 13, 15, 15], 12), ([7, 14, 15, 15], 12), ([7, 15, 15, 15], 4),
            ([11, 13, 14, 15], 24), ([11, 13, 15, 15], 12), ([11, 14, 15, 15], 12), ([11, 15, 15, 15], 4),
            ([13, 14, 15, 15], 12), ([13, 15, 15, 15], 4), ([14, 15, 15, 15], 4), ([15, 15, 15, 15], 1),
        ]
        assert s["packed"] == 0 and s["hypothesis_satisfying"] == 209
        for v in s["violations"]:
            g = parse_graph(v["graph"])
            assert [g.adjacency[x] >> side for x in range(side)] == v["rows"]

    def test_no_reference_cycle_left(self):
        gc.collect()
        gc.disable()
        try:
            assert run_exhaustive(3, make_profile([6]))["packed"] == 1
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRunSharpness:
    def test_k2_certified(self):
        s = run_sharpness(2)
        assert s["ok"] and s["verdict"] == "infeasible"
        assert s["min_degree"] == 3 and s["threshold"] == 4
        assert s["vertices"] == 10

    def test_oracle_limit_respected(self):
        with pytest.raises(OracleLimitError):
            run_sharpness(6)  # 26 vertices > default limit 18

    def test_k8_certified_above_default_limit(self):
        # 34 vertices: about 0.03 s with the twin-keyed memo and one twin per
        # class in the cycle enumeration, 0.3 s with the memo alone, 25 s
        # with neither
        s = run_sharpness(8, 34)
        assert s["ok"] and s["verdict"] == "infeasible"
        assert s["min_degree"] == 9 and s["threshold"] == 10
        assert s["vertices"] == 34

    def test_k10_certified_above_default_limit(self):
        # 42 vertices: about 0.2 s (3 s with the twin-keyed memo alone)
        s = run_sharpness(10, 42)
        assert s["ok"] and s["verdict"] == "infeasible"
        assert s["min_degree"] == 11 and s["threshold"] == 12
        assert s["vertices"] == 42


class TestCli:
    def test_solve_packed_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "k33.graph"
        assert main(["gen", "complete", "--m", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        code = main(["solve", "--graph", str(path), "--profile", "6", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["status"] == "packed" and out["report"]["ok"]
        assert out["hypotheses"]["ok"]
        assert not any(c["name"].startswith("hypothesis_") for c in out["report"]["checks"])
        assert set(out["moves"]) == {"extend", "close", "window"}

    def test_solve_infeasible_json_has_no_report(self, tmp_path, capsys):
        path = tmp_path / "sharp.graph"
        main(["gen", "sharpness", "--k", "2", "--out", str(path)])
        capsys.readouterr()
        code = main(["solve", "--graph", str(path), "--profile", "4,6", "--mode", "conjecture", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and out["status"] == "infeasible" and out["report"] is None
        failed = {c["name"] for c in out["hypotheses"]["checks"] if not c["pass"]}
        assert failed == {"hypothesis_min_degree"} and not out["hypotheses"]["ok"]

    def test_solve_text_prints_both_reports(self, tmp_path, capsys):
        path = tmp_path / "k33.graph"
        main(["gen", "complete", "--m", "3", "--out", str(path)])
        capsys.readouterr()
        assert main(["solve", "--graph", str(path), "--profile", "6"]) == 0
        text = capsys.readouterr().out
        assert "[PASS] disjointness" in text and "[PASS] hypothesis_min_degree" in text

    def test_solve_sharpness_exit_two_order_insensitive(self, tmp_path, capsys):
        # a certified-infeasible instance file solves to exit 2, whatever the profile order
        path = tmp_path / "sharp.graph"
        main(["gen", "sharpness", "--k", "2", "--out", str(path)])
        capsys.readouterr()
        g, profile = gen_sharpness(2)
        assert path.read_text() == serialize_graph(g)
        for lengths in (profile.lengths, profile.lengths[::-1]):
            code = main(["solve", "--graph", str(path), "--profile", ",".join(map(str, lengths)),
                         "--mode", "conjecture"])
            assert code == 2
        capsys.readouterr()

    def test_solve_malformed_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("p bip 2 2 1\ne 0 1\n")
        assert main(["solve", "--graph", str(path), "--profile", "6"]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        # text mode would read CR as a line end and solve this K3,3
        (b"p bip 3 3 9\r" + b"".join(b"e %d %d\r" % (x, y) for x in range(3) for y in range(3, 6)),
         "error: line 1: malformed header"),
        (b"c caf\xc3\xa9\np bip 1 1 0\n", "error: line 0: not ASCII"),
    ], ids=["cr-only", "non-ascii"])
    def test_solve_reads_the_file_as_parse_graph_does(self, tmp_path, capsys, content, message):
        path = tmp_path / "odd.graph"
        path.write_bytes(content)
        with pytest.raises(GraphError) as parsed:
            parse_graph(content)
        assert main(["solve", "--graph", str(path), "--profile", "6", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {parsed.value}\n" and captured.err.startswith(message)
        assert not captured.out

    def test_solve_missing_file_exit_one(self, capsys):
        assert main(["solve", "--graph", "/nonexistent.graph", "--profile", "6"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [["--budget", "-1"], ["--budget", "-3"]])
    def test_solve_negative_budget_exit_one(self, tmp_path, capsys, flag):
        path = tmp_path / "k33.graph"
        main(["gen", "complete", "--m", "3", "--out", str(path)])
        assert main(["solve", "--graph", str(path), "--profile", "6", "--json"] + flag) == 1
        assert "must be >= 0" in capsys.readouterr().err

    def test_parser_reused_after_rejected_call(self, tmp_path, capsys):
        path = tmp_path / "k33.graph"
        main(["gen", "complete", "--m", "3", "--out", str(path)])
        solve = ["solve", "--graph", str(path), "--profile", "6", "--json"]
        capsys.readouterr()
        cli.build_parser.cache_clear()
        assert main(solve) == 0
        alone = capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["solve", "--graph", str(path), "--profile", "6", "--budget", "x"])
        capsys.readouterr()
        assert main(solve) == 0
        assert capsys.readouterr().out == alone

    def test_parser_defaults_do_not_leak_between_calls(self, tmp_path, capsys):
        # a sparse 22-vertex host past the oracle limit whose first attempt
        # stalls at the first stage, where no window exists: the restart seed
        # shows in the output (host seed 12 no longer restarts since the window)
        path = tmp_path / "sparse.graph"
        main(["gen", "random", "--x", "11", "--y", "11", "--delta", "2", "--seed", "222",
              "--fill-p", "0.05", "--out", str(path)])
        solve = ["solve", "--graph", str(path), "--profile", "6,6", "--json"]
        capsys.readouterr()
        outputs = {}
        for seed in ("0", "5"):
            assert main(solve + ["--seed", seed]) == 0
            outputs[seed] = capsys.readouterr().out
        assert outputs["0"] != outputs["5"]
        assert main(solve) == 0  # right after --seed 5
        assert capsys.readouterr().out == outputs["0"]

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = "import cyclepack.cli as c; print(c.build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert done.stdout.strip() == "0"

    def test_gen_to_stdout_is_only_the_graph(self, capsys):
        assert main(["gen", "complete", "--m", "3", "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert parse_graph(captured.out) == gen_complete(3)
        assert "wrote 6 vertices" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "random", "--x", "4", "--y", "4", "--delta", "2", "--seed", "1",
             "--fill-p", "1.5", "--out", "-"],
            ["trials", "--side", "6", "--profile", "6", "--trials", "2", "--seed", "1",
             "--fill-p", "nan", "--json"],
        ],
    )
    def test_fill_p_outside_unit_interval_exit_one(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "not a probability" in captured.err and captured.out == ""

    def test_gen_random_negative_side_names_the_sides(self, capsys):
        # delta 0 fits under min(-1, 5) only by accident; the sides are what is wrong
        assert main(["gen", "random", "--x", "-1", "--y", "5", "--delta", "0", "--seed", "1", "--out", "-"]) == 1
        captured = capsys.readouterr()
        assert "sides must be nonempty" in captured.err and captured.out == ""

    def test_gen_random_negative_seed_exit_one(self, capsys):
        # random.Random would seed -3 as 3 and write the --seed 3 host
        assert main(["gen", "random", "--x", "6", "--y", "6", "--delta", "3", "--seed", "-3", "--out", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -3\n" and captured.out == ""

    def test_solve_text_prints_diagnostics(self, tmp_path, capsys):
        # 3 + 60 vertices cannot hold two 6-cycles: the side count certifies it, and says why
        path = tmp_path / "narrow.graph"
        main(["gen", "random", "--x", "3", "--y", "60", "--delta", "2", "--seed", "1", "--out", str(path)])
        capsys.readouterr()
        assert main(["solve", "--graph", str(path), "--profile", "6,6"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["status: infeasible", "  profile needs 6 vertices on each side, host sides have 3 and 60"]

    def test_theorem_mode_rejects_conjecture_profile(self, tmp_path, capsys):
        path = tmp_path / "k33.graph"
        main(["gen", "complete", "--m", "3", "--out", str(path)])
        assert main(["solve", "--graph", str(path), "--profile", "4,6"]) == 1
        capsys.readouterr()

    def test_trials_json_rows(self, capsys):
        code = main([
            "trials", "--side", "6", "--delta", "5", "--profile", "6,6",
            "--trials", "8", "--seed", "7", "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["aggregates"]["success_rate"] == 1.0
        assert set(summary["aggregates"]["move_histogram"]) == {"extend", "close", "window"}
        assert [row["trial"] for row in summary["trials"]] == list(range(8))
        assert len(summary["timing"]["per_trial_s"]) == 8
        for row in summary["trials"]:
            assert row["seed"] == mix_seed(7, row["trial"])
            assert row["outcome"] == "packed" and row["verified"] is True
            # 12 vertices are within the oracle limit, so the oracle decides
            assert row["oracle_fallback"] is True and row["theorem_violation"] is False
            assert set(row["moves"]) == set(MOVE_KINDS)

    def test_trials_non_integer_profile_exit_one(self, capsys):
        assert main(["trials", "--side", "6", "--profile", "6,x", "--trials", "1", "--seed", "1"]) == 1
        assert "not a comma-separated integer list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["trials", "--side", "1_0", "--profile", "6", "--trials", "1", "--seed", "1"],
             2, "argument --side: invalid integer value: '1_0'"),
            (["trials", "--side", "6", "--profile", "6", "--trials", "1", "--seed", "٣"],
             2, "argument --seed: invalid integer value: '٣'"),
            (["gen", "random", "--x", "+3", "--y", "3", "--delta", "1", "--seed", "1", "--out", "-"],
             2, "argument --x: invalid integer value: '+3'"),
            (["exhaustive", "--side", "3", "--profile", "0_6"], 1, "not a comma-separated integer list"),
            (["exhaustive", "--side", "3", "--profile", "+6"], 1, "not a comma-separated integer list"),
            (["exhaustive", "--side", "3", "--profile", "٦"], 1, "not a comma-separated integer list"),
            (["trials", "--side", "6", "--profile", "6", "--trials", "1", "--seed", "1", "--fill-p", "0_0.5"],
             2, "argument --fill-p: invalid float value: '0_0.5'"),
            (["trials", "--side", "6", "--profile", "6", "--trials", "1", "--seed", "1", "--fill-p", "٠.٥"],
             2, "argument --fill-p: invalid float value: '٠.٥'"),
            (["gen", "random", "--x", "6", "--y", "6", "--delta", "3", "--seed", "1", "--fill-p", "0_0.5",
              "--out", "-"], 2, "argument --fill-p: invalid float value: '0_0.5'"),
            (["gen", "random", "--x", "6", "--y", "6", "--delta", "3", "--seed", "1", "--fill-p", "٠.٥",
              "--out", "-"], 2, "argument --fill-p: invalid float value: '٠.٥'"),
        ],
        ids=["side-underscore", "seed-arabic-indic", "x-plus", "profile-underscore", "profile-plus",
             "profile-arabic-indic", "trials-fill-underscore", "trials-fill-arabic-indic", "gen-fill-underscore",
             "gen-fill-arabic-indic"],
    )
    def test_integers_are_plain_decimals(self, capsys, argv, code, message):
        # int() and float() alone read underscores and non-ASCII digits, int() a plus sign too;
        # a bad option stops argparse (exit 2), a bad profile entry is an input error (exit 1)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert got == code and message in captured.err and captured.out == ""

    def test_threads_one_changes_nothing(self, capsys):
        argv = ["trials", "--side", "6", "--delta", "5", "--profile", "6,6", "--trials", "6", "--seed", "9", "--json"]
        outputs = []
        for extra in ([], ["--threads", "1"]):
            assert main(argv + extra) == 0
            outputs.append(summary_without_timing(json.loads(capsys.readouterr().out)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["2", "0"])
    def test_threads_other_than_one_refused(self, capsys, threads):
        # trials run serially: a worker count would be a knob that changes nothing
        with pytest.raises(SystemExit) as exc:
            main(["trials", "--side", "6", "--profile", "6", "--trials", "1", "--seed", "1", "--threads", threads])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        # argparse quotes the value from Python 3.12 on ('2'), not before (2)
        assert re.search(rf"argument --threads: invalid choice: '?{threads}'? ", captured.err)

    def test_leading_zeros_and_spaces_read_as_before(self, capsys):
        outputs = []
        for side, profile in (("9", "6,6"), ("09", "6, 6"), ("9", "6,,6")):
            assert main(["trials", "--side", side, "--profile", profile, "--trials", "2", "--seed", "1",
                         "--json"]) == 0
            outputs.append(summary_without_timing(json.loads(capsys.readouterr().out)))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["trials", "--side", "6", "--delta", "5", "--profile", "6,6", "--trials", "3", "--seed", "7"],
             "  success rate     1.0000"),
            (["exhaustive", "--side", "3", "--profile", "6"], "  packed               1"),
            (["trials", "--side", "4", "--profile", "4,4", "--mode", "conjecture", "--trials", "2", "--seed", "5"],
             f"    trial 1 seed {mix_seed(5, 1)}"),
            (["trials", "--side", "5", "--profile", "6,6", "--trials", "50", "--seed", "1"],
             "  hypotheses hold  0"),
            (["sharpness", "--k", "2"], "  ok: True"),
        ],
    )
    def test_text_output(self, capsys, monkeypatch, argv, line):
        violation = line.startswith("    trial ")
        if violation:  # every row certified infeasible: each is named for gen random to rebuild
            monkeypatch.setattr(harness, "pack", lambda *a, **kw: PackResult(INFEASIBLE, oracle_used=True))
        assert main(argv) == (1 if violation else 0)
        assert line in capsys.readouterr().out.splitlines()

    def test_exhaustive_cli(self, capsys):
        assert main(["exhaustive", "--side", "3", "--profile", "6", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["packed"] == 1

    def test_exhaustive_cap_refusal(self, capsys):
        assert main(["exhaustive", "--side", "6", "--profile", "6"]) == 1
        capsys.readouterr()

    def test_sharpness_cli(self, capsys):
        assert main(["sharpness", "--k", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_sharpness_k6_certified_at_raised_limit(self, capsys):
        assert main(["sharpness", "--k", "6", "--oracle-limit", "26", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True and summary["certified_infeasible"] is True

    def test_sharpness_above_limit_refused_by_the_oracle(self, capsys):
        g, profile = gen_sharpness(6)
        with pytest.raises(OracleLimitError) as refusal:
            brute_force_pack(g, profile)
        assert main(["sharpness", "--k", "6", "--json"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {refusal.value}\n"
        assert str(refusal.value) == "26 vertices exceed the oracle limit 18"

    def test_sharpness_odd_k_rejected(self, capsys):
        assert main(["sharpness", "--k", "3"]) == 1
        capsys.readouterr()

    def test_gen_random_round_trip(self, tmp_path, capsys):
        path = tmp_path / "r.graph"
        assert main(["gen", "random", "--x", "6", "--y", "6", "--delta", "5",
                     "--seed", "42", "--out", str(path)]) == 0
        capsys.readouterr()
        g = parse_graph(path.read_text())
        assert g.min_degree() >= 5

    def test_oracle_limit_flag(self, capsys):
        assert main(["sharpness", "--k", "2", "--oracle-limit", "8"]) == 1  # 10 vertices above the limit
        capsys.readouterr()
        assert main(["sharpness", "--k", "2", "--oracle-limit", "18"]) == 0
        capsys.readouterr()

    def test_oracle_limit_ignores_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLEPACK_ORACLE_LIMIT", "8")
        assert main(["sharpness", "--k", "2"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "complete", "--m", "3", "--out", "{missing}/x.graph"],
        ],
    )
    def test_unwritable_output_exit_one(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing"
        assert main([a.format(missing=missing) for a in argv]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trials_bad_input_runs_no_trial(self, capsys, monkeypatch):
        # the generator checks the side, delta and fill before it draws the first host
        packed = []
        monkeypatch.setattr(harness, "pack", lambda *a, **kw: packed.append(a))
        base = ["trials", "--profile", "6,6", "--trials", "2", "--seed", "1"]
        for extra, message in [
            (["--side", "9", "--fill-p", "2"], "fill_p 2.0 is not a probability"),
            (["--side", "0"], "sides must be nonempty"),
            (["--side", "6", "--delta", "7"], "delta 7 infeasible for sides 6+6"),
        ]:
            assert main(base + extra) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and message in captured.err and captured.out == ""
        assert packed == []

    @pytest.mark.parametrize("command", ["solve", "trials"])
    def test_negative_oracle_limit_exit_one(self, tmp_path, capsys, command):
        path = tmp_path / "k33.graph"
        main(["gen", "complete", "--m", "3", "--out", str(path)])
        capsys.readouterr()
        args = {"solve": ["--graph", str(path), "--profile", "6"],
                "trials": ["--side", "3", "--profile", "6", "--trials", "2", "--seed", "1"]}[command]
        assert main([command, *args, "--oracle-limit", "-5", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: oracle_limit must be >= 0, got -5\n" and captured.out == ""

    @pytest.mark.parametrize(
        "argv, run",
        [
            (["solve", "--graph", "{graph}", "--profile", "6"], None),
            (["trials", "--side", "6", "--delta", "5", "--profile", "6,6", "--trials", "3", "--seed", "7"],
             lambda: run_trials(6, make_profile([6, 6]), 3, 7, delta=5)),
            (["exhaustive", "--side", "3", "--profile", "6"], lambda: run_exhaustive(3, make_profile([6]))),
            (["sharpness", "--k", "2"], lambda: run_sharpness(2)),
        ],
        ids=["solve", "trials", "exhaustive", "sharpness"],
    )
    def test_json_is_one_compact_line(self, tmp_path, capsys, argv, run):
        # the C encoder runs only without indent, so an indented tree would be a slowdown
        path = tmp_path / "k33.graph"
        main(["gen", "complete", "--m", "3", "--out", str(path)])
        capsys.readouterr()
        assert main([a.format(graph=path) for a in argv] + ["--json"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        parsed = json.loads(out)
        assert out == json.dumps(parsed) + "\n"
        if run is not None:
            expected = run()
            del parsed["timing"], expected["timing"]
            assert parsed == expected

    def test_campaign_seeds_do_not_overlap(self, capsys):
        seeds = []
        for seed in ("6", "7"):
            assert main(["trials", "--side", "6", "--profile", "6", "--trials", "2",
                         "--seed", seed, "--json"]) == 0
            seeds.append({row["seed"] for row in json.loads(capsys.readouterr().out)["trials"]})
        assert len(seeds[0]) == 2 and not seeds[0] & seeds[1]
