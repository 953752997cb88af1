"""cyclepack benchmark: drives the CLI in-process on fixed, seeded workloads.

    python3 benchmarks/run.py --workload solve-large --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --out results.json

A run sets up its inputs, then repeats one pass of the workload's CLI calls
(``cyclepack.cli.main([...])`` with stdout captured, ``--threads 1``,
``CYCLEPACK_ORACLE_LIMIT`` unset) while another pass still fits in ``--seconds``,
and at least once. Every call is timed from outside and every output is checked
(see workloads.py).

Times are reported at a nominal host speed: each timed interval is scaled by
the mean of ``PROBE_NOMINAL_S / probe time`` over a fixed pure-Python probe run
right before it, right after it and, from a timer signal, every
``PROBE_PERIOD_S`` during it (the time those runs take is charged neither to
the call nor to the traced layer that was open). On the 2-core VM this was
written on, the host's speed drifts by up to 1.5x over minutes, which a 20 s
run cannot average out; scaled, the same pass repeats within a few percent. The probe is benchmark code, so a program change
cannot move it. Raw times are kept in the text report and results file.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the program's
layers (see tracing.py) and reports per-layer metrics per pass instead. The last
stdout line is one JSON object: correct, attempted, failed, metrics. ``--workload
all`` runs every workload untraced and traced, reports the tracing overhead and
with ``--out`` writes all of it to a results file.

``setup_s`` is the start-up a user pays per CLI invocation (a fresh interpreter
importing ``cyclepack.cli``) plus the workload's input generation and writing,
the median of ``SETUP_REPEATS`` set-ups. The start-up part keeps it well above 0
on workloads whose inputs are only argument lists.

Operations are solves, trials or certified graphs. ``failed`` counts operations
that raised, exited with the wrong code, failed the check, or reported
infeasible without a certificate; on solve-large, whose budget lets every
instance pack, an ``unknown`` fails too. On trials-scale the default budget
leaves some guaranteed-regime trials ``unknown``: that is the defect the
workload measures, not a wrong answer, so it lowers ``decided_share`` instead;
``fail_rate`` in the text report counts both.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
PROBE_NOMINAL_S = 0.002  # probe median on that VM (Python 3.11) at its faster speed
PROBE_PERIOD_S = 0.5
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_seed.json")

UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "op_s.tail": "s",
         "decided_share": "ratio", "peak_rss_mb": "MB"}


def strip_timing(value):
    """The output with every ``"timing"`` entry removed: the part that must be
    byte-identical for a fixed seed."""
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items() if k != "timing"}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def run_call(cli, argv, meter):
    """Runs one CLI call; returns its (raw, scaled) time, exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        meter.begin()
        rc = cli.main(list(argv))
        times = meter.end()
    return times, rc, out.getvalue()


def _probe_loop() -> int:
    m, count, table, kept = 0x9E3779B97F4A7C15, 0, {}, []
    for i in range(6000):
        m = (m * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        count += (m & 0xFFFFFFFFFF).bit_count()
        table[m & 1023] = i
        if m & 1:
            kept.append(m >> 33)
    return count + len(table) + len(kept)


def probe() -> float:
    """Median time of the fixed probe loop: the host's current speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _probe_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedMeter:
    """Scales timed intervals to the nominal host speed (see the module docstring).

    ``start()`` and ``stop()`` bracket the measured part of a run; ``begin()``
    and ``end()`` go right before and right after each timed interval.
    ``exclude(seconds)``, if set, is told the time of each probe run during an
    interval, so a tracer can keep it out of the open span.
    """

    def __init__(self):
        self.last = PROBE_NOMINAL_S / probe()
        self.samples: list[float] = []
        self.spent = 0.0
        self.started = 0.0
        self.exclude = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(PROBE_NOMINAL_S / probe())
        took = time.perf_counter() - start
        self.spent += took
        if self.exclude:
            self.exclude(took)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self) -> None:
        self.samples, self.spent = [self.last], 0.0
        self.started = time.perf_counter()

    def end(self) -> tuple[float, float]:
        """(raw, scaled) time since ``begin()``, probe runs left out of both."""
        raw = time.perf_counter() - self.started - self.spent
        self.last = PROBE_NOMINAL_S / probe()
        return raw, raw * statistics.fmean(self.samples + [self.last])


def time_import() -> float:
    """Start-up a CLI user pays per invocation: a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to its 50 ms naps
    subprocess.run([sys.executable, "-c", "import cyclepack.cli"], env=env, check=True)
    return time.perf_counter() - start


def weighted_percentiles(samples):
    """Median and tail of (value, weight) samples; the tail is the highest
    percentile with at least ten samples beyond it (the maximum when there are
    ten or fewer). Returns (p50, tail, tail level in percent, sample count)."""
    samples = sorted(samples)
    total = sum(w for _, w in samples)

    def at(rank):  # value of the rank-th smallest sample, 0-based
        seen = 0
        for value, weight in samples:
            seen += weight
            if seen > rank:
                return value
        return samples[-1][0]

    tail_rank = max(total - 11, 0) if total > 10 else total - 1
    return at((total - 1) // 2), at(tail_rank), 100.0 * (tail_rank + 1) / total, total


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from cyclepack import cli
    from cyclepack.graphs import gen_random_mindeg

    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    tracer = None
    meter = SpeedMeter()
    meter.start()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            meter.begin()
            time_import()
            calls = wl.setup(seed, workdir)
            setup_times.append(meter.end()[1])

        if trace:
            tracer = Tracer().install()
            meter.exclude = tracer.exclude
        pass_times, raw_pass_times, layer_passes, digests = [], [], [], []
        call_times: dict[tuple, list[float]] = {}
        first_outputs = None
        attempted = failed = 0
        problems: list[str] = []
        began = time.perf_counter()
        while True:
            if tracer:
                tracer.reset()
            outputs, elapsed, raw_elapsed = [], 0.0, 0.0
            counters = {"iterations": 0, "restarts": 0, "oracle_fallbacks": 0, "engine_miss": 0}
            digest = hashlib.sha256()
            for call in calls:
                attempted += call.ops
                try:
                    (raw, took), rc, text = run_call(cli, call.argv, meter)
                    out = json.loads(text)
                except Exception as exc:  # a crash or unreadable output fails the call's ops
                    failed += call.ops
                    problems.append(f"{' '.join(call.argv[:3])}: {type(exc).__name__}: {exc}")
                    raw, took, rc, out = 0.0, 0.0, None, None
                outputs.append((call, rc, out))
                if out is None:
                    continue
                elapsed += took
                raw_elapsed += raw
                call_times.setdefault(tuple(call.argv), []).append(took)
                digest.update(json.dumps(strip_timing(out), sort_keys=True).encode())
                for key, value in wl.counters(call, out).items():
                    counters[key] += value
            pass_times.append(elapsed)
            raw_pass_times.append(raw_elapsed)
            digests.append(digest.hexdigest())
            if tracer:
                scale = elapsed / raw_elapsed if raw_elapsed else 1.0
                layers = {k: v * scale if k.endswith("_s") else v for k, v in tracer.snapshot().items()}
                layer_passes.append({**layers, **{f"packer.{k}": v for k, v in counters.items()},
                                     "trace.wall_s": elapsed})
            if first_outputs is None:
                first_outputs = outputs
            if time.perf_counter() - began + statistics.median(pass_times) > seconds:
                break
    finally:
        meter.stop()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # Passes repeat identical inputs, so the first pass's outputs are checked in
    # full and every later pass must reproduce them.
    passes = len(pass_times)
    decided_first = unknown_first = failed_first = 0
    for call, rc, out in first_outputs:
        if out is None:
            continue
        verdict = wl.check(call, rc, out, lambda s, d, sd, f: gen_random_mindeg(s, s, d, sd, f))
        decided_first += verdict.decided
        unknown_first += verdict.guaranteed_unknown
        failed_first += verdict.failed
        problems += verdict.problems
    failed += failed_first * passes
    if len(set(digests)) != 1:
        problems.append(f"outputs differ between passes of one run: {sorted(set(digests))}")
    exact = [{k: v for k, v in p.items() if not k.endswith("_s")} for p in layer_passes]
    if any(e != exact[0] for e in exact):
        problems.append("exact per-layer counts differ between passes")

    ops_per_pass = sum(c.ops for c in calls)
    # An operation's latency: the median time of its call over the run, shared
    # by the operations the call carries. A call repeated within a pass is the
    # same operations measured again, so it counts once.
    medians = {argv: statistics.median(times) for argv, times in call_times.items()}
    p50, tail, level, count = weighted_percentiles(
        (medians[argv] / c.ops, c.ops) for argv, c in {tuple(c.argv): c for c in calls}.items()
        if argv in medians
    ) if medians else (0.0, 0.0, 0.0, 0)
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems[:20],
        "digest": digests[0],
        "fail_rate": (failed_first + unknown_first) / ops_per_pass,
        "guaranteed_unknown_per_pass": unknown_first,
        "tail": {"percentile": level, "samples": count},
        "pass_s": pass_times,
        "raw_pass_s": raw_pass_times,
        "call_s": {c.label: medians[tuple(c.argv)] for c in calls if tuple(c.argv) in medians},
    }
    if trace:
        result["absent_hooks"] = tracer.absent
        result["per_layer"] = {k: (statistics.median(p[k] for p in layer_passes) if k.endswith("_s")
                                   else layer_passes[0][k]) for k in layer_passes[0]}
    else:
        result["end_to_end"] = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(pass_times),
            "ops_per_s": ops_per_pass * passes / sum(pass_times) if any(pass_times) else 0.0,
            "op_s.p50": p50,
            "op_s.tail": tail,
            "decided_share": decided_first / ops_per_pass,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, trace {int(result['trace'])}, {result['passes']} passes)")
    for key, value in result.get("end_to_end", {}).items():
        print(f"  {key:<14} {value:.6g} {UNITS[key]}")
    if "end_to_end" in result:
        tail = result["tail"]
        print(f"  op_s.tail is p{tail['percentile']:.6g} of {tail['samples']} operations")
        print(f"  raw wall_s     {statistics.median(result['raw_pass_s']):.6g} s before scaling to nominal speed")
    print(f"  fail_rate      {result['fail_rate']:.6g} (guaranteed-regime unknowns per pass: "
          f"{result['guaranteed_unknown_per_pass']})")
    print(f"  digest         {result['digest']}")
    if "per_layer" in result:
        layers = result["per_layer"]
        timed = sorted(((v, k) for k, v in layers.items() if k.endswith(".self_s")), reverse=True)
        total = sum(v for v, _ in timed) or 1.0
        print("  leading self time: " + ", ".join(f"{k} {v / total:.0%}" for v, k in timed[:4]))
        if result["absent_hooks"]:
            print(f"  absent hooks: {', '.join(result['absent_hooks'])}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def metric_block(values: dict) -> dict:
    return {k: {"value": v, "unit": UNITS.get(k) or ("s" if k.endswith("_s") else "count")}
            for k, v in values.items()}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None, help="write the full results to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cyclepack", "cli.py")):
        print(f"error: no cyclepack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("CYCLEPACK_ORACLE_LIMIT", None)
    import cyclepack

    if not os.path.abspath(cyclepack.__file__).startswith(SRC + os.sep):
        print(f"error: imported cyclepack from {cyclepack.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        report(result)
        results = {args.workload: result}
        metrics = result["per_layer" if args.trace else "end_to_end"]
        line = {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": metric_block(metrics)}
    else:
        results = {}
        for name in WORKLOADS:
            plain = run_workload(name, args.seed, args.seconds, False)
            traced = run_workload(name, args.seed, args.seconds, True)
            for r in (plain, traced):
                report(r)
            overhead = traced["per_layer"]["trace.wall_s"] - plain["end_to_end"]["wall_s"]
            print(f"  tracing overhead {overhead:.6g} s per pass")
            results[name] = {"untraced": plain, "traced": traced, "trace_overhead_s": overhead}
        line = {"correct": all(r[k]["correct"] for r in results.values() for k in ("untraced", "traced")),
                "attempted": sum(r[k]["attempted"] for r in results.values() for k in ("untraced", "traced")),
                "failed": sum(r[k]["failed"] for r in results.values() for k in ("untraced", "traced")),
                "workloads": {n: r["untraced"]["end_to_end"] for n, r in results.items()}}
    if os.path.isfile(BASELINE):
        with open(BASELINE, encoding="ascii") as fh:
            baseline = json.load(fh)
        for name, r in results.items():
            base = baseline["results"].get(name, {}).get("untraced", {})
            mine = r.get("untraced", r)
            if base.get("seed") == mine["seed"]:
                same = "matches" if base.get("digest") == mine["digest"] else "DIFFERS from"
                print(f"  {name}: output digest {same} the seed-commit baseline")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "python": sys.version.split()[0],
                       "results": results}, fh, indent=1)
            fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
