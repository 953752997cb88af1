"""Per-layer tracing from outside the program.

Wraps public functions of the cyclepack modules by replacing module and class
attributes (``src/`` is not edited). Timed hooks keep a stack of open spans, so
each hook's self time is its duration minus the time of the hooks it called.
Count hooks only count calls, so their time stays with their caller: the
induced-edge recomputations stay inside ``potential``, the 2-core passes inside
the oracle. Generators and bit helpers are not wrapped for the same reason.

A hook whose target no longer exists (renamed or removed by a refactor) is
reported as absent; the run goes on without it.
"""
from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "cyclepack"
SPAN, COUNT = "span", "count"

# (metric prefix, module, attribute path, kind, reports `fired`)
HOOKS = (
    ("graphs.gen_random_mindeg", "graphs", "gen_random_mindeg", SPAN, False),
    ("graphs.parse_graph", "graphs", "parse_graph", SPAN, False),
    ("graphs.BipartiteGraph", "graphs", "BipartiteGraph.__init__", SPAN, False),
    ("graphs.GraphView", "graphs", "GraphView.__init__", COUNT, False),
    ("packer.move.shrink", "packer", "move_shrink", SPAN, True),
    ("packer.move.extend", "packer", "move_extend_path", SPAN, True),
    ("packer.move.exchange", "packer", "move_exchange_one", SPAN, True),
    ("packer.move.close", "packer", "move_close_cycle", SPAN, True),
    ("packer.move.concentration", "packer", "select_concentration", SPAN, True),
    ("packer.move.double_exchange", "packer", "move_double_exchange", SPAN, True),
    ("packer.potential", "packer", "SearchState.potential", SPAN, False),
    ("packer.pack", "packer", "pack", SPAN, False),
    ("packer.brute_force_pack", "packer", "brute_force_pack", SPAN, False),
    ("cyclesearch.two_core", "cyclesearch", "two_core", COUNT, False),
    ("cyclesearch.induced_edge_count", "cyclesearch", "induced_edge_count", COUNT, False),
    ("cyclesearch.shortest_cycle_in_window", "cyclesearch", "shortest_cycle_in_window", SPAN, False),
    ("cyclesearch.hamilton_cycle_on", "cyclesearch", "hamilton_cycle_on", SPAN, False),
    ("cyclesearch.find_cycle_at_least", "cyclesearch", "find_cycle_at_least", SPAN, False),
    ("matching.max_matching", "matching", "max_matching", SPAN, False),
    ("matching.longest_alternating_path", "matching", "longest_alternating_path", SPAN, False),
    ("verify.verify_packing", "verify", "verify_packing", SPAN, False),
    ("verify.check_hypotheses", "verify", "check_hypotheses", SPAN, False),
    ("harness.run_trials", "harness", "run_trials", SPAN, False),
    ("harness.run_exhaustive", "harness", "run_exhaustive", SPAN, False),
    ("harness.run_sharpness", "harness", "run_sharpness", SPAN, False),
    ("cli.main", "cli", "main", SPAN, False),
)


class Tracer:
    """Installs the hooks; ``stats[name] = [calls, fired, self_s]`` since the last reset."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time accumulated by each open span
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {name: [0, 0, 0.0] for name, *_ in HOOKS if name not in self.absent}
        self._stack.clear()

    def exclude(self, seconds: float) -> None:
        """Keeps ``seconds`` spent outside the program (the benchmark's own
        probe) out of the self time of the innermost open span."""
        if self._stack:
            self._stack[-1] += seconds

    def _wrap(self, name: str, fn, kind: str, fired: bool):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        if kind == COUNT:
            def counted(*args, **kwargs):
                tracer.stats[name][0] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += took
                entry = tracer.stats[name]
                entry[0] += 1
                entry[2] += took - children
            if fired and result is not None and result is not False:
                entry[1] += 1
            return result

        return spanned

    def install(self) -> "Tracer":
        owners = {}
        for module_name in {h[1] for h in HOOKS}:
            try:
                owners[module_name] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                pass
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, module_name, path, kind, fired in HOOKS:
            try:
                owner = owners[module_name]
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, kind, fired)
            if parents:  # a method: patch the class that defines it
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:  # a function: patch every module that imported it
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self.reset()
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics since the last reset, absent hooks reading 0."""
        out: dict[str, float] = {}
        for name, _module, _path, kind, fired in HOOKS:
            calls, fires, self_s = self.stats.get(name, (0, 0, 0.0))
            out[f"{name}.calls"] = calls
            if fired:
                out[f"{name}.fired"] = fires
            if kind == SPAN:
                out[f"{name}.self_s"] = self_s
        return out
