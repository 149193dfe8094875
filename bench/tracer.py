"""Per-layer spans around the public callables of finphase.

``Tracer.install()`` finds by introspection every public function of
``finphase.rng``, ``.firms``, ``.phase`` and ``.exchange``, every public
method of ``Ledger`` and ``cli.dispatch`` (the root span), and replaces
each with a wrapper that times the call. Callables added to those modules
later are traced without editing this file.

Spans are aggregated per callable as a count and nanoseconds rather than
kept one by one, because a firms run makes about 2.2 million ledger
calls. A span's own time is its duration minus the time spent in nested
spans of other layers, so ``firms.step``'s own time includes ``classify``
but not ledger postings or rng draws. A layer's self time is the sum of
own time over the spans that enter the layer from another one.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYER_MODULES = ("rng", "firms", "phase", "exchange")


class Tracer:
    def __init__(self):
        self.calls = {}  # callable name -> [calls, total_ns, own_ns, raised]
        self.layers = {}  # layer -> [entries, self_ns]
        self.step_ns = []  # duration of every firms.step call
        self.counts = {
            "rng.values": 0,
            "exchange.events": 0,
            "phase.points": 0,
            "firms.nonzero_residuals": 0,
        }
        self._record_type = None  # finphase.firms.StepRecord, set by install()
        self._stack = [["", 0]]  # [layer, ns spent in nested foreign spans]

    def _wrap(self, name, layer, fn, after=None):
        stats = self.calls.setdefault(name, [0, 0, 0, 0])
        entry = self.layers.setdefault(layer, [0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[1]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += own
                parent = stack[-1]
                if parent[0] == layer:
                    parent[1] += frame[1]
                else:
                    parent[1] += elapsed
                    entry[0] += 1
                    entry[1] += own
            if after is not None:
                after(args, result, elapsed)
            return result

        return traced

    # -- counters taken at the layer boundaries --------------------------------

    def _count_values(self, args, result, elapsed):
        self.counts["rng.values"] += len(result)

    def _count_events(self, args, result, elapsed):
        self.counts["exchange.events"] += args[0].n_events

    def _count_points(self, args, result, elapsed):
        self.counts["phase.points"] += result.total

    def _check_record(self, args, result, elapsed):
        if isinstance(result, self._record_type) and result.conservation_residual != 0:
            self.counts["firms.nonzero_residuals"] += 1

    def _time_step(self, args, result, elapsed):
        self.step_ns.append(elapsed)
        self._check_record(args, result, elapsed)

    # -- installation and output -----------------------------------------------

    def install(self) -> None:
        import finphase.cli as cli
        from finphase.firms import StepRecord
        from finphase.ledger import Ledger

        self._record_type = StepRecord
        hooks = {
            "rng.u64_block": self._count_values,
            "exchange.run_exchange": self._count_events,
            "phase.bin_phase": self._count_points,
            "firms.step": self._time_step,
        }
        for layer in LAYER_MODULES:
            module = importlib.import_module(f"finphase.{layer}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                after = hooks.get(key, self._check_record if layer == "firms" else None)
                _replace_everywhere(fn, self._wrap(key, layer, fn, after))
        for name, attr in list(vars(Ledger).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrap(f"ledger.{name}", "ledger", attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(f"ledger.{name}", "ledger", attr)
            else:
                continue  # properties are attribute reads, not postings
            setattr(Ledger, name, wrapped)
        cli.dispatch = self._wrap("cli.dispatch", "cli", cli.dispatch)

    def dump(self, path) -> None:
        payload = {
            "calls": self.calls,
            "layers": self.layers,
            "step_ns": self.step_ns,
            "counts": self.counts,
        }
        Path(path).write_text(json.dumps(payload))


def _replace_everywhere(original, wrapped) -> None:
    """Rebind every finphase module global that refers to ``original``, so
    names imported with ``from .module import name`` are traced too."""
    for modname, module in list(sys.modules.items()):
        if modname != "finphase" and not modname.startswith("finphase."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
