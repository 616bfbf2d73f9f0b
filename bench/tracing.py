"""Per-layer tracing, installed from outside the package.

The layers are the package modules (orders, system, optimizer, experiments,
cli). The tracer replaces, in the namespace of each caller, the public
functions it calls across a module boundary, so a call can be timed and
attributed to the callee's layer without editing the package. Three wrapper
kinds exist:

- span: records (name, start, end, parent, operation) in memory; used for
  calls made at most a few thousand times per operation;
- count: adds the call's duration and a call count to aggregates; used for
  predicates and helpers called up to hundreds of thousands of times;
- walk: wraps the ``enumerate_orders`` generator, counts the matrices it
  yields and times each step.

A layer's self time is the time inside its calls minus the time inside
wrapped calls they make. A name a later package version no longer has is
reported as absent and never fails the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

from checks import SECURE_COUNTS

SPAN, COUNT, WALK = "span", "count", "walk"
_ENUM_SCHEMES = frozenset({"optimal-L", "optimal-O", "benchmark"})


def _on_sweep(tracer, args, kwargs, dur):
    """sweep_all(schemes, beta_grid, channels, params): orders scored is
    computed from the inputs, (|S(N)| + 2) per grid point when a scheme
    needs the secure set, else the two policy matrices."""
    schemes = args[0] if args else kwargs["schemes"]
    grid = args[1] if len(args) > 1 else kwargs["beta_grid"]
    params = args[3] if len(args) > 3 else kwargs["params"]
    per_beta = 2 + (SECURE_COUNTS[params.n_users] if _ENUM_SCHEMES & set(schemes) else 0)
    tracer.counts["sweep_calls"] += 1
    tracer.counts["orders_scored"] += per_beta * len(grid)


def _on_export(tracer, args, kwargs, dur):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["export_bytes"] += os.path.getsize(path)
    tracer.times["export"] += dur


def _on_secure_orders(tracer, args, kwargs, dur):
    tracer.times["secure_orders"] += dur


# (caller module, name, callee layer, kind, hook)
TARGETS = (
    # the benchmark's own calls into the public API
    ("untrusted_noma", "run_experiment", "experiments", SPAN, None),
    ("untrusted_noma", "gain_vs_users", "experiments", SPAN, None),
    ("untrusted_noma", "export", "experiments", SPAN, _on_export),
    ("untrusted_noma.cli", "main", "cli", SPAN, None),
    # experiments -> optimizer, system
    ("untrusted_noma.experiments", "sweep_all", "optimizer", SPAN, _on_sweep),
    ("untrusted_noma.experiments", "sample_channels", "system", SPAN, None),
    # optimizer -> system, orders
    ("untrusted_noma.optimizer", "power_allocation", "system", COUNT, None),
    ("untrusted_noma.optimizer", "secure_orders", "orders", SPAN, _on_secure_orders),
    ("untrusted_noma.optimizer", "order_id", "orders", COUNT, None),
    ("untrusted_noma.optimizer", "is_favourable", "orders", COUNT, None),
    ("untrusted_noma.optimizer", "policy_order_lpwu", "orders", COUNT, None),
    ("untrusted_noma.optimizer", "policy_order_lpsu", "orders", COUNT, None),
    # cli -> every layer
    ("untrusted_noma.cli", "run_experiment", "experiments", SPAN, None),
    ("untrusted_noma.cli", "export", "experiments", SPAN, _on_export),
    ("untrusted_noma.cli", "write_csv", "experiments", SPAN, None),
    ("untrusted_noma.cli", "sweep_all", "optimizer", SPAN, _on_sweep),
    ("untrusted_noma.cli", "sample_channels", "system", SPAN, None),
    ("untrusted_noma.cli", "power_allocation", "system", SPAN, None),
    ("untrusted_noma.cli", "secrecy_rates", "system", SPAN, None),
    ("untrusted_noma.cli", "count_secure", "orders", SPAN, None),
    ("untrusted_noma.cli", "enumerate_orders", "orders", WALK, None),
    ("untrusted_noma.cli", "is_secure", "orders", COUNT, None),
    ("untrusted_noma.cli", "is_favourable", "orders", COUNT, None),
    ("untrusted_noma.cli", "order_id", "orders", COUNT, None),
    ("untrusted_noma.cli", "order_from_id", "orders", SPAN, None),
    ("untrusted_noma.cli", "policy_order", "orders", SPAN, None),
    # inside orders: the walk and predicate behind count_secure/secure_orders
    ("untrusted_noma.orders", "enumerate_orders", "orders", WALK, None),
    ("untrusted_noma.orders", "is_secure", "orders", COUNT, None),
)


class Tracer:
    """Spans and aggregates of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[list] = []  # open frames: [span id, child time]
        self.times: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.op = -1  # -1 marks the set-up
        self.absent: list[str] = []
        self._saved: list = []

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        make = {SPAN: self._span, COUNT: self._count, WALK: self._walk}
        self.absent = []
        for modname, name, layer, kind, hook in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            original = getattr(module, name, None)
            if original is None:
                self.absent.append(f"{modname}.{name}")
                continue
            self._saved.append((module, name, original))
            label = f"{layer}:{modname.rsplit('.', 1)[-1]}->{name}"
            setattr(module, name, make[kind](original, layer, label, hook))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, fn, layer, label, hook):
        key = "self:" + layer
        spans, stack, times = self.spans, self.stack, self.times

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (label, t0, t1, parent, self.op)
                times[key] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                if hook is not None:
                    hook(self, args, kwargs, t1 - t0)

        return wrapper

    def _count(self, fn, layer, label, hook):
        key = "self:" + layer
        stack, times, calls = self.stack, self.times, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                times[key] += dur
                if stack:
                    stack[-1][1] += dur
                calls[label] += 1

        return wrapper

    def _walk(self, fn, layer, label, hook):
        key = "self:" + layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            self.calls[label] += 1
            frame = self.stack[-1] if self.stack else None

            def steps():
                spent, walked = 0.0, 0
                try:
                    while True:
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            spent += perf_counter() - t0
                            return
                        spent += perf_counter() - t0
                        walked += 1
                        yield item
                finally:
                    self.times[key] += spent
                    self.counts["orders_walked"] += walked
                    if frame is not None:
                        frame[1] += spent

            return steps()

        return wrapper

    # -- output -----------------------------------------------------------
    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.times), dict(self.counts)

    def write(self, path: str, meta: dict) -> None:
        """Write the spans and aggregates as JSON lines: one meta line, then
        one [name, start, end, parent, operation] line per span."""
        with open(path, "w", encoding="utf-8") as stream:
            meta = dict(meta, absent=self.absent, calls=dict(self.calls), counts=dict(self.counts))
            stream.write(json.dumps(meta) + "\n")
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")
