"""Spans around calls into zenosim, recorded from the benchmark side.

zenosim modules bind each other's functions by name (``from .propagator
import evolve`` in ``scenario``), so a span has to wrap the binding in the
*calling* module. `Tracer.patched` swaps every binding in `BINDINGS` for a
timing wrapper and restores the originals on exit, whatever happens
inside.

A span is ``[layer, start, end, parent span or None, op id, work]``;
``work`` is computed GFLOP for ``propagator.evolve`` and bytes for the CSV
layers. Spans are kept in memory; `write_spans` saves them once the run
ends.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import defaultdict
from time import perf_counter

from zenosim import cli, core, csvio, scenario

# (owner, attribute, layer). The benchmark itself calls cli.main,
# scenario.run_batch, scenario.classify_effect and
# csvio.write_trajectory_csv through these same module attributes.
BINDINGS = [
    (cli, "main", "cli.main"),
    (cli, "run", "scenario.run"),
    (cli, "write_trajectory_csv", "csvio.write_trajectory_csv"),
    (cli, "read_population_table", "csvio.read_population_table"),
    (cli, "channel_inputs", "perturbation.channel_inputs"),
    (cli, "sigma_min_predictor", "perturbation.sigma_min_predictor"),
    (scenario, "run", "scenario.run"),
    (scenario, "run_batch", "scenario.run_batch"),
    (scenario, "classify_effect", "scenario.classify_effect"),
    (scenario, "build", "models.build"),
    (scenario, "eigendecompose", "propagator.eigendecompose"),
    (scenario, "evolve", "propagator.evolve"),
    (scenario, "record_observables", "diagnostics.record_observables"),
    (scenario, "apply_intervention", "interventions.apply_intervention"),
    (core.HermitianMatrix, "validate_density", "core.validate_density"),
    (csvio, "write_trajectory_csv", "csvio.write_trajectory_csv"),
]

LAYERS = sorted({layer for _, _, layer in BINDINGS})


def _evolve_gflop(args, kwargs, result) -> float:
    # evolve does four complex n x n products (V^T rho, .V, V rt, .V^T), 8 n^3 flops each
    n = result.dim
    return 32.0 * n**3 / 1e9


def _written_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[1]))


def _read_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0]))


WORK = {
    "propagator.evolve": _evolve_gflop,
    "csvio.write_trajectory_csv": _written_bytes,
    "csvio.read_population_table": _read_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._main_stack: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, layer: str, fn):
        work = WORK.get(layer)

        def traced(*args, **kwargs):
            stack = self._stack()
            # a run_batch worker starts with an empty stack: its parent is
            # the span the main thread is blocked in
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = [layer, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                self.spans.append(span)
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every binding in BINDINGS; restore all of them on exit."""
        saved = []
        try:
            for owner, name, layer in BINDINGS:
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self.wrap(layer, original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_totals(spans) -> dict:
    """Per layer: calls, total seconds, self seconds and summed work.

    Self time is the span's duration minus the part of it that its
    children cover; children of run_batch overlap across worker threads,
    so their union is what counts.
    """
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[id(s[3])].append((s[1], s[2]))
    out = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0} for layer in LAYERS}
    for s in spans:
        agg = out[s[0]]
        dur = s[2] - s[1]
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - _covered(children.get(id(s), ()), s[1], s[2])
        agg["work"] += s[5]
    return out


def write_spans(spans, path) -> None:
    """One line per span: index, layer, start, end, parent index, op id."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span,layer,start_s,end_s,parent,op\n")
        for i, s in enumerate(spans):
            parent = index.get(id(s[3]), -1) if s[3] is not None else -1
            fh.write(f"{i},{s[0]},{s[1]:.9f},{s[2]:.9f},{parent},{s[4]}\n")
