"""In-memory spans and counts around the public functions of pdqre's modules.

The tracer lives entirely in the benchmark: it wraps every public function
listed in the ``__all__`` of each package module and rebinds the wrapper in
every pdqre namespace that holds the original, so the wrapper is found
wherever a caller looks the function up (``pdqre.cli`` imports most library
functions into its own namespace).  Nothing under ``src/`` changes, and
``uninstall`` puts every original back.

A span is ``[name, start, end, parent, run_id]``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (-1 at the top) and ``run_id`` names
the benchmark pass that produced it.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "qre", "nash", "game", "simulate", "data")


def _observe_solve_qre(counts, kwargs, result, error):
    if error is not None:
        points = getattr(error, "candidates", [])
        counts["qre.no_solution"] += 1
    else:
        points = result
    counts["qre.accepted"] += sum(1 for p in points if p.accepted)
    counts["qre.candidates"] += sum(1 for p in points if not p.accepted)
    diag = kwargs.get("diagnostics") or {}
    counts["qre.clamped_starts"] += diag.get("clamped_starts", 0)
    counts["qre.clamped_evals"] += diag.get("clamped_evals", 0)


def _observe_sweep_lambda(counts, kwargs, result, error):
    if error is None:
        counts["qre.discontinuities"] += len(result.discontinuities)


def _observe_objective_grid(counts, kwargs, result, error):
    if error is None:
        counts["qre.objective_grid.clamped_cells"] += int(result[3].sum())


# Counters read from what a call returns or fills in, keyed by span name.
OBSERVERS = {
    "qre.solve_qre": _observe_solve_qre,
    "qre.sweep_lambda": _observe_sweep_lambda,
    "qre.objective_grid": _observe_objective_grid,
}


class Tracer:
    """Span and count recorder; one instance per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self._close(rec)
                if observe is not None:
                    observe(self.counts, kwargs, None, err)
                raise
            self._close(rec)
            if observe is not None:
                observe(self.counts, kwargs, result, None)
            return result

        return traced

    def install(self) -> None:
        """Rebind a traced wrapper for every public pdqre function."""
        package = importlib.import_module("pdqre")
        modules = [importlib.import_module(f"pdqre.{layer}") for layer in LAYERS]
        namespaces = [package, *modules]
        for layer, module in zip(LAYERS, modules):
            for public in module.__all__:
                fn = getattr(module, public)
                if not inspect.isfunction(fn):
                    continue
                traced = self._wrap(f"{layer}.{public}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, attr, fn))
                            setattr(ns, attr, traced)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._restore):
            setattr(ns, attr, fn)
        self._restore.clear()


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def span_table(spans: list[list], run_id: int) -> tuple[dict, dict]:
    """Durations and self times by span name for one pass.

    A span's self time is its duration minus the time covered by its nearest
    descendants in another layer; same-layer children (``cli.main`` inside a
    ``cli.<subcommand>`` span) count as the span's own work.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    selfs: dict[str, float] = defaultdict(float)
    foreign = [0.0] * len(spans)
    # Children are opened after their parent, so a reverse scan sees every
    # child before its parent.
    for idx in range(len(spans) - 1, -1, -1):
        name, start, end, parent, rid = spans[idx]
        if rid != run_id:
            continue
        dur = end - start
        durations[name].append(dur)
        selfs[name] += dur - foreign[idx]
        if parent >= 0:
            same = _layer(spans[parent][0]) == _layer(name)
            foreign[parent] += foreign[idx] if same else dur
    return durations, selfs
