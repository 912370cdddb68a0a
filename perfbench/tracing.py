"""Spans around the calls one module of ``dirichlet_reserving`` makes into
another, recorded from outside the package by rebinding names.

Each entry point is wrapped wherever a module of the package binds it:
``mle`` imports ``log_gamma`` by name, so ``mle.log_gamma`` is rebound;
``cli`` calls ``mle.fit_mle`` through the module, so ``mle.fit_mle`` is.
A span is (id, name, start, end, parent, thread, extra); spans live in
per-thread ``array('d')`` buffers so that the ``--threads`` pool needs no
lock, and self time subtracts only children on the span's own thread.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

import numpy as np

# Entry points traced, as (module, function). ``cli.main`` is wrapped by the
# benchmark at its own call site.
ENTRY_POINTS = (
    ("triangle", "load_triangle"),
    ("triangle", "to_loss_ratios"),
    ("triangle", "most_recent_years"),
    ("special", "log_gamma"),
    ("special", "digamma"),
    ("special", "trigamma"),
    ("mle", "fit_mle"),
    ("mle", "_fit_arrays"),
    ("bootstrap", "bias_corrected_bootstrap"),
    ("bootstrap", "bootstrap_once"),
    ("bootstrap", "summarize"),
    ("gof", "gof_test"),
    ("gof", "pit_transform"),
    ("gof", "regularized_incomplete_beta"),
    ("gof", "ks_statistic"),
    ("bayes", "run_mcmc"),
    ("bayes", "posterior_predict"),
    ("bayes", "draws_to_csv"),
    ("benchmarks", "cl_fit"),
    ("validation", "run_panel"),
    ("validation", "load_holdout"),
    ("validation", "realized_ultimates"),
    ("validation", "evaluate"),
)
SPAN_NAMES = ("cli.main",) + tuple(f"{mod}.{fn}" for mod, fn in ENTRY_POINTS)
SPECIAL = ("special.log_gamma", "special.digamma", "special.trigamma")
MODULES = ("cli", "triangle", "special", "model", "mle", "bootstrap", "gof", "bayes", "benchmarks", "validation")
_FIELDS = 6  # id, name index, start, end, parent id (-1: none), extra


class Tracer:
    """Installs span wrappers into the package and collects what they see."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []  # one array per thread that traced
        self._main_stack = self._stack()
        self._patches = []
        # results the package returns, kept per call: (name, value)
        self.events = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.buf = array("d")
            self._buffers.append(self._local.buf)  # index = thread number
        return stack

    def wrap(self, name: str, fn, size_of_first_arg: bool = False):
        index = float(SPAN_NAMES.index(name))
        ids, local, clock, main = self._ids, self._local, time.perf_counter, self._main_stack

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = self._stack()
            # a pool thread's outermost span points at the main thread's
            # open span, the call that started the pool
            try:
                parent = stack[-1] if stack else main[-1]
            except IndexError:
                parent = -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                extra = float(np.size(args[0])) if size_of_first_arg else 0.0
                local.buf.extend((sid, index, start, end, parent, extra))

        traced.__wrapped__ = fn
        return traced

    def _observe(self, label, fn, extract):
        events = self.events

        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            events.append((label, extract(result)))
            return result

        observed.__wrapped__ = fn
        return observed

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self):
        mle, bootstrap, gof, bayes, validation = (
            self.modules[m] for m in ("mle", "bootstrap", "gof", "bayes", "validation")
        )
        # counters read from what the package already returns; these
        # wrappers add no span, so they leave self times unchanged
        self._rebind(mle._newton, self._observe("newton_iterations", mle._newton, lambda r: r[2]))
        self._rebind(
            bootstrap.bias_corrected_bootstrap,
            self._observe(
                "bootstrap", bootstrap.bias_corrected_bootstrap, lambda r: (r.n_sim, r.failed_refits)
            ),
        )
        self._rebind(gof.gof_test, self._observe("gof", gof.gof_test, lambda r: r.null_sample.size))
        self._rebind(
            bayes.run_mcmc,
            self._observe(
                "acceptance", bayes.run_mcmc, lambda r: min(min(v) for v in r.acceptance.values())
            ),
        )
        self._rebind(
            validation.run_panel,
            self._observe("failed_insurers", validation.run_panel, lambda r: len(r.failures)),
        )
        for mod, fn in ENTRY_POINTS:
            name = f"{mod}.{fn}"
            original = getattr(self.modules[mod], fn)
            self._rebind(original, self.wrap(name, original, size_of_first_arg=name in SPECIAL))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """All spans as columns: id, name, start, end, parent, thread, extra."""
        parts, threads = [], []
        for number, buf in enumerate(self._buffers):
            block = np.frombuffer(buf, dtype=float).reshape(-1, _FIELDS)
            parts.append(block)
            threads.append(np.full(block.shape[0], number, dtype=np.int64))
        table = np.concatenate(parts) if parts else np.empty((0, _FIELDS))
        return {
            "id": table[:, 0].astype(np.int64),
            "name": table[:, 1].astype(np.int64),
            "start": table[:, 2],
            "end": table[:, 3],
            "parent": table[:, 4].astype(np.int64),
            "thread": np.concatenate(threads) if threads else np.empty(0, dtype=np.int64),
            "extra": table[:, 5],
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.spans())


def layer_totals(spans: dict) -> dict:
    """Per span name: calls, self seconds and summed ``extra``. Self time is
    a span's duration minus that of its children on the same thread."""
    dur = spans["end"] - spans["start"]
    ids = spans["id"]
    row_of = np.full(int(ids.max()) + 1 if ids.size else 1, -1, dtype=np.int64)
    row_of[ids] = np.arange(ids.size)
    has_parent = spans["parent"] >= 0
    parent_row = np.where(has_parent, row_of[np.where(has_parent, spans["parent"], 0)], -1)
    same_thread = (parent_row >= 0) & (spans["thread"] == spans["thread"][np.maximum(parent_row, 0)])
    child = np.zeros(ids.size)
    np.add.at(child, parent_row[same_thread], dur[same_thread])
    selft = dur - child
    out = {}
    for idx, name in enumerate(SPAN_NAMES):
        sel = spans["name"] == idx
        out[name] = {
            "calls": int(sel.sum()),
            "self_s": float(selft[sel].sum()),
            "extra": float(spans["extra"][sel].sum()),
        }
    return out
