"""Span tracing of the calls each bdbridge layer makes into the next.

The traced run replaces module-level names (the names one layer calls
through) with timing wrappers, so nothing inside the package changes.  Each
wrapper records a span: name, start, end, parent span and op id.  Spans stay
in memory; per-layer metrics are computed from them when the run ends.

Several targets are private names that refactors may rename.  A target that
is missing is recorded in ``Tracer.missing`` and the metrics built from it
are reported as missing; tracing never fails because of it.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

#: (module under ``bdbridge``, attribute path, span name).  A name is listed
#: once per call site: ``filters`` and ``likelihood`` import the sampler and
#: count functions by name, so each importing module's binding is wrapped.
TARGETS = (
    ("filters", "_draw_padded", "sampler.draw"),
    ("likelihood", "_draw_padded", "sampler.draw"),
    ("filters", "batch_path_loglik", "likelihood.path_loglik"),
    ("likelihood", "batch_path_loglik", "likelihood.path_loglik"),
    ("likelihood", "_log_weights_block", "likelihood.weights"),
    ("likelihood", "_combine_stats", "likelihood.combine"),
    ("likelihood", "estimate_pij_b", "likelihood.pilot"),
    ("filters", "log_bridge_count", "counting.log_count"),
    ("likelihood", "log_bridge_count", "counting.log_count"),
    ("filters", "BridgeSpec", "counting.spec_init"),
    ("likelihood", "BridgeSpec", "counting.spec_init"),
    ("models", "BirthDeathModel.birth_rate", "models.rate"),
    ("models", "BirthDeathModel.death_rate", "models.rate"),
    ("models", "SIRReducedModel.birth_rate", "models.rate"),
    ("filters", "igbs_filter_step", "filters.step"),
    ("inference", "igbs_filter_loglik", "inference.cell"),
)

#: Per-layer metric -> (unit, span names it is built from).  Every value is
#: per op; the run reports the median over its traced ops.
LAYER_METRICS = {
    "sampler.draw_s": ("s", ("sampler.draw",)),
    "sampler.draw_calls": ("count", ("sampler.draw",)),
    "sampler.rows": ("count", ("sampler.draw",)),
    "sampler.pad_useful_frac": ("fraction", ("sampler.draw",)),
    "sampler.accept_frac": ("fraction", ("sampler.draw", "sampler.draw.rng")),
    "likelihood.path_loglik_s": ("s", ("likelihood.path_loglik",)),
    "likelihood.pilot_s": ("s", ("likelihood.pilot",)),
    "likelihood.pilot_calls": ("count", ("likelihood.pilot",)),
    "likelihood.bset_size": ("count", ()),
    "likelihood.weights_self_s": ("s", ("likelihood.weights", "sampler.draw",
                                        "likelihood.path_loglik")),
    "likelihood.combine_s": ("s", ("likelihood.combine",)),
    "counting.log_count_s": ("s", ("counting.log_count",)),
    "counting.log_count_calls": ("count", ("counting.log_count",)),
    "counting.spec_inits": ("count", ("counting.spec_init",)),
    "counting.distinct_frac": ("fraction", ("counting.log_count",)),
    "models.rate_s": ("s", ("models.rate",)),
    "models.rate_calls": ("count", ("models.rate",)),
    "filters.step_s": ("s", ("filters.step",)),
    "filters.step_self_s": ("s", ("filters.step", "sampler.draw",
                                  "likelihood.path_loglik", "counting.log_count",
                                  "counting.spec_init")),
    "filters.steps": ("count", ("filters.step",)),
    "inference.cell_busy_s": ("s", ("inference.cell",)),
    "inference.cells": ("count", ("inference.cell",)),
    "inference.parallel_eff": ("fraction", ("inference.cell",)),
}


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    info: dict | None = None


class _CountingGen:
    """Generator proxy that records the row count of every 2-D ``random`` draw."""

    def __init__(self, gen, rows: list):
        self._gen = gen
        self._rows = rows

    def random(self, size=None, *args, **kwargs):
        if isinstance(size, tuple) and len(size) == 2:
            self._rows.append(size[0])
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class _CountingStream:
    """Stream proxy handed to the sampler so its key draws can be counted."""

    def __init__(self, stream, rows: list):
        self._stream = stream
        self._rows = rows

    @property
    def gen(self):
        return _CountingGen(self._stream.gen, self._rows)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _resolve(module, path: str):
    """(owner, attribute, current value) for a dotted attribute path."""
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def covered(start: float, end: float, children) -> float:
    """Length of [start, end] covered by the union of the children's intervals."""
    spans = sorted((max(c.start, start), min(c.end, end)) for c in children)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in spans:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    return {s.sid: (s.end - s.start) - covered(s.start, s.end, children[s.sid])
            for s in spans}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``install`` wraps every target it can resolve; ``uninstall`` restores the
    originals.  Spans opened from worker threads with no open span of their
    own take the current op's root span as parent.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []   # unresolved targets, as "module.path"
        self.missing_spans: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object, bool]] = []
        self._op: int | None = None
        self._root: int | None = None

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; the yielded dict becomes its info."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        info = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield info
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self._op, info))

    @contextmanager
    def op(self, op_id: int):
        """Root span of one traced op; spans opened inside carry ``op_id``."""
        self._op = op_id
        try:
            with self.span("op"):
                self._root = self._stack()[-1]
                yield
        finally:
            self._op = self._root = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, keyed: bool = False):
        """Plain span wrapper; ``keyed`` keeps the first argument as the key.

        This is ``span`` inlined: the count wrappers run ~10^5 times per fit,
        where a context manager per call would dominate the traced time.
        """
        tracer, spans, local, ids, clock = self, self.spans, self._local, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else tracer._root
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                info = {"key": args[0]} if keyed and args else None
                spans.append(Span(sid, name, start, end, parent, tracer._op, info))
        return traced

    def _wrap_draw(self, fn, name: str):
        """Draw wrapper: rows, padded cells, useful cells and shuffle attempts.

        Rows tried in the rejection shuffle are counted from the 2-D key draws
        the sampler asks of its stream; the last 2-D draw of a call is its
        jump-time draw (a tie redraw, of probability ~0, would add one more).
        """
        tracer = self
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        if sig is None or "rng" not in sig.parameters:
            self.missing_spans.add(name + ".rng")
            sig = None

        def traced(*args, **kwargs):
            rows: list[int] = []
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.arguments["rng"] = _CountingStream(bound.arguments["rng"], rows)
                args, kwargs = bound.args, bound.kwargs
            with tracer.span(name) as info:
                out = fn(*args, **kwargs)
                steps, _, jumps = out
                info.update(rows=int(steps.shape[0]), cells=int(steps.size),
                            jumps=int(jumps.sum()))
                if sig is not None:
                    info.update(tried=int(sum(rows[:-1])), accepted=int(steps.shape[0]))
                return out
        return traced

    def install(self) -> None:
        if self._saved:
            return
        self.missing, self.missing_spans = [], set()
        for module_name, path, name in self.targets:
            try:
                module = importlib.import_module(f"bdbridge.{module_name}")
                owner, attr, original = _resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                self.missing_spans.add(name)
                continue
            if name == "sampler.draw":
                wrapper = self._wrap_draw(original, name)
            elif name == "counting.log_count":
                wrapper = self._wrap(original, name, keyed=True)
            else:
                wrapper = self._wrap(original, name)
            self._saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(spans, threads: int) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (root span named "op")."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    counts = Counter()
    keys = set()
    selfs = self_times(spans)
    root_s = 0.0
    for s in spans:
        if s.name == "op":
            root_s = s.end - s.start
            continue
        total[s.name] += s.end - s.start
        own[s.name] += selfs[s.sid]
        calls[s.name] += 1
        for k, v in (s.info or {}).items():
            if k == "key":
                keys.add(v)
            else:
                counts[k] += v
    return {
        "sampler.draw_s": total["sampler.draw"],
        "sampler.draw_calls": calls["sampler.draw"],
        "sampler.rows": counts["rows"],
        "sampler.pad_useful_frac": _ratio(counts["jumps"], counts["cells"]),
        "sampler.accept_frac": _ratio(counts["accepted"], counts["tried"]),
        "likelihood.path_loglik_s": total["likelihood.path_loglik"],
        "likelihood.pilot_s": total["likelihood.pilot"],
        "likelihood.pilot_calls": calls["likelihood.pilot"],
        "likelihood.bset_size": counts["bset_size"],
        "likelihood.weights_self_s": own["likelihood.weights"],
        "likelihood.combine_s": total["likelihood.combine"],
        "counting.log_count_s": total["counting.log_count"],
        "counting.log_count_calls": calls["counting.log_count"],
        "counting.spec_inits": calls["counting.spec_init"],
        "counting.distinct_frac": _ratio(len(keys), calls["counting.log_count"]),
        "models.rate_s": total["models.rate"],
        "models.rate_calls": calls["models.rate"],
        "filters.step_s": total["filters.step"],
        "filters.step_self_s": own["filters.step"],
        "filters.steps": calls["filters.step"],
        "inference.cell_busy_s": total["inference.cell"],
        "inference.cells": calls["inference.cell"],
        "inference.parallel_eff": _ratio(total["inference.cell"], root_s * threads),
    }


def layer_metrics(tracer: Tracer, threads: int) -> tuple[dict[str, float], list[str]]:
    """Median over traced ops of each per-layer metric, and the missing ones.

    A missing metric is reported as 0.0 and named in the returned list.
    """
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    per_op = [op_metrics(spans, threads) for op, spans in sorted(by_op.items())
              if op is not None]
    values = {name: float(statistics.median(m[name] for m in per_op)) if per_op else 0.0
              for name in LAYER_METRICS}
    missing = sorted(name for name, (_, sources) in LAYER_METRICS.items()
                     if any(src in tracer.missing_spans for src in sources))
    for name in missing:
        values[name] = 0.0
    return values, missing
