"""Per-layer tracing of dlocal from outside the package.

``install`` replaces, in every loaded ``dlocal`` module, each name bound to
a traced function with a wrapper that records a span (calls, inclusive
and self seconds) and layer counts.  A name imported with ``from .x import
f`` is a separate binding in the importing module, so every binding is
replaced, not only the defining one.  A layer's self time is its span's
duration minus the time of the traced spans it called.

Pooled work is replayed: the process pool in ``local_part`` is replaced by
an executor that runs each pooled chunk in this process, in submission
order, and records the pickled size of every payload and result.  Worker
processes would split the caches between them in an order that depends on
scheduling, so cache misses and ring operations would not repeat from run
to run; replayed, every count repeats exactly.  ``PoolTimer`` measures the
real pool's block in an untraced round instead.
"""

from __future__ import annotations

import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# Per-layer metrics reported by a traced round, with their units.
LAYER_METRICS = {
    "pattern.row_fills.calls": "count",
    "pattern.row_fills.s": "s",
    "pattern.row_fills.rows": "count",
    "pattern.row_fills.empty_ratio": "ratio",
    "pattern.patterns": "count",
    "decoration.row_analysis.calls": "count",
    "decoration.row_analysis.misses": "count",
    "decoration.row_analysis.hit_ratio": "ratio",
    "decoration.row_analysis.s": "s",
    "coeff_ring.mul.calls": "count",
    "coeff_ring.mul.s": "s",
    "coeff_ring.add.calls": "count",
    "coeff_ring.add.s": "s",
    "coeff_ring.init.calls": "count",
    "coeff_ring.init.s": "s",
    "local_part.accumulate.calls": "count",
    "local_part.accumulate.s": "s",
    "local_part.sigma.calls": "count",
    "local_part.pool.payload_bytes": "bytes",
    "local_part.pool.result_bytes": "bytes",
    "cli.json.s": "s",
    "cli.json.bytes": "bytes",
    "root_data.build.s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.edges: dict[tuple[str, str], list] = {}  # (caller, callee) -> [calls, s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, child seconds] per open span
        self.cache_misses = lambda: 0  # cumulative misses of the row cache

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name: str, fn):
        stack, spans, edges = self._stack, self.spans, self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                caller = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += dt
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                edge = edges.get((caller, name))
                if edge is None:
                    edge = edges[(caller, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt

        return traced

    def self_s(self, name: str) -> float:
        rec = self.spans.get(name)
        return rec[2] if rec else 0.0

    def calls(self, name: str) -> int:
        rec = self.spans.get(name)
        return rec[0] if rec else 0

    def metrics(self) -> dict[str, float]:
        fills = self.calls("pattern.row_fills")
        analyses = self.calls("decoration.row_analysis")
        misses = self.cache_misses()
        return {
            "pattern.row_fills.calls": fills,
            "pattern.row_fills.s": self.self_s("pattern.row_fills"),
            "pattern.row_fills.rows": self.counts.get("pattern.row_fills.rows", 0),
            "pattern.row_fills.empty_ratio": (
                self.counts.get("pattern.row_fills.empty", 0) / fills if fills else 0.0
            ),
            "pattern.patterns": self.counts.get("pattern.patterns", 0),
            "decoration.row_analysis.calls": analyses,
            "decoration.row_analysis.misses": misses,
            "decoration.row_analysis.hit_ratio": (
                1.0 - misses / analyses if analyses else 0.0
            ),
            "decoration.row_analysis.s": self.self_s("decoration.row_analysis"),
            "coeff_ring.mul.calls": self.calls("coeff_ring.mul"),
            "coeff_ring.mul.s": self.self_s("coeff_ring.mul"),
            "coeff_ring.add.calls": self.calls("coeff_ring.add"),
            "coeff_ring.add.s": self.self_s("coeff_ring.add"),
            "coeff_ring.init.calls": self.calls("coeff_ring.init"),
            "coeff_ring.init.s": self.self_s("coeff_ring.init"),
            "local_part.accumulate.calls": self.calls("local_part.accumulate"),
            "local_part.accumulate.s": self.self_s("local_part.accumulate"),
            "local_part.sigma.calls": self.calls("local_part.sigma"),
            "local_part.pool.payload_bytes": self.counts.get("local_part.pool.payload_bytes", 0),
            "local_part.pool.result_bytes": self.counts.get("local_part.pool.result_bytes", 0),
            "cli.json.s": self.self_s("cli.json"),
            "cli.json.bytes": self.counts.get("cli.json.bytes", 0),
            "root_data.build.s": self.self_s("root_data.build"),
        }

    def tree(self) -> dict:
        """Spans and caller edges, for the trace file."""
        return {
            "spans": {
                name: {"calls": c, "inclusive_s": inc, "self_s": own}
                for name, (c, inc, own) in sorted(self.spans.items())
            },
            "edges": [
                {"caller": a or None, "callee": b, "calls": c, "s": s}
                for (a, b), (c, s) in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }


def _dlocal_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dlocal" or name.startswith("dlocal."))]


def _rebind(original, replacement) -> None:
    """Point every dlocal module binding of ``original`` at ``replacement``."""
    for module in _dlocal_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class ReplayExecutor:
    """Runs pooled chunks in this process, recording pickled sizes."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        for args in zip(*iterables):
            self._tracer.count("local_part.pool.payload_bytes",
                               len(pickle.dumps((fn, args))))
            result = fn(*args)
            self._tracer.count("local_part.pool.result_bytes", len(pickle.dumps(result)))
            yield result


class PoolTimer:
    """Times the ``with`` block of the real process pool in ``local_part``."""

    def __init__(self):
        self.seconds = 0.0

    def install(self) -> None:
        module = sys.modules["dlocal.local_part"]
        if getattr(module, "ProcessPoolExecutor", None) is not ProcessPoolExecutor:
            return
        timer = self

        class TimedPool(ProcessPoolExecutor):
            def __enter__(self):
                self._t0 = time.perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    timer.seconds += time.perf_counter() - self._t0

        module.ProcessPoolExecutor = TimedPool


def install() -> Tracer:
    """Wrap dlocal's layer functions; returns the tracer that records them."""
    tracer = Tracer()
    # The package re-exports the function local_part under the submodule's
    # name, so the modules are taken from sys.modules.
    pattern = sys.modules["dlocal.pattern"]
    decoration = sys.modules["dlocal.decoration"]
    local_part = sys.modules["dlocal.local_part"]
    root_data = sys.modules["dlocal.root_data"]
    ring = sys.modules["dlocal.coeff_ring"].RingElem

    row_fills = getattr(pattern, "_row_fills", None)
    if row_fills is not None:
        def count_fills(*args, **kwargs):
            rows = row_fills(*args, **kwargs)
            tracer.count("pattern.row_fills.rows", len(rows))
            if not rows:
                tracer.count("pattern.row_fills.empty")
            return rows
        _rebind(row_fills, tracer.span("pattern.row_fills", count_fills))

    analysis = getattr(decoration, "_row_analysis", None)
    if analysis is not None:
        info = getattr(analysis, "cache_info", None)
        if info is not None:
            base = info().misses
            tracer.cache_misses = lambda: info().misses - base
        _rebind(analysis, tracer.span("decoration.row_analysis", analysis))

    # Only local_part's binding of _complete feeds assembly; the recursion
    # inside pattern stays unwrapped, so each yielded pattern counts once.
    complete = getattr(local_part, "_complete", None)
    if complete is not None:
        def counted_complete(*args, **kwargs):
            for item in complete(*args, **kwargs):
                tracer.count("pattern.patterns")
                yield item
        local_part._complete = counted_complete

    for name, span in (("_accumulate", "local_part.accumulate"),
                       ("sigma_component", "local_part.sigma"),
                       ("local_part", "dlocal.local_part"),
                       ("count_patterns", "dlocal.count_patterns")):
        target = getattr(local_part, name, None) or getattr(pattern, name, None)
        if target is not None:
            _rebind(target, tracer.span(span, target))

    build = getattr(root_data, "build_root_system", None)
    if build is not None:
        _rebind(build, tracer.span("root_data.build", build))

    to_json = getattr(local_part.LocalPart, "to_json_str", None)
    if to_json is not None:
        def serialize(part):
            text = to_json(part)
            tracer.count("cli.json.bytes", len(text.encode()))
            return text
        local_part.LocalPart.to_json_str = tracer.span("cli.json", serialize)

    for attrs, span in ((("__mul__", "__rmul__"), "coeff_ring.mul"),
                        (("__add__", "__radd__"), "coeff_ring.add"),
                        (("__init__",), "coeff_ring.init")):
        wrapped = {}
        for attr in attrs:
            original = ring.__dict__.get(attr)
            if original is not None:
                if original not in wrapped:
                    wrapped[original] = tracer.span(span, original)
                setattr(ring, attr, wrapped[original])

    if getattr(local_part, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
        local_part.ProcessPoolExecutor = (
            lambda *args, **kwargs: ReplayExecutor(tracer)
        )
    return tracer
