"""One benchmark round in a fresh interpreter.

Reads a JSON spec on stdin, imports dlocal from ``src`` under the current
directory, builds the root systems the spec names (the set-up), makes the
timed calls into dlocal's public functions, and prints one JSON line with
the timings, the resource use and the outputs for the runner to check.

A fresh process per round gives every round cold caches, as a user's
``dlocal`` invocation has, and lets a round's CPU time and peak memory
include the pool workers it started: they are reaped before the round
ends, so their usage is in RUSAGE_CHILDREN.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _usage():
    self_, kids = (resource.getrusage(who) for who in
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    cpu = self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(self_.ru_maxrss, kids.ru_maxrss) / 1024.0


def run(spec) -> dict:
    t0 = time.perf_counter()
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import dlocal

    if not os.path.abspath(dlocal.__file__).startswith(src + os.sep):
        raise ImportError(f"dlocal was imported from {dlocal.__file__}, not {src}")
    tracer = pool_timer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.install()
    elif spec.get("time_pool"):
        import tracer as tracing

        pool_timer = tracing.PoolTimer()
        pool_timer.install()
    systems = {}
    for rank, twist in spec["systems"]:
        systems[(rank, tuple(twist))] = (
            dlocal.build_root_system(rank),
            dlocal.HighestWeight.from_twist(twist),
        )
    out = {"setup_s": time.perf_counter() - t0}
    if spec["op"] == "setup":
        return out

    op = spec["op"]
    cpu0, _ = _usage()
    t1 = time.perf_counter()
    if op == "local_part_json":
        rs, hw = systems[(spec["rank"], tuple(spec["twist"]))]
        part = dlocal.local_part(rs, hw, spec["n"], jobs=spec["jobs"])
        text = part.to_json_str()
    elif op == "coefficients":
        values = []
        for rank, twist, n, lam in spec["queries"]:
            rs, hw = systems[(rank, tuple(twist))]
            values.append(dlocal.local_part(rs, hw, n, weight=lam).coefficient_at(lam))
    elif op == "count":
        rs, hw = systems[(spec["rank"], tuple(spec["twist"]))]
        count = dlocal.count_patterns(rs, hw)
    else:
        raise ValueError(f"unknown op {op!r}")
    out["wall_s"] = time.perf_counter() - t1
    cpu1, out["peak_rss_mb"] = _usage()
    out["cpu_s"] = cpu1 - cpu0
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["tree"] = tracer.tree()
    if pool_timer is not None:
        out["pool_s"] = pool_timer.seconds

    # Outputs, and the untimed calls the checks need.
    if op == "local_part_json":
        out["json"] = text
        support = part.support()
        checks = []
        for idx in spec["check_indices"]:
            lam = support[idx % len(support)]
            value = dlocal.local_part(rs, hw, spec["n"], weight=lam).coefficient_at(lam)
            checks.append([list(lam), value.to_json_obj()])
        out["checks"] = checks
    elif op == "coefficients":
        out["values"] = [value.to_json_obj() for value in values]
    else:
        out["count"] = count
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.stdin.read()))))
