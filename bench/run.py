"""Benchmark runner for dlocal: one named workload per invocation.

    python3 bench/run.py --workload twisted-part --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; dlocal is imported from ``src`` there.
The runner makes the workload's inputs from the seed, runs rounds for up
to ``--seconds``, each in a fresh interpreter (``child.py``), and
checks every output against references computed in ``refs.py`` without
dlocal.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Round details go to ``BENCH_<workload>.json`` (and the span tree of a
traced run to ``BENCH_trace_<workload>.json``) in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150
D5_DEFECTS = os.path.join(HERE, "d5_defects.json")
QUERIES_PER_ROUND = 200  # seeded D5 queries, one per stratum
FIXED_FAILURES = 8  # known-defect D5 weights queried in every round

# End-to-end metrics taken per round; setup_s comes from the set-up samples.
ROUND_METRICS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class TwistedPart:
    """The full D4 local part, twist (0,1,2,0), n = 2, pooled, as JSON."""

    twist = (0, 1, 2, 0)
    systems = [[4, list(twist)]]

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.check_indices = [rng.randrange(10**9) for _ in range(3)]

    def spec(self, i):
        return {"op": "local_part_json", "rank": 4, "twist": list(self.twist), "n": 2,
                "jobs": 2, "check_indices": self.check_indices}

    def check(self, spec, out):
        problems = []
        obj = json.loads(out["json"])
        if (obj["rank"], obj["n"], obj["twist"]) != (4, 2, list(self.twist)):
            problems.append(f"header {obj['rank']}, {obj['n']}, {obj['twist']}")
        coeffs = {tuple(c["lambda"]): refs.ring_value(c["value"])
                  for c in obj["coefficients"]}
        lams = [tuple(c["lambda"]) for c in obj["coefficients"]]
        if lams != sorted(set(lams)):
            problems.append("coefficients are not strictly sorted by lambda")
        if coeffs.get((0, 0, 0, 0)) != {(0,): {0: 1}}:
            problems.append(f"a_0 = {coeffs.get((0, 0, 0, 0))}, expected 1")
        pub = refs.PUBLISHED_D4
        if coeffs.get(pub["weight"]) != pub["value"]:
            problems.append(f"a_{pub['weight']} = {coeffs.get(pub['weight'])}, "
                            f"expected the published {pub['value']}")
        for lam, value in out["checks"]:
            if refs.ring_value(value) != coeffs.get(tuple(lam)):
                problems.append(f"local_part(weight={lam}) differs from a_{lam}")
        return 1, int(bool(problems)), problems


class CoeffQueries:
    """Single-coefficient queries: D5 untwisted n = 1, and the D4 published one.

    Each round draws QUERIES_PER_ROUND weights from the support of the root
    product, one per stratum of the support sorted by weight-class size, so
    every round mixes small and large classes alike.  ``d5_defects.json``
    lists the weights where the program disagreed with the product when the
    benchmark was made; it is part of the inputs and is not regenerated when
    the program changes.  The seeded draw never takes a listed weight, and a
    fixed, seed-independent set of FIXED_FAILURES of them is queried in
    every round, so every round makes the same number of failing queries
    whatever the seed, and the same inputs remain after the defect is mended.
    """

    systems = [[5, [0] * 5], [4, list(refs.PUBLISHED_D4["twist"])]]

    def __init__(self, seed: int):
        self.seed = seed
        self.product = refs.root_product(5)
        with open(D5_DEFECTS) as fh:
            self.defects = {tuple(lam) for lam in json.load(fh)}
        sizes = refs.subset_sums(5)
        self.pool = sorted(set(self.product) - self.defects,
                           key=lambda lam: (sizes[lam], lam))
        known = sorted(self.defects)
        step = max(1, len(known) // FIXED_FAILURES)
        self.fixed = known[::step][:FIXED_FAILURES]

    def queries(self, i: int) -> list:
        rng = random.Random(f"{self.seed}:{i}")
        n, q = len(self.pool), QUERIES_PER_ROUND
        lams = [self.pool[k * n // q + rng.randrange((k + 1) * n // q - k * n // q)]
                for k in range(q)] + self.fixed
        out = [[5, [0] * 5, 1, list(lam)] for lam in lams]
        pub = refs.PUBLISHED_D4
        out.append([4, list(pub["twist"]), pub["n"], list(pub["weight"])])
        rng.shuffle(out)
        return out

    def spec(self, i):
        return {"op": "coefficients", "queries": self.queries(i)}

    def check(self, spec, out):
        pub = refs.PUBLISHED_D4
        wrong = []
        for (rank, _, _, lam), value in zip(spec["queries"], out["values"]):
            lam = tuple(lam)
            expected = pub["value"] if rank == 4 else {(): self.product[lam]}
            if refs.ring_value(value) != expected:
                wrong.append((rank, lam))
        problems = [f"rank {rank} coefficient at {lam} is wrong"
                    for rank, lam in wrong if rank == 4 or lam not in self.defects]
        return len(spec["queries"]), len(wrong), problems


class CountD6:
    """count_patterns on untwisted D6; the input does not depend on the seed."""

    systems = [[6, [0] * 6]]

    def __init__(self, seed: int):
        # Untwisted: every m_k is 1, so the count is dim V(rho) = 2^30.
        self.expected = refs.weyl_dimension(6, [1] * 6)

    def spec(self, i):
        return {"op": "count", "rank": 6, "twist": [0] * 6}

    def check(self, spec, out):
        if out["count"] != self.expected:
            return 1, 1, [f"count {out['count']}, Weyl dimension {self.expected}"]
        return 1, 0, []


WORKLOADS = {"twisted-part": TwistedPart, "coeff-queries": CoeffQueries,
             "count-d6": CountD6}


def run_child(spec: dict) -> dict:
    """Run one round in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(spec), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"round exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, trace: bool):
    """Run rounds for ``seconds``; returns (rounds, traced rounds, set-ups, tally).

    The tally holds every round's (attempted, failed) and the problems the
    checks found.

    Untraced, a set-up-only interpreter follows every round, so the set-up
    samples spread over the whole run like the rounds do.
    """
    rounds, traced, setups = [], [], []
    tally = {"counts": [], "problems": []}

    def one(spec):
        out = run_child(dict(spec, systems=workload.systems))
        attempted, failed, problems = workload.check(spec, out)
        tally["counts"].append((attempted, failed))
        tally["problems"] += problems
        for key in ("json", "values", "checks"):
            out.pop(key, None)
        return out

    def setup():
        setups.append(run_child({"op": "setup", "systems": workload.systems})["setup_s"])

    # A round starts only if one more of the last round's length still ends
    # within ``seconds``, so a run never outlasts its measuring time by a
    # whole round; the first round always runs.
    start = time.perf_counter()
    i, round_s = 0, 0.0
    while i == 0 or time.perf_counter() - start + round_s <= seconds:
        t0 = time.perf_counter()
        if trace:
            # Every pair repeats round 0's inputs, so counts must repeat.
            spec = workload.spec(0)
            rounds.append(one(dict(spec, time_pool=True)))
            traced.append(one(dict(spec, trace=True)))
        else:
            rounds.append(one(workload.spec(i)))
            setups.append(rounds[-1]["setup_s"])
            setup()
        round_s = time.perf_counter() - t0
        i += 1
    while not trace and len(setups) < SETUP_SAMPLES:
        setup()
    return rounds, traced, setups, tally


def layer_metrics(rounds: list, traced: list, problems: list) -> dict:
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        values = [t["layers"][name] for t in traced]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) > 1:
            problems.append(f"{name} differs between traced rounds: {values}")
        metrics[name] = (values[0], unit)
    metrics["local_part.pool.s"] = (statistics.median(r["pool_s"] for r in rounds), "s")
    # Traced rounds replay the pool in one process, so their wall time is
    # not comparable with a pooled round's; their CPU time is.
    overhead = (statistics.median(t["cpu_s"] for t in traced)
                / statistics.median(r["cpu_s"] for r in rounds) - 1.0)
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dlocal", "__init__.py")):
        print("error: run from the root of a dlocal checkout (no src/dlocal here)",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    rounds, traced, setups, tally = measure(workload, args.seconds, bool(args.trace))
    problems = tally["problems"]
    # Every round makes the same number of operations, so the result reports
    # one round's counts: they do not grow with the number of rounds that
    # fit in the run, i.e. with the program's or the machine's speed.
    counts = tally["counts"]
    if len(set(counts)) > 1:
        problems.append(f"rounds differ in (attempted, failed): {sorted(set(counts))}")
    attempted, failed = counts[0]
    if args.trace:
        metrics = layer_metrics(rounds, traced, problems)
        with open(f"BENCH_trace_{args.workload}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "tree": traced[0]["tree"]}, fh, indent=1)
            fh.write("\n")
    else:
        metrics = {name: (statistics.median(r[name] for r in rounds), unit)
                   for name, unit in ROUND_METRICS.items()}
        metrics["setup_s"] = (statistics.median(setups), "s")
    for r in traced:
        r.pop("tree", None)
    with open(f"BENCH_{args.workload}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "cores": os.cpu_count(),
                   "counts": counts, "rounds": rounds, "traced_rounds": traced,
                   "setups_s": setups,
                   "problems": problems}, fh, indent=1)
        fh.write("\n")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
