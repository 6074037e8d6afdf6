"""Self-tests of the benchmark against the program; about a minute.

    python3 -m pytest -q bench/check_bench.py

Run from the root of a checkout: dlocal is imported from ``src``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import dlocal  # noqa: E402
import defects  # noqa: E402
import run  # noqa: E402


def test_twisted_part_json_is_the_same_at_jobs_0_and_2():
    rs = dlocal.build_root_system(4)
    hw = dlocal.HighestWeight.from_twist(run.TwistedPart.twist)
    sequential = dlocal.local_part(rs, hw, 2, jobs=0).to_json_str()
    pooled = dlocal.local_part(rs, hw, 2, jobs=2).to_json_str()
    assert sequential == pooled


def test_twisted_part_round_passes_its_checks():
    workload = run.TwistedPart(1)
    spec = workload.spec(0)
    out = run.run_child(dict(spec, systems=workload.systems))
    assert workload.check(spec, out) == (1, 0, [])


def test_program_differs_from_product_only_at_listed_weights():
    # The seeded draw skips the listed weights, so no seeded query may fail.
    with open(run.D5_DEFECTS) as fh:
        listed = {tuple(lam) for lam in json.load(fh)}
    assert set(defects.differing_weights()) <= listed


def test_coeff_queries_fails_exactly_where_program_and_product_differ():
    workload = run.CoeffQueries(1)
    spec = workload.spec(0)
    out = run.run_child(dict(spec, systems=workload.systems))
    attempted, failed, problems = workload.check(spec, out)
    differing = [tuple(lam) for (rank, _, _, lam), value in zip(spec["queries"], out["values"])
                 if rank == 5 and run.refs.ring_value(value) != {(): workload.product[tuple(lam)]}]
    assert problems == []
    assert attempted == run.QUERIES_PER_ROUND + run.FIXED_FAILURES + 1
    assert failed == len(differing)
    assert set(differing) <= set(workload.fixed)
    assert (1, 1, 3, 4, 2) in workload.fixed


def test_result_reports_one_rounds_counts():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "coeff-queries",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open("BENCH_coeff-queries.json") as fh:
        counts = json.load(fh)["counts"]
    assert len(counts) >= 2
    assert all(tuple(c) == tuple(counts[0]) for c in counts)
    assert [result["attempted"], result["failed"]] == list(counts[0])
    assert result["attempted"] == run.QUERIES_PER_ROUND + run.FIXED_FAILURES + 1
    assert result["correct"]


def test_coeff_queries_never_draws_a_known_defect():
    workload = run.CoeffQueries(7)
    for i in range(20):
        drawn = [tuple(q[3]) for q in workload.queries(i)]
        assert len(drawn) == run.QUERIES_PER_ROUND + run.FIXED_FAILURES + 1
        assert sum(lam in workload.defects for lam in drawn) == run.FIXED_FAILURES


def test_inputs_repeat_for_a_seed_and_change_with_it():
    assert run.CoeffQueries(3).queries(2) == run.CoeffQueries(3).queries(2)
    assert run.CoeffQueries(3).queries(2) != run.CoeffQueries(4).queries(2)
    assert run.TwistedPart(3).check_indices == run.TwistedPart(3).check_indices


def test_traced_counts_repeat():
    workload = run.CoeffQueries(1)
    spec = dict(workload.spec(0), systems=workload.systems, trace=True)
    spec["queries"] = spec["queries"][:40]
    first, second = (run.run_child(spec)["layers"] for _ in range(2))
    counts = {k for k, unit in run.LAYER_METRICS.items() if unit != "s"}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["pattern.row_fills.calls"] > 0


def test_runner_refuses_a_directory_without_the_program():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "count-d6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
