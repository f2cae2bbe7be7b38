"""Self-test of the benchmark: every workload, both modes, every metric.

Runs each workload once untraced and once traced (also ``mine-wide-eps``,
which ``BENCHMARK.json`` leaves out) and checks that the
result line has exactly the contract's keys, that every output check
passed, and that it carries every end-to-end (``--trace 0``) or
per-layer (``--trace 1``) metric named in ``BENCHMARK.json``, with its
unit.  It also checks that ``BENCHMARK.json`` agrees with the metric
tables in ``run.py`` and ``layers.py``.  Then it prints every metric of
every workload.

    python3 perfbench/selftest.py                  # tiny trace, ~1 min
    python3 perfbench/selftest.py --size full --seconds 25   # the real runs
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, trace: int, seed: int, seconds: float, size: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_spec(spec: dict) -> list:
    """``BENCHMARK.json`` against the metric tables the code emits."""
    from layers import LAYER_METRICS
    from run import END_TO_END
    from workloads import WORKLOADS

    problems: list = []
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("end_to_end differs from run.END_TO_END")
    if {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} != LAYER_METRICS:
        problems.append("per_layer differs from layers.LAYER_METRICS")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("tiny", "full"), default="tiny")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = check_spec(spec)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    # Every workload the code defines, also those BENCHMARK.json leaves out.
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_once(workload, trace, args.seed, args.seconds, args.size)
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(wanted[trace]))}")
            print(f"== {where}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        print("FAIL:", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
