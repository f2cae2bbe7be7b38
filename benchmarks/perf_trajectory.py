"""End-to-end perf trajectory for the k/2-hop hot path.

Mines the three paperbench workloads (trucks / tdrive / brinkhoff) with
k/2-hop (CSR + union-find clustering, bitset convoy algebra) and
*appends* per-phase timings and total wall-clock as a new entry in
``BENCH_k2hop.json`` (see ``bench_journal.py``).  Regressions show up as
a time series, which is also rendered as an ASCII chart via
``repro.report``.  Each workload's convoys are checked against the
VCoDA* full scan outside the timed region; a mismatch exits non-zero.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf_trajectory.py --label PR-2
    PYTHONPATH=src python benchmarks/perf_trajectory.py --workloads brinkhoff --repeats 3

Timings are cold single-shot per repeat (the regime the paper measures);
the best of ``--repeats`` runs is reported to damp scheduler noise.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_journal import append_entry, entries_of_kind, load_journal  # noqa: E402
from paperbench import DATASETS, DEFAULT_QUERIES  # noqa: E402

from repro.baselines import mine_vcoda_star  # noqa: E402
from repro.core import K2Hop, sort_convoys  # noqa: E402
from repro.report import print_chart  # noqa: E402
from repro.storage import MemoryStore  # noqa: E402

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_k2hop.json",
)


def _signature(convoys) -> List:
    return [(sorted(c.objects), c.start, c.end) for c in sort_convoys(convoys)]


def _run_once(source, query) -> Dict:
    started = time.perf_counter()
    result = K2Hop(query).mine(source)
    elapsed = time.perf_counter() - started
    return {
        "total_seconds": elapsed,
        "phase_seconds": dict(result.stats.phase_times),
        "convoys": len(result.convoys),
        "points_processed": result.stats.points_processed,
        "pruning_ratio": result.stats.pruning_ratio,
        "result_signature": _signature(result.convoys),
    }


def _best_of(source, query, repeats: int) -> Dict:
    runs = [_run_once(source, query) for _ in range(repeats)]
    best = min(runs, key=lambda r: r["total_seconds"])
    best["all_total_seconds"] = [r["total_seconds"] for r in runs]
    return best


def benchmark_workload(name: str, repeats: int) -> Dict:
    dataset = DATASETS[name]()
    query = DEFAULT_QUERIES[name]
    source = MemoryStore(dataset)
    k2hop = _best_of(source, query, repeats)
    if k2hop.pop("result_signature") != _signature(
        mine_vcoda_star(source, query)
    ):
        raise SystemExit(f"{name}: k/2-hop and VCoDA* disagree on the result set")
    # The "vectorized" key keeps the journal's plotted series continuous.
    return {
        "dataset_points": dataset.num_points,
        "query": {"m": query.m, "k": query.k, "eps": query.eps},
        "vectorized": k2hop,
    }


def plot_trajectory(journal: Dict) -> None:
    """ASCII chart of k/2-hop wall-clock per workload across entries."""
    mining = entries_of_kind(journal, "mining")
    if not mining:
        return
    names = sorted(
        {name for entry in mining for name in entry.get("workloads", {})}
    )
    series = {}
    for name in names:
        values = [
            entry["workloads"][name]["vectorized"]["total_seconds"] * 1e3
            for entry in mining
            if name in entry.get("workloads", {})
        ]
        if len(values) == len(mining):  # only plot fully aligned series
            series[name] = values
    if not series:
        return
    print_chart(
        series,
        list(range(1, len(mining) + 1)),
        title="perf trajectory: k/2-hop total (ms) per journal entry",
        log_y=True,
        y_label="ms",
    )


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT, help="journal JSON path")
    parser.add_argument(
        "--workloads",
        default="trucks,tdrive,brinkhoff",
        help="comma-separated workload names",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="runs per workload; best is kept"
    )
    parser.add_argument(
        "--label", default=None, help="entry label (e.g. PR-2); default: serial"
    )
    args = parser.parse_args(argv)

    workloads = {}
    for name in args.workloads.split(","):
        name = name.strip()
        if name not in DATASETS:
            parser.error(f"unknown workload {name!r}; choose from {sorted(DATASETS)}")
        print(f"mining {name} ...", flush=True)
        workloads[name] = benchmark_workload(name, args.repeats)
        row = workloads[name]
        print(
            f"  k/2-hop {row['vectorized']['total_seconds'] * 1e3:8.1f} ms"
            f"   convoys {row['vectorized']['convoys']} (= VCoDA*)"
        )

    journal = load_journal(args.out)
    # Number mining entries only, so labels line up with the plotted series.
    serial = len(entries_of_kind(journal, "mining")) + 1
    entry = {
        "kind": "mining",
        "label": args.label if args.label is not None else f"run-{serial}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "workloads": workloads,
    }
    journal = append_entry(args.out, entry, journal)
    print(f"appended entry {len(journal['entries'])} to {args.out}")
    plot_trajectory(journal)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
