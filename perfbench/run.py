"""The repo benchmark: one run of one workload, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mine-store --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice for half the time each -- untraced,
then traced -- and reports the per-layer metrics of the traced pass,
including the tracing overhead against the untraced one.  The spans are
written to ``.perfbench/spans-<workload>-<seed>.json``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds provenance (machine, versions,
commit, seed, and the percentile and sample count behind each ``_tail``).
A full copy of both goes to ``.perfbench/result-<workload>-<seed>-<trace>.json``.
Workload and metric definitions: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")

#: name -> unit of every end-to-end metric, in output order.
END_TO_END = {
    "setup_s": "s",
    "mine_s": "s",
    "points_read_ratio": "ratio",
    "feed_s": "s",
    "tick_ms_p50": "ms",
    "tick_ms_tail": "ms",
    "query_us_p50": "us",
    "query_us_tail": "us",
    "miss_query_us_p50": "us",
    "miss_query_us_tail": "us",
    "peak_rss_mb": "MB",
}


def end_to_end(run, tails: dict) -> dict:
    from measure import median, ms, peak_rss_mb, tail, us

    def tail_of(name: str, samples, scale) -> float:
        value, pct, n = tail(samples)
        tails[name] = {"percentile": pct, "samples": n}
        return scale(value)

    values = {
        "setup_s": median(run.setup_s),
        "mine_s": median(run.mine_s),
        "points_read_ratio": run.rows_read / run.rows_total,
        "feed_s": median(run.feed_s),
        "tick_ms_p50": ms(median(run.tick_s)),
        "tick_ms_tail": tail_of("tick_ms_tail", run.tick_s, ms),
        "query_us_p50": us(median(run.hot_s)),
        "query_us_tail": tail_of("query_us_tail", run.hot_s, us),
        "miss_query_us_p50": us(median(run.miss_s)),
        "miss_query_us_tail": tail_of("miss_query_us_tail", run.miss_s, us),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="trace size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import layers
    import workloads
    from measure import CoreRotation, median, provenance, scrape
    from repro.obs import METRICS
    from spans import SpanRecorder, instrument

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)

    def one_pass(seconds: float, recorder=None):
        run = workloads.Pass(WORKDIR, args.seed, seconds, args.size, recorder)
        try:
            workload(run)
        finally:
            run.close()
        return run

    tails: dict = {}
    with CoreRotation():
        if not args.trace:
            passes = [one_pass(args.seconds)]
            metrics = end_to_end(passes[0], tails)
        else:
            primary = workloads.PRIMARY[args.workload]
            untraced = one_pass(args.seconds / 2)
            recorder = SpanRecorder()
            with instrument(recorder):
                before = scrape(METRICS)
                traced = one_pass(args.seconds / 2, recorder)
                traced.registry_before, traced.registry_after = before, scrape(METRICS)
            passes = [untraced, traced]
            metrics = layers.as_metrics(layers.layer_values(
                traced, median(getattr(untraced, primary)),
                median(getattr(traced, primary))))
            recorder.dump(os.path.join(
                WORKDIR, f"spans-{args.workload}-{args.seed}.json"))

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    info = {"provenance": provenance(ROOT, args.workload, args.seed),
            "tails": tails, "failures": failures[:20]}
    with open(os.path.join(
            WORKDIR, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
            "w") as handle:
        json.dump({**info, **result}, handle, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
