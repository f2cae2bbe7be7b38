"""Per-layer metrics of a traced pass.

Layer names are the program's modules.  ``storage.*`` and
``core.<phase>.*`` are per ``K2Hop.mine`` call (mean over the pass's
recorded calls on that backend) so they compare directly with
``mine_s``; every other metric is a total or a median over the traced
pass.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.stats import PHASES

from measure import delta_sum, median, ms, us
from spans import QUERY_FAMILIES

BACKENDS = ("rdbms", "lsmt", "memory")

L, H = "lower", "higher"

#: name -> (unit, better); the order is the order of the output.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {}
for _b in BACKENDS:
    LAYER_METRICS.update({
        f"storage.{_b}.fetch_calls": ("count/call", L),
        f"storage.{_b}.fetch_s": ("s/call", L),
        f"storage.{_b}.rows": ("count/call", L),
        f"storage.{_b}.pages_read": ("count/call", L),
        f"storage.{_b}.point_queries": ("count/call", L),
        f"storage.{_b}.buffer_hit_ratio": ("ratio", H),
    })
for _c in ("cluster_snapshot", "cluster_with_cores"):
    LAYER_METRICS.update({
        f"clustering.{_c}.calls": ("count", L),
        f"clustering.{_c}.s": ("s", L),
        f"clustering.{_c}.points_in": ("count", L),
    })
for _p in PHASES:
    LAYER_METRICS.update({
        f"core.{_p}.s": ("s/call", L),
        f"core.{_p}.self_s": ("s/call", L),
        f"core.{_p}.points": ("count/call", L),
    })
LAYER_METRICS.update({
    "core.recluster.calls": ("count", L),
    "core.recluster.useful_ratio": ("ratio", H),
    "core.validation_yield": ("ratio", H),
    "service.ingest.observe_s": ("s", L),
    "service.ingest.finish_s": ("s", L),
    "service.ingest.cluster_s": ("s", L),
    "service.ingest.reconcile_s": ("s", L),
    "service.ingest.chain_s": ("s", L),
    "service.ingest.halo_copies": ("count", L),
    "service.ingest.border_merges": ("count", L),
    "service.ingest.closed_convoys": ("count", L),
    "service.durability.wal_appends": ("count", L),
    "service.durability.wal_bytes": ("bytes", L),
    "service.durability.wal_append_s": ("s", L),
    "service.durability.checkpoints": ("count", L),
    "service.durability.checkpoint_s": ("s", L),
    "service.index.lookup_s": ("s", L),
    "service.index.rows": ("count", L),
    "service.index.version_bumps": ("count", L),
    "service.index.bytes_written": ("bytes", L),
    "service.index.pages_written": ("count", L),
})
for _f in QUERY_FAMILIES:
    LAYER_METRICS.update({
        f"service.query.{_f}.hit_us_p50": ("us", L),
        f"service.query.{_f}.miss_us_p50": ("us", L),
    })
LAYER_METRICS.update({
    "service.query.open_candidates_us_p50": ("us", L),
    "service.query.cache_hit_ratio": ("ratio", H),
    "service.query.cache_evictions": ("count", L),
})
LAYER_METRICS.update({
    "obs.scrape_ms": ("ms", L),
    "obs.trace_overhead_pct": ("%", L),
    "baselines.vcoda_star_s": ("s", L),
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(run, untraced_primary: float, traced_primary: float) -> Dict[str, float]:
    """Every per-layer metric of the traced pass ``run``."""
    rec = run.recorder
    before, after = run.registry_before, run.registry_after
    out: Dict[str, float] = {}

    # storage: proxy counts and spans, plus the store's own IOStats.
    for backend in BACKENDS:
        sources = run.sources.get(backend, [])
        calls = len(sources)
        io0 = run.io_before.get(backend, {})
        io1 = run.io_after.get(backend, {})

        def io(field: str) -> float:
            return io1.get(field, 0) - io0.get(field, 0)

        hits, misses = io("buffer_hits"), io("buffer_misses")
        out.update({
            f"storage.{backend}.fetch_calls": _ratio(sum(s.calls for s in sources), calls),
            f"storage.{backend}.fetch_s": _ratio(rec.total("storage." + backend)[1], calls),
            f"storage.{backend}.rows": _ratio(sum(s.rows for s in sources), calls),
            f"storage.{backend}.pages_read": _ratio(io("pages_read"), calls),
            f"storage.{backend}.point_queries": _ratio(io("point_queries"), calls),
            f"storage.{backend}.buffer_hit_ratio": _ratio(hits, hits + misses),
        })

    for name in ("cluster_snapshot", "cluster_with_cores"):
        count, seconds = rec.total(f"clustering.{name}")
        out[f"clustering.{name}.calls"] = count
        out[f"clustering.{name}.s"] = seconds
        out[f"clustering.{name}.points_in"] = rec.cluster_points[name]

    # core: MiningStats of the recorded calls; self time from the spans.
    stats = run.mining_stats
    calls = len(stats)
    self_times = rec.self_times("core.", ("storage.", "clustering."))
    for phase in PHASES:
        out[f"core.{phase}.s"] = _ratio(
            sum(s.phase_times.get(phase, 0.0) for s in stats), calls)
        out[f"core.{phase}.self_s"] = _ratio(self_times.get("core." + phase, 0.0), calls)
        out[f"core.{phase}.points"] = _ratio(
            sum(s.points_processed_by_phase.get(phase, 0) for s in stats), calls)
    out["core.recluster.calls"] = rec.recluster_calls
    out["core.recluster.useful_ratio"] = _ratio(rec.recluster_useful, rec.recluster_calls)
    out["core.validation_yield"] = _ratio(
        sum(s.convoy_count for s in stats),
        sum(s.pre_validation_convoy_count for s in stats))

    def grew(name: str) -> float:
        return delta_sum(before, after, name)

    out.update({
        "service.ingest.observe_s": grew("repro_ingest_tick_seconds_sum"),
        "service.ingest.finish_s": rec.total("service.finish")[1],
        "service.ingest.cluster_s": grew("repro_ingest_shard_cluster_seconds_sum"),
        "service.ingest.reconcile_s": grew("repro_ingest_reconcile_seconds_sum"),
        "service.ingest.chain_s": grew("repro_ingest_chain_seconds_sum"),
        **{f"service.ingest.{k}": v for k, v in run.ingest.items()},
        "service.durability.wal_appends": grew("repro_service_wal_appends_total"),
        "service.durability.wal_bytes": grew("repro_service_wal_bytes_total"),
        "service.durability.wal_append_s": grew("repro_service_wal_append_seconds_sum"),
        "service.durability.checkpoints": grew("repro_service_checkpoint_seconds_count"),
        "service.durability.checkpoint_s": grew("repro_service_checkpoint_seconds_sum"),
        "service.index.lookup_s": rec.total("index.lookup")[1],
        **{f"service.index.{k}": v for k, v in run.index.items()},
    })

    for family in QUERY_FAMILIES:
        for kind in ("hit", "miss"):
            out[f"service.query.{family}.{kind}_us_p50"] = us(
                median(rec.durations(f"query.{family}.{kind}")))
    out["service.query.open_candidates_us_p50"] = us(
        median(rec.durations("query.open_candidates")))
    out["service.query.cache_hit_ratio"] = _ratio(
        run.cache["hits"], run.cache["hits"] + run.cache["misses"])
    out["service.query.cache_evictions"] = run.cache["evictions"]

    out["obs.scrape_ms"] = ms(median(run.scrape_s))
    out["obs.trace_overhead_pct"] = 100.0 * _ratio(
        traced_primary - untraced_primary, untraced_primary)
    out["baselines.vcoda_star_s"] = run.vcoda_star_s
    missing = set(LAYER_METRICS) ^ set(out)
    if missing:
        raise AssertionError(f"per-layer metric mismatch: {sorted(missing)}")
    return out


def as_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}
