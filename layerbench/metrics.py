"""End-to-end and per-layer metric tables, computed from finished runs."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from layerbench import pace
from layerbench.stats import median, p50_or_zero, tail, tail_or_none
from layerbench.trace import Recorder
from layerbench.workloads import Run

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("sc_p50_us", "us"),
    ("sc_p99_us", "us"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("smcc_p50_us", "us"),
    ("smcc_p99_us", "us"),
    ("smcc_l_p50_us", "us"),
    ("smcc_l_p90_us", "us"),
    ("update_p50_us", "us"),
    ("publish_mean_ms", "ms"),
    ("publish_p90_ms", "ms"),
    ("read_qps", "1/s"),
    ("rss_mb", "MiB"),
)


def end_to_end(run: Run) -> Dict[str, float]:
    """Every end-to-end metric at the reference pace; raises when a tail lacks samples."""
    lat = {kind: run.paced(kind) for kind in ("sc", "batch", "smcc", "smcc_l", "update", "publish")}
    # p99s of the reads are pauses; see pace.TAIL_EXPONENT
    tails = {kind: run.paced(kind, pace.TAIL_EXPONENT) for kind in ("sc", "batch", "smcc")}
    return {
        "setup_s": median(run.paced_setup_s()),
        "sc_p50_us": median(lat["sc"]),
        "sc_p99_us": tail(tails["sc"], 99),
        "batch_p50_us": median(lat["batch"]),
        "batch_p99_us": tail(tails["batch"], 99),
        "smcc_p50_us": median(lat["smcc"]),
        "smcc_p99_us": tail(tails["smcc"], 99),
        "smcc_l_p50_us": median(lat["smcc_l"]),
        "smcc_l_p90_us": tail(lat["smcc_l"], 90),
        "update_p50_us": median(lat["update"]),
        "publish_mean_ms": sum(lat["publish"]) / len(lat["publish"]) / 1e3,
        "publish_p90_ms": tail(lat["publish"], 90) / 1e3,
        "read_qps": run.read_queries / run.paced_read_seconds(),
        "rss_mb": run.rss_mb,
    }


#: (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("index.connectivity_graph.build_s", "s"),
    ("kecc.calls", "count"),
    ("kecc.s", "s"),
    ("index.mst.build_s", "s"),
    ("index.mst_star.build_s", "s"),
    ("serve.serving.sc.self_us_p50", "us"),
    ("serve.serving.batch.self_us_p50", "us"),
    ("serve.serving.smcc.self_us_p50", "us"),
    ("serve.cache.get_us_p50", "us"),
    ("serve.cache.put_us_p50", "us"),
    ("serve.cache.hit_ratio", "frac"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.advance_us_p50", "us"),
    ("serve.cache.invalidations", "count"),
    ("serve.cache.carried_over", "count"),
    ("serve.planner.plan_us_p50", "us"),
    ("serve.planner.execute_us_p50", "us"),
    ("serve.planner.probes_saved_frac", "frac"),
    ("serve.snapshot.sc_us_p50", "us"),
    ("serve.snapshot.smcc_us_p50", "us"),
    ("serve.snapshot.smcc_l_us_p50", "us"),
    ("index.mst.extract_us_p50", "us"),
    ("index.mst_star.smcc_l_interval_frac", "frac"),
    ("index.maintenance.update_us_p50", "us"),
    ("index.maintenance.sc_changes_mean", "count"),
    ("serve.publisher.publish_ms_p50", "ms"),
    ("serve.publisher.delta_frac", "frac"),
    ("serve.publisher.affected_p50", "count"),
    ("serve.delta.capture_ms_p50", "ms"),
    ("serve.delta.shared_fraction_mean", "frac"),
    ("serve.snapshot.capture_ms_p50", "ms"),
    ("serve.shard.start_s", "s"),
    ("serve.shard.warmup_s", "s"),
    ("serve.shard.export_ms_p50", "ms"),
    ("serve.shard.route_us_p50", "us"),
    ("serve.shard.request_us_p50", "us"),
    ("serve.shard.request_us_p99", "us"),
    ("serve.shard.load_max_over_mean", "ratio"),
    ("serve.shard.coalesced_per_batch", "count"),
    ("serve.shard.restarts", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(traced: Run, untraced: Run, rec: Recorder) -> Dict[str, float]:
    """Every per-layer metric of a traced run.

    Build metrics come from the traced set-up, everything else from
    spans that start inside the timed phase.  A layer that did no work
    on the workload reports 0.
    """
    timed = traced.window
    setup = (0, timed[0])

    def p50(name: str, window: Optional[Tuple[int, int]] = timed, scale: float = 1.0) -> float:
        return p50_or_zero(rec.durations_us(name, window)) / scale

    def total_s(name: str, window: Tuple[int, int]) -> float:
        return sum(rec.durations_us(name, window)) / 1e6

    def self_p50(name: str) -> float:
        return p50_or_zero(rec.self_us(name, timed))

    before, after = traced.cache_before, traced.cache_after
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    counts = rec.counts
    publishes = counts.get("publish.count", 0)
    snapshot_smcc_l = len(rec.named("serve.snapshot.smcc_l", timed))
    requests = rec.durations_us("serve.shard.request", timed)
    lag = tail_or_none(traced.lags_ms, 99) if traced.lags_ms else 0.0
    return {
        "index.connectivity_graph.build_s": total_s("index.connectivity_graph.build", setup),
        "kecc.calls": float(len(rec.named("kecc", setup))),
        "kecc.s": total_s("kecc", setup),
        "index.mst.build_s": total_s("index.mst.build", setup),
        "index.mst_star.build_s": total_s("index.mst_star.build", setup),
        "serve.serving.sc.self_us_p50": self_p50("serve.serving.sc"),
        "serve.serving.batch.self_us_p50": self_p50("serve.serving.batch"),
        "serve.serving.smcc.self_us_p50": self_p50("serve.serving.smcc"),
        "serve.cache.get_us_p50": p50("serve.cache.get"),
        "serve.cache.put_us_p50": p50("serve.cache.put"),
        "serve.cache.hit_ratio": _ratio(delta.get("hits", 0), delta.get("hits", 0) + delta.get("misses", 0)),
        "serve.cache.evictions": float(delta.get("evictions", 0)),
        "serve.cache.advance_us_p50": p50("serve.cache.advance"),
        "serve.cache.invalidations": float(delta.get("invalidations", 0)),
        "serve.cache.carried_over": float(delta.get("carried_over", 0)),
        "serve.planner.plan_us_p50": p50("serve.planner.plan"),
        "serve.planner.execute_us_p50": p50("serve.planner.execute"),
        "serve.planner.probes_saved_frac": _ratio(
            counts.get("planner.probes_saved", 0), counts.get("planner.probes_requested", 0)
        ),
        "serve.snapshot.sc_us_p50": p50("serve.snapshot.sc"),
        "serve.snapshot.smcc_us_p50": p50("serve.snapshot.smcc"),
        "serve.snapshot.smcc_l_us_p50": p50("serve.snapshot.smcc_l"),
        "index.mst.extract_us_p50": p50("index.mst.extract"),
        "index.mst_star.smcc_l_interval_frac": _ratio(
            len(rec.named("index.mst_star.smcc_l_interval", timed)), snapshot_smcc_l
        ),
        "index.maintenance.update_us_p50": p50("index.maintenance.update"),
        "index.maintenance.sc_changes_mean": _mean(rec.values.get("maintenance.sc_changes", [])),
        "serve.publisher.publish_ms_p50": p50("serve.publisher.publish", scale=1e3),
        "serve.publisher.delta_frac": _ratio(counts.get("publish.mode.delta", 0), publishes),
        "serve.publisher.affected_p50": p50_or_zero(rec.values.get("publish.affected", [])),
        # successful delta captures only; a refused one returns at once
        "serve.delta.capture_ms_p50": p50_or_zero(rec.values.get("delta.capture_ms", [])),
        "serve.delta.shared_fraction_mean": _mean(rec.values.get("publish.shared_fraction", [])),
        "serve.snapshot.capture_ms_p50": p50("serve.snapshot.capture", scale=1e3),
        "serve.shard.start_s": total_s("serve.shard.start", setup),
        "serve.shard.warmup_s": traced.extra.get("warmup_s", 0.0),
        "serve.shard.export_ms_p50": p50("serve.shard.export", scale=1e3),
        "serve.shard.route_us_p50": p50("serve.shard.route"),
        "serve.shard.request_us_p50": p50_or_zero(requests),
        "serve.shard.request_us_p99": tail_or_none(requests, 99) or 0.0,
        "serve.shard.load_max_over_mean": traced.extra.get("load_max_over_mean", 0.0),
        "serve.shard.coalesced_per_batch": traced.extra.get("coalesced_per_batch", 0.0),
        "serve.shard.restarts": traced.extra.get("restarts", 0.0),
        "loadgen.lag_p99_ms": lag or 0.0,
        "trace.overhead_frac": median(traced.lat["sc"]) / median(untraced.lat["sc"]) - 1.0,
    }
