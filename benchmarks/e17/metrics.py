"""Metric definitions: names, units, directions, and how each value is
derived from one section's outcome.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
carries (``test_e17.py`` holds the two in step).  A *post* is one
delivery to one recipient — what ``posts_per_s`` counts; a group raise
with four members is four posts.  Counters are read once, after the
section, so they cover the cluster's whole life, set-up included (under
half a percent of any count at the committed sizes).

**Why timings are calibrated.**  The benchmark has to hold a tenth on a
two-core host shared with other tenants, where the same section was
measured anywhere between 19 k and 40 k posts/s within minutes and the
host changes speed in regimes that outlast a whole run.  So a section is
cut into ``workloads.CHUNKS`` chunks of equal load, a fixed calibration
slice of interpreter work is timed at every chunk boundary, each chunk's
wall and CPU time is expressed in the slices next to it, and the section
reports the median chunk.  A neighbour slows chunk and slice alike and
cancels; a change to the program moves the chunk only.  The raw,
uncalibrated figures are kept as ``loadgen.raw_*`` per-layer metrics.
"""

from __future__ import annotations

import statistics
from typing import Any

from e17.trace import layer_of

#: What one calibration slice (workloads.calibration_slice) takes on the
#: quiet host the benchmark was defined on.  Every timing is measured in
#: slices taken next to it and multiplied by this, so it reads in the
#: reference host's seconds whatever the neighbours were doing.
CALIBRATION_REF_S = 3.0e-3

#: (name, unit, better, bound)
END_TO_END = (
    ("posts_per_s", "1/s", "higher", 0.20),
    ("cpu_us_per_post", "us", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: layers whose total self time is reported as ``<layer>.self_us_per_post``;
#: self time of any other span name is folded into ``other``
LAYERS = ("sim.scheduler", "events.delivery", "events.locate",
          "threads.thread", "net.fabric", "net.reliable", "store.journal",
          "store.manager", "transport.simlocal", "transport.codec",
          "transport.tcp", "transport.realtime", "loadgen", "calibration",
          "other")

#: (name, unit, better).  ``virt_s`` is virtual (simulated) seconds:
#: exact per seed, never comparable with wall time.
PER_LAYER = (
    # raise -> first handler start; virtual on sim/sharded, wall on tcp
    ("events.delivery.deliver_p50_virt_s", "virt_s", "lower"),
    ("events.delivery.deliver_p99_virt_s", "virt_s", "lower"),
    ("transport.tcp.deliver_p50_s", "s", "lower"),
    ("transport.tcp.deliver_p99_s", "s", "lower"),
    ("sim.scheduler.events_per_post", "count", "lower"),
    ("sim.scheduler.wheel_spills", "count", "lower"),
    ("events.delivery.raise_self_us_per_post", "us", "lower"),
    ("events.delivery.deliveries_per_raise", "count", "higher"),
    ("events.delivery.sync_resume_p50_virt_s", "virt_s", "lower"),
    ("events.delivery.undeliverable", "count", "lower"),
    ("events.handlers.chain_steps_per_delivery", "count", "lower"),
    ("events.handlers.chain_step_gap_us", "us", "lower"),
    ("events.locate.msgs_per_post", "count", "lower"),
    ("events.locate.post_self_us", "us", "lower"),
    ("net.fabric.msgs_per_post", "count", "lower"),
    ("net.fabric.send_self_us_per_msg", "us", "lower"),
    ("net.fabric.dropped_per_kpost", "count", "lower"),
    ("net.reliable.sends_per_post", "count", "lower"),
    ("net.reliable.acks_per_post", "count", "lower"),
    ("net.reliable.retransmits_per_kpost", "count", "lower"),
    ("net.reliable.duplicates_suppressed_per_kpost", "count", "lower"),
    ("net.reliable.self_us_per_msg", "us", "lower"),
    ("store.journal.appends_per_post", "count", "lower"),
    ("store.journal.commits_per_post", "count", "lower"),
    ("store.journal.bytes_per_post", "count", "lower"),
    ("store.journal.checkpoints_per_kpost", "count", "lower"),
    ("store.journal.append_self_us", "us", "lower"),
    ("store.outbox.redelivered_per_kpost", "count", "lower"),
    ("store.outbox.pending_at_end", "count", "lower"),
    ("transport.codec.bytes_per_msg", "count", "lower"),
    ("transport.codec.encode_us_per_msg", "us", "lower"),
    ("transport.codec.decode_us_per_msg", "us", "lower"),
    ("transport.sharded.windows", "count", "lower"),
    ("transport.sharded.cross_shard_msgs_per_post", "count", "lower"),
    ("transport.sharded.wall_us_per_window", "us", "lower"),
    ("transport.sharded.worker_busy_fraction", "ratio", "higher"),
    ("transport.sharded.barrier_wait_fraction", "ratio", "lower"),
    ("transport.sharded.parent_cpu_us_per_post", "us", "lower"),
    ("transport.tcp.frames_per_post", "count", "lower"),
    ("transport.tcp.bytes_per_post", "count", "lower"),
    ("transport.tcp.post_self_us_per_frame", "us", "lower"),
    ("transport.tcp.oob_tokens", "count", "lower"),
    ("transport.realtime.timers_per_post", "count", "lower"),
    # what the host's clock read, before calibration
    ("loadgen.raw_posts_per_s", "1/s", "higher"),
    ("loadgen.raw_cpu_us_per_post", "us", "lower"),
    ("loadgen.raw_setup_s", "s", "lower"),
    ("loadgen.calibration_slice_ms", "ms", "lower"),
) + tuple((f"{layer}.self_us_per_post", "us", "lower") for layer in LAYERS) + (
    ("trace.overhead_fraction", "ratio", "lower"),
)

#: per-layer metrics that must repeat exactly per seed on the
#: deterministic workloads (everything not timed on the host's clock)
EXACT_UNITS = ("count", "virt_s")


def quantile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def host_scale(outcome: dict[str, Any]) -> float:
    """Reference seconds per measured second over this section: what a
    duration is multiplied by to cancel the host's speed at the time."""
    return ratio(CALIBRATION_REF_S, statistics.median(outcome["slices"]))


def chunk_costs(outcome: dict[str, Any]) -> tuple[float, float]:
    """Median over the chunks of (time, CPU) per post, in slices.  The
    first and last chunk (warm-up, drain) are left out when there are
    enough others."""
    chunks = [c for c in outcome["chunks"] if c[0] > 0]
    if len(chunks) >= 4:
        chunks = chunks[1:-1]
    return (statistics.median(c[1] / c[0] for c in chunks),
            statistics.median(c[2] / c[0] for c in chunks))


def end_to_end(outcome: dict[str, Any]) -> dict[str, float]:
    time_cost, cpu_cost = chunk_costs(outcome)
    return {
        "posts_per_s": 1.0 / (time_cost * CALIBRATION_REF_S),
        "cpu_us_per_post": cpu_cost * CALIBRATION_REF_S * 1e6,
        "peak_rss_mb": outcome["peak_rss_mb"],
        # the slices nearest the set-up are the section's first ones
        "setup_s": outcome["setup_s"] * ratio(
            CALIBRATION_REF_S, statistics.median(outcome["slices"][:5])),
    }


def count_metrics(outcome: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics read from the public counters and the ledger."""
    posts = outcome["executed"]
    kposts = posts / 1000.0
    stats = outcome["stats"]
    sched, msgs = stats["scheduler"], stats["messages"]
    rel, dur, wire = (stats["reliability"], stats["durability"],
                      stats["transport"])
    sharded = stats.get("sharded")
    realtime = sched.get("backend") == "realtime"
    latencies = outcome["latencies"]
    p50, p99 = quantile(latencies, 0.5), quantile(latencies, 0.99)
    chain = outcome["chain"]
    out = {
        "events.delivery.deliver_p50_virt_s": 0.0 if realtime else p50,
        "events.delivery.deliver_p99_virt_s": 0.0 if realtime else p99,
        "transport.tcp.deliver_p50_s": p50 if realtime else 0.0,
        "transport.tcp.deliver_p99_s": p99 if realtime else 0.0,
        "sim.scheduler.events_per_post": ratio(sched.get("executed", 0),
                                               posts),
        "sim.scheduler.wheel_spills": sched.get("wheel_spills", 0),
        "events.delivery.deliveries_per_raise": ratio(posts,
                                                      outcome["raises"]),
        "events.delivery.sync_resume_p50_virt_s": quantile(
            outcome.get("sync_resumes", []), 0.5),
        "events.delivery.undeliverable": stats["undeliverable"],
        "events.handlers.chain_steps_per_delivery": ratio(chain["steps"],
                                                          posts),
        "events.handlers.chain_step_gap_us": ratio(chain["gap_ns"] / 1e3,
                                                   chain["gaps"]),
        "events.locate.msgs_per_post": ratio(
            sum(n for key, n in msgs.items()
                if key.startswith("type:locate.")), posts),
        "net.fabric.msgs_per_post": ratio(msgs["sent"], posts),
        "net.fabric.dropped_per_kpost": ratio(msgs["dropped"], kposts),
        "net.reliable.sends_per_post": ratio(rel["sends"], posts),
        "net.reliable.acks_per_post": ratio(rel["acks_sent"], posts),
        "net.reliable.retransmits_per_kpost": ratio(rel["retransmits"],
                                                    kposts),
        "net.reliable.duplicates_suppressed_per_kpost": ratio(
            rel["duplicates_suppressed"], kposts),
        "store.journal.appends_per_post": ratio(dur["appends"], posts),
        "store.journal.commits_per_post": ratio(dur["commits"], posts),
        "store.journal.bytes_per_post": ratio(dur["bytes_appended"], posts),
        "store.journal.checkpoints_per_kpost": ratio(dur["checkpoints"],
                                                     kposts),
        "store.outbox.redelivered_per_kpost": ratio(dur["redelivered"],
                                                    kposts),
        "store.outbox.pending_at_end": dur["pending"],
        "transport.sharded.windows": 0,
        "transport.sharded.cross_shard_msgs_per_post": 0.0,
        "transport.sharded.wall_us_per_window": 0.0,
        "transport.sharded.worker_busy_fraction": 0.0,
        "transport.sharded.barrier_wait_fraction": 0.0,
        "transport.sharded.parent_cpu_us_per_post": 0.0,
        "transport.tcp.frames_per_post": ratio(wire.get("frames_sent", 0),
                                               posts),
        "transport.tcp.bytes_per_post": ratio(wire.get("bytes_sent", 0),
                                              posts),
        "transport.tcp.oob_tokens": wire.get("oob_tokens", 0),
        "transport.realtime.timers_per_post": ratio(
            sched.get("events_processed", 0), posts),
    }
    if sharded is not None:
        wall, cpus = outcome["wall_s"], outcome["worker_cpu_s"]
        out.update({
            "transport.sharded.windows": sharded["windows"],
            "transport.sharded.cross_shard_msgs_per_post": ratio(
                sharded["cross_shard_msgs"], posts),
            "transport.sharded.wall_us_per_window": ratio(
                wall * 1e6, sharded["windows"]),
            "transport.sharded.worker_busy_fraction": ratio(
                sum(cpus), len(cpus) * wall),
            "transport.sharded.barrier_wait_fraction": 1.0 - ratio(
                max(cpus), wall),
            # the routing parent's CPU, which no chunk covers
            "transport.sharded.parent_cpu_us_per_post": ratio(
                outcome["parent_cpu_s"] * 1e6, posts),
        })
    return out


def raw_metrics(outcome: dict[str, Any]) -> dict[str, float]:
    """The uncalibrated figures, as the host's clock read them."""
    posts = outcome["executed"]
    return {
        "loadgen.raw_posts_per_s": ratio(posts, outcome["wall_s"]),
        "loadgen.raw_cpu_us_per_post": ratio(outcome["cpu_s"] * 1e6, posts),
        "loadgen.raw_setup_s": outcome["setup_s"],
        "loadgen.calibration_slice_ms":
            statistics.median(outcome["slices"]) * 1e3,
    }


def trace_metrics(outcome: dict[str, Any],
                  totals: dict[str, Any]) -> dict[str, float]:
    """Per-layer self times from the tracer's per-span totals, in the
    reference host's microseconds (see ``host_scale``)."""
    posts = outcome["executed"]
    spans = totals["spans"]
    scale = host_scale(outcome) / 1e3

    def self_us(*names: str) -> float:
        return sum(spans.get(name, (0, 0))[0] for name in names) * scale

    def calls(*names: str) -> int:
        return sum(spans.get(name, (0, 0))[1] for name in names)

    by_layer = dict.fromkeys(LAYERS, 0)
    for name, (self_ns, _calls) in spans.items():
        layer = layer_of(name)
        by_layer[layer if layer in by_layer else "other"] += self_ns
    reliable = ("net.reliable:send", "net.reliable:accept",
                "net.reliable:on_ack", "net.reliable:on_cum_ack")
    appends = ("store.journal:append", "store.journal:append_batch")
    encodes = ("transport.codec:encode_batch",
               "transport.codec:encode_message")
    decodes = ("transport.codec:decode_batch",
               "transport.codec:decode_message")
    encoded = totals["codec_msgs"]
    out = {
        "events.delivery.raise_self_us_per_post": ratio(
            self_us("events.delivery:raise_external"), posts),
        "events.locate.post_self_us": ratio(
            self_us("events.locate:post"), calls("events.locate:post")),
        "net.fabric.send_self_us_per_msg": ratio(
            self_us("net.fabric:send"), calls("net.fabric:send")),
        "net.reliable.self_us_per_msg": ratio(
            self_us(*reliable), calls("net.reliable:send")),
        "store.journal.append_self_us": ratio(self_us(*appends),
                                              calls(*appends)),
        "transport.codec.bytes_per_msg": ratio(totals["codec_bytes"],
                                               encoded),
        "transport.codec.encode_us_per_msg": ratio(self_us(*encodes),
                                                   encoded),
        "transport.codec.decode_us_per_msg": ratio(self_us(*decodes),
                                                   encoded),
        "transport.tcp.post_self_us_per_frame": ratio(
            self_us("transport.tcp:post"), calls("transport.tcp:post")),
    }
    for layer, self_ns in by_layer.items():
        out[f"{layer}.self_us_per_post"] = ratio(self_ns * scale, posts)
    return out


def section_report(outcome: dict[str, Any],
                   totals: dict[str, Any] | None) -> dict[str, Any]:
    """What a section subprocess prints: checks, the ledger verdict and
    every metric it can derive (per-layer only when it was traced)."""
    report = {key: outcome[key] for key in
              ("raises", "attempted", "executed", "failed", "wall_s",
               "checks", "digest")}
    report["traced"] = totals is not None
    report["end_to_end"] = end_to_end(outcome)
    # calibrated time per post, for the tracing overhead
    report["time_cost"] = chunk_costs(outcome)[0]
    if totals is not None:
        report["per_layer"] = {**count_metrics(outcome),
                               **raw_metrics(outcome),
                               **trace_metrics(outcome, totals)}
        # layer self times plus `other` must sum to the traced wall
        report["checks"]["trace_sums_to_wall"] = (
            sum(self_ns for self_ns, _calls in totals["spans"].values())
            == totals["wall_ns"])
    else:
        report["counts"] = {**count_metrics(outcome),
                            **raw_metrics(outcome)}
    return report
