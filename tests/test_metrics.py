"""``Cluster.metrics()``: one flat ``layer.module.metric`` namespace, the
only place counters are summed across nodes, and the views built on it."""

import re
from collections import Counter

import pytest

from repro import Cluster, ClusterConfig
from repro.bench import chaos
from repro.bench.scenario import run_scenario
from tests.conftest import Recorder
from tests.test_supervise import PoisonApp, _rig

KEY = re.compile(r"^[a-z]+\.[a-z_]+\.[\w.:-]+$")

#: SWIM, supervision, admission and durable delivery on, a multicast
#: locator, and poisoned handlers: every counter source has something
FULL = {"swim_interval": 0.02, "handler_deadline": 0.05,
        "poison_threshold": 2, "handler_retries": 2, "admission_high": 6}
SPEC = dict(seed=5, posts=60, durable=True, locator="multicast",
            handler_faults={"poison": 0.1, "raise": 0.1}, config=FULL)

#: what only the wheel keeps (the heap reads zero or leaves them out)
WHEEL_ONLY = ("sim.scheduler.wheel_spills", "sim.scheduler.wheel_migrations",
              "sim.scheduler.wheel_buckets")


def _layer(metrics, layer):
    prefix = layer + "."
    return {key[len(prefix):]: value for key, value in metrics.items()
            if key.startswith(prefix)}


def _summed(dicts):
    totals = Counter()
    for stats in dicts:
        totals.update(stats)
    return dict(totals)


@pytest.fixture(scope="module")
def full_run():
    """The chaos run with every source on, and its cluster at the end."""
    report = run_scenario(chaos.scenario(**SPEC))
    return report, report.cluster


class TestNames:
    def test_every_key_is_layer_module_metric_and_every_value_an_int(
            self, full_run):
        report, _cluster = full_run
        assert report.violations == []
        for key, value in report.metrics.items():
            assert KEY.match(key), key
            assert type(value) is int, (key, value)

    def test_every_source_reports(self, full_run):
        report, _cluster = full_run
        layers = {".".join(key.split(".")[:2]) for key in report.metrics}
        assert layers == {
            "sim.scheduler", "transport.simlocal", "net.fabric",
            "net.reliable", "events.route", "events.post", "events.execute",
            "events.settle", "events.supervise", "events.admission",
            "events.locate", "dsm.manager", "kernel.membership",
            "store.journal", "store.outbox", "store.manager"}

    def test_backend_names_and_clocks_are_left_out(self, full_run):
        report, _cluster = full_run
        assert not any(key.endswith((".backend", ".now"))
                       for key in report.metrics)


class TestOneSum:
    def test_each_per_node_component_sum_is_its_layer(self, full_run):
        report, cluster = full_run
        metrics = cluster.metrics()
        assert metrics == report.metrics  # nothing ran since
        kernels = cluster.kernels.values()
        events = cluster.events
        per_node = {
            "net.reliable": [k.reliable.stats() for k in kernels],
            "kernel.membership": [k.membership.stats() for k in kernels],
            "store.journal": [k.store.journal.stats() for k in kernels],
            "store.outbox": [k.store.outbox.stats() for k in kernels],
            "store.manager": [k.store.stats() for k in kernels],
            "events.admission": [gate.stats()
                                 for gate in events.admission.values()],
            "events.supervise": [events.supervisor.stats()] + [
                {"held": len(k.dead_letters)} for k in kernels],
            "events.locate": list(events.locator.counters()),
        }
        for layer, parts in per_node.items():
            assert _layer(metrics, layer) == _summed(parts), layer
        assert _layer(metrics, "events.route") == {
            "posts": events.route.posts}
        assert _layer(metrics, "events.settle") == {
            "undeliverable": events.undeliverable,
            "executed": events.settle.outcomes["executed"],
            "noticed": events.settle.outcomes["noticed"],
            "quarantined": events.settle.outcomes["quarantined"],
            "open": len(events.settle.open)}

    def test_views_are_projections_of_metrics(self, full_run):
        _report, cluster = full_run
        metrics = cluster.metrics()
        assert cluster.reliability_stats() == _layer(metrics, "net.reliable")
        assert cluster.message_stats() == _layer(metrics, "net.fabric")
        assert cluster.durability_stats() == {
            **_layer(metrics, "store.journal"),
            **_layer(metrics, "store.outbox"),
            **_layer(metrics, "store.manager")}
        scheduler = cluster.scheduler_stats()
        assert {key: value for key, value in scheduler.items()
                if key != "backend"} == _layer(metrics, "sim.scheduler")

    def test_heap_and_wheel_give_one_metrics(self, full_run):
        heap, _cluster = full_run
        wheel = run_scenario(chaos.scenario(
            **dict(SPEC, config=dict(FULL, scheduler="wheel"))))
        assert wheel.digest == heap.digest
        assert wheel.metrics["sim.scheduler.wheel_spills"] > 0
        strip = [{key: value for key, value in report.metrics.items()
                  if key not in WHEEL_ONLY} for report in (heap, wheel)]
        assert strip[0] == strip[1]

    def test_off_layers_stay_quiet(self):
        cluster = _rig(n_nodes=2)
        cluster.run(until=0.1)
        metrics = cluster.metrics()
        # a disabled detector reports nothing; an idle gate reads zero
        assert not any(key.startswith("kernel.membership.")
                       for key in metrics)
        assert set(_layer(metrics, "events.admission").values()) == {0}
        assert not any(key.startswith("events.locate.") for key in metrics)


class TestDeadLetterCounters:
    """Each dead-letter fact is counted once, by the supervisor, split by
    reason; the queues keep only what they hold."""

    def _run(self):
        cluster = _rig(n_nodes=3, poison_threshold=2, handler_backoff=1e-3,
                       reliable_delivery=True, max_retransmits=4)
        cluster.register_event("PING")
        healthy, handled = [False], []
        app = cluster.create_object(PoisonApp, node=0)
        thread = cluster.spawn(app, "work", healthy, handled, at=0)
        cap = cluster.create_object(Recorder, node=2)
        cluster.run(until=0.1)
        cluster.raise_event("EVT", thread.tid, from_node=1, user_data=7)
        cluster.crash_node(2)
        cluster.raise_event("PING", cap, from_node=0, user_data="lost")
        cluster.run(until=2.0)
        poison, undeliverable = sorted(cluster.dead_letters(0),
                                       key=lambda dead: dead.reason)
        assert (poison.reason, undeliverable.reason) == ("poison",
                                                         "undeliverable")
        healthy[0] = True
        assert cluster.requeue_dead_letter(0, poison.dl_id)
        cluster.run(until=cluster.now + 1.0)
        assert handled == [7]
        return cluster

    def test_poison_undeliverable_and_requeue_each_count_once(self):
        cluster = self._run()
        supervise = _layer(cluster.metrics(), "events.supervise")
        assert supervise["quarantined"] == 1
        assert supervise["dead_letter_undeliverable"] == 1
        assert supervise["requeued"] == 1
        assert supervise["held"] == 1
        for kernel in cluster.kernels.values():
            assert not hasattr(kernel.dead_letters, "quarantined")
            assert not hasattr(kernel.dead_letters, "requeued")


def test_cluster_stats_views_are_exactly_e17s_five():
    # A new counter goes in Cluster.metrics(), not in a sixth view.
    views = {name for name in dir(Cluster)
             if name.endswith("_stats") and not name.startswith("_")}
    assert views == {"scheduler_stats", "message_stats", "reliability_stats",
                     "durability_stats", "transport_stats"}


def test_a_default_cluster_has_every_count_at_zero():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    metrics = cluster.metrics()
    assert metrics["events.route.posts"] == 0
    assert metrics["net.fabric.sent"] == 0
    assert metrics["transport.simlocal.attached"] == 2
