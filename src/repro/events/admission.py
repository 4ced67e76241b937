"""Admission control: per-node overload gate with load shedding.

The paper's asynchronous post primitive decouples raisers from handlers,
but nothing in the base delivery path bounds what happens when raisers
outrun handlers: queues grow without bound and p99 latency is unbounded
past the knee. This module adds the standard remedy — an admission gate
in front of the delivery engine, with high/low watermark hysteresis on
outstanding-post depth and configurable shedding policies:

* ``drop`` — reject the post with a §7.2-style undeliverable notice
  (:class:`~repro.errors.OverloadShedError`), so the raiser learns in
  bounded time instead of queueing into a collapse;
* ``degrade`` — downgrade an idempotent (non-durable) post from
  reliable retransmit-until-acked to a single fire-and-forget datagram
  with a deadline backstop, shedding retransmission pressure while
  keeping a chance of delivery;
* ``defer`` — park a durable post in the origin's transactional outbox
  (journaled, so nothing is lost) and let the flush timer deliver it
  once the storm passes.

Durable posts are **never dropped**: whatever the policy, a durable post
that cannot be admitted is deferred — the journal already guarantees it,
so shedding it would be gratuitous loss.

One gate guards each node. A post charges the gate of its *admission
node* — the target object's home for object posts (the node whose
handler queue the post will occupy), the raiser's node otherwise — and
releases the charge when handling concludes (executed, noticed, or
quarantined). While the gate is shedding, **weighted-fair admission**
keyed on the raiser node keeps one hot tenant from starving the rest:
each tenant may hold outstanding depth proportional to its configured
weight (``tenant_weights``); tenants under their share are still
admitted, tenants over it are shed. With no weights configured every
tenant is shed alike while over the watermark.

All state is deterministic bookkeeping on the simulator's virtual time;
the gate itself schedules nothing. In a real system the depth signal
would be gossiped or piggybacked on acks; the simulation reads it
directly, the same shared-kernel short-circuit the locators' hint
tables use.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.config import OVERLOAD_DEGRADE

ADMIT = "admit"
DROP = "drop"
DEGRADE = "degrade"
DEFER = "defer"

#: Counter names every gate exposes (mirrors HandlerSupervisor.COUNTERS
#: so cluster.supervision_stats() can aggregate them uniformly).
GATE_COUNTERS = ("admitted", "shed_dropped", "shed_degraded",
                 "shed_deferred")


class AdmissionGate:
    """Watermark gate over one node's outstanding admitted-post depth."""

    __slots__ = ("node_id", "high", "low", "weights", "weight_total",
                 "depth", "depth_hwm", "tenant_depth", "shedding",
                 "shed_windows", "counters")

    def __init__(self, node_id: int, high: int, low: int,
                 weights: dict | None = None) -> None:
        self.node_id = node_id
        self.high = int(high)
        self.low = int(low)
        self.weights = dict(weights or {})
        self.weight_total = float(sum(self.weights.values()))
        self.depth = 0
        self.depth_hwm = 0
        self.tenant_depth: dict[int, int] = {}
        self.shedding = False
        #: times the gate crossed the high watermark (entered shedding)
        self.shed_windows = 0
        self.counters = {name: 0 for name in GATE_COUNTERS}

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def tenant_share(self, tenant: int) -> int:
        """Outstanding depth ``tenant`` may hold while the gate sheds.

        Proportional to its weight over the *low* watermark (the level
        shedding is trying to drain to); at least 1 so a weighted tenant
        is never starved outright. Tenants with no configured weight —
        or every tenant, when no weights are configured — get 0: shed
        while over the watermark.
        """
        weight = self.weights.get(tenant)
        if weight is None or self.weight_total <= 0:
            return 0
        return max(1, int(self.low * weight / self.weight_total))

    def admit(self, tenant: int, n: int = 1) -> bool:
        """Would admitting ``n`` more posts from ``tenant`` be allowed?

        Pure decision — the caller charges admitted posts with
        :meth:`charge` (one per recipient block) so releases balance.
        Updates the hysteresis state: shedding starts when depth would
        cross ``high`` and stops once releases drain it to ``low``.
        """
        if not self.shedding and self.depth + n > self.high:
            self.shedding = True
            self.shed_windows += 1
        if not self.shedding:
            return True
        # Weighted fair share: a tenant below its share keeps going.
        return self.tenant_depth.get(tenant, 0) + n <= self.tenant_share(
            tenant)

    # ------------------------------------------------------------------
    # depth accounting
    # ------------------------------------------------------------------

    def charge(self, tenant: int, n: int = 1) -> None:
        self.depth += n
        self.tenant_depth[tenant] = self.tenant_depth.get(tenant, 0) + n
        if self.depth > self.depth_hwm:
            self.depth_hwm = self.depth
        self.counters["admitted"] += n

    def release(self, tenant: int, n: int = 1) -> None:
        self.depth = max(0, self.depth - n)
        left = self.tenant_depth.get(tenant, 0) - n
        if left > 0:
            self.tenant_depth[tenant] = left
        else:
            self.tenant_depth.pop(tenant, None)
        if self.shedding and self.depth <= self.low:
            self.shedding = False

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {**self.counters,
                "depth": self.depth,
                "depth_hwm": self.depth_hwm,
                "shed_windows": self.shed_windows,
                "shedding": int(self.shedding)}


class Admission(dict):
    """Every node's gate, by node id, and the rules one raise is judged
    by (built only while ``admission_high`` is set: zero bookkeeping
    otherwise)."""

    def __init__(self, config: Any, nodes: Any) -> None:
        low = config.admission_low or max(1, config.admission_high // 2)
        super().__init__((node, AdmissionGate(
            node, config.admission_high, low, config.tenant_weights))
            for node in nodes)
        self._degrades = config.overload_policy == OVERLOAD_DEGRADE

    def verdict(self, gate_node: int, tenant: int, n: int, durable: bool,
                to_object: bool) -> str:
        """Gate one raise of ``n`` recipient blocks.

        The gate charged is the *admission node's*: the target object's
        home for object posts (the node whose handler queue the post
        occupies), the raiser's node otherwise. Tenant identity is the
        raiser node, so weighted-fair shares apply across the raisers
        feeding one hot node.
        """
        gate = self.get(gate_node)
        if gate is None or n == 0 or gate.admit(tenant, n):
            return ADMIT
        if durable:
            # Durable posts are never dropped: the journal already
            # guarantees them, so shedding degrades to deferral.
            gate.counters["shed_deferred"] += n
            return DEFER
        if self._degrades and to_object:
            # Only non-durable object posts degrade: the reliable
            # retransmit loop is replaced by one datagram plus a
            # deadline backstop.
            gate.counters["shed_degraded"] += n
            return DEGRADE
        # drop policy, defer policy on a non-durable post, or degrade of
        # a thread-targeted post (the locate handshake *is* the delivery
        # guarantee for threads — nothing to degrade to): shed outright.
        gate.counters["shed_dropped"] += n
        return DROP

    def charge(self, gate_node: int, block: Any) -> None:
        """Occupy one unit of ``gate_node``'s depth until the block
        concludes (settle hands the token back to :meth:`release`)."""
        gate = self.get(gate_node)
        if gate is None:
            return
        tenant = (block.raiser_node if block.raiser_node is not None
                  else gate_node)
        gate.charge(tenant)
        block._admission = (gate_node, tenant)

    def release(self, charge: tuple[int, int]) -> None:
        gate = self.get(charge[0])
        if gate is not None:
            gate.release(charge[1])


def admission_stats(admission: Admission | None) -> dict[str, int]:
    """Cluster-wide admission counters plus live/high-water depth
    (zeros when the gate is off; aggregated by
    :meth:`Cluster.supervision_stats`)."""
    totals = dict.fromkeys(
        GATE_COUNTERS + ("gate_depth", "gate_depth_hwm", "shed_windows"), 0)
    for gate in admission.values() if admission is not None else ():
        for name in GATE_COUNTERS:
            totals[name] += gate.counters[name]
        totals["gate_depth"] += gate.depth
        totals["gate_depth_hwm"] += gate.depth_hwm
        totals["shed_windows"] += gate.shed_windows
    return totals


__all__ = ["ADMIT", "DROP", "DEGRADE", "DEFER", "GATE_COUNTERS",
           "Admission", "AdmissionGate", "admission_stats"]
