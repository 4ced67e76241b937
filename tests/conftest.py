"""Shared fixtures and sample distributed objects for the test suite."""

from __future__ import annotations

import weakref

import pytest
from hypothesis import settings

from repro import Cluster, ClusterConfig, Decision, DistObject, entry, handler_entry, on_event


# Example budgets for the properties that do not fix their own: `default`
# is hypothesis's (100 examples), `ci` spends ten times that. Select one
# with hypothesis's own `--hypothesis-profile=<name>`.
settings.register_profile("default", max_examples=100)
settings.register_profile("ci", max_examples=1000)


# -- the standing invariant, audited on every cluster a test builds --------
#
# Every ``Cluster`` built while a test runs (its fixtures included) is
# audited once: when it is freed during the test, or else at the end of
# the test's call phase. A violation fails the test there with an
# ``AssertionError``. Clusters are held weakly, so a property test's
# thousand examples do not stay alive until the test ends.

#: the running test's violations (None between tests) and its clusters
_audit: dict = {"found": None, "clusters": weakref.WeakSet()}
_cluster_init = Cluster.__init__


def _audited_init(self, *args, **kwargs):
    _cluster_init(self, *args, **kwargs)
    if _audit["found"] is not None:
        self._audit_into = _audit["found"]
        _audit["clusters"].add(self)


def _audit_on_free(self):
    found = vars(self).pop("_audit_into", None)
    if found is not None:
        accepted = vars(self).get("_audit_accepted", ())
        found.extend(violation for violation in self.audit()
                     if violation[:2] not in accepted)


def accept_violations(cluster) -> list:
    """``cluster.audit()``, and the end-of-test audit then accepts those
    violations (by kind and block): for a test that breaks the invariant
    by design and asserts the exact violations itself."""
    found = cluster.audit()
    cluster._audit_accepted = {violation[:2] for violation in found}
    return found


Cluster.__init__ = _audited_init
Cluster.__del__ = _audit_on_free


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    _audit["found"], _audit["clusters"] = [], weakref.WeakSet()
    try:
        return (yield)
    finally:
        _audit["found"] = None


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    result = yield
    found = _audit["found"]
    for built in list(_audit["clusters"]):
        _audit_on_free(built)
    if found:
        raise AssertionError(
            "the standing invariant does not hold: "
            + "; ".join(map(str, found[:5]))
            + (f" (and {len(found) - 5} more)" if len(found) > 5 else ""))
    return result


@pytest.fixture()
def cluster():
    """A small default cluster (4 nodes, path locator, RPC transport)."""
    return Cluster(ClusterConfig(n_nodes=4))


def make_cluster(**overrides) -> Cluster:
    return Cluster(ClusterConfig(**overrides))


def location_state(cluster, tid) -> dict[str, list[int]]:
    """Where the configured §7.1 locator still files ``tid``: the members
    of its multicast group and the nodes holding a hint for it (a
    ``cached`` locator's base strategy counted in)."""
    locator = cluster.events.locator
    strategies = [locator, getattr(locator, "base", None)]
    groups = [s.groups.members(tid) for s in strategies if hasattr(s, "groups")]
    hints = [s.holders.get(tid, ()) for s in strategies if hasattr(s, "holders")]
    return {"multicast": sorted(set().union(*groups)),
            "hints": sorted(set().union(*hints))}


@pytest.fixture()
def serializing_wire(monkeypatch):
    """Every message a sim cluster moves arrives as the decoded copy of
    its own encoding: the tcp and sharded boundary, in virtual time. A
    payload the codec has no shape for raises from the sender's call."""
    from repro.transport.codec import decode_message, encode_message
    from repro.transport.simlocal import SimTransport
    post = SimTransport.post
    monkeypatch.setattr(
        SimTransport, "post", lambda self, message, dst, delay: post(
            self, decode_message(encode_message(message)), dst, delay))


@pytest.fixture()
def handler_exits(monkeypatch):
    """Every ``ObjectManager.run_object_handler`` call in order, as
    ``(block, exits)``: ``exits`` collects the ``(value, error)`` pairs
    its ``on_exit`` was called with — exactly one, once the run is over."""
    from repro.objects.manager import ObjectManager
    run = ObjectManager.run_object_handler
    runs = []

    def recording(self, obj, fn, block, on_exit):
        exits = []
        runs.append((block, exits))

        def recorded(value, error):
            exits.append((value, error))
            on_exit(value, error)

        run(self, obj, fn, block, recorded)

    monkeypatch.setattr(ObjectManager, "run_object_handler", recording)
    return runs


class Echo(DistObject):
    """Minimal entry-point object."""

    @entry
    def echo(self, ctx, value):
        yield ctx.compute(1e-5)
        return value

    @entry
    def where(self, ctx):
        yield ctx.compute(0)
        return ctx.node

    @entry
    def fail(self, ctx, exc):
        yield ctx.compute(0)
        raise exc


class Relay(DistObject):
    """Invokes another object, for building cross-node call chains."""

    @entry
    def call(self, ctx, cap, entry_name, *args):
        result = yield ctx.invoke(cap, entry_name, *args)
        return result

    @entry
    def chain(self, ctx, caps, leaf_cap, leaf_entry, *args):
        """Hop through ``caps`` (more Relays), then invoke the leaf."""
        if caps:
            result = yield ctx.invoke(caps[0], "chain", caps[1:],
                                      leaf_cap, leaf_entry, *args)
            return result
        result = yield ctx.invoke(leaf_cap, leaf_entry, *args)
        return result


class Sleeper(DistObject):
    """Blocks for a while — a convenient suspension target for events."""

    @entry
    def hold(self, ctx, seconds=10.0):
        yield ctx.sleep(seconds)
        return "woke"

    @entry
    def hold_forever(self, ctx):
        while True:
            yield ctx.sleep(1.0)

    @entry
    def hop_and_hold(self, ctx, caps, seconds=10.0):
        """Migrate through caps, then hold at the last one."""
        if caps:
            result = yield ctx.invoke(caps[0], "hop_and_hold", caps[1:],
                                      seconds)
            return result
        yield ctx.sleep(seconds)
        return "woke-deep"


class Recorder(DistObject):
    """Object-based handlers that record what they see."""

    def __init__(self):
        super().__init__()
        self.events = []
        self.aborted_tids = []

    @entry
    def poke(self, ctx):
        yield ctx.compute(0)
        return "poked"

    @on_event("PING")
    def on_ping(self, ctx, block):
        yield ctx.compute(1e-5)
        self.events.append(("PING", block.user_data, ctx.now))
        return "pong"

    @on_event("ABORT")
    def on_abort(self, ctx, block):
        yield ctx.compute(0)
        data = block.user_data or {}
        self.aborted_tids.append(data.get("tid"))

    @handler_entry
    def thread_ping(self, ctx, block):
        yield ctx.compute(1e-5)
        self.events.append(("thread-PING", ctx.tid, ctx.now))
        return Decision.RESUME


def run_to_result(cluster, thread, until=None):
    """Run the cluster and return the thread's result."""
    cluster.run(until=until)
    return thread.completion.result()
