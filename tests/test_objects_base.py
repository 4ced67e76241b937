"""Unit tests for the object model: decorators, interface, capabilities."""

import pytest

from repro.errors import NoSuchEntryError, ObjectError
from repro.objects import Capability, DistObject, entry, handler_entry, on_event
from repro.objects.perthread import PerThreadMemory
from repro.store.checkpoint import restore_object, snapshot_object
from repro.errors import HandlerContextError


class Sample(DistObject):
    @entry
    def work(self, ctx, x):
        yield ctx.compute(0)
        return x

    @on_event("DELETE")
    def cleanup(self, ctx, block):
        yield ctx.compute(0)

    @on_event("PING", "INTERRUPT")
    def multi(self, ctx, block):
        yield ctx.compute(0)

    @handler_entry
    def fixer(self, ctx, block):
        yield ctx.compute(0)

    def plain(self):
        return "not an entry"


class Derived(Sample):
    @entry
    def extra(self, ctx):
        yield ctx.compute(0)

    @on_event("DELETE")
    def cleanup2(self, ctx, block):
        yield ctx.compute(0)


class TestDecorators:
    def test_entry_requires_generator(self):
        with pytest.raises(ObjectError):
            entry(lambda self, ctx: None)

    def test_on_event_requires_generator(self):
        with pytest.raises(ObjectError):
            on_event("X")(lambda self, ctx, b: None)

    def test_on_event_requires_event_names(self):
        with pytest.raises(ObjectError):
            on_event()

    def test_handler_entry_requires_generator(self):
        with pytest.raises(ObjectError):
            handler_entry(lambda self, ctx, b: None)


class TestInterface:
    def test_entries_collected(self):
        assert "work" in Sample._entries
        assert "plain" not in Sample._entries
        assert "cleanup" not in Sample._entries  # handlers are private

    def test_object_handlers_collected(self):
        assert Sample._object_handlers["DELETE"] == "cleanup"
        assert Sample._object_handlers["PING"] == "multi"
        assert Sample._object_handlers["INTERRUPT"] == "multi"

    def test_inheritance_extends_and_overrides(self):
        assert "work" in Derived._entries
        assert "extra" in Derived._entries
        assert Derived._object_handlers["DELETE"] == "cleanup2"

    def test_entry_fn_lookup(self):
        obj = Sample()
        assert obj.entry_fn("work").__name__ == "work"
        with pytest.raises(NoSuchEntryError):
            obj.entry_fn("plain")

    def test_handler_fn_accepts_handler_entries_and_entries(self):
        obj = Sample()
        assert obj.handler_fn("fixer").__name__ == "fixer"
        assert obj.handler_fn("work").__name__ == "work"
        with pytest.raises(NoSuchEntryError):
            obj.handler_fn("plain")

    def test_object_handler_fn(self):
        obj = Sample()
        assert obj.object_handler_fn("DELETE") is not None
        assert obj.object_handler_fn("NOPE") is None
        assert obj.handled_events() == ["DELETE", "INTERRUPT", "PING"]


class TestPlacement:
    def test_unplaced_object_rejects_home(self):
        obj = Sample()
        with pytest.raises(ObjectError):
            obj.home
        with pytest.raises(ObjectError):
            obj.transport
        with pytest.raises(ObjectError):
            obj.cap

    def test_place_once(self):
        obj = Sample()
        obj._place(2, "rpc")
        assert obj.home == 2
        assert obj.transport == "rpc"
        with pytest.raises(ObjectError):
            obj._place(3, "rpc")

    def test_capability_fields(self):
        obj = Sample()
        obj._place(1, "rpc")
        cap = obj.cap
        assert cap.oid == obj.oid
        assert cap.home == 1
        assert cap.cls_name == "Sample"
        assert str(cap) == f"O{obj.oid}@1/rpc"

    def test_capability_is_built_once_at_placement(self):
        obj = Sample()
        obj._place(1, "rpc")
        assert obj.cap is obj.cap
        assert obj.cap == Capability(obj.oid, 1, "rpc", "Sample")
        assert "_cap" not in snapshot_object(obj)["state"]

    def test_restored_object_has_its_capability(self):
        obj = Sample()
        obj._place(1, "rpc")
        restored = restore_object(snapshot_object(obj))
        assert restored.cap == obj.cap

    def test_capability_validates_transport(self):
        with pytest.raises(ObjectError):
            Capability(oid=1, home=0, transport="warp")

    def test_oids_unique(self):
        assert Sample().oid != Sample().oid


class TestPerThreadMemory:
    def test_procedures(self):
        mem = PerThreadMemory()
        mem.install_procedure("h", lambda ctx, b: None)
        assert mem.has_procedure("h")
        assert mem.procedures() == ["h"]
        assert callable(mem.procedure("h"))

    def test_missing_procedure_raises(self):
        mem = PerThreadMemory()
        with pytest.raises(HandlerContextError):
            mem.procedure("ghost")

    def test_non_callable_rejected(self):
        mem = PerThreadMemory()
        with pytest.raises(HandlerContextError):
            mem.install_procedure("x", 42)

    def test_data_mapping(self):
        mem = PerThreadMemory()
        mem["k"] = 1
        assert "k" in mem
        assert mem["k"] == 1
        assert mem.get("missing", "d") == "d"
        assert mem.setdefault("k", 9) == 1

    def test_copy_is_independent(self):
        mem = PerThreadMemory()
        mem["k"] = 1
        mem.install_procedure("h", lambda ctx, b: None)
        clone = mem.copy()
        clone["k"] = 2
        clone.install_procedure("h2", lambda ctx, b: None)
        assert mem["k"] == 1
        assert not mem.has_procedure("h2")
        assert clone.has_procedure("h")

    def test_nominal_size_grows(self):
        mem = PerThreadMemory()
        base = mem.nominal_size
        mem.install_procedure("h", lambda ctx, b: None)
        assert mem.nominal_size > base
