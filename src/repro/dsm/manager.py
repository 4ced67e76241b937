"""The distributed shared memory manager.

Cluster-wide engine implementing:

* object state access under the DSM transport — node-local page tables,
  directory-based MSI coherence at each segment's home node, page
  transfers charged at page size;
* **VM_FAULT integration** (§6.4): touching an unmaterialised page of a
  pageable segment suspends the faulting thread and raises VM_FAULT to
  it; the thread's handler (typically a buddy pager server) supplies the
  page with ``ctx.install_page`` — globally, or as a node-private copy
  that is later merged (deliberately bypassing strict consistency, which
  is the paper's motivation for user-level VM managers);
* a sequential-consistency audit log over all strong accesses.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.errors import DsmError, PagerError, SegmentError
from repro.dsm.consistency import ConsistencyLog
from repro.dsm.directory import DirectoryEntry
from repro.dsm.page import MODE_NONE, MODE_READ, MODE_WRITE, Page, Segment
from repro.events import names as event_names
from repro.events.block import EventBlock
from repro.kernel.config import TRANSPORT_DSM
from repro.kernel.rpc import SizedReply
from repro.sim.primitives import SimFuture

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.boot import Cluster
    from repro.objects.base import DistObject
    from repro.threads.thread import Activation, DThread

SVC_PAGE = "dsm.page"
SVC_INVAL = "dsm.inval"
SVC_YIELD = "dsm.yield"
#: fire-and-forget ack: the requester installed its granted mode, the
#: directory may start the page's next transaction
MSG_INSTALLED = "dsm.installed"

_segment_ids = itertools.count(1)


class DsmManager:
    """Coherence engine plus fault handling for all DSM segments."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.log = ConsistencyLog()
        #: oid -> segment
        self._segments: dict[int, Segment] = {}
        #: (segment_id, page_id) -> directory entry (lives at segment home)
        self._directory: dict[tuple[int, int], DirectoryEntry] = {}
        #: (node, segment_id, page_id) -> local access mode
        self._local_modes: dict[tuple[int, int, int], str] = {}
        #: (segment_id, page_id) -> pending faulting accesses
        self._pending_faults: dict[tuple[int, int], list[dict]] = {}
        #: counters for benchmarks
        self.faults = 0
        self.page_transfers = 0
        self.vm_faults_raised = 0
        #: txn id -> directory entry awaiting the requester's install ack
        self._pending_installs: dict[int, DirectoryEntry] = {}
        self._txn_ids = itertools.count(1)
        for kernel in cluster.kernels.values():
            kernel.rpc.serve(SVC_PAGE, self._svc_page)
            kernel.rpc.serve(SVC_INVAL, self._svc_inval)
            kernel.rpc.serve(SVC_YIELD, self._svc_yield)
            kernel.register_message_handler(MSG_INSTALLED,
                                            self._on_installed)

    # ------------------------------------------------------------------
    # segments
    # ------------------------------------------------------------------

    def register_object(self, obj: "DistObject") -> Segment:
        """Create the segment backing a newly-placed DSM object."""
        cls = type(obj)
        fields = getattr(cls, "dsm_fields", None)
        pageable = getattr(cls, "dsm_pageable", False)
        n_pages = getattr(cls, "dsm_pages", 8)
        if fields is None and not pageable:
            raise SegmentError(
                f"{cls.__name__} uses the DSM transport but declares "
                f"neither dsm_fields nor dsm_pageable")
        segment = Segment(segment_id=next(_segment_ids), home=obj.home,
                          page_size=self.cluster.config.page_size,
                          fields=fields,
                          fields_per_page=self.cluster.config
                          .dsm_fields_per_page,
                          pageable=pageable, n_pages=n_pages)
        self._segments[obj.oid] = segment
        obj._dsm_segment = segment
        for page in segment.pages:
            self._directory[(segment.segment_id, page.page_id)] = \
                DirectoryEntry(segment.segment_id, page.page_id)
        if "dsm" not in self.cluster.tracer.muted:
            self.cluster.tracer.emit("dsm", "segment", oid=obj.oid,
                                     pages=segment.n_pages, pageable=pageable)
        return segment

    def segment_of(self, oid: int) -> Segment:
        segment = self._segments.get(oid)
        if segment is None:
            raise SegmentError(f"object {oid} has no DSM segment")
        return segment

    def directory_entry(self, segment: Segment, page: Page) -> DirectoryEntry:
        return self._directory[(segment.segment_id, page.page_id)]

    def local_mode(self, node: int, segment: Segment, page: Page) -> str:
        return self._local_modes.get(
            (node, segment.segment_id, page.page_id), MODE_NONE)

    def _set_local_mode(self, node: int, segment: Segment, page: Page,
                        mode: str) -> None:
        key = (node, segment.segment_id, page.page_id)
        if mode == MODE_NONE:
            self._local_modes.pop(key, None)
        else:
            self._local_modes[key] = mode

    # ------------------------------------------------------------------
    # field access from running threads
    # ------------------------------------------------------------------

    def field_access(self, thread: "DThread", frame: "Activation",
                     name: str, value: Any, is_write: bool) -> None:
        obj = frame.obj
        if obj is None:
            thread.schedule_step(None, DsmError(
                "ctx.read/ctx.write outside any object"))
            return
        if obj.transport != TRANSPORT_DSM:
            # Transport transparency (§2): the same entry code runs under
            # RPC, where object state is plain local attributes.
            self._plain_access(thread, obj, name, value, is_write)
            return
        try:
            segment = self.segment_of(obj.oid)
            page = segment.page_of(name)
        except SegmentError as exc:
            thread.schedule_step(None, exc)
            return
        epoch = thread.block("dsm")
        self._access(thread, epoch, frame.node, obj, segment, page, name,
                     value, is_write)

    def _plain_access(self, thread: "DThread", obj: "DistObject", name: str,
                      value: Any, is_write: bool) -> None:
        if is_write:
            setattr(obj, name, value)
            thread.schedule_step(None, None)
            return
        if not hasattr(obj, name):
            thread.schedule_step(None, AttributeError(
                f"{type(obj).__name__} has no field {name!r}"))
            return
        thread.schedule_step(getattr(obj, name), None)

    def _access(self, thread: "DThread", epoch: int, node: int,
                obj: "DistObject", segment: Segment, page: Page, name: str,
                value: Any, is_write: bool) -> None:
        if not thread.alive:
            return
        if not page.materialized:
            copy = page.private_copies.get(node)
            if copy is not None:
                self._commit_weak(thread, epoch, node, segment, copy, name,
                                  value, is_write)
                return
            self._raise_vm_fault(thread, epoch, node, obj, segment, page,
                                 name, value, is_write)
            return
        mode = self.local_mode(node, segment, page)
        needed_ok = (mode == MODE_WRITE) or (not is_write and
                                             mode == MODE_READ)
        if needed_ok:
            self._commit(thread, epoch, node, segment, page, name, value,
                         is_write)
            return
        # Miss: ask the directory at the segment's home node.
        self.faults += 1
        if "dsm" not in self.cluster.tracer.muted:
            self.cluster.tracer.emit("dsm", "miss", node=node,
                                     segment=segment.segment_id,
                                     page=page.page_id, write=is_write)
        fut = self.cluster.kernels[node].rpc.request(
            segment.home, SVC_PAGE,
            {"segment": segment.segment_id, "page": page.page_id,
             "node": node, "write": is_write})

        def granted(f: SimFuture[Any]) -> None:
            if f.failed or f.cancelled:
                try:
                    f.result()
                except BaseException as exc:  # noqa: BLE001
                    thread.resume_with(None, exc, epoch)
                return
            # The directory says which mode it actually granted (a read
            # that raced our own write upgrade keeps WRITE) and a txn id
            # to acknowledge, so invalidations can never overtake grants.
            granted_mode, txn_id = f.result()
            self._set_local_mode(node, segment, page, granted_mode)
            if txn_id is not None:
                self.cluster.kernels[node].send(segment.home,
                                                MSG_INSTALLED,
                                                payload={"txn": txn_id})
            self._commit(thread, epoch, node, segment, page, name, value,
                         is_write)

        fut.add_done_callback(granted)

    def _commit(self, thread: "DThread", epoch: int, node: int,
                segment: Segment, page: Page, name: str, value: Any,
                is_write: bool) -> None:
        if is_write:
            page.write(name, value)
            self.log.record(self.cluster.sim.now, node, segment.segment_id,
                            name, "write", value)
            thread.resume_with(None, None, epoch)
            return
        try:
            result = page.read(name)
        except SegmentError as exc:
            thread.resume_with(None, exc, epoch)
            return
        self.log.record(self.cluster.sim.now, node, segment.segment_id,
                        name, "read", result)
        thread.resume_with(result, None, epoch)

    def _commit_weak(self, thread: "DThread", epoch: int, node: int,
                     segment: Segment, copy: dict, name: str, value: Any,
                     is_write: bool) -> None:
        if is_write:
            copy[name] = value
            self.log.record(self.cluster.sim.now, node, segment.segment_id,
                            name, "write", value, weak=True)
            thread.resume_with(None, None, epoch)
            return
        if name not in copy:
            thread.resume_with(None, SegmentError(
                f"private copy on node {node} has no field {name!r}"), epoch)
            return
        self.log.record(self.cluster.sim.now, node, segment.segment_id,
                        name, "read", copy[name], weak=True)
        thread.resume_with(copy[name], None, epoch)

    # ------------------------------------------------------------------
    # VM_FAULT path (§6.4)
    # ------------------------------------------------------------------

    def _raise_vm_fault(self, thread: "DThread", epoch: int, node: int,
                        obj: "DistObject", segment: Segment, page: Page,
                        name: str, value: Any, is_write: bool) -> None:
        self.vm_faults_raised += 1
        key = (segment.segment_id, page.page_id)
        pending = self._pending_faults.setdefault(key, [])
        pending.append({
            "thread": thread, "epoch": epoch, "node": node, "obj": obj,
            "segment": segment, "page": page, "name": name, "value": value,
            "write": is_write})
        block = EventBlock(
            event_names.VM_FAULT, None, node, thread.tid, False,
            {"oid": obj.oid, "segment": segment.segment_id,
             "page": page.page_id, "field": name, "write": is_write,
             "node": node, "tid": thread.tid},
            self.cluster.sim.now)
        if "dsm" not in self.cluster.tracer.muted:
            self.cluster.tracer.emit("dsm", "vm-fault", node=node, oid=obj.oid,
                                     page=page.page_id, field=name,
                                     tid=str(thread.tid))
        if not self.cluster.events.post.enqueue_for_thread(node, thread.tid,
                                                           block):
            # Only a user thread is an event target: a handler's loop
            # thread fails the access, and its run ends with the error.
            pending.pop()
            thread.resume_with(None, PagerError(
                f"VM_FAULT {obj.oid}/{page.page_id}: no event target"), epoch)

    def install_page(self, oid: int, page_id: int, values: dict,
                     private_for: int | None = None) -> None:
        """A pager supplies data for a faulted page.

        With ``private_for`` the data becomes a node-private (weakly
        consistent) copy for that node only; otherwise the page is
        materialised globally and enters the coherence protocol.
        """
        segment = self.segment_of(oid)
        page = segment.page(page_id)
        if private_for is not None:
            page.private_copies[private_for] = dict(values)
        else:
            page.values.update(values)
            page.materialized = True
        self.page_transfers += 1
        if "dsm" not in self.cluster.tracer.muted:
            self.cluster.tracer.emit("dsm", "install", oid=oid, page=page_id,
                                     private=private_for)
        self._retry_faults(segment, page)

    def merge_pages(self, oid: int, page_id: int) -> dict:
        """Merge all private copies of a page into the authoritative page.

        Copies are folded in node order (last writer per field wins),
        then discarded; the page becomes strongly consistent again.
        Returns the merged values.
        """
        segment = self.segment_of(oid)
        page = segment.page(page_id)
        if not page.private_copies:
            raise PagerError(
                f"page {oid}/{page_id} has no private copies to merge")
        for node in sorted(page.private_copies):
            page.values.update(page.private_copies[node])
        page.private_copies.clear()
        page.materialized = True
        if "dsm" not in self.cluster.tracer.muted:
            self.cluster.tracer.emit("dsm", "merge", oid=oid, page=page_id)
        self._retry_faults(segment, page)
        return dict(page.values)

    def _retry_faults(self, segment: Segment, page: Page) -> None:
        key = (segment.segment_id, page.page_id)
        pending = self._pending_faults.pop(key, [])
        for fault in pending:
            thread = fault["thread"]
            if not thread.alive:
                continue
            self.cluster.sim.call_soon(
                self._access, thread, fault["epoch"], fault["node"],
                fault["obj"], segment, page, fault["name"], fault["value"],
                fault["write"])

    # ------------------------------------------------------------------
    # directory services (run at each segment's home node)
    # ------------------------------------------------------------------

    def _svc_page(self, payload: dict, message: Any) -> SimFuture[Any]:
        entry = self._directory[(payload["segment"], payload["page"])]
        segment = self._segment_by_id(payload["segment"])
        page = segment.page(payload["page"])
        home = segment.home
        node = payload["node"]
        fut: SimFuture[Any] = SimFuture(self.cluster.sim)

        def transaction() -> None:
            if payload["write"]:
                entry.write_misses += 1
                self._do_write_grant(entry, segment, page, home, node, fut)
            else:
                entry.read_misses += 1
                self._do_read_grant(entry, segment, page, home, node, fut)

        entry.submit(transaction)
        return fut

    def _segment_by_id(self, segment_id: int) -> Segment:
        for segment in self._segments.values():
            if segment.segment_id == segment_id:
                return segment
        raise SegmentError(f"no segment {segment_id}")

    def _do_read_grant(self, entry: DirectoryEntry, segment: Segment,
                       page: Page, home: int, node: int,
                       fut: SimFuture[Any]) -> None:
        if entry.mode_of(node) == MODE_WRITE:
            # The requester raced its own write upgrade: it already holds
            # the page exclusively, which subsumes the read. No mode
            # change on the requester, so no install ack to wait for.
            fut.resolve(SizedReply((MODE_WRITE, None), 64))
            entry.complete()
            return
        owner = entry.exclusive_elsewhere(node)

        def grant() -> None:
            try:
                entry.grant_read(node)
            except BaseException as exc:  # noqa: BLE001 - ship to caller
                fut.fail(exc)
                entry.complete()
            else:
                self.page_transfers += 1
                txn_id = next(self._txn_ids)
                self._pending_installs[txn_id] = entry
                fut.resolve(SizedReply((MODE_READ, txn_id),
                                       segment.page_size))

        if owner is None:
            grant()
            return
        yield_fut = self.cluster.kernels[home].rpc.request(
            owner, SVC_YIELD,
            {"segment": segment.segment_id, "page": page.page_id,
             "demote_to": MODE_READ})

        def yielded(f: SimFuture[Any]) -> None:
            entry.drop_node(owner)
            entry.grant_read(owner)  # owner keeps a read copy
            grant()

        yield_fut.add_done_callback(yielded)

    def _do_write_grant(self, entry: DirectoryEntry, segment: Segment,
                        page: Page, home: int, node: int,
                        fut: SimFuture[Any]) -> None:
        if entry.mode_of(node) == MODE_WRITE:
            fut.resolve(SizedReply((MODE_WRITE, None), 64))
            entry.complete()
            return
        holders = sorted(entry.holders_to_invalidate(node))

        def grant() -> None:
            try:
                for holder in holders:
                    entry.drop_node(holder)
                entry.grant_write(node)
            except BaseException as exc:  # noqa: BLE001 - ship to caller
                fut.fail(exc)
                entry.complete()
            else:
                self.page_transfers += 1
                txn_id = next(self._txn_ids)
                self._pending_installs[txn_id] = entry
                fut.resolve(SizedReply((MODE_WRITE, txn_id),
                                       segment.page_size))

        if not holders:
            grant()
            return
        entry.invalidations += len(holders)
        acks = [self.cluster.kernels[home].rpc.request(
            holder, SVC_INVAL,
            {"segment": segment.segment_id, "page": page.page_id})
            for holder in holders]
        remaining = [len(acks)]

        def one_ack(_f: SimFuture[Any]) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                grant()

        for ack in acks:
            ack.add_done_callback(one_ack)

    def _on_installed(self, message: Any) -> None:
        """The requester installed its grant; release the page's queue."""
        entry = self._pending_installs.pop(message.payload["txn"], None)
        if entry is not None:
            entry.complete()

    def _svc_inval(self, payload: dict, message: Any) -> bool:
        segment = self._segment_by_id(payload["segment"])
        page = segment.page(payload["page"])
        self._set_local_mode(int(message.dst), segment, page, MODE_NONE)
        return True

    def _svc_yield(self, payload: dict, message: Any) -> SizedReply:
        segment = self._segment_by_id(payload["segment"])
        page = segment.page(payload["page"])
        self._set_local_mode(int(message.dst), segment, page,
                             payload["demote_to"])
        # The writeback carries the page contents home.
        return SizedReply(True, segment.page_size)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    def protocol_stats(self) -> dict[str, int]:
        read_misses = sum(e.read_misses for e in self._directory.values())
        write_misses = sum(e.write_misses for e in self._directory.values())
        invals = sum(e.invalidations for e in self._directory.values())
        return {"faults": self.faults, "read_misses": read_misses,
                "write_misses": write_misses, "invalidations": invals,
                "page_transfers": self.page_transfers,
                "vm_faults": self.vm_faults_raised}
