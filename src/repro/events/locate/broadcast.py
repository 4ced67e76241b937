"""Broadcast (§7.1), and the probe rounds it shares with multicast: each
candidate answers found or not-found, so a dead thread is told apart."""

from __future__ import annotations

from repro.events.block import EventBlock
from repro.events.locate.base import (
    LOCATE_RETRIES,
    LOCATE_RETRY_DELAY,
    MSG_BCAST_POST,
    MSG_BCAST_REPLY,
    BaseLocator,
    PostResult,
)
from repro.kernel.config import LOCATE_BROADCAST
from repro.net.message import Message
from repro.threads.ids import ThreadId


class _ProbeLocator(BaseLocator):
    """Rounds shared by the two fan-out strategies: probe every
    candidate node, collect its found / not-found reply, and start a
    fresh round while the thread lives and the retry budget lasts."""

    #: with nobody to probe: retry (membership may be mid-change), or
    #: report the thread dead at once
    RETRY_EMPTY_ROUND = True

    def _candidates(self, tid: ThreadId) -> list[int]:
        """Nodes that may hold the thread, in probe order."""
        raise NotImplementedError

    def post(self, from_node: int, tid: ThreadId, block: EventBlock,
             on_result: PostResult) -> None:
        self._round(tid, block, {"hops": 0, "retries": LOCATE_RETRIES,
                                 "from_node": from_node}, on_result)

    def _round(self, tid: ThreadId, block: EventBlock, state: dict,
               on_result: PostResult) -> None:
        from_node = state["from_node"]
        candidates = self._candidates(tid)
        if from_node in candidates and self._accept(from_node, tid, block):
            on_result(True, state["hops"])
            return
        targets = self._drop_dead(
            from_node, [n for n in candidates if n != from_node])
        if not targets:
            if self.RETRY_EMPTY_ROUND:
                self._retry_or_fail(tid, block, state, on_result)
            else:
                on_result(False, state["hops"])
            return
        pending = {"found": False, "replies": 0, "expected": len(targets)}
        state["hops"] += len(targets)
        key, round_ = block.block_id, state["retries"]
        self._open[key] = (state, pending, on_result, tid, block)
        for node in targets:
            # an undeliverable probe counts as a not-found
            self.cluster.kernels[from_node].transmit(Message(
                src=from_node, dst=node, mtype=self.POST, size=128,
                payload={"tid": tid, "block": block, "round": round_}),
                lambda m: self._tally(key, round_, False))

    def _retry_or_fail(self, tid: ThreadId, block: EventBlock, state: dict,
                       on_result: PostResult) -> None:
        if state["retries"] > 0 and tid in self.cluster.live_threads:
            state["retries"] -= 1
            self.cluster.sim.call_after(LOCATE_RETRY_DELAY, self._round, tid,
                                        block, state, on_result)
            return
        on_result(False, state["hops"])

    def on_message(self, message: Message) -> None:
        body = message.payload
        node = int(message.dst)
        block = body["block"]
        key, round_ = block.block_id, body["round"]
        found = self._accept(node, body["tid"], block)
        # the answer stands even if the reply is undeliverable
        self.cluster.kernels[node].transmit(Message(
            src=node, dst=message.src, mtype=self.REPLY, size=64,
            payload={"id": key, "round": round_, "found": found}),
            lambda m: self._tally(key, round_, found, replied=True))

    def on_reply(self, message: Message) -> None:
        body = message.payload
        self._tally(body["id"], body["round"], body["found"], replied=True)

    def _tally(self, key: int, round_: int, found: bool,
               replied: bool = False) -> None:
        """Count one probe's answer at the origin; the last one of the
        round gives the verdict or starts the next round."""
        probe = self._open.get(key)
        if probe is None or probe[0]["retries"] != round_:
            return  # an answer to a round that is over
        state, pending, on_result, tid, block = probe
        if replied:
            state["hops"] += 1
        pending["replies"] += 1
        if found:
            pending["found"] = True
        if pending["replies"] < pending["expected"]:
            return
        del self._open[key]
        if pending["found"]:
            on_result(True, state["hops"])
            return
        self._retry_or_fail(tid, block, state, on_result)


class BroadcastLocator(_ProbeLocator):
    """Broadcast the event request to every node."""

    name = LOCATE_BROADCAST
    POST, REPLY = MSG_BCAST_POST, MSG_BCAST_REPLY
    RETRY_EMPTY_ROUND = False
    post = _ProbeLocator.post  # E17's tracer wraps vars(cls)["post"]

    def _candidates(self, tid: ThreadId) -> list[int]:
        return list(self.cluster.kernels)
