#!/usr/bin/env python3
"""A distributed bank: DSM state + locks + events working together.

Accounts live in a DSM-backed object (state pages migrate to whichever
node touches them); transfer threads take per-account locks from the
central lock manager (always in account order — no deadlocks); an auditor
raises a synchronous AUDIT event at the bank object to get a consistent
snapshot.

A TERMINATE then hits a teller that hangs *mid-transfer*, after the debit
and before the credit. Lock cleanup alone would free the locks but lose
the in-flight money — so the teller also chains a §4.2 *compensation*
handler: attached after the lock cleanups, it runs first (LIFO), re-
credits the debited account while the locks are still held, and
propagates down the chain to the unlock handlers and the terminating
default. Money is conserved.

Run:  python examples/bank_transfers.py
"""

from repro import (
    TRANSPORT_DSM,
    Cluster,
    ClusterConfig,
    DistObject,
    entry,
    on_event,
)
from repro.locks import LockManager

ACCOUNTS = ["alice", "bob", "carol", "dave"]


class Bank(DistObject):
    """Account balances in DSM pages, one field per account."""

    dsm_fields = {name: 100 for name in ACCOUNTS}

    @entry
    def transfer(self, ctx, mgr_cap, src, dst, amount, rounds,
                 slow=False):
        from repro.locks import chain_cleanup, unchain
        from repro import Decision

        memory = ctx.attributes.per_thread_memory
        memory["in_flight"] = None

        def compensate(hctx, block):
            """Undo a half-done transfer when the teller is terminated."""
            record = hctx.attributes.per_thread_memory.get("in_flight")
            if record:
                victim, lost = record
                balance = yield hctx.read(victim)
                yield hctx.write(victim, balance + lost)
            return Decision.PROPAGATE

        moved = 0
        for _ in range(rounds):
            first, second = sorted((src, dst))
            yield ctx.invoke(mgr_cap, "acquire", f"acct:{first}")
            yield ctx.invoke(mgr_cap, "acquire", f"acct:{second}")
            # Attached AFTER the per-acquire unlock handlers, so on
            # termination it runs FIRST (LIFO): state is repaired while
            # the account locks are still held, then the unlocks run.
            chained = yield from chain_cleanup(ctx, compensate)
            balance = yield ctx.read(src)
            if balance >= amount:
                memory["in_flight"] = (src, amount)
                yield ctx.write(src, balance - amount)
                dst_balance = yield ctx.read(dst)
                if slow:
                    yield ctx.sleep(5.0)  # a hung teller, mid-transfer
                yield ctx.write(dst, dst_balance + amount)
                memory["in_flight"] = None
                moved += amount
            yield from unchain(ctx, chained)
            yield ctx.invoke(mgr_cap, "release", f"acct:{second}")
            yield ctx.invoke(mgr_cap, "release", f"acct:{first}")
        return moved

    @on_event("AUDIT")
    def audit(self, ctx, block):
        """Synchronous snapshot for the auditor (object-based handler)."""
        balances = {}
        for name in ACCOUNTS:
            balances[name] = yield ctx.read(name)
        return balances


def main() -> None:
    cluster = Cluster(ClusterConfig(n_nodes=4, trace_net=False))
    cluster.register_event("AUDIT")
    mgr = cluster.create_object(LockManager, node=3)
    bank = cluster.create_object(Bank, node=0, transport=TRANSPORT_DSM)

    transfers = [
        ("alice", "bob", 5, 6, 0), ("bob", "carol", 7, 4, 1),
        ("carol", "dave", 3, 8, 2), ("dave", "alice", 2, 9, 1),
    ]
    threads = [cluster.spawn(bank, "transfer", mgr, src, dst, amount,
                             rounds, at=node)
               for src, dst, amount, rounds, node in transfers]
    # one more teller that hangs while holding two account locks
    hung = cluster.spawn(bank, "transfer", mgr, "alice", "carol", 1, 1,
                         True, at=2)
    cluster.run(until=2.0)

    held = cluster.get_object(mgr)._locks
    print("hung teller holds:",
          sorted(n for n, l in held.items() if l.holder == hung.tid))
    print("killing the hung teller (TERMINATE -> chained lock cleanup)")
    cluster.raise_event("TERMINATE", hung.tid, from_node=0)
    cluster.run()

    moved = [t.completion.result() for t in threads]
    print(f"transfers completed, amounts moved: {moved}")

    audit = cluster.raise_and_wait("AUDIT", bank, from_node=1)
    cluster.run()
    balances = audit.result()
    print(f"audited balances: {balances}")
    total = sum(balances.values())
    print(f"conservation check: total = {total} "
          f"({'OK' if total == 400 else 'VIOLATED'})")
    violations = cluster.dsm.log.check()
    print(f"DSM sequential-consistency audit: {len(violations)} violations")
    assert total == 400 and not violations


if __name__ == "__main__":
    main()
