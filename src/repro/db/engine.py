"""The engine facade: one `Database` per workload instance.

A Database owns the shared infrastructure (address space, buffer pool, code
registry, catalog, transaction manager) and hands out per-client
:class:`Session` objects.  A session bundles a tracer with a query context;
running a client's queries/transactions through its session records that
client's trace, which :meth:`Session.finish` freezes for the simulator.
"""

from __future__ import annotations

from ..simulator.addresses import AddressSpace
from ..simulator.trace import Trace
from .buffer import BufferPool
from .catalog import Catalog
from .exec.base import QueryContext
from .tracer import CodeRegistry, MemoryTracer, NullTracer
from .txn import TransactionManager


class Session:
    """One client's connection: tracer + query context + txn access."""

    def __init__(self, db: "Database", name: str, tracer: NullTracer):
        self.db = db
        self.name = name
        self.tracer = tracer
        self.ctx = QueryContext(db.space, db.pool, tracer, client=name)

    def begin(self):
        """Open a transaction on this session."""
        return self.db.txns.begin(self.tracer)

    def commit(self, txn) -> None:
        """Commit a transaction opened on this session."""
        self.db.txns.commit(txn, self.tracer)

    def abort(self, txn) -> None:
        """Abort a transaction opened on this session."""
        self.db.txns.abort(txn, self.tracer)

    def finish(self) -> Trace:
        """Freeze and return this client's trace.

        Raises:
            TypeError: if the session was opened without tracing.
        """
        if not isinstance(self.tracer, MemoryTracer):
            raise TypeError(f"session {self.name!r} is untraced")
        return self.tracer.finish()


class Database:
    """Top-level engine object.

    Args:
        name: Instance label.
        buffer_capacity_pages: Buffer pool size (defaults to effectively
            unbounded — the studied workloads are memory-resident).
    """

    def __init__(self, name: str = "db",
                 buffer_capacity_pages: int = 1 << 20):
        self.name = name
        self.space = AddressSpace()
        self.code = CodeRegistry(self.space)
        self.pool = BufferPool(self.space, capacity_pages=buffer_capacity_pages)
        self.catalog = Catalog(self.space)
        self.txns = TransactionManager(self.space)

    def session(self, name: str, ilp: float = 1.5,
                branch_mpki: float = 5.0, traced: bool = True,
                ilp_inorder: float | None = None) -> Session:
        """Open a client session.

        Args:
            name: Client label (becomes the trace name).
            ilp: The stream's ILP under out-of-order issue (workload
                property; OLTP ~2.0, DSS ~2.6).
            branch_mpki: Branch mispredictions per kilo-instruction.
            traced: Record a trace (False for correctness-only runs).
            ilp_inorder: ILP under in-order issue (defaults to 0.75*ilp).
        """
        if traced:
            tracer: NullTracer = MemoryTracer(
                self.code, name, ilp=ilp, branch_mpki=branch_mpki,
                ilp_inorder=ilp_inorder,
            )
        else:
            tracer = NullTracer()
        return Session(self, name, tracer)
