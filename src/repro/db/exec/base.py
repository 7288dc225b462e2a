"""Operator base: the iterator (Volcano) execution model.

Operators form a tree; each exposes ``rows()``, a generator of output
tuples, and an output :class:`~repro.db.schema.Schema`.  Control flows
between producer and consumer per tuple — exactly the code-region switching
pattern whose instruction footprint the paper characterizes — and every
operator reports its module to the tracer as control enters it.

A :class:`QueryContext` carries the per-client execution environment:
tracer, buffer pool, and a scratch arena for hash tables (private per
client; part of the primary working set when hot).
"""

from __future__ import annotations

from collections.abc import Iterator

from ...simulator.addresses import AddressSpace, Region
from ..buffer import BufferPool
from ..schema import Schema
from ..tracer import NullTracer


class QueryContext:
    """Per-client execution environment.

    Attributes:
        space: Address space (shared, engine-wide).
        pool: Buffer pool (shared, engine-wide).
        tracer: The client's tracer (or a NullTracer).
        client: Client label, namespacing the scratch arena.
    """

    def __init__(self, space: AddressSpace, pool: BufferPool,
                 tracer: NullTracer = NullTracer(), client: str = "c0"):
        self.space = space
        self.pool = pool
        self.tracer = tracer
        self.client = client
        self._scratch: dict[str, Region] = {}

    def scratch(self, name: str, nbytes: int) -> Region:
        """A scratch region for this client, reused across queries.

        Re-running the same query reuses the same arena (the realistic
        steady-state behaviour of a connection's private memory); a request
        larger than the cached region reallocates.
        """
        region = self._scratch.get(name)
        if region is None or region.size < nbytes:
            region = self.space.alloc(f"scratch:{self.client}:{name}", nbytes)
            self._scratch[name] = region
        return region


class Operator:
    """Base class for plan operators.

    Subclasses set ``schema`` and ``code_region`` and implement
    :meth:`rows`.
    """

    #: Tracer code-module name; subclasses override.
    code_region = "exec.base"

    def __init__(self, ctx: QueryContext, schema: Schema):
        self.ctx = ctx
        self.schema = schema

    def rows(self) -> Iterator[tuple]:
        """Yield output tuples.  Subclasses must implement."""
        raise NotImplementedError

    def execute(self) -> list[tuple]:
        """Drain the operator into a list (drives the whole pipeline)."""
        return list(self.rows())

    def _enter(self) -> None:
        """Report control entering this operator's code module."""
        self.ctx.tracer.enter(self.code_region)
