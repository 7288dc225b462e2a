"""The join operator: hash join (build + probe).

The hash join's probe phase is the DSS-side pointer chase: hash-bucket
lookups and chain walks are DEPENDENT references into a scratch-arena hash
table whose footprint follows the build side's size — small builds stay
L2-resident (fast probes), large builds spill past the cache.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .. import costs
from ..schema import Schema
from ..util import stable_hash
from .base import Operator, QueryContext

#: Bytes per hash-table bucket in the scratch arena.
_BUCKET_BYTES = 16
#: Bytes per build-row entry in the scratch arena.
_ENTRY_BYTES = 32


class HashJoin(Operator):
    """Equi-join: build a hash table on the left child, probe with the right.

    Args:
        ctx: Query context.
        build: Build-side child (should be the smaller input).
        probe: Probe-side child.
        build_key / probe_key: ``row -> key`` extractors.
        out_schema: Schema of the concatenated output (build + probe
            columns by default; pass explicitly for projections).
    """

    code_region = "exec.hashjoin"

    def __init__(self, ctx: QueryContext, build: Operator, probe: Operator,
                 build_key: Callable[[tuple], object],
                 probe_key: Callable[[tuple], object],
                 out_schema: Schema | None = None):
        if out_schema is None:
            cols = list(build.schema.columns) + list(probe.schema.columns)
            seen: dict[str, int] = {}
            renamed = []
            for c in cols:
                n = seen.get(c.name, 0)
                seen[c.name] = n + 1
                if n:
                    from ..types import Column
                    c = Column(f"{c.name}_{n}", c.ctype, c.length)
                renamed.append(c)
            out_schema = Schema(
                f"join({build.schema.name},{probe.schema.name})", renamed
            )
        super().__init__(ctx, out_schema)
        self.build = build
        self.probe = probe
        self.build_key = build_key
        self.probe_key = probe_key
        self.build_rows_seen = 0
        self.probe_rows_seen = 0

    def rows(self) -> Iterator[tuple]:
        tracer = self.ctx.tracer
        enter = tracer.enter
        compute = tracer.compute
        data = tracer.data
        region = self.code_region
        # ---- build phase --------------------------------------------- #
        table: dict = {}
        build_rows = []
        build_key = self.build_key
        for row in self.build.rows():
            enter(region)
            key = build_key(row)
            table.setdefault(key, []).append(row)
            build_rows.append(row)
        self.build_rows_seen = len(build_rows)
        n_buckets = max(64, 1 << max(6, (len(build_rows)).bit_length()))
        arena = self.ctx.scratch(
            "hashjoin",
            n_buckets * _BUCKET_BYTES + max(1, len(build_rows)) * _ENTRY_BYTES,
        )
        arena_base = arena.base
        entries_base = arena_base + n_buckets * _BUCKET_BYTES

        def bucket_addr(key) -> int:
            return arena_base + (stable_hash(key) % n_buckets) * _BUCKET_BYTES

        # Emit the build-phase traffic now that the table is sized.
        self._enter()
        insert_cost = costs.HASH_KEY + costs.HASH_INSERT
        for i, row in enumerate(build_rows):
            key = build_key(row)
            compute(insert_cost)
            data(bucket_addr(key), True, True)
            data(entries_base + i * _ENTRY_BYTES, True)
        # ---- probe phase --------------------------------------------- #
        entry_no = {id(r): i for i, r in enumerate(build_rows)}
        probe_key = self.probe_key
        table_get = table.get
        probe_cost = costs.HASH_KEY
        match_cost = costs.HASH_CHAIN_STEP + costs.EMIT_TUPLE
        for row in self.probe.rows():
            enter(region)
            key = probe_key(row)
            compute(probe_cost)
            data(bucket_addr(key), False, True)
            self.probe_rows_seen += 1
            matches = table_get(key)
            if not matches:
                continue
            for m in matches:
                compute(match_cost)
                data(entries_base + entry_no[id(m)] * _ENTRY_BYTES,
                     False, True)
                yield m + row
