"""The filter operator (pure computation over the pipeline)."""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .. import costs
from .base import Operator, QueryContext


class Filter(Operator):
    """Keep rows satisfying a predicate.

    Args:
        ctx: Query context.
        child: Input operator.
        predicate: ``row -> bool``.
        n_terms: Number of predicate terms (instruction-cost weight).
    """

    code_region = "exec.filter"

    def __init__(self, ctx: QueryContext, child: Operator,
                 predicate: Callable[[tuple], bool], n_terms: int = 1):
        super().__init__(ctx, child.schema)
        self.child = child
        self.predicate = predicate
        self._cost = costs.PREDICATE * max(1, n_terms)

    def rows(self) -> Iterator[tuple]:
        # One predicate evaluation per input row: hoist the tracer calls
        # (identical event sequence, no per-row attribute walks).
        tracer = self.ctx.tracer
        enter = tracer.enter
        compute = tracer.compute
        region = self.code_region
        pred = self.predicate
        cost = self._cost
        for row in self.child.rows():
            enter(region)
            compute(cost)
            if pred(row):
                yield row
