"""Query operators (iterator model)."""

from .aggregate import AggSpec, HashAggregate, StreamAggregate
from .base import Operator, QueryContext
from .filter import Filter
from .join import HashJoin
from .scan import SeqScan

__all__ = [
    "AggSpec",
    "Filter",
    "HashAggregate",
    "HashJoin",
    "Operator",
    "QueryContext",
    "SeqScan",
    "StreamAggregate",
]
