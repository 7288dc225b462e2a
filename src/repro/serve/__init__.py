"""Design-space-as-a-service: the async tiered query front end.

``repro.serve`` turns the repo's three answer paths — the calibrated
analytical model, the persistent result cache, and the simulator — into
one service with explicit robustness semantics: per-request deadlines,
request coalescing, bounded-queue admission control with typed
rejections, and a circuit breaker that degrades gracefully to
model-tier answers when the simulation tier fails.  See DESIGN.md §12.

Layers:

- :mod:`~repro.serve.query` — the vocabulary (queries, answers,
  :class:`Overloaded`);
- :mod:`~repro.serve.breaker` — the circuit breaker;
- :mod:`~repro.serve.service` — :class:`DesignService`, the in-process
  async API the tests drive;
- :mod:`~repro.serve.server` — the ``repro serve`` TCP JSON-lines front
  end and its ``--self-test`` smoke mode.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .query import (
    CONFIDENCES,
    TIERS,
    Answer,
    DesignQuery,
    Overloaded,
)
from .server import DesignServer, run_self_test, run_server
from .service import DesignService

__all__ = [
    "Answer",
    "CLOSED",
    "CONFIDENCES",
    "CircuitBreaker",
    "DesignQuery",
    "DesignServer",
    "DesignService",
    "HALF_OPEN",
    "OPEN",
    "Overloaded",
    "TIERS",
    "run_self_test",
    "run_server",
]
