"""Design-space-as-a-service: the async tiered query front end.

``repro.serve`` turns the repo's three answer paths — the calibrated
analytical model, the persistent result cache, and the simulator — into
one service that answers which chip design serves OLTP and DSS best:
per-request deadlines, request coalescing, bounded-queue admission
control with typed rejections, and model-tier answers when the
simulation tier is full or fails.  See DESIGN.md §12.

Layers:

- :mod:`~repro.serve.query` — the vocabulary (queries, answers,
  :class:`Overloaded`);
- :mod:`~repro.serve.service` — :class:`DesignService`, the in-process
  async API the tests drive;
- :mod:`~repro.serve.server` — the ``repro serve`` TCP JSON-lines front
  end and its ``--self-test`` smoke mode.
"""

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
    "CONFIDENCES",
    "DesignQuery",
    "DesignServer",
    "DesignService",
    "Overloaded",
    "TIERS",
    "run_self_test",
    "run_server",
]
