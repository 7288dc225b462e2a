"""`repro serve`: a JSON-lines TCP front end over :class:`DesignService`.

Protocol — one JSON object per line, one reply line per request::

    -> {"op": "query", "query": {"camp": "lc", "cores": 8}, "deadline_s": 0.5}
    <- {"ok": true, "answer": {...tier/confidence/payload...}}
    -> {"op": "health"}
    <- {"ok": true, "health": {...}}
    -> {"op": "stats"}
    <- {"ok": true, "stats": {...}}

Error replies are typed, never stack traces::

    <- {"ok": false, "error": "overloaded", "retry_after_s": 0.31, ...}
    <- {"ok": false, "error": "bad-request", "message": "..."}

The server is intentionally thin: every robustness property (admission
control, coalescing, deadlines, breaker degradation) lives in
:class:`~repro.serve.service.DesignService` so the in-process API and
the socket API cannot drift apart.  ``serve --self-test`` boots a
server on an ephemeral port, drives it with concurrent socket clients
(health, coalescing, deadlines, bad-request rejections, stats), and
exits 0/1 — the CI smoke job.
"""

from __future__ import annotations

import asyncio
import json

from .query import DesignQuery, Overloaded
from .service import DesignService

__all__ = ["DesignServer", "run_server", "run_self_test"]

#: Longest request line the server will read (a query is ~200 bytes;
#: anything larger is a confused or hostile client).
MAX_LINE_BYTES = 64 * 1024


def _error(kind: str, message: str, **extra) -> dict:
    doc = {"ok": False, "error": kind, "message": message}
    doc.update(extra)
    return doc


class DesignServer:
    """Asyncio TCP server speaking the JSON-lines protocol above."""

    def __init__(self, service: DesignService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind, calibrate the service, then start serving.

        Binding first makes a busy or bad address fail before the
        expensive calibration; a calibration that raises closes the
        socket and stops the service again.  ``port=0`` binds an ephemeral port (re-read
        :attr:`port` afterwards).

        Raises:
            ValueError: When the address cannot be bound (in use, or
                not local); nothing has been calibrated then.
        """
        try:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port,
                limit=MAX_LINE_BYTES, start_serving=False)
        except OSError as err:
            raise ValueError(f"cannot listen on {self.host}:{self.port}: "
                             f"{err.strerror or err}") from err
        self.port = self._server.sockets[0].getsockname()[1]
        try:
            await self.service.start()
        except BaseException:
            await self.close()
            raise
        await self._server.start_serving()

    async def close(self) -> None:
        """Stop listening, then stop the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        await self._server.serve_forever()

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """One connection: request line in, reply line out, repeat."""
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(_json_line(_error(
                        "bad-request", "request line too long")))
                    await writer.drain()
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                reply = await self._dispatch(text)
                writer.write(_json_line(reply))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, text: str) -> dict:
        """Turn one request line into one reply document."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return _error("bad-request", f"invalid JSON: {exc}")
        if not isinstance(doc, dict):
            return _error("bad-request", "request must be a JSON object")
        op = doc.get("op", "query")
        if op == "health":
            return {"ok": True, "health": self.service.health()}
        if op == "stats":
            return {"ok": True, "stats": self.service.stats()}
        if op != "query":
            return _error("bad-request", f"unknown op {op!r}")
        deadline_s = doc.get("deadline_s")
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                return _error("bad-request",
                              f"bad deadline_s {doc.get('deadline_s')!r}")
            if deadline_s <= 0:
                return _error("bad-request", "deadline_s must be > 0")
        try:
            query = DesignQuery.from_dict(doc.get("query"))
        except ValueError as exc:
            return _error("bad-request", str(exc))
        try:
            answer = await self.service.submit(query, deadline_s=deadline_s)
        except Overloaded as exc:
            return _error("overloaded", str(exc),
                          retry_after_s=round(exc.retry_after_s, 6),
                          pending=exc.pending)
        except ValueError as exc:
            return _error("bad-request", str(exc))
        return {"ok": True, "answer": answer.to_dict()}


def _json_line(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


async def _serve_async(service: DesignService, host: str,
                       port: int) -> int:
    server = DesignServer(service, host, port)
    await server.start()
    print(f"repro serve: listening on {server.host}:{server.port} "
          f"(scale {service.exp.scale:g})")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
    return 0


def run_server(service: DesignService, host: str = "127.0.0.1",
               port: int = 8642) -> int:
    """Run the TCP server until interrupted; returns an exit code."""
    try:
        return asyncio.run(_serve_async(service, host, port))
    except KeyboardInterrupt:
        print("repro serve: interrupted")
        return 0


# ---------------------------------------------------------------------- #
# Self-test (the CI smoke job)                                            #
# ---------------------------------------------------------------------- #


async def _client_request(host: str, port: int, doc: dict) -> dict:
    """One socket round trip: connect, send a line, read the reply."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(_json_line(doc))
        await writer.drain()
        line = await reader.readline()
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _self_test_async(service: DesignService) -> int:
    """Boot a server on an ephemeral port and exercise its guarantees."""
    failures: list[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        print(f"  {'ok' if ok else 'FAIL'}  {name}"
              + (f"  ({detail})" if detail and not ok else ""))
        if not ok:
            failures.append(name)

    server = DesignServer(service, "127.0.0.1", 0)
    await server.start()
    host, port = server.host, server.port
    print(f"self-test: server on {host}:{port} "
          f"(scale {service.exp.scale:g})")
    try:
        reply = await _client_request(host, port, {"op": "health"})
        check("health", reply.get("ok") is True
              and reply.get("health", {}).get("status") in ("ok", "degraded"))

        # Concurrent identical queries must coalesce into one backend
        # computation and all succeed.
        query = {"camp": "lc", "cores": 4, "l2_mb": 4.0, "banks": 4,
                 "kind": "oltp", "regime": "saturated"}
        replies = await asyncio.gather(*(
            _client_request(host, port, {"op": "query", "query": query})
            for _ in range(6)))
        all_ok = all(r.get("ok") for r in replies)
        tiers = {r["answer"]["tier"] for r in replies if r.get("ok")}
        ipcs = {r["answer"]["payload"]["ipc"] for r in replies
                if r.get("ok")}
        check("concurrent queries answered", all_ok,
              f"replies={replies!r}"[:300])
        check("identical answers", len(ipcs) == 1 and len(tiers) == 1,
              f"tiers={tiers} ipcs={ipcs}")
        coalesced = sum(1 for r in replies
                        if r.get("ok") and r["answer"]["coalesced"])
        check("coalescing observed", coalesced >= 1,
              f"coalesced={coalesced}")

        # A repeat of the same query must now come from cache or model
        # without error (provenance is tier-dependent, success is not).
        reply = await _client_request(
            host, port, {"op": "query", "query": query})
        check("repeat query", reply.get("ok") is True)

        # Deadline: an aggressive budget still yields an answer (model
        # fallback at worst), never an error.
        reply = await _client_request(host, port, {
            "op": "query", "deadline_s": 0.001,
            "query": {**query, "cores": 8}})
        check("deadline answered", reply.get("ok") is True,
              repr(reply)[:200])

        # Bad input is rejected as typed errors, not dropped connections.
        reply = await _client_request(
            host, port, {"op": "query", "query": {"camp": "xx"}})
        check("bad camp rejected",
              reply.get("ok") is False
              and reply.get("error") == "bad-request")
        reply = await _client_request(
            host, port, {"op": "query",
                         "query": {**query, "bogus": 1}})
        check("unknown field rejected",
              reply.get("ok") is False
              and reply.get("error") == "bad-request")

        reply = await _client_request(host, port, {"op": "stats"})
        stats = reply.get("stats", {})
        check("stats", reply.get("ok") is True
              and stats.get("requests", 0) >= 8
              and stats.get("coalesced", 0) >= 1)
    finally:
        await server.close()
    if failures:
        print(f"self-test: FAILED ({', '.join(failures)})")
        return 1
    print("self-test: all checks passed")
    return 0


def run_self_test(service: DesignService) -> int:
    """``repro serve --self-test``: boot, probe, exit 0/1."""
    return asyncio.run(_self_test_async(service))
