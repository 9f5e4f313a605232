"""Synchronous farm client — what the ``mb32-farm`` CLI and the test
suite talk through.

Uses :class:`http.client.HTTPConnection` (stdlib) with a persistent
keep-alive connection; the asyncio counterpart for load generation
lives in :class:`repro.farm.httpio.AsyncHTTPConnection`.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any

from repro.farm.protocol import JobSpec
from repro.runapi.backoff import retry_backoff_delay


class FarmError(RuntimeError):
    """A non-2xx farm response.  ``status`` is the HTTP code and
    ``body`` the decoded JSON error document (when there was one)."""

    def __init__(self, status: int, body: Any):
        self.status = status
        self.body = body
        detail = body.get("error") if isinstance(body, dict) else body
        super().__init__(f"farm returned {status}: {detail}")


class FarmUnavailable(FarmError):
    """The gateway could not be reached (connection refused/reset,
    mid-response disconnect) or kept shedding load (503) until the
    retry budget ran out.  ``status`` is 503 for shedding and 0 for
    transport failures; the last low-level exception is chained as
    ``__cause__`` — callers get one clean typed error, never a raw
    socket traceback."""


class FarmClient:
    """One keep-alive connection to a gateway.

    ``retries``/``backoff_s``/``deadline_s`` make the client resilient
    to a flapping gateway: transport errors (connection refused/reset,
    truncated responses) and 503 load-shed responses are retried on
    the shared seeded :func:`repro.runapi.backoff.retry_backoff_delay`
    schedule until the retry budget *and* the total wall-clock
    deadline are exhausted, then surface as one typed
    :class:`FarmUnavailable`.  With ``deadline_s`` no socket read waits
    past the deadline either (else each waits up to ``timeout``), so a
    gateway that accepts a request and never answers cannot hold the
    client longer than the deadline.  Retrying a submission is
    idempotent for cacheable jobs — the farm's content-addressed dedup
    coalesces a re-sent duplicate onto the original execution.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        timeout: float = 600.0,
        retries: int = 0,
        backoff_s: float = 0.05,
        deadline_s: float | None = None,
        backoff_seed: int = 0,
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.deadline_s = deadline_s
        self.backoff_seed = backoff_seed
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    def _request_once(
        self, method: str, path: str, body: bytes | None,
        headers: dict[str, str], deadline: float | None,
    ) -> tuple[int, bytes]:
        for attempt in (1, 2):  # one transparent reconnect
            timeout = self.timeout
            if deadline is not None:
                timeout = min(timeout, deadline - time.monotonic())
                if timeout <= 0:
                    raise TimeoutError(
                        f"deadline of {self.deadline_s}s passed")
            if self._conn is None:
                self._conn = http.client.HTTPConnection(self.host, self.port)
            self._conn.timeout = timeout  # read by the next connect()
            if self._conn.sock is not None:
                self._conn.sock.settimeout(timeout)
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                data = response.read()
                if response.will_close:
                    self._conn.close()
                    self._conn = None
                return response.status, data
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def _request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, bytes]:
        body = (
            json.dumps(payload, sort_keys=True).encode()
            if payload is not None else None
        )
        headers = {
            "Content-Type": "application/json",
            "X-MB32-Tenant": self.tenant,
        }
        deadline = (
            time.monotonic() + self.deadline_s
            if self.deadline_s is not None else None
        )
        attempt = 0
        last_exc: Exception | None = None
        last_shed: tuple[int, bytes] | None = None
        while True:
            attempt += 1
            try:
                status, data = self._request_once(
                    method, path, body, headers, deadline
                )
                if status != 503:
                    return status, data
                last_shed, last_exc = (status, data), None
            except (ConnectionError, http.client.HTTPException,
                    OSError) as exc:
                last_exc, last_shed = exc, None
            if attempt > self.retries:
                break
            delay = retry_backoff_delay(
                self.backoff_s, f"{method} {path}", attempt,
                self.backoff_seed,
            )
            if deadline is not None and \
                    time.monotonic() + delay >= deadline:
                break
            if delay > 0:
                time.sleep(delay)
        if last_shed is not None:
            if self.retries == 0:
                return last_shed  # pre-retry behavior: raw 503 upward
            try:
                doc = json.loads(last_shed[1])
            except ValueError:
                doc = {"error": "overloaded"}
            raise FarmUnavailable(503, doc)
        raise FarmUnavailable(
            0,
            {"error": f"gateway {self.host}:{self.port} unreachable "
                      f"after {attempt} attempt(s): {last_exc}"},
        ) from last_exc

    def _json(self, method: str, path: str, payload: Any = None) -> Any:
        status, data = self._request(method, path, payload)
        try:
            doc = json.loads(data) if data else None
        except ValueError:
            doc = data.decode("latin-1", "replace")
        if status >= 400:
            raise FarmError(status, doc)
        return doc

    # ------------------------------------------------------------------
    # job surface
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        payload: dict[str, Any],
        *,
        cacheable: bool = True,
        priority: int = 0,
        wait: bool = False,
        timeout_s: float | None = None,
    ) -> dict[str, Any]:
        """Submit one job; returns its status document (with the
        result inlined when ``wait=True`` and the job finished)."""
        spec = JobSpec(
            kind=kind,
            payload=payload,
            tenant=self.tenant,
            priority=priority,
            cacheable=cacheable,
        )
        path = "/v1/jobs"
        if wait:
            path += "?wait=1"
            if timeout_s is not None:
                path += f"&timeout_s={timeout_s}"
        return self._json("POST", path, spec.to_dict())

    def status(
        self,
        job_id: str,
        *,
        wait: bool = False,
        timeout_s: float | None = None,
    ) -> dict[str, Any]:
        path = f"/v1/jobs/{job_id}"
        if wait:
            path += "?wait=1"
            if timeout_s is not None:
                path += f"&timeout_s={timeout_s}"
        return self._json("GET", path)

    def result_bytes(self, job_id: str) -> bytes:
        """The raw result document bytes — byte-identical across cache
        hits, coalesced duplicates and the original execution."""
        status, data = self._request("GET", f"/v1/jobs/{job_id}/result")
        if status != 200:
            try:
                doc = json.loads(data)
            except ValueError:
                doc = data.decode("latin-1", "replace")
            raise FarmError(status, doc)
        return data

    def result(self, job_id: str) -> dict[str, Any]:
        return json.loads(self.result_bytes(job_id))

    def preempt(self, job_id: str) -> dict[str, Any]:
        """Checkpoint-and-migrate a running job."""
        return self._json("POST", f"/v1/jobs/{job_id}/preempt")

    # ------------------------------------------------------------------
    # farm surface
    # ------------------------------------------------------------------
    def farm_status(self) -> dict[str, Any]:
        return self._json("GET", "/v1/status")

    def healthz(self) -> bool:
        try:
            doc = self._json("GET", "/v1/healthz")
        except (FarmError, OSError, http.client.HTTPException):
            return False
        return bool(doc and doc.get("ok"))

    def drain(self) -> dict[str, Any]:
        """Ask the gateway to finish everything and shut down."""
        return self._json("POST", "/v1/drain")

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "FarmClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
