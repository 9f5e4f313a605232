"""The one persistent worker process every parallel engine drives.

A :class:`Worker` owns one daemon process, the duplex pipe to it and a
preempt :class:`multiprocessing.Event`.  The protocol is strictly
request/response: the parent sends a command — a picklable module-level
function and its arguments — and reads one reply before sending the
next.  The serve loop (:func:`_serve`) calls the function and answers

* ``{"ok": True, "value": <return value>}``, or
* ``{"ok": False, "error": "Type: message", "traceback": "..."}`` when
  it raised — a worker never dies on a failing command.

``exit`` ends a worker cleanly once it is idle; :meth:`Worker.kill`
ends it hard at any moment.  A worker that died on its own (killed,
crashed, ``os._exit``) reads as EOF, and :meth:`Worker.recv` turns that
into a reply carrying the one death message,
``worker exited without a result (exit code N)``.

The preempt event is the only out-of-band channel: the parent may set
it while a command runs, and the running function polls
:func:`preempt_requested` at its own safe points.  The parent clears it
before each command (never the worker — clearing worker-side would race
a preempt raised while the command was in flight).

Three engines run on it: the sweep engine (:func:`repro.cosim.sweep
.sweep` with ``workers=N``, and so fault campaigns), the conformance
oracle's ``subprocess`` mode and the farm gateway.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import traceback
from typing import Any, Callable

#: the command that ends a worker's serve loop (any other is a call)
CMD_EXIT = "exit"

#: the serving worker's preempt event (``None`` outside a worker)
_preempt_event = None


def preempt_requested() -> bool:
    """``True`` when the parent asked the running command to yield."""
    return _preempt_event is not None and _preempt_event.is_set()


def _serve(conn, preempt_event) -> None:
    """Entry point of a worker process: serve commands until ``exit``
    or until the parent goes away."""
    global _preempt_event
    _preempt_event = preempt_event
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # the parent went away
        if msg.get("cmd") == CMD_EXIT:
            conn.send({"ok": True, "cmd": CMD_EXIT})
            return
        try:
            reply = {
                "ok": True,
                "value": msg["fn"](*msg["args"], **msg["kwargs"]),
            }
        except BaseException as exc:  # never let a worker die silently
            reply = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=8),
            }
        try:
            conn.send(reply)
        except (OSError, ValueError):
            return


class Worker:
    """One persistent worker process, its pipe and its preempt event."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context()
        self.preempt = ctx.Event()
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_serve, args=(child_conn, self.preempt), daemon=True
        )
        self.process.start()
        child_conn.close()

    def send(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Ask the worker to run ``fn(*args, **kwargs)``; ``fn`` must be
        a module-level function (it travels by qualified name).  A send
        to a dead worker is dropped: its death reads on :meth:`recv`."""
        with contextlib.suppress(OSError, ValueError):
            self.conn.send({"fn": fn, "args": args, "kwargs": kwargs})

    def recv(self) -> dict[str, Any]:
        """The reply to the last command.  A dead worker reads as EOF
        and answers ``{"ok": False, "dead": True, "error": ...}``."""
        try:
            return self.conn.recv()
        except (EOFError, OSError, TypeError):
            # TypeError: kill() closed the pipe under a blocked recv()
            self.process.join(timeout=5)
            return {
                "ok": False,
                "dead": True,
                "error": f"worker exited without a result "
                         f"(exit code {self.process.exitcode})",
            }

    def exit(self) -> None:
        """Ask an idle worker to return from its serve loop, and wait
        (up to 5 s) for the process to end."""
        with contextlib.suppress(OSError, ValueError):
            self.conn.send({"cmd": CMD_EXIT})
        self.process.join(timeout=5)

    def kill(self) -> None:
        """End the worker now (``SIGKILL`` unless it already ended) and
        close the pipe."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5)
        with contextlib.suppress(OSError, ValueError):
            self.conn.close()
