"""Multiprocess fan-out for experiment campaigns.

Every figure experiment is a set of *independent* simulation runs
(streams x presets x rates), which parallelises embarrassingly across
cores.  ``parallel_map`` runs a module-level function over a list of
kwargs dicts, in-process by default (deterministic, debuggable) or in a
process pool when requested.

Select the worker count with the ``REPRO_WORKERS`` environment variable
(``0``/unset = serial; ``N`` = pool of N processes; ``auto`` = one per
core, capped by the task count)::

    REPRO_WORKERS=auto python -m repro fig5
    REPRO_WORKERS=8 pytest benchmarks/test_bench_fig5.py --benchmark-only

The task function must be importable (module-level, not a closure) and
its kwargs picklable -- pass scale objects and seeds, rebuild systems
inside the task.  Results are returned in task order regardless of
completion order, so parallel and serial runs produce identical output.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import weakref
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

_log = logging.getLogger(__name__)


def worker_count(n_tasks: int, workers: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    Args:
        n_tasks: number of independent tasks.
        workers: explicit count; None consults ``REPRO_WORKERS``.

    Returns:
        0 for serial execution, otherwise the pool size.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "0").strip().lower()
        if raw in ("", "0", "none"):
            return 0
        if raw == "auto":
            # one worker per core even on single-core hosts: 'auto' is an
            # explicit request for a pool, never the serial fallback
            return min(os.cpu_count() or 1, n_tasks)
        else:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer or 'auto', got {raw!r}"
                ) from None
    if workers <= 1:
        return 0
    return min(workers, n_tasks)


class ParallelTaskError(RuntimeError):
    """A ``parallel_map`` task failed; names the task, not just the error.

    A bare pool failure surfaces as a remote traceback with no hint of
    which of N identical-looking tasks died; this wrapper carries the
    task index, the function, and a truncated kwargs summary.  The
    message also embeds the original exception, since exception chains
    (``__cause__``) do not survive pickling back from pool workers.
    """


def _describe_kwargs(kwargs: Dict[str, Any], limit: int = 60) -> str:
    parts = []
    for k, v in kwargs.items():
        r = repr(v)
        if len(r) > limit:
            r = r[: limit - 3] + "..."
        parts.append(f"{k}={r}")
    return ", ".join(parts)


def _invoke(payload):
    index, total, fn, kwargs = payload
    try:
        return fn(**kwargs)
    except Exception as exc:
        raise ParallelTaskError(
            f"task {index}/{total} ({fn.__module__}.{fn.__qualname__}) "
            f"failed with {type(exc).__name__}: {exc} "
            f"[kwargs: {_describe_kwargs(kwargs)}]"
        ) from exc


def shard_process_budget(workers: Optional[int] = None) -> int:
    """Worker processes one sharded *run* may claim without
    oversubscribing the machine.

    Campaign-level parallelism composes with run-level sharding: a
    campaign running W concurrent tasks (``REPRO_WORKERS``) in which
    each task shards across S engines (``REPRO_SHARDS``) would occupy
    W x S cores.  Precedence is campaign-first -- ``REPRO_WORKERS``
    claims its cores and each run divides the remainder::

        budget = cpu_count // max(1, campaign workers)

    so ``REPRO_WORKERS=auto REPRO_SHARDS=4`` runs the shards inline
    (budget 1 per run) rather than stacking 4 engines on every core,
    while a lone ``REPRO_SHARDS=4`` run on an 8-core host gets all 4
    processes.  The shard backend resolver
    (:func:`repro.sim.shard.resolve_backend`) consults this: ``auto``
    never exceeds the budget, an explicit ``process`` request may but
    warns.

    Args:
        workers: campaign worker count; None consults ``REPRO_WORKERS``
            (``auto`` counts as one per core, i.e. budget 1).
    """
    cpus = os.cpu_count() or 1
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "0").strip().lower()
        if raw in ("", "0", "none"):
            workers = 1
        elif raw == "auto":
            workers = cpus
        else:
            try:
                workers = int(raw)
            except ValueError:
                workers = 1
    return max(1, cpus // max(1, workers))


def fork_available() -> bool:
    """Whether this platform can fork a :class:`PersistentWorker`
    (not on Windows)."""
    return "fork" in multiprocessing.get_all_start_methods()


#: the coordinator's end of every live worker pipe; a forked child
#: closes its inherited copies, so that each worker sees EOF when the
#: coordinator goes away, not only when every sibling has gone too
_PARENT_ENDS: "weakref.WeakSet[Connection]" = weakref.WeakSet()


def _forked_main(
    target: Callable[..., None], conn: Connection, args: Tuple[Any, ...]
) -> None:
    for end in list(_PARENT_ENDS):
        end.close()
    target(conn, *args)


class PersistentWorker:
    """A long-lived fork-context subprocess driven over a duplex pipe.

    ``parallel_map``'s pool fits stateless fan-out; sharded simulation
    needs the opposite -- each worker holds an engine heap and peer
    state across many request/response rounds (one per time window).
    The child runs ``target(conn, *args)`` with the child end of the
    pipe.  It is forked, so ``args`` are inherited as they are in
    memory -- never pickled, however large -- and it starts no
    interpreter and imports nothing.  Both directions carry raw bytes
    frames whose meaning is the caller's protocol
    (:mod:`repro.sim.shard`'s opcode-prefixed frames).
    """

    __slots__ = ("proc", "_conn")

    def __init__(self, target: Callable[..., None], *args: Any) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        _PARENT_ENDS.add(self._conn)
        self.proc = ctx.Process(
            target=_forked_main, args=(target, child, args), daemon=True
        )
        self.proc.start()
        child.close()

    def send_frame(self, frame: Any) -> None:
        """Ship one raw bytes frame (no pickling).

        Raises:
            ParallelTaskError: the worker's pipe is gone (it died).
        """
        try:
            self._conn.send_bytes(frame)
        except (BrokenPipeError, OSError):
            raise ParallelTaskError(
                f"shard worker pid={self.proc.pid} exited unexpectedly "
                "(pipe closed on send)"
            ) from None

    def recv_frame(self) -> bytes:
        """Receive one raw bytes frame; EOF means the worker died."""
        try:
            return self._conn.recv_bytes()
        except (EOFError, OSError):
            raise ParallelTaskError(
                f"shard worker pid={self.proc.pid} exited unexpectedly"
            ) from None

    def close(self, sentinel: bytes) -> None:
        """Ask the worker to exit; escalate to terminate if it won't.

        Args:
            sentinel: the exit request, a raw bytes frame in the
                worker's protocol.
        """
        try:
            self._conn.send_bytes(sentinel)
        except (BrokenPipeError, OSError):
            pass
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self.proc.join(timeout=5)
        if self.proc.is_alive():
            _log.warning(
                "worker pid=%s did not exit when asked; terminating it",
                self.proc.pid,
            )
            self.proc.terminate()
            self.proc.join(timeout=5)


def parallel_map(
    fn: Callable[..., Any],
    kwargs_list: Sequence[Dict[str, Any]],
    workers: Optional[int] = None,
) -> List[Any]:
    """Run ``fn(**kw)`` for every kw, possibly across processes.

    Serial when the resolved worker count is 0 or there is at most one
    task.  Uses the ``spawn`` start method for portability (no
    inherited simulator state).  A failing task raises
    :class:`ParallelTaskError` naming its index and kwargs (in both the
    serial and pooled paths, so failures read the same either way).
    """
    n = worker_count(len(kwargs_list), workers)
    total = len(kwargs_list)
    payloads = [(i, total, fn, kw) for i, kw in enumerate(kwargs_list)]
    if n == 0 or total <= 1:
        return [_invoke(p) for p in payloads]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=n) as pool:
        return pool.map(_invoke, payloads)
