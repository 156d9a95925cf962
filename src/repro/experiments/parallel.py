"""Where a run's work goes: campaign fan-out and the shard backend.

Two environment variables spend the machine's cores, and this module is
the one place that reads them:

- ``REPRO_WORKERS`` -- campaign workers: every figure experiment is a
  set of *independent* simulation runs (streams x presets x rates),
  which ``parallel_map`` fans out across a process pool;
- ``REPRO_SHARDS`` -- shard engines per run: one big run split into
  lock-stepped shards (:mod:`repro.sim.shard`), whose backend
  :func:`shard_backend` derives from what this process can observe.

Both accept the same values (:func:`env_count`): unset, ``""``, ``0``,
``none`` or ``off`` for the default (serial), ``auto`` for one per
core, or an integer >= 1::

    REPRO_WORKERS=auto python -m repro fig5
    REPRO_WORKERS=8 pytest benchmarks/test_bench_fig5.py --benchmark-only

A ``parallel_map`` task function must be importable (module-level, or
a ``functools.partial`` of one, not a closure) and its items picklable
-- pass scale objects and seeds, rebuild systems inside the task.
Results are returned in task order regardless of completion order, so
parallel and serial runs produce identical output.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence

# multiprocessing and repro.sim.shard are imported where they are used:
# every experiment imports this module, and a serial run needs neither


def env_count(name: str) -> Optional[int]:
    """Parse a core-count variable (``REPRO_WORKERS``, ``REPRO_SHARDS``).

    Returns:
        None for the default (unset, ``""``, ``0``, ``none``, ``off``),
        ``os.cpu_count()`` for ``auto``, else the integer itself.

    Raises:
        ValueError: naming the variable and its value, for anything
            else (including integers below 1).
    """
    raw = os.environ.get(name, "").strip().lower()
    if raw in ("", "0", "none", "off"):
        return None
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(
            f"{name}={raw!r}: expected an integer >= 1, 'auto', or "
            "unset/0/none/off"
        )
    return n


def worker_count(n_tasks: int, workers: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    Args:
        n_tasks: number of independent tasks.
        workers: explicit count; None consults ``REPRO_WORKERS``.

    Returns:
        0 for serial execution (at most one worker), otherwise the pool
        size, capped by the task count.
    """
    if workers is None:
        workers = env_count("REPRO_WORKERS") or 0
    if workers <= 1:
        return 0
    return min(workers, n_tasks)


def shard_backend(n_shards: int) -> str:
    """Where a run's ``n_shards`` shard engines run: ``process`` or
    ``inline``.

    ``process`` (one forked worker per shard) only when all of these
    hold, else ``inline`` -- the same frames, answered in this process:

    - there is more than one shard;
    - the platform can fork (:func:`repro.sim.shard.fork_available`);
    - this process is not daemonic: a ``parallel_map`` pool worker may
      not have children;
    - the cores cover the shards once campaign workers have claimed
      theirs, ``cpu_count // REPRO_WORKERS >= n_shards`` -- so
      ``REPRO_WORKERS=auto REPRO_SHARDS=4`` runs the shards inline
      rather than stacking 4 engines on every core.
    """
    import multiprocessing

    from repro.sim.shard import fork_available

    if (
        n_shards <= 1
        or not fork_available()
        or multiprocessing.current_process().daemon
    ):
        return "inline"
    cores = (os.cpu_count() or 1) // (env_count("REPRO_WORKERS") or 1)
    return "process" if cores >= n_shards else "inline"


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: Optional[int] = None,
) -> List[Any]:
    """``[fn(item) for item in items]``, possibly across processes.

    Serial when the resolved worker count is 0 or there is at most one
    item; otherwise one ``spawn`` pool (no inherited simulator state)
    maps every item.  An exception ``fn`` raises propagates unchanged
    (the campaign's task, ``run_spec``, records failures instead).
    """
    n = worker_count(len(items), workers)
    if n == 0 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=n) as pool:
        return pool.map(fn, items)
