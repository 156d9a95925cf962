"""Deep-sizeof accounting for simulation state (the ``mem_bytes`` column).

``sys.getsizeof`` is shallow: a dict of lists of ints reports the dict
header only.  :func:`deep_sizeof` walks the object graph iteratively
(no recursion limits on million-node namespaces), counts every reachable
object exactly once, and knows how to traverse the containers the
simulator is built from: dicts, lists, tuples, sets, deques, ``array``
arenas, and ``__slots__``/``__dict__`` instances.  Shared state (e.g.
the namespace referenced by every peer, interned labels) is therefore
charged once per measurement, matching resident-set behaviour.

Two deliberate exclusions keep the number meaningful:

* types, modules, and functions are treated as code, not state;
* weak references are not followed.

:func:`peak_rss_bytes` reads the process-level truth from
``/proc/self/status`` (falling back to :mod:`resource`), used by
``make mem`` to enforce the documented million-node RSS budget.
"""

from __future__ import annotations

import sys
from array import array
from collections import OrderedDict, deque
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType
from typing import Any, Dict, Iterable, Optional, Set

_ATOMIC = (int, float, complex, bool, bytes, str, bytearray, memoryview,
           type(None), type(NotImplemented), type(Ellipsis))
_SKIP = (type, ModuleType, FunctionType, BuiltinFunctionType, MethodType)
_CONTAINERS = (list, tuple, set, frozenset, deque)


def _slot_names(cls: type) -> Iterable[str]:
    """All ``__slots__`` names declared anywhere in the MRO."""
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in ("__dict__", "__weakref__"):
                yield name


def deep_sizeof(obj: Any, seen: Optional[set] = None) -> int:
    """Total bytes held by ``obj`` and everything reachable from it.

    Each distinct object (by ``id``) is counted once; pass a shared
    ``seen`` set to charge state shared across several measurements to
    the first one only.

    >>> deep_sizeof([1, 2]) > deep_sizeof([])
    True
    """
    if seen is None:
        seen = set()
    total = 0
    stack = [obj]
    push = stack.append
    getsizeof = sys.getsizeof
    while stack:
        o = stack.pop()
        oid = id(o)
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(o, _SKIP):
            continue
        try:
            total += getsizeof(o)
        except TypeError:  # exotic extension types
            continue
        if isinstance(o, _ATOMIC) or isinstance(o, array):
            continue  # their buffer is already in getsizeof
        if isinstance(o, dict):
            for k, v in o.items():
                push(k)
                push(v)
        elif isinstance(o, _CONTAINERS) or isinstance(o, OrderedDict):
            stack.extend(o)
        else:
            d = getattr(o, "__dict__", None)
            if d is not None:
                push(d)
            for name in _slot_names(type(o)):
                try:
                    push(getattr(o, name))
                except AttributeError:
                    pass  # unset slot
    return total


def peak_rss_bytes() -> int:
    """Peak resident set size of this process in bytes (best effort)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:  # macOS/BSD fallback: only the peak is available
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak * (1 if sys.platform == "darwin" else 1024)
    except Exception:
        return 0


def fmt_bytes(n: int) -> str:
    """Human-readable byte count (``1536`` -> ``'1.5 KiB'``)."""
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{size:.1f} GiB"


def report(objects: Dict[str, Any]) -> Dict[str, int]:
    """Deep-size several labelled objects, sharing the seen-set.

    Earlier entries absorb state shared with later ones, so order the
    dict from most- to least-interesting.
    """
    seen: Set[int] = set()
    return {label: deep_sizeof(o, seen) for label, o in objects.items()}
