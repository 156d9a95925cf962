"""File classifier: is a file protocol code?

Every rule applies to *protocol* code only: the packages whose state
feeds fixed-seed fingerprints and must replay RNG streams draw-for-draw
across serial, sharded, and cached execution -- ``sim/``, ``core/``,
``server/``, ``net/``, ``cluster/``, ``namespace/``, ``filters/``,
``workload/``, ``runtime/`` and ``client/`` (``TerraDirClient`` runs
inside the engine and its counters are part of ``run_fingerprint``).
Closure capture in the rest of the tree is ruff B023's job.

One rule-scoped carve-out rides on top: ``runtime/async_*`` is the
sanctioned wall-clock funnel (live mode genuinely runs on the
event-loop clock), so DET001 skips exactly those files -- see
:func:`is_wallclock_chokepoint` -- while the other rules still apply
to them, and the simulation side of ``runtime/`` keeps the full
contract.

The classifier keys on the path *relative to the package root* (the
directory holding ``__main__.py``), so test fixtures that mimic the
layout under their own ``__main__.py`` classify exactly like the real
tree.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional

PROTOCOL_DIRS = frozenset(
    {"sim", "core", "server", "net", "cluster", "namespace",
     "filters", "workload", "runtime", "client"}
)


def is_wallclock_chokepoint(relpath: str) -> bool:
    """True for the sanctioned live-runtime wall-clock funnel.

    ``runtime/async_*`` is where live mode touches real time by design
    (the asyncio event-loop clock, socket transports, the serve CLI's
    timing); DET001 exempts exactly these files.  The rest of
    ``runtime/`` -- the protocol seam and its simulation adapter --
    keeps the full no-wall-clock contract.
    """
    parts = relpath.split("/")
    return (
        len(parts) == 2
        and parts[0] == "runtime"
        and parts[1].startswith("async_")
    )


@dataclasses.dataclass(frozen=True)
class FileClass:
    """A classified file: root-relative path and whether it is protocol."""

    relpath: str
    protocol: bool


def find_package_root(path: Path) -> Optional[Path]:
    """The enclosing package root: nearest ancestor with ``__main__.py``.

    For the real tree that is ``src/repro``; for the fixtures it is
    ``tests/detlint_fixtures``.
    """
    for parent in [path] + list(path.parents):
        if parent.is_dir() and (parent / "__main__.py").is_file():
            return parent
    return None


def classify(path: Path) -> FileClass:
    """Classify one source file; files outside a package root are not
    protocol code."""
    path = path.resolve()
    root = find_package_root(path)
    if root is None:
        return FileClass(relpath=path.name, protocol=False)
    rel = path.relative_to(root)
    return FileClass(
        relpath=rel.as_posix(),
        protocol=rel.parts[0] in PROTOCOL_DIRS,
    )
