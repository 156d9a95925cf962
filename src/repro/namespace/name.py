"""Fully-qualified hierarchical names.

TerraDir names look like Unix paths: ``/university/public/people``.
The root of every namespace is the name ``/``.  These helpers are pure
string manipulation; the simulator itself works with integer node ids
(see :mod:`repro.namespace.tree`) and only materialises names at the
API boundary.
"""

from __future__ import annotations

from typing import Tuple

ROOT_NAME = "/"

_SEPARATOR = "/"


class InvalidNameError(ValueError):
    """Raised when a string is not a valid fully-qualified name."""


def validate_name(name: str) -> str:
    """Return ``name`` if it is a valid fully-qualified hierarchical name.

    A valid name is ``/`` or starts with ``/``, has no empty components,
    no trailing separator, and no component equal to ``.`` or ``..``.

    Raises:
        InvalidNameError: if the name is malformed.
    """
    if name == ROOT_NAME:
        return name
    if not name or not name.startswith(_SEPARATOR):
        raise InvalidNameError(f"name must be absolute (start with '/'): {name!r}")
    if name.endswith(_SEPARATOR):
        raise InvalidNameError(f"name must not end with '/': {name!r}")
    for comp in name[1:].split(_SEPARATOR):
        if not comp:
            raise InvalidNameError(f"empty component in {name!r}")
        if comp in (".", ".."):
            raise InvalidNameError(f"relative component {comp!r} in {name!r}")
    return name


def split(name: str) -> Tuple[str, ...]:
    """Split a validated name into its components (root splits to ``()``)."""
    if name == ROOT_NAME:
        return ()
    return tuple(name[1:].split(_SEPARATOR))


def join(*components: str) -> str:
    """Join components into a fully-qualified name (``join()`` is the root)."""
    if not components:
        return ROOT_NAME
    return _SEPARATOR + _SEPARATOR.join(components)
