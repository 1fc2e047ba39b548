"""Path handling: normalisation, splitting, descendant checks.

The LibFS API is path-based; paths are absolute, ``/``-separated, with no
``.``/``..`` components (rejected — the LibFS resolves names against its
own auxiliary state and the paper's scenarios never need dot-relative
resolution) and no NUL byte — together, exactly the components
:func:`repro.pm.layout.legal_name` refuses, checked on the ``str`` because
every metadata op normalises its path several times.  The descendant check
backs the §4.6 case-(2) patch: a directory must not be renamed into its own
subtree.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import InvalidArgument, NameTooLong
from repro.pm.layout import MAX_NAME


def normalize(path: str) -> str:
    """Canonical form: absolute, single slashes, no trailing slash."""
    if not path or not path.startswith("/"):
        raise InvalidArgument(f"path must be absolute: {path!r}")
    if "\0" in path:
        raise InvalidArgument(f"NUL byte in path: {path!r}")
    parts = [p for p in path.split("/") if p]
    for p in parts:
        if p in (".", ".."):
            raise InvalidArgument(f"dot components not supported: {path!r}")
        if len(p.encode()) > MAX_NAME:
            raise NameTooLong(p)
    return "/" + "/".join(parts)


def components(path: str) -> List[str]:
    """Name components of a normalised path ('/' -> [])."""
    path = normalize(path)
    return [p for p in path.split("/") if p]


def split(path: str) -> Tuple[str, str]:
    """(parent path, leaf name); the root itself has no leaf."""
    parts = components(path)
    if not parts:
        raise InvalidArgument("the root directory has no name")
    parent = "/" + "/".join(parts[:-1])
    return parent, parts[-1]


def is_descendant(ancestor: str, path: str) -> bool:
    """True if ``path`` lies strictly inside ``ancestor`` (or equals it)."""
    a = normalize(ancestor)
    p = normalize(path)
    if a == "/":
        return True
    return p == a or p.startswith(a + "/")
