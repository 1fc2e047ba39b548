"""Path handling: one parse, at the API boundary.

The LibFS API is path-based; paths are absolute, ``/``-separated, with no
``.``/``..`` components (rejected — the LibFS resolves names against its
own auxiliary state and the paper's scenarios never need dot-relative
resolution) and no NUL byte — together, exactly the components
:func:`repro.pm.layout.legal_name` refuses.  :func:`parse` is the only
routine that validates: an operation calls it once per path argument and
everything below takes the component tuple (``()`` is the root; the §4.6
case-(2) descendant check is ``newc[:len(oldc)] == oldc``).
"""

from __future__ import annotations

import functools
from typing import Sequence, Tuple

from repro.errors import InvalidArgument, NameTooLong
from repro.pm.layout import MAX_NAME


@functools.lru_cache(maxsize=4096)
def parse(path: str) -> Tuple[str, ...]:
    """Validate ``path`` and return its name components ('/' -> ()).

    Memoized: a pure function of its argument that returns a tuple, and a
    call that raises is not cached, so every bad spelling still raises."""
    if not path or not path.startswith("/"):
        raise InvalidArgument(f"path must be absolute: {path!r}")
    if "\0" in path:
        raise InvalidArgument(f"NUL byte in path: {path!r}")
    parts = tuple(filter(None, path.split("/")))
    for p in parts:
        if p in (".", ".."):
            raise InvalidArgument(f"dot components not supported: {path!r}")
        if len(p.encode()) > MAX_NAME:
            raise NameTooLong(p)
    return parts


def join(comps: Sequence[str]) -> str:
    """Canonical spelling: absolute, single slashes, no trailing slash."""
    return "/" + "/".join(comps)


def normalize(path: str) -> str:
    """Canonical spelling of ``path``, for callers that store strings."""
    return join(parse(path))
