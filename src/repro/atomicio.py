"""Atomic file replacement: the one way this library rewrites a file.

Every durable artifact a concurrent reader may be looking at - cache
entries and sidecars, shard receipts, the service's snapshot, site
sections, the heartbeat - is published by writing a temporary sibling
and renaming it over the destination.  Readers therefore see the old
bytes or the new bytes, never a torn mix, and a crash mid-write leaves
the destination untouched.

The rename also gives the destination a *fresh inode*.  Fleet merges
hard-link cache entries between directories (:mod:`repro.fleet.merge`),
which is only sound because nothing rewrites an entry in place: a
replace in one directory can never alias into another that links the
old bytes.

Temporary names end in ``.tmp`` (so no ``*.json`` entry, sidecar or
receipt scan ever matches one), carry the writer's pid plus a random
token (so concurrent writers of one destination never share a temp
file), and are created exclusively.  A writer killed mid-write leaves
its ``*.tmp`` behind; those are inert and ``TrialCache.clear`` sweeps
them.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path
from typing import Union

#: Suffix of in-flight temporaries (see module docstring).
TMP_SUFFIX = ".tmp"


def atomic_write(path: Union[str, Path], data: Union[str, bytes]) -> None:
    """Replace ``path`` with ``data`` (text or bytes) atomically."""
    target = os.fspath(path)
    tmp = f"{target}.{os.getpid()}.{secrets.token_hex(4)}{TMP_SUFFIX}"
    try:
        with open(tmp, "xb" if isinstance(data, bytes) else "x") as handle:
            handle.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
