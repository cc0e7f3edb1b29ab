"""Atomic file replacement: the one way this library rewrites a file.

Every durable artifact a concurrent reader may be looking at - shard
receipts, the service's snapshot, site sections, diagnoses, the
heartbeat - is published by writing a temporary sibling
and renaming it over the destination.  Readers therefore see the old
bytes or the new bytes, never a torn mix, and a crash mid-write leaves
the destination untouched.

The rename also gives the destination a *fresh inode*, so a replace
never aliases into another directory that hard-links the old bytes.
(Cache records and their sidecars are lines of append-only record logs,
:mod:`repro.core.cache`, never files of their own.)  Such a log is
shared, not rewritten: :func:`link_or_copy` puts it in another
directory - ``fleet merge``'s, the service store's - as a hard link.

Temporary names end in ``.tmp`` (so no ``*.json`` or ``*.log`` scan
ever matches one), carry the writer's pid plus a random token (so
concurrent writers of one destination never share a temp file), and
are created exclusively.  A writer killed mid-write leaves its
``*.tmp`` behind, inert.

The read side of the same contract is :func:`load_json_artifact`: a
file that did not come out of such a write intact is an error naming
the file, never a raw decode or lookup error.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Callable, Dict, Type, TypeVar, Union

T = TypeVar("T")


def atomic_write(path: Union[str, Path], data: Union[str, bytes]) -> None:
    """Replace ``path`` with ``data`` (text or bytes) atomically."""
    target = os.fspath(path)
    tmp = f"{target}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
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


def link_or_copy(source: Union[str, Path], target: Union[str, Path]) -> int:
    """Give ``target`` the bytes of ``source``, a file never rewritten in
    place; return the bytes written (0 for a link).

    On one filesystem ``target`` becomes a hard link, sharing the inode
    instead of re-writing its bytes.  A ``target`` that already is
    ``source`` is left as it is.  Wherever the OS refuses the link
    (``EXDEV`` across filesystems, ``EPERM``, no hard-link support), or
    the name holds another file, the bytes of ``source`` as they are now
    are written there through :func:`atomic_write`.
    """
    try:
        os.link(source, target)
        return 0
    except FileExistsError:
        if os.path.samefile(source, target):
            return 0
    except OSError:
        pass
    data = Path(source).read_bytes()
    atomic_write(target, data)
    return len(data)


def load_json_artifact(
    path: Path, parse: Callable[[Dict], T], what: str, error: Type[Exception]
) -> T:
    """Read a JSON-object artifact and ``parse`` it.

    A file that is not what it should be - cut short, corrupted, another
    JSON shape, missing fields, written by a newer schema - raises
    ``error`` naming the file and the defect, never a raw decode or
    lookup error.  A missing file stays an ``OSError``.
    """
    try:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors.
        payload = json.loads(path.read_text("utf-8"))
    except ValueError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise error(
            f"{path}: expected a JSON object, found "
            f"{type(payload).__name__}"
        )
    try:
        return parse(payload)
    except error as exc:
        raise error(f"{path}: {exc}") from exc
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise error(
            f"{path}: malformed {what} ({type(exc).__name__}: {exc})"
        ) from exc
