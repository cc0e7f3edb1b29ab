"""Record logs as a test (or a hostile copy) sees them: read, rewrite,
append, bypassing :class:`repro.core.cache.TrialCache`.

A log line is ``<key> <record>\\n``, or ``<key>.<name> <sidecar>\\n`` for
a sidecar written with the record line after it.  Rewrites land in a
new inode (``os.replace``), as a damaged copy would, so a log
hard-linked into another directory keeps its bytes there.
"""

import os
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple


def logs(directory) -> "list[Path]":
    """The directory's record logs, sorted by name."""
    return sorted(Path(directory).glob("records-*.log"))


def _lines(directory) -> "list[tuple[str, bytes]]":
    """Every complete line as ``(head, bytes after it)``: the head is
    ``<key>`` for a record, ``<key>.<name>`` for a sidecar."""
    found = []
    for log in logs(directory):
        for line in log.read_bytes().split(b"\n")[:-1]:
            head, _space, data = line.partition(b" ")
            found.append((head.decode(), data))
    return found


def records(directory) -> Dict[str, bytes]:
    """Every complete record line's record, by key (a key on several
    lines: the last one read)."""
    return {head: data for head, data in _lines(directory) if "." not in head}


def sidecars(directory) -> Dict[str, bytes]:
    """Every complete sidecar line's bytes, by ``<key>.<name>`` (the
    last one read)."""
    return {head: data for head, data in _lines(directory) if "." in head}


def record(directory, key: str) -> bytes:
    """``key``'s record bytes."""
    return records(directory)[key]


def log_of(directory, key: str) -> Tuple[Path, int]:
    """``(log, 1-based line number)`` of ``key``'s first line (a
    ``<key>.<name>`` key: of that sidecar's)."""
    prefix = key.encode() + b" "
    for log in logs(directory):
        for number, line in enumerate(log.read_bytes().split(b"\n"), 1):
            if line.startswith(prefix):
                return log, number
    raise KeyError(key)


def rewrite(
    directory, key: str, change: Callable[[bytes], Optional[bytes]]
) -> Tuple[Path, int]:
    """Replace ``key``'s record (a ``<key>.<name>`` key: that sidecar)
    by ``change(bytes)`` (``None`` drops the line) in a new inode;
    returns ``(log, line number)``."""
    log, number = log_of(directory, key)
    lines = log.read_bytes().split(b"\n")
    changed = change(lines[number - 1][len(key) + 1 :])
    if changed is None:
        del lines[number - 1]
    else:
        lines[number - 1] = key.encode() + b" " + changed
    tmp = log.with_name(log.name + ".rewrite")
    tmp.write_bytes(b"\n".join(lines))
    os.replace(tmp, log)
    return log, number


def drop(directory, key: str) -> None:
    """Remove ``key``'s line from its log."""
    rewrite(directory, key, lambda _record: None)


def append(directory, lines: Dict[str, bytes], name: str = "foreign") -> Path:
    """A new log of ``lines`` (key -> record, ``<key>.<name>`` ->
    sidecar), in order, as another writer would leave it."""
    log = Path(directory) / f"records-0-{name}.log"
    log.write_bytes(
        b"".join(
            key.encode() + b" " + data + b"\n" for key, data in lines.items()
        )
    )
    return log
