"""Output files that are either complete or not there at all."""

from __future__ import annotations

import os


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same directory.

    The temp file replaces ``path`` only once it is fully written, so a
    failure at any point leaves the old file (or no file) and no temp file.
    A path that exists but is not a regular file (a pipe, ``/dev/stdout``)
    is written directly.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
