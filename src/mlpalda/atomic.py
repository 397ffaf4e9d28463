"""Text files in and out.

Every input file is decoded by ``read_text`` and, except the model file,
split into records by ``read_records``; a malformed file raises
``CorpusFormatError`` naming its path and line.  Every output file is
written by ``write_text``, so it is either complete or not there at all.
"""

from __future__ import annotations

import os

import numpy as np


class CorpusFormatError(ValueError):
    """Malformed input file; message carries path and 1-based line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def read_text(path) -> str:
    """The UTF-8 text of ``path``; a byte that is not UTF-8 names its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(path, lineno, f"byte {raw[exc.start]:#04x} is not UTF-8") from None


def read_records(path, tag=None, keys=()):
    """Split a text file into its header counts and its non-blank lines.

    With a ``tag``, line 1 must be ``#<tag> v1 <key>=<int> ...`` with the
    given keys in order, each count >= 1.  Returns (counts, records), where
    records holds ``(lineno, stripped line)`` for every non-blank line after
    the header.
    """
    lines = read_text(path).split("\n")
    counts = []
    if tag is not None:
        want = f"#{tag} v1 " + " ".join(f"{key}=<int>" for key in keys)
        toks = lines[0].split()
        if not toks:
            raise CorpusFormatError(path, 1, f"missing header '{want}'")
        if toks[:2] != [f"#{tag}", "v1"] or len(toks) != 2 + len(keys):
            raise CorpusFormatError(path, 1, f"expected header '{want}'")
        for key, tok in zip(keys, toks[2:]):
            name, sep, value = tok.partition("=")
            if name != key or not sep:
                raise CorpusFormatError(path, 1, f"expected {key}=<int>, got {tok!r}")
            try:
                count = int(value)
            except ValueError:
                raise CorpusFormatError(path, 1, f"{key} is not an integer") from None
            if count < 1:
                raise CorpusFormatError(path, 1, f"{key} must be >= 1")
            counts.append(count)
    first = 1 if tag is not None else 0
    records = []
    for lineno, line in enumerate(lines[first:], start=first + 1):
        line = line.strip()
        if line:
            records.append((lineno, line))
    return counts, records


def format_floats(values) -> str:
    """Space-separated ``%.17g`` text of ``values``, which round-trips every float."""
    vals = np.asarray(values, dtype=np.float64).ravel().tolist()
    return ("%.17g " * len(vals) % tuple(vals))[:-1]


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
