"""Shared pipeline file formats and manifests.

Every command materializes a manifest next to its outputs: content hashes of
the inputs, the effective config snapshot, and package versions. Manifests
contain no timestamps so that re-running an unchanged stage reproduces them
byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import logging
import sys
import threading
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__

log = logging.getLogger(__name__)


class ValidationError(ValueError):
    """Input the program cannot run on: a bad config, file, row or label.
    The CLI exits 1 on it, naming what is wrong; each layer derives its own
    error from it."""


class InputError(ValidationError):
    """A malformed or repeated row in an input file."""


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(fh, value) -> None:
    fh.write(json.dumps(value, indent=2, sort_keys=True) + "\n")


def write_manifest(fh, command: str, config_snapshot: dict, inputs: dict, outputs: list, seed=None) -> None:
    write_json(fh, {
        "command": command,
        "config": config_snapshot,
        "inputs": {name: {"path": str(p), "sha256": sha256_file(p)} for name, p in sorted(inputs.items())},
        "outputs": sorted(str(o) for o in outputs),
        "seed": seed,
        "versions": {"kgsynth": __version__, "python": sys.version.split()[0]},
    })


def _decoded(raw: bytes, path, number: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}:{number}: not UTF-8 ({exc})") from None


def read_lines(path) -> Iterator[tuple[int, str]]:
    """``(number, line)`` for each line of a UTF-8 text file, its newline
    kept; a line that is not UTF-8 is an ``InputError`` naming ``path:line``."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            yield from enumerate(fh, 1)
    except UnicodeDecodeError:  # the text layer decodes whole blocks: find the line
        with open(path, "rb") as fh:
            for number, raw in enumerate(fh, 1):
                _decoded(raw, path, number)
        raise


class Row(dict):
    """A JSON object read from the line ``where`` (``path:line``) of a JSONL
    file, and the one reader of its fields: each read checks the value's
    kind, and a missing key or a value of another kind is an ``InputError``
    naming ``where``, the key and the value."""

    __slots__ = ("where",)

    def __init__(self, row: dict, where: str):
        super().__init__(row)
        self.where = where

    def __missing__(self, key):
        raise InputError(f"{self.where}: missing key {key!r}")

    def get_as(self, key: str, kind, *default):
        """``row[key]``, of the type ``kind`` (``str`` or ``bool``) or one of the
        values in the tuple ``kind``; a missing key gives ``default`` if given."""
        value = self.get(key, *default) if default else self[key]
        if type(value) is kind if isinstance(kind, type) else value in kind:
            return value
        expected = {str: "a string", bool: "true or false"}[kind] if isinstance(kind, type) else " or ".join(map(json.dumps, kind))
        raise InputError(f"{self.where}: {key!r} must be {expected}, got {json.dumps(value)}")

    def row_id(self, key: str = "id") -> str:
        """``row[key]``, a string or a non-bool integer, as a string."""
        value = self[key]
        if type(value) not in (str, int):
            raise InputError(f"{self.where}: {key!r} must be a string or an integer, got {json.dumps(value)}")
        return str(value)

    def triplets(self) -> list[tuple[str, str, str]]:
        """``row["triplets"]``: a list, maybe empty, of ``{"s", "r", "o"}``
        objects of strings, as ``(s, r, o)`` tuples, each distinct triplet
        once, in the order it first appears."""
        value = self["triplets"]
        try:
            if type(value) is not list:
                raise TypeError
            triplets = [(t["s"], t["r"], t["o"]) for t in value]
        except KeyError as exc:
            raise InputError(f"{self.where}: missing key {exc.args[0]!r} in a triplet") from None
        except TypeError:
            raise InputError(f"{self.where}: 'triplets' must be a list of objects with keys 's', 'r', 'o', "
                             f"got {json.dumps(value)}") from None
        for triplet in triplets:
            for key, label in zip("sro", triplet):
                if type(label) is not str:
                    raise InputError(f"{self.where}: triplet key {key!r} must be a string, got {json.dumps(label)}")
        return list(dict.fromkeys(triplets))


def _row(line: str, path, number: int) -> Row | None:
    """The JSON object on a JSONL line; None if it is blank, else an ``InputError``."""
    line = line.strip()
    if not line:
        return None
    try:
        row = json.loads(line)
    except ValueError as exc:
        raise InputError(f"{path}:{number}: not valid JSON ({exc})") from None
    if not isinstance(row, dict):
        raise InputError(f"{path}:{number}: not a JSON object")
    return Row(row, f"{path}:{number}")


def read_jsonl(path) -> Iterator[Row]:
    """The JSON object on each non-blank line; any other line is an
    ``InputError`` naming ``path:line``."""
    for number, line in read_lines(path):
        row = _row(line, path, number)
        if row is not None:
            yield row


def jsonl_line(row: dict) -> str:
    """``row`` as a JSONL line: the one encoding of every JSONL output. A
    float that is not finite, which JSON cannot hold, is a ValueError."""
    return json.dumps(row, ensure_ascii=False, sort_keys=True, allow_nan=False) + "\n"


def write_jsonl(fh, rows: Iterable[dict]) -> int:
    n = 0
    for n, row in enumerate(rows, 1):
        fh.write(jsonl_line(row))
    return n


class JsonlSink:
    """An append-only JSONL file that a killed run resumes. Iterating ``rows``
    reads the rows already there one at a time, so a resumed run never holds
    them all, and mends a torn last line: one holding a whole JSON object gets
    its newline, any other is cut off. ``append`` writes and flushes one line
    under a lock. As a context manager, the file is created by the first
    append or by a clean exit."""

    def __init__(self, path):
        self.path, self._fh, self._lock = Path(path), None, threading.Lock()
        self.rows = self._read() if self.path.exists() else iter(())

    def _read(self) -> Iterator[Row]:
        with open(self.path, "r+b") as fh:
            for number, raw in enumerate(fh, 1):
                torn = not raw.endswith(b"\n")
                try:
                    row = _row(_decoded(raw, self.path, number), self.path, number)
                except InputError:
                    if not torn:
                        raise
                    row = None
                if torn and row is None:
                    log.warning("%s: cut off a torn last line of %d bytes", self.path, len(raw))
                    fh.truncate(fh.tell() - len(raw))
                elif torn:
                    fh.write(b"\n")
                if row is not None:
                    yield row

    def append(self, row: dict) -> None:
        line = jsonl_line(row)
        with self._lock:
            if self._fh is None:
                deque(self.rows, maxlen=0)  # the torn last line is mended before the first append
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line)
            self._fh.flush()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if self._fh is None and exc_type is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        if self._fh is not None:
            self._fh.close()


def triplet_rows(triplets: Iterable[tuple[str, str, str]]) -> list[dict]:
    """The ``triplets`` value of a row: one ``{"s", "r", "o"}`` object per
    triplet, as ``Row.triplets`` reads it."""
    return [{"s": s, "r": r, "o": o} for s, r, o in triplets]
