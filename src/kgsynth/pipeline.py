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
import os
import sys
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


def write_json(path, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(value, indent=2, sort_keys=True) + "\n")


def write_manifest(path, command: str, config_snapshot: dict, inputs: dict, outputs: list, seed=None) -> None:
    write_json(path, {
        "command": command,
        "config": config_snapshot,
        "inputs": {name: {"path": str(p), "sha256": sha256_file(p)} for name, p in sorted(inputs.items())},
        "outputs": sorted(str(o) for o in outputs),
        "seed": seed,
        "versions": {"kgsynth": __version__, "python": sys.version.split()[0]},
    })


def read_lines(path) -> Iterator[tuple[int, str]]:
    """``(number, line)`` for each line of a UTF-8 text file, its newline
    kept; a line that is not UTF-8 is an ``InputError`` naming ``path:line``."""
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}:{number}: not UTF-8 ({exc})") from None
            yield number, line


class Row(dict):
    """A JSON object read from the line ``where`` (``path:line``) of a JSONL
    file. Reading a key it lacks with ``row[key]`` is an ``InputError`` naming
    both."""

    __slots__ = ("where",)

    def __init__(self, row: dict, where: str):
        super().__init__(row)
        self.where = where

    def __missing__(self, key):
        raise InputError(f"{self.where}: missing key {key!r}")


def read_jsonl(path) -> Iterator[Row]:
    """The JSON object on each non-blank line; any other line is an
    ``InputError`` naming ``path:line``."""
    for number, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise InputError(f"{path}:{number}: not valid JSON ({exc})") from None
        if not isinstance(row, dict):
            raise InputError(f"{path}:{number}: not a JSON object")
        yield Row(row, f"{path}:{number}")


def write_jsonl(path, rows: Iterable[dict]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
            n += 1
    return n


def repair_jsonl_tail(path) -> None:
    """Make an appended-to JSONL file end with a newline again. A kill
    mid-append leaves a last line without one: if it holds a whole JSON
    object it gets its newline, otherwise it is cut off, so the next append
    starts a line of its own."""
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return
    with fh:
        end = start = fh.seek(0, os.SEEK_END)
        while start > 0:  # back to just after the last newline
            step = min(start, 1 << 16)
            fh.seek(start - step)
            cut = fh.read(step).rfind(b"\n")
            if cut >= 0:
                start += cut + 1 - step
                break
            start -= step
        if start == end:
            return
        fh.seek(start)
        tail = fh.read()
        try:
            whole = isinstance(json.loads(tail), dict)
        except ValueError:
            whole = False
        if whole:
            fh.write(b"\n")
        else:
            log.warning("%s: cut off a torn last line of %d bytes", path, end - start)
            fh.truncate(start)


def triplet_rows(triplets: Iterable[tuple[str, str, str]]) -> list[dict]:
    """The ``triplets`` value of a row: one ``{"s", "r", "o"}`` object per
    triplet, as ``triplets_from_row`` reads it."""
    return [{"s": s, "r": r, "o": o} for s, r, o in triplets]


def triplets_from_row(raw: Row) -> list[tuple[str, str, str]]:
    try:
        triplets = [(t["s"], t["r"], t["o"]) for t in raw.get("triplets", [])]
    except KeyError as exc:
        raise InputError(f"{raw.where}: missing key {exc.args[0]!r} in a triplet") from None
    except TypeError:
        raise InputError(f"{raw.where}: 'triplets' must be a list of objects with keys 's', 'r', 'o'") from None
    for triplet in triplets:
        for key, label in zip("sro", triplet):
            if not isinstance(label, str):
                raise InputError(f"{raw.where}: triplet key {key!r} must be a string, got {json.dumps(label)}")
    return triplets
