"""Shared pipeline file formats and manifests.

Every command materializes a manifest next to its outputs: content hashes of
the inputs, the effective config snapshot, and package versions. Manifests
contain no timestamps so that re-running an unchanged stage reproduces them
byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import __version__


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command: str, config_snapshot: dict, inputs: dict, outputs: list, seed=None) -> None:
    manifest = {
        "command": command,
        "config": config_snapshot,
        "inputs": {name: {"path": str(p), "sha256": sha256_file(p)} for name, p in sorted(inputs.items())},
        "outputs": sorted(str(o) for o in outputs),
        "seed": seed,
        "versions": {"kgsynth": __version__, "python": sys.version.split()[0]},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class DataPointRecord:
    """One dataset row: text paired with its label-level triplets."""

    id: str
    text: str
    triplets: list[tuple[str, str, str]]
    provenance: str = "ingested"  # sampled | generated | ingested
    flags: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "DataPointRecord":
        return cls(
            id=str(raw["id"]),
            text=str(raw.get("text", "")),
            triplets=[(t["s"], t["r"], t["o"]) for t in raw.get("triplets", [])],
            provenance=str(raw.get("provenance", "ingested")),
            flags=dict(raw.get("flags", {})),
        )


def read_jsonl(path) -> Iterator[dict]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def write_jsonl(path, rows: Iterable[dict]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
            n += 1
    return n


def read_datapoints(path) -> list[DataPointRecord]:
    return [DataPointRecord.from_dict(raw) for raw in read_jsonl(path)]


def triplets_from_row(raw: dict) -> list[tuple[str, str, str]]:
    return [(t["s"], t["r"], t["o"]) for t in raw.get("triplets", [])]
