"""External scorer for ``kgsynth decode --scorer-cmd``, favouring known targets.

Speaks the NDJSON scorer protocol of the README over stdin/stdout with the
byte tokenizer's vocabulary (256 byte ids plus end-of-sequence 256). The
targets file holds one ``{"context", "target"}`` object per line. While a
prefix follows its context's target, the next target byte (or
end-of-sequence once the target is complete) scores 0 and every other token
OFF_TARGET; off the target every token scores OFF_TARGET, so the search
continues under the constraints alone. Replies are pre-rendered, so the
per-request work is one dict lookup, a prefix comparison and a write.

Usage: python bench/scorer.py TARGETS_JSONL
"""
from __future__ import annotations

import json
import sys

VOCAB_SIZE = 257
EOS_ID = 256
OFF_TARGET = -8.0


def render_rows() -> tuple[list[str], str]:
    """Reply line favouring each token id, plus the flat reply line."""
    flat = [OFF_TARGET] * VOCAB_SIZE
    favoured = []
    for token in range(VOCAB_SIZE):
        row = list(flat)
        row[token] = 0.0
        favoured.append(json.dumps({"logprobs": row}) + "\n")
    return favoured, json.dumps({"logprobs": flat}) + "\n"


def next_favoured(target: list[int], prefix: list[int]) -> int | None:
    n = len(prefix)
    if n > len(target) or target[:n] != prefix:
        return None
    return target[n] if n < len(target) else EOS_ID


def serve(targets: dict[str, list[int]], stdin, stdout) -> None:
    favoured, flat = render_rows()
    for line in stdin:
        request = json.loads(line)
        target = targets.get(request["context"])
        token = None if target is None else next_favoured(target, request["prefix_tokens"])
        stdout.write(flat if token is None else favoured[token])
        stdout.flush()


def load_targets(path) -> dict[str, list[int]]:
    targets = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            targets[row["context"]] = list(row["target"].encode("utf-8"))
    return targets


if __name__ == "__main__":
    serve(load_targets(sys.argv[1]), sys.stdin, sys.stdout)
