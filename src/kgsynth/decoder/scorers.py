"""Scorer boundary for constrained search.

A scorer maps (input context, generated prefixes) to finite log-probabilities
over the full vocabulary, one row per prefix. The engine queries all live
beams in one ``score_many`` call per step, which hands the batch to the
``_score_batch`` each scorer implements. The ``SubprocessScorer`` speaks a
newline-delimited JSON protocol, which lets an external model process in any
ecosystem serve the probabilities.
"""
from __future__ import annotations

import json
import math
import os
import selectors
import subprocess
from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np


class ScorerError(RuntimeError):
    """The scorer died or answered outside the protocol."""


class Scorer(ABC):
    vocab_size: int

    def score_many(self, context: str, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """Finite log-probabilities, one row per prefix (the live beams of
        one step) and one column per vocabulary token."""
        return self._score_batch(context, prefixes)

    @abstractmethod
    def _score_batch(self, context: str, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        # subclasses score here rather than in score_many, so that wrapping
        # Scorer.score_many (bench/spans.py) times every scorer's steps
        ...


class UniformScorer(Scorer):
    """Equal mass on every token."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self._row = np.full(vocab_size, -math.log(vocab_size))

    def _score_batch(self, context, prefixes):
        return np.broadcast_to(self._row, (len(prefixes), self.vocab_size))

    # a binding of its own, so that wrappers on this and on Scorer.score_many
    # (bench/spans.py wraps both) do not nest
    score_many = Scorer.score_many


class AdversarialScorer(Scorer):
    """Puts almost all mass on one (typically out-of-catalog) token; the
    constraint layer must dominate it."""

    def __init__(self, vocab_size: int, favored_token: int, low: float = -30.0):
        self.vocab_size = vocab_size
        self._row = np.full(vocab_size, low)
        self._row[favored_token] = math.log1p(-1e-9)

    def _score_batch(self, context, prefixes):
        return np.broadcast_to(self._row, (len(prefixes), self.vocab_size))


class OracleScorer(Scorer):
    """Scores one target sequence highly: the next target token gets log-prob
    ~0 while the prefix matches the target, everything else a flat penalty."""

    def __init__(self, vocab_size: int, target: Sequence[int], eos_id: int, off_score: float = -20.0):
        self.vocab_size = vocab_size
        self.target = tuple(target)
        self.eos_id = eos_id
        self.off_score = off_score

    def _score_batch(self, context, prefixes):
        rows = np.full((len(prefixes), self.vocab_size), self.off_score)
        for row, prefix in zip(rows, map(tuple, prefixes)):
            if prefix == self.target:
                row[self.eos_id] = 0.0
            elif len(prefix) < len(self.target) and prefix == self.target[: len(prefix)]:
                row[self.target[len(prefix)]] = 0.0
        return rows


class SubprocessScorer(Scorer):
    """Bridge to an external scorer process over stdin/stdout.

    Protocol: one JSON request per line, ``{"context": ..., "prefix_tokens":
    [...]}``, answered by one JSON line ``{"logprobs": [...]}`` with exactly
    vocab_size finite values, in request order. A step writes the requests
    of all its prefixes before it reads the first reply; while the scorer's
    input pipe is full, replies are read as they come, so neither side
    blocks on the other.
    """

    def __init__(self, command: Sequence[str] | str, vocab_size: int, shell: bool = False):
        self.vocab_size = vocab_size
        self._proc = subprocess.Popen(command, shell=shell, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        self._in = self._proc.stdin.fileno()
        self._out = self._proc.stdout.fileno()
        os.set_blocking(self._in, False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._in, selectors.EVENT_WRITE)
        self._selector.register(self._out, selectors.EVENT_READ)
        self._pending = b""  # bytes read past the last reply taken
        self._rendered: dict[tuple, str] = {}  # last step's prefixes -> their "1, 2, 3"

    def _score_batch(self, context, prefixes):
        status = self._proc.poll()
        if status is not None:
            raise ScorerError(f"scorer process exited with status {status}")
        # each live beam extends a beam of the previous step by one token, so
        # its token list is rendered from that beam's rendering
        rendered, self._rendered = self._rendered, {}
        head = '{"context": ' + json.dumps(context) + ', "prefix_tokens": ['
        requests = []
        for prefix in map(tuple, prefixes):
            parent = rendered.get(prefix[:-1])
            tokens = ", ".join(map(str, prefix)) if parent is None else f"{parent}, {prefix[-1]}"
            if prefix:
                self._rendered[prefix] = tokens
            requests.append(head + tokens + "]}\n")
        rows = np.empty((len(prefixes), self.vocab_size))
        for i, line in enumerate(self._exchange("".join(requests).encode(), len(prefixes))):
            try:
                values = json.loads(line)["logprobs"]
                n = len(values)
            except (ValueError, TypeError, KeyError):
                raise ScorerError(f"scorer reply {line[:80]!r} is not {{\"logprobs\": [...]}}") from None
            if n != self.vocab_size:
                raise ScorerError(f"scorer returned {n} values, expected {self.vocab_size}")
            try:
                rows[i] = values
            except (ValueError, TypeError):
                raise ScorerError("scorer returned log-probabilities that are not numbers") from None
        if not np.isfinite(rows).all():
            raise ScorerError("scorer returned non-finite log-probabilities")
        return rows

    def _exchange(self, requests: bytes, n_replies: int) -> Iterator[bytes]:
        """Write ``requests`` and yield ``n_replies`` reply lines, each as
        soon as it is read, so it is parsed while the scorer works on the
        next."""
        unsent = memoryview(requests)
        buffer = self._pending
        while n_replies:
            if unsent:
                try:
                    unsent = unsent[os.write(self._in, unsent):]
                except BlockingIOError:
                    pass
                except BrokenPipeError:
                    raise self._died("closed its input") from None
            *lines, buffer = buffer.split(b"\n", n_replies)
            for line in lines:
                yield line
            n_replies -= len(lines)
            if not n_replies:
                break
            # with the input pipe full, wait for room in it or for a reply
            if unsent and not any(key.fd == self._out for key, _ in self._selector.select()):
                continue
            chunk = os.read(self._out, 1 << 16)
            if not chunk:
                raise self._died("closed its output")
            buffer += chunk
        self._pending = buffer

    def _died(self, what: str) -> ScorerError:
        try:
            status = self._proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            return ScorerError(f"scorer process {what}")
        return ScorerError(f"scorer process {what} and exited with status {status}")

    def close(self):
        self._selector.close()
        self._proc.stdin.close()
        if self._proc.poll() is None:
            self._proc.terminate()
            self._proc.wait(timeout=5)
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
