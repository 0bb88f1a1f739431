"""Scorer boundary for constrained search.

A scorer maps (input context, generated prefixes) to finite log-probabilities
over the full vocabulary, one list of floats per prefix; being
log-probabilities, none is above 0, which lets the search stop early. The
engine queries all live beams in one ``score_many`` call per step, which
hands the batch to the ``_score_batch`` each scorer implements. Every
scorer is a context manager that closes it on exit. The ``SubprocessScorer``
speaks a newline-delimited JSON protocol, which lets an external model
process in any ecosystem serve the probabilities.
"""
from __future__ import annotations

import json
import math
import os
import selectors
import signal
import subprocess
from abc import ABC, abstractmethod
from typing import Iterator, Sequence

READ_TIMEOUT_S = 600.0  # a scorer that sends nothing for this long has hung
NUMBERS = {float, int}  # the types json gives a number; true and false are bools


class ScorerError(RuntimeError):
    """The scorer died or answered outside the protocol."""


class Scorer(ABC):
    vocab_size: int

    def score_many(self, context: str, prefixes: Sequence[Sequence[int]]) -> list[list[float]]:
        """Finite log-probabilities, each at most 0: one list of floats per
        prefix (the live beams of one step), one value per vocabulary token.
        Rows may be shared with each other and with later calls; callers only
        read them."""
        return self._score_batch(context, prefixes)

    @abstractmethod
    def _score_batch(self, context: str, prefixes: Sequence[Sequence[int]]) -> list[list[float]]:
        # subclasses score here rather than in score_many, so that wrapping
        # Scorer.score_many (bench/spans.py) times every scorer's steps
        ...

    def close(self):
        """Release what the scorer holds; only a process-backed one holds anything."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class UniformScorer(Scorer):
    """Equal mass on every token."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self._row = [-math.log(vocab_size)] * vocab_size

    def _score_batch(self, context, prefixes):
        return [self._row] * len(prefixes)

    # a binding of its own, so that wrappers on this and on Scorer.score_many
    # (bench/spans.py wraps both) do not nest
    score_many = Scorer.score_many


def _fault(values: list) -> str | None:
    """What makes a reply's values no log-probabilities, if anything does."""
    if not set(map(type, values)) <= NUMBERS:  # null, a string, a list, an object, true, false
        return "scorer returned log-probabilities that are not numbers"
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        return "scorer returned non-finite log-probabilities"
    if max(values) > 0:
        return "scorer returned log-probabilities above 0"
    return None  # sound: finite values whose sum is not, or "true" outside them


class SubprocessScorer(Scorer):
    """Bridge to an external scorer process over stdin/stdout.

    Protocol: one JSON request per line, ``{"context": ..., "prefix_tokens":
    [...]}``, answered by one JSON line ``{"logprobs": [...]}`` with exactly
    vocab_size finite numbers, none above 0, in request order. A step writes
    the requests of all its prefixes before it reads the first reply; while
    the scorer's input pipe is full, replies are read as they come, so
    neither side blocks on the other. A scorer that sends nothing for
    ``READ_TIMEOUT_S`` has hung, which is a ``ScorerError``. ``command`` is a
    shell command line, run by ``/bin/sh`` in a process group of its own,
    which ``close`` ends as a whole, so a scorer that the shell started does
    not outlive it.
    """

    def __init__(self, command: str, vocab_size: int):
        self.vocab_size = vocab_size
        self._proc = subprocess.Popen(
            command, shell=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0, start_new_session=True
        )
        self._in = self._proc.stdin.fileno()
        self._out = self._proc.stdout.fileno()
        os.set_blocking(self._in, False)
        self._sending = selectors.DefaultSelector()  # room in the input pipe, or a reply
        self._sending.register(self._in, selectors.EVENT_WRITE)
        self._sending.register(self._out, selectors.EVENT_READ)
        self._receiving = selectors.DefaultSelector()  # a reply
        self._receiving.register(self._out, selectors.EVENT_READ)
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
        rows = []
        for line in self._exchange("".join(requests).encode(), len(prefixes)):
            try:
                values = json.loads(line)["logprobs"]
                n = len(values)
            except (ValueError, TypeError, KeyError):
                raise ScorerError(f"scorer reply {line[:80]!r} is not {{\"logprobs\": [...]}}") from None
            if n != self.vocab_size:
                raise ScorerError(f"scorer returned {n} values, expected {self.vocab_size}")
            # one cheap screen (a sum is NaN or infinite if a value is); a
            # reply that fails it is looked at value by value
            try:
                sound = math.isfinite(sum(values)) and max(values) <= 0 and b"true" not in line and b"false" not in line
            except (TypeError, OverflowError):  # a value that is not a number, an integer past the float range
                sound = False
            fault = None if sound else _fault(values)
            if fault:
                raise ScorerError(fault)
            rows.append(values)
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
            # wait for a reply, and while the input pipe is full, for room in it
            ready = (self._sending if unsent else self._receiving).select(READ_TIMEOUT_S)
            if not ready:
                raise ScorerError(f"scorer process sent nothing for {READ_TIMEOUT_S:g} s")
            if unsent and not any(key.fd == self._out for key, _ in ready):
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
        self._sending.close()
        self._receiving.close()
        self._proc.stdin.close()
        # the whole group: a shell that ran the scorer may die before its child
        try:
            os.killpg(self._proc.pid, signal.SIGTERM)
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
            os.killpg(self._proc.pid, signal.SIGKILL)  # what is left of it
        except ProcessLookupError:
            pass  # the group has ended
        self._proc.wait()
        self._proc.stdout.close()
