"""Spans around kgsynth's public functions, and the arithmetic over them.

``install(tracer)`` wraps each public name where its caller looks it up (a
module attribute for ``module.name`` calls, the importing module's binding
for ``from module import name``, the class attribute for methods), so the
program runs unchanged. A span is ``[name, start, end, parent]``: parent is
the index of the enclosing span in the same thread; a worker thread's first
span takes as parent the span open on the tracer's own thread when the
worker first records (the call that started the workers, or the stage's
root). Spans stay in memory until the stage ends.
"""
from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.unique: dict[str, set] = defaultdict(set)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a worker thread: its work belongs to the call that is waiting for it
            stack = self._local.stack = self._main_stack[-1:]
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, fn, name, on_result=None):
        """Time every call of ``fn``; ``name`` is a string or a function of
        the call's arguments. ``on_result(args, result)`` records counts."""
        name_of = name if callable(name) else (lambda args: name)

        if inspect.isgeneratorfunction(fn):
            # a generator works while it is iterated: one span per item
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label = name_of(args)
                items = fn(*args, **kwargs)
                while True:
                    index = self.begin(label)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.end(index)
                    yield item

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def report(self) -> dict:
        counters = dict(self.counters)
        counters.update({name: len(values) for name, values in self.unique.items()})
        return {"spans": self.spans, "counters": counters}


def _patch(owner, attr: str, tracer: Tracer, name, on_result=None) -> None:
    setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, on_result))


def peak_rss_mb() -> float:
    """This process image's peak RSS (VmHWM). Unlike ``ru_maxrss``, it does
    not include the RSS the process had before ``exec``, which for a stage
    is that of the forked ``run.py`` process."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every kgsynth module."""
    from kgsynth import cli, codec, kgstore, metrics, pipeline, sampler, textgen
    from kgsynth.decoder import ConstraintEngine, Scorer, UniformScorer

    # kgstore: cli calls kgstore.ingest / kgstore.filter_zero_degree
    _patch(kgstore, "ingest", tracer, "kgstore.ingest")
    _patch(kgstore, "filter_zero_degree", tracer, "kgstore.filter_zero_degree")
    _patch(kgstore.KnowledgeGraph, "__post_init__", tracer, "kgstore.index_build")

    # pipeline: names cli imported, plus the reader read_datapoints uses
    for attr in ("save_graph", "load_graph", "write_manifest", "read_jsonl", "write_jsonl"):
        _patch(cli, attr, tracer, f"pipeline.{attr}")
    _patch(pipeline, "read_jsonl", tracer, "pipeline.read_jsonl")

    # sampler: sample_dataset looks these up in the sampler module
    original_init = sampler.SamplerState.__init__

    def state_init(self, *args, **kwargs):
        before = peak_rss_mb()
        original_init(self, *args, **kwargs)
        tracer.count("sampler.state_init_rss_mb", peak_rss_mb() - before)

    sampler.SamplerState.__init__ = tracer.wrap(state_init, "sampler.state_init")
    _patch(sampler, "sample_start", tracer, lambda args: f"sampler.start.{args[0].active_start_strategy}")
    _patch(
        sampler,
        "sample_triplet_set",
        tracer,
        lambda args: "sampler.walk." + (sampler.RELATION_CENTRIC if isinstance(args[3], kgstore.Triplet) else sampler.ENTITY_CENTRIC),
    )
    _patch(sampler, "reweight", tracer, "sampler.reweight")

    # textgen
    _patch(textgen, "build_prompt", tracer, "textgen.build_prompt")
    _patch(textgen, "completed_ids", tracer, "textgen.completed_ids")
    _patch(textgen.CompletionClient, "generate", tracer, "textgen.generate")
    _patch(textgen.CompletionClient, "generate_one", tracer, "textgen.generate_one")
    _patch(textgen.RateLimiter, "acquire", tracer, "textgen.limiter_acquire")

    # codec: cli calls codec.linearize / codec.parse
    _patch(codec, "linearize", tracer, "codec.linearize")
    _patch(codec, "parse", tracer, "codec.parse")

    # decoder
    def count_entries(args, trie):
        tracer.count("decoder.trie_entries", trie.n_entries)

    _patch(cli, "build_trie", tracer, "decoder.build_trie", count_entries)
    _patch(cli, "constrained_beam_search", tracer, "decoder.search")

    def count_prefixes(args, rows):
        tracer.count("decoder.prefixes_scored", len(args[2]))

    for scorer_cls in (Scorer, UniformScorer):
        _patch(scorer_cls, "score_many", tracer, "decoder.score_many", count_prefixes)

    def note_state(args, result):
        tracer.unique["decoder.constraint_unique_states"].add(args[1].configs)

    _patch(ConstraintEngine, "allowed_next", tracer, "decoder.allowed_next", note_state)
    _patch(ConstraintEngine, "advance", tracer, "decoder.advance")

    # metrics: evaluate and per_bucket_f1 look up bootstrap_ci in the module
    def count_pairs(args, report):
        tracer.count("metrics.pairs", len(args[0]))

    _patch(metrics, "evaluate", tracer, "metrics.evaluate", count_pairs)
    _patch(metrics, "bootstrap_ci", tracer, "metrics.bootstrap_ci")
    _patch(metrics, "per_bucket_f1", tracer, "metrics.per_bucket_f1")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result
