"""Coherent triplet-set sampling with coverage reweighting.

Sets are grown by a random walk with backtracking: each step picks a subject
from the whole entity catalog (heavily biased towards entities already in the
set) and then an object among the subject's incident edges. Walks may traverse
edges in either direction but always emit the stored (s, r, o) orientation.

Coverage is balanced by periodically recomputing entity/relation sampling
distributions to be inversely proportional to the observed frequencies, with
a dampening exponent, and by drawing walk starts from those distributions
(entity-centric, relation-centric, or a mixed schedule alternating between
the two at every recomputation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .kgstore import KnowledgeGraph, Triplet
from .pipeline import ValidationError, jsonl_line, triplet_rows

ENTITY_CENTRIC = "entity_centric"
RELATION_CENTRIC = "relation_centric"
MIXED = "mixed"
_STRATEGIES = (ENTITY_CENTRIC, RELATION_CENTRIC, MIXED)
MAX_ATTEMPTS_FACTOR = 10  # failed extensions a walk may make per triplet of its target size


class SamplingError(RuntimeError):
    """Raised when a walk cannot produce even a single triplet."""


@dataclass(frozen=True)
class SamplerConfig:
    poisson_mean: float = 3.0
    bias_factor: float = 7.0
    dampening: float = 0.01
    reweight_interval: int = 20_000
    strategy: str = MIXED
    seed: int = 0

    def __post_init__(self):
        if self.poisson_mean <= 0:
            raise ValidationError("poisson_mean must be positive")
        if self.bias_factor < 0:
            raise ValidationError("bias_factor must be >= 0")
        if not (0 < self.dampening <= 1):
            raise ValidationError("dampening must lie in (0, 1]")
        if self.reweight_interval < 1:
            raise ValidationError("reweight_interval must be a positive integer")
        if self.strategy not in _STRATEGIES:
            raise ValidationError(f"strategy must be one of {_STRATEGIES}")


@dataclass
class TripletSet:
    """An ordered sample of KG edges."""

    triplets: list[Triplet]
    partial: bool = False

    def to_record(self, graph: KnowledgeGraph, set_id) -> dict:
        return {
            "id": set_id,
            "triplets": triplet_rows(map(graph.triplet_labels, self.triplets)),
            "partial": self.partial,
        }


class SamplerState:
    """Mutable run state: cumulative occurrence counts, the current reweighted
    distributions (with cached cumulative sums for O(log n) draws), the RNG,
    and the active start strategy."""

    def __init__(self, graph: KnowledgeGraph, config: SamplerConfig):
        self.config = config
        self.entity_counts = np.zeros(len(graph.entities), dtype=np.int64)
        self.relation_counts = np.zeros(len(graph.relations), dtype=np.int64)
        self.sets_sampled = 0
        self.rng = np.random.default_rng(config.seed)
        self.entity_dist = np.full(len(graph.entities), 1.0 / len(graph.entities))
        self.relation_dist = np.full(len(graph.relations), 1.0 / len(graph.relations))
        self._entity_cum = np.cumsum(self.entity_dist)
        self._relation_cum = np.cumsum(self.relation_dist)
        # each entity's coherence factor within the current walk; all ones
        # between walks
        self._coherence = np.ones(len(graph.entities))

    @property
    def active_start_strategy(self) -> str:
        if self.config.strategy != MIXED:
            return self.config.strategy
        phase = (self.sets_sampled // self.config.reweight_interval) % 2
        return ENTITY_CENTRIC if phase == 0 else RELATION_CENTRIC

    def draw_entity(self) -> int:
        return _draw_index(self._entity_cum, self.rng.random())

    def draw_relation(self) -> int:
        return _draw_index(self._relation_cum, self.rng.random())


def _draw_index(cum: np.ndarray, u: float) -> int:
    """The index whose interval of the cumulative weights ``cum`` holds the
    draw ``u``. Summed in floating point, ``cum`` can end just below the
    total the draw was scaled to, and a draw above its end takes the last
    index."""
    return min(int(cum.searchsorted(u, "right")), len(cum) - 1)


def reweight_distribution(counts: np.ndarray, dampening: float) -> np.ndarray:
    """Normalized weights (f_i + eps)^(-d) over empirical frequencies f_i,
    with eps = 1/catalog size. d=1 is full inverse frequency; d->0 is uniform."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    freqs = counts / total if total > 0 else np.zeros_like(counts)
    eps = 1.0 / len(counts)
    weights = np.power(freqs + eps, -dampening)
    return weights / weights.sum()


def reweight(state: SamplerState) -> None:
    """Recompute both sampling distributions from the cumulative counts."""
    state.entity_dist = reweight_distribution(state.entity_counts, state.config.dampening)
    state.relation_dist = reweight_distribution(state.relation_counts, state.config.dampening)
    state._entity_cum = np.cumsum(state.entity_dist)
    state._relation_cum = np.cumsum(state.relation_dist)


def sample_set_size(state: SamplerState, config: SamplerConfig) -> int:
    """Zero-truncated Poisson draw: resample until the value is >= 1."""
    while True:
        size = int(state.rng.poisson(config.poisson_mean))
        if size >= 1:
            return size


def _rank_weights(n: int, bias_factor: float) -> list[float]:
    """The coherence weight (n+1-r)^bf of each of a set's ``n`` distinct
    entities, by its 1-based first-appearance rank r; an entity outside the
    set keeps weight 1."""
    return [float((n - i) ** bias_factor) for i in range(n)]


WalkStart = Union[int, Triplet]  # an entity index or a seed edge


def sample_start(state: SamplerState, graph: KnowledgeGraph, config: SamplerConfig) -> WalkStart:
    """Draw a walk start under the active strategy.

    Entity-centric returns an entity from the reweighted entity distribution.
    Relation-centric draws a relation, then one of its edges with probability
    proportional to the entity distribution's mass on the edge subjects
    (renormalized); relations without edges are resampled.
    """
    if state.active_start_strategy == ENTITY_CENTRIC:
        return state.draw_entity()
    if not len(graph.edges):
        raise SamplingError("graph has no edges to start from")
    while True:
        edges = graph.relation_edges(state.draw_relation())
        if len(edges):
            break
    weights = state.entity_dist[graph.edges[edges, 0]]
    total = weights.sum()
    if total <= 0:
        idx = int(state.rng.integers(len(edges)))
    else:
        idx = _draw_index((weights / total).cumsum(), state.rng.random())
    return graph.triplet(edges[idx])


def _draw_biased_subject(
    state: SamplerState,
    distinct: list[int],
    bias_factor: float,
    exclude: set[int],
) -> int | None:
    """Sample an entity with probability proportional to its coherence
    weight (``_rank_weights``) times entity_dist(e), decomposed as a
    two-part mixture so the draw costs O(set size + log |entities|).
    Entities in ``exclude`` (dead-ended within the current walk) are
    rejected."""
    candidates, extra = [], []
    for e, weight in zip(distinct, _rank_weights(len(distinct), bias_factor)):
        if e not in exclude:
            candidates.append(e)
            extra.append((weight - 1.0) * state.entity_dist[e])
    extra = np.array(extra)
    extra_total = float(extra.sum()) if candidates else 0.0
    for _ in range(100):
        u = state.rng.random() * (1.0 + extra_total)
        if u < 1.0 or extra_total == 0.0:
            entity = state.draw_entity()
            if entity not in exclude:
                return entity
            continue
        pick = state.rng.random() * extra_total
        return candidates[_draw_index(extra.cumsum(), pick)]
    return None


def _add_entity(distinct: list[int], seen: set[int], entity: int) -> None:
    if entity not in seen:
        seen.add(entity)
        distinct.append(entity)


def sample_triplet_set(
    state: SamplerState,
    graph: KnowledgeGraph,
    config: SamplerConfig,
    start: WalkStart,
    target_size: int | None = None,
) -> TripletSet:
    """Grow one triplet set from a start entity or seed edge.

    Each iteration samples a subject (coherence-biased over the whole
    catalog; the start entity seeds the first iteration) and then one of its
    incident edges, weighted by coherence * entity distribution over the
    opposite endpoints. Already-sampled triplets are skipped; a subject with
    no usable edges is a dead end and backtracks to a fresh subject draw.
    After MAX_ATTEMPTS_FACTOR * target failed extensions a non-empty partial
    set is returned, flagged.
    """
    if target_size is None:
        target_size = sample_set_size(state, config)
    triplets: list[Triplet] = []
    chosen_edges: list[int] = []
    distinct: list[int] = []
    seen: set[int] = set()
    forced_subject: int | None = None

    if isinstance(start, Triplet):
        edge_ids, others = graph.incident(start.subject)
        edge_id = next((int(i) for i in edge_ids[others == start.object] if graph.triplet(i) == start), None)
        if edge_id is None:
            raise SamplingError(f"start {start!r} is not an edge of the graph")
        triplets.append(start)
        chosen_edges.append(edge_id)
        _add_entity(distinct, seen, start.subject)
        _add_entity(distinct, seen, start.object)
    else:
        forced_subject = start  # graph.incident checks it on the first step

    coherence = state._coherence
    max_attempts = MAX_ATTEMPTS_FACTOR * target_size
    failures = 0
    dead: set[int] = set()  # subjects with every incident edge already used
    while len(triplets) < target_size and failures < max_attempts:
        if forced_subject is not None:
            subject = forced_subject
            forced_subject = None
        else:
            drawn = _draw_biased_subject(state, distinct, config.bias_factor, dead)
            if drawn is None:
                failures += 1
                continue
            subject = drawn
        edge_ids, others = graph.incident(subject)
        # only a chosen edge with an endpoint at the subject is in its row
        used = [edge for edge, t in zip(chosen_edges, triplets) if subject in (t.subject, t.object)]
        if used:
            keep = edge_ids != used[0]
            for edge in used[1:]:
                keep &= edge_ids != edge
            edge_ids = edge_ids[keep]
            others = others[keep]
        if len(edge_ids) == 0:
            dead.add(subject)
            failures += 1
            continue  # dead end: backtrack by resampling the subject
        weights = state.entity_dist[others]
        if config.bias_factor > 0 and distinct:
            coherence[distinct] = _rank_weights(len(distinct), config.bias_factor)
            weights *= coherence[others]  # entities outside the set keep factor 1
        total = float(weights.sum())
        if total <= 0:
            failures += 1
            continue
        pick = _draw_index(weights.cumsum(), state.rng.random() * total)
        edge = int(edge_ids[pick])
        t = graph.triplet(edge)
        triplets.append(t)
        chosen_edges.append(edge)
        _add_entity(distinct, seen, t.subject)
        _add_entity(distinct, seen, t.object)
    coherence[distinct] = 1.0

    if not triplets:
        raise SamplingError(f"no triplet reachable from start {start!r}")

    for t in triplets:
        state.entity_counts[t.subject] += 1
        state.entity_counts[t.object] += 1
        state.relation_counts[t.relation] += 1
    state.sets_sampled += 1
    return TripletSet(triplets, partial=len(triplets) < target_size)


def sample_dataset(graph: KnowledgeGraph, state: SamplerState, n_sets: int) -> Iterator[TripletSet]:
    """Stream ``n_sets`` triplet sets drawn with ``state``, which counts
    them, recomputing the reweighted distributions after every
    reweight_interval sampled sets. Fully deterministic for a fixed graph
    and a fresh state of a fixed config."""
    if n_sets < 1:
        raise ValueError("n_sets must be >= 1")
    config = state.config
    for _ in range(n_sets):
        start = sample_start(state, graph, config)
        yield sample_triplet_set(state, graph, config, start)
        if state.sets_sampled % config.reweight_interval == 0:
            reweight(state)


def write_dataset_jsonl(graph: KnowledgeGraph, config: SamplerConfig, n_sets: int, fh) -> dict:
    """Sample to an open text stream as one JSON object per line; returns
    coverage summary statistics, read from the sampler's own counts."""
    state = SamplerState(graph, config)
    n_partial = 0
    for i, ts in enumerate(sample_dataset(graph, state, n_sets)):
        fh.write(jsonl_line(ts.to_record(graph, i)))
        n_partial += ts.partial
    rc = state.relation_counts.astype(float)
    return {
        "sets": n_sets,
        "partial_sets": n_partial,
        "mean_set_size": float(state.relation_counts.sum() / n_sets),  # one relation per triplet
        "entities_covered": int(np.count_nonzero(state.entity_counts)),
        "relations_covered": int(np.count_nonzero(state.relation_counts)),
        "relation_count_cv": float(rc.std() / rc.mean()) if rc.mean() > 0 else math.nan,
    }
