"""Pipeline benchmark: the kgsynth CLI chain on seeded synthetic inputs.

Usage: python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One invocation generates a KG export from the seed (``kggen.py``, cached
under ``.bench_work/kg``, untimed), then runs rounds of ``sample -> generate
(fresh) -> generate (resumed) -> prepare -> decode -> eval``, at least
MIN_ROUNDS and as long as the next round fits in ``--seconds``; the first
SETUP_ROUNDS rounds start with ``ingest``. Within a round, short stages run
several times (``Workload.repeats``), each time from the same inputs. Every
stage run is its own ``python`` process started through ``launcher.py`` and
timed from outside; the launcher reports its peak RSS. Inputs that the CLI
reads but no stage writes (the generate subsets, decode inputs, scorer
targets, eval predictions, gold and train counts) are built between stages,
untimed. Every output is checked after every run, and each stage's main
output is digested; all runs in one invocation must agree.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced and one traced round, each stage once, and reports the per-layer
metrics from the traced one's spans (``spans.py``), plus the tracing
overhead. README.md beside this file lists the workloads, the checks, and
which end-to-end metric each per-layer metric should move, on which
workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 2  # rounds of the chain
SETUP_ROUNDS = 3  # rounds that start with ingest; setup_s is the median of their ingests
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
DECODE_TRIPLETS = 3  # decode inputs are prepared rows with this many triplets
PERTURBED_SHARE = 0.25  # scorer-decoded inputs whose favoured target is wrong
PRED_DROP_SHARE = 0.2  # eval predictions missing one gold triplet
PRED_EXTRA_SHARE = 0.2  # eval predictions with one extra KG edge


@dataclass(frozen=True)
class Workload:
    scale: str  # kggen.SCALES key
    sets: int  # sample --n; reweight_interval is a quarter of it
    generate: int  # first sets fed to generate; the fresh pass takes half
    decode: int  # decode inputs
    scorer: bool  # decode through scorer.py instead of the uniform scorer
    eval_docs: int  # first datapoints evaluated
    # runs of a stage per round; short stages run more often, so that every
    # stage time is a median over many runs spread across the invocation
    repeats: dict = field(default_factory=dict, hash=False)


WORKLOADS = {
    "pipeline-small": Workload("small", 1000, 1000, 5, True, 500, {"generate": 2, "resume": 2, "prepare": 2}),
    "graph-large": Workload("large", 1000, 200, 25, False, 200, {"generate": 2, "resume": 2, "prepare": 2, "eval": 2}),
}

STAGES = ("ingest", "sample", "generate", "resume", "prepare", "decode", "eval")


# ---------------------------------------------------------------- inputs


class Export:
    """The KG export of one (scale, seed), read back for the checks."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.expected = json.loads((directory / "expected.json").read_text(encoding="utf-8"))
        entity = dict(line.split("\t")[:2] for line in _lines(directory / "entities.tsv"))
        relation, literal = {}, set()
        for line in _lines(directory / "relations.tsv"):
            parts = line.split("\t")
            if len(parts) > 2 and "literal" in parts[2].split(","):
                literal.add(parts[0])
            else:
                relation[parts[0]] = parts[1]
        edges = set()
        for line in _lines(directory / "edges.tsv"):
            s, r, o = line.split("\t")
            if r not in literal:
                edges.add((entity[s], relation[r], entity[o]))
        self.edges = sorted(edges)
        self.edge_set = edges
        self.entity_labels = {label for s, _, o in edges for label in (s, o)}
        self.relation_labels = set(relation.values())


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").split("\n") if line]


def export_for(scale: str, seed: int) -> Export:
    import kggen

    directory = WORK / "kg" / f"{scale}-s{seed}"
    if not (directory / "expected.json").exists():
        kggen.generate(kggen.SCALES[scale], seed, directory)
    return Export(directory)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in _lines(path)]


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def triplet_tuples(row: dict) -> list[tuple[str, str, str]]:
    return [(t["s"], t["r"], t["o"]) for t in row["triplets"]]


def as_rows(triplets) -> list[dict]:
    return [{"s": s, "r": r, "o": o} for s, r, o in triplets]


def write_config(path: Path, export: Export, graph: Path, seed: int, workload: Workload) -> None:
    import yaml

    config = {
        "seed": seed,
        "schema": "fe",
        "tokenizer": "byte",
        "paths": {
            "edges": str(export.dir / "edges.tsv"),
            "entity_labels": str(export.dir / "entities.tsv"),
            "relation_labels": str(export.dir / "relations.tsv"),
            "graph": str(graph),
        },
        "sampler": {
            "poisson_mean": 3.0,
            "bias_factor": 7.0,
            "dampening": 0.01,
            "reweight_interval": workload.sets // 4,
            "strategy": "mixed",
        },
        "generation": {
            # never contacted: the launcher replaces requests.post
            "endpoint": "http://completions.invalid/v1/completions",
            "model": "stub",
            "preset": "text",
            # budgets far above the offered load, so the limiter never waits
            "requests_per_minute": 10**9,
            "tokens_per_minute": 10**12,
            "concurrency": 2,
            "max_attempts": 5,
            "backoff_base": 0.001,
        },
        "prepare": {"max_input_tokens": 256, "max_target_tokens": 256},
        "metrics": {"n_bootstrap": 50, "level": 0.95},
        # decode's max_length counts the end-of-sequence step, so 257 lets
        # it finish every target of the 256 tokens prepare admits
        "decode": {"num_beams": 10, "max_length": 257, "top_k_returned": 1},
    }
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")


def perturb_target(target: str, rng: random.Random, entities: list[str]) -> str:
    """Swap the last object of an FE target for another catalog entity."""
    blocks = target.split(" [e]")
    head, _, obj = blocks[-2].rpartition(" [o] ")
    replacement = obj
    while replacement == obj:
        replacement = rng.choice(entities).replace(" ", "_")
    blocks[-2] = f"{head} [o] {replacement}"
    return " [e]".join(blocks)


def perturb_prediction(gold: list, rng: random.Random, edges: list) -> list:
    pred = list(gold)
    if len(pred) > 1 and rng.random() < PRED_DROP_SHARE:
        pred.pop(rng.randrange(len(pred)))
    if rng.random() < PRED_EXTRA_SHARE:
        extra = edges[rng.randrange(len(edges))]
        if extra not in pred:
            pred.append(extra)
    return pred


_FE_BLOCK = re.compile(r"\[s\] (\S+) \[r\] (.+?) \[o\] (\S+) \[e\]")


def parse_fe(text: str) -> list[tuple[str, str, str]] | None:
    """Triplets of an FE string that consists of whole blocks only, else None."""
    blocks = _FE_BLOCK.findall(text)
    if " ".join(f"[s] {s} [r] {r} [o] {o} [e]" for s, r, o in blocks) != text:
        return None
    unique = dict.fromkeys((s.replace("_", " "), r, o.replace("_", " ")) for s, r, o in blocks)
    return list(unique)


def micro_prf(pairs: list[tuple[set, set]]) -> tuple[float, float, float]:
    """Micro P/R/F1 under the README's zero-denominator convention."""
    correct = sum(len(p & g) for p, g in pairs)
    n_pred = sum(len(p) for p, _ in pairs)
    n_gold = sum(len(g) for _, g in pairs)

    def ratio(num, den, other):
        return (1.0 if other == 0 else 0.0) if den == 0 else num / den

    precision, recall = ratio(correct, n_pred, n_gold), ratio(correct, n_gold, n_pred)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def same_report(a, b) -> bool:
    """Equal JSON values, floats to 1e-12 relative. ``metrics.evaluate``
    sums macro scores over a set of relations, whose order follows the
    per-process string hash seed, so the last digits of the macro values
    differ between processes."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_report(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_report(x, y) for x, y in zip(a, b))
    return a == b


def digest(path: Path, ordered: bool = True, drop: tuple = ()) -> str:
    """sha256 of a file; unordered JSONL is digested as its sorted lines,
    with the ``drop`` keys removed from each row."""
    data = path.read_bytes()
    if not ordered:
        lines = data.decode("utf-8").splitlines()
        if drop:
            lines = [json.dumps({k: v for k, v in json.loads(l).items() if k not in drop}, sort_keys=True) for l in lines]
        data = "\n".join(sorted(lines)).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- running


@dataclass
class StageRun:
    wall_s: float
    rss_mb: float
    rc: int
    report: dict


@dataclass
class Ledger:
    """Operations attempted and failed, and every check made."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class Runner:
    def __init__(self, run_dir: Path, seed: int, ledger: Ledger, started: float):
        self.run_dir = run_dir
        self.seed = seed
        self.ledger = ledger
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def stage(self, name: str, argv: list, traced: bool = False) -> StageRun:
        self.count += 1
        tag = f"{self.count:03d}-{name}"
        report_path = self.run_dir / "reports" / f"{tag}.json"
        report_path.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(BENCH / "launcher.py"), "--report", str(report_path), "--stub-seed", str(self.seed)]
        cmd += ["--trace"] if traced else []
        cmd += ["--", *map(str, argv)]
        remaining = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        with open(self.run_dir / "reports" / f"{tag}.log", "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
            # a blocking wait() returns as the stage ends; wait(timeout=...)
            # polls at up to 50 ms, which would blur the stage times
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                rc = proc.wait()
            except BaseException:  # interrupted: stop the stage before leaving
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        _kill_group(proc.pid)  # a scorer left behind by a crashed decode
        self.ledger.attempted += 1
        ok = self.ledger.check(rc == 0 and report_path.exists(), f"{name} exited with {rc}")
        report = json.loads(report_path.read_text(encoding="utf-8")) if ok else {}
        return StageRun(wall, report.get("peak_rss_mb", 0.0), rc, report)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class StageFailed(Exception):
    pass


@dataclass
class Chain:
    stages: tuple = STAGES  # the stages this round runs
    repeat: bool = True  # run each stage Workload.repeats times
    runs: dict = field(default_factory=dict)  # stage -> [StageRun]
    digests: dict = field(default_factory=dict)  # stage -> [output digest of each run]
    facts: dict = field(default_factory=dict)  # output properties for per-layer metrics

    @property
    def complete(self) -> bool:
        return len(self.runs) == len(self.stages)


class Bench:
    def __init__(self, workload: Workload, seed: int, run_dir: Path, export: Export, ledger: Ledger, started: float):
        self.wl = workload
        self.seed = seed
        self.run_dir = run_dir
        self.export = export
        self.ledger = ledger
        self.runner = Runner(run_dir, seed, ledger, started)
        self.config = run_dir / "config.yaml"
        self.graph_dir = run_dir / "graph"  # every round's ingest writes here
        write_config(self.config, export, self.graph_dir / "graph.json", seed, workload)

    def _stage(self, chain: Chain, name: str, argv: list, traced: bool, checked, reset=None) -> None:
        """Run one stage, ``Workload.repeats`` times when the chain repeats.
        ``reset()`` restores the stage's inputs before each run;
        ``checked()`` checks its outputs after each and returns their digest,
        or None when they are compared otherwise."""
        for _ in range(self.wl.repeats.get(name, 1) if chain.repeat else 1):
            if reset is not None:
                reset()
            run = self.runner.stage(name, argv, traced)
            chain.runs.setdefault(name, []).append(run)
            if run.rc != 0 or not run.report:
                raise StageFailed(name)
            output = checked()
            if output is not None:
                chain.digests.setdefault(name, []).append(output)

    def chain(self, out: Path, traced: bool, ingest: bool = True, repeat: bool = True) -> Chain:
        wl, check, facts = self.wl, self.ledger.check, {}
        chain = Chain(STAGES if ingest else STAGES[1:], repeat, facts=facts)
        out.mkdir(parents=True)
        common = ["--config", self.config, "--out", out]

        def ingested():
            graph = self.graph_dir / "graph.json"
            counts = json.loads((self.graph_dir / "ingest.manifest.json").read_text(encoding="utf-8"))["config"]["counts"]
            check(counts == self.export.expected, f"ingest counts {counts} != expected {self.export.expected}")
            facts["graph_bytes"] = graph.stat().st_size
            facts["ingest_counts"] = counts
            return digest(graph)

        def sampled():
            sets = facts["sets"] = read_jsonl(out / "triplet_sets.jsonl")
            check(len(sets) == wl.sets, f"sample wrote {len(sets)} sets, expected {wl.sets}")
            bad = sum(t not in self.export.edge_set for row in sets for t in triplet_tuples(row))
            check(bad == 0, f"{bad} sampled triplets are not KG edges")
            facts["sample_summary"] = json.loads((out / "sample.manifest.json").read_text(encoding="utf-8"))["config"]["summary"]
            return digest(out / "triplet_sets.jsonl")

        records, points_path = out / "generation_records.jsonl", out / "datapoints.jsonl"
        fresh_records = out / "fresh_records.jsonl"

        def generated(resumed: bool):
            counts = json.loads((out / "generate.manifest.json").read_text(encoding="utf-8"))["config"]["counts"]
            self.ledger.attempted += counts["ok"] + counts["failed"]
            self.ledger.failed += counts["failed"]
            # two threads append the records, so their order varies: digest sorted lines
            record_digest = digest(records, ordered=False, drop=("timestamp",))
            if not resumed:
                facts["fresh_ok"] = counts["ok"]
                return record_digest
            check(counts["skipped"] == facts["fresh_ok"], f"resume skipped {counts['skipped']}, expected {facts['fresh_ok']}")
            points = facts["points"] = read_jsonl(points_path)
            check(len(points) == wl.generate, f"{len(points)} datapoints for {wl.generate} prompts")
            check(sorted(p["id"] for p in points) == sorted(str(s["id"]) for s in facts["sets"][: wl.generate]),
                  "datapoint ids differ from set ids")
            facts["records"] = read_jsonl(records)
            facts["skipped"] = counts["skipped"]
            facts["label_absent_share"] = label_absent_share(points)
            return record_digest + digest(points_path, ordered=False)

        def prepared():
            summary = json.loads((out / "prepare.manifest.json").read_text(encoding="utf-8"))["config"]
            n_points = len(facts["points"])
            check(summary["kept"] + sum(summary["drops"].values()) == n_points, f"prepare kept+drops != {n_points} rows")
            rows = facts["prepared"] = sorted(read_jsonl(out / "prepared_fe.jsonl"), key=lambda r: int(r["id"]))
            check(len(rows) == summary["kept"], "prepared_fe rows != kept")
            facts["kept"] = summary["kept"]
            return digest(out / "prepared_fe.jsonl", ordered=False) + digest(out / "prepared_sc.jsonl", ordered=False)

        def decoded():
            gold = {p["id"]: triplet_tuples(p) for p in facts["points"]}
            preds = facts["preds"] = {row["id"]: row for row in read_jsonl(out / "predictions.jsonl")}
            check(sorted(preds) == sorted(row["id"] for row in inputs), "predictions do not cover the decode inputs")
            exact = 0
            for doc_id, row in preds.items():
                triplets = triplet_tuples(row)
                bad = [t for t in triplets if t[0] not in self.export.entity_labels or t[2] not in self.export.entity_labels
                       or t[1] not in self.export.relation_labels]
                check(not bad, f"decoded triplets outside the catalog for {doc_id}: {bad}")
                check(parse_fe(row["linearized"]) == triplets, f"linearized output of {doc_id} does not re-parse to its triplets")
                exact += set(triplets) == set(gold[doc_id])
                if wl.scorer and doc_id not in perturbed:
                    check(set(triplets) == set(gold[doc_id]), f"unperturbed input {doc_id} decoded to {triplets}")
            facts["exact_match_rate"] = exact / len(preds)
            facts["truncated"] = sum(row["truncated"] for row in preds.values())
            self.ledger.attempted += len(inputs)
            return digest(out / "predictions.jsonl")

        def evaluated():
            micro = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))["micro"]
            for name, value in zip(("precision", "recall", "f1"), micro_prf(pairs)):
                check(abs(micro[name]["point"] - value) <= 1e-12, f"eval micro {name} {micro[name]['point']} != {value}")
            # compared with a tolerance instead of digested: see same_report
            facts.setdefault("eval_reports", []).append(json.loads((out / "eval_report.json").read_text(encoding="utf-8")))

        try:
            if ingest:
                self._stage(chain, "ingest", ["ingest", "--config", self.config, "--out", self.graph_dir], traced, ingested)
            self._stage(chain, "sample", ["sample", *common, "--n", wl.sets], traced, sampled)
            fresh, full = out / "fresh_sets.jsonl", out / "generate_sets.jsonl"
            write_jsonl(fresh, facts["sets"][: wl.generate // 2])
            write_jsonl(full, facts["sets"][: wl.generate])
            self._stage(chain, "generate", ["generate", *common, "--sets", fresh], traced,
                        lambda: generated(False), lambda: records.unlink(missing_ok=True))
            shutil.copyfile(records, fresh_records)
            # every resumed pass starts from the fresh pass's records
            self._stage(chain, "resume", ["generate", *common, "--sets", full], traced,
                        lambda: generated(True), lambda: shutil.copyfile(fresh_records, records))
            self._stage(chain, "prepare", ["prepare", *common, "--datapoints", points_path], traced, prepared)
            inputs, perturbed = self.decode_inputs(out, facts["prepared"])
            argv = ["decode", *common, "--inputs", out / "decode_inputs.jsonl"]
            if wl.scorer:
                argv += ["--scorer-cmd", f"{shlex.quote(sys.executable)} {shlex.quote(str(BENCH / 'scorer.py'))} {shlex.quote(str(out / 'targets.jsonl'))}"]
            self._stage(chain, "decode", argv, traced, decoded)
            pairs = self.eval_inputs(out, facts["points"], facts["preds"])
            self._stage(chain, "eval", ["eval", *common, "--predictions", out / "eval_predictions.jsonl",
                                        "--gold", out / "eval_gold.jsonl", "--train-counts", out / "train_counts.tsv"],
                        traced, evaluated)
        except StageFailed:
            pass
        return chain

    def decode_inputs(self, out: Path, prepared: list) -> tuple[list, set]:
        # same-size targets keep the decode work per input alike across seeds
        rows = [r for r in prepared if r["target"].count("[e]") == DECODE_TRIPLETS][: self.wl.decode]
        inputs = [{"id": r["id"], "text": r["input"]} for r in rows]
        self.ledger.check(len(rows) == self.wl.decode, f"only {len(rows)} prepared rows with {DECODE_TRIPLETS} triplets")
        write_jsonl(out / "decode_inputs.jsonl", inputs)
        perturbed = set()
        if self.wl.scorer:
            rng = random.Random(self.seed)
            perturbed = set(rng.sample([r["id"] for r in rows], round(PERTURBED_SHARE * len(rows))))
            entities = sorted(self.export.entity_labels)
            write_jsonl(out / "targets.jsonl", [
                {"context": r["input"], "target": perturb_target(r["target"], rng, entities) if r["id"] in perturbed else r["target"]}
                for r in rows
            ])
        return inputs, perturbed

    def eval_inputs(self, out: Path, points: list, preds: dict) -> list[tuple[set, set]]:
        """Gold is the datapoints' triplets; predictions are the decoded ones
        where decoded, else seeded perturbations of gold."""
        rng = random.Random(self.seed)
        docs = sorted(points, key=lambda p: int(p["id"]))[: self.wl.eval_docs]
        gold_rows, pred_rows, pairs = [], [], []
        for p in docs:
            gold = triplet_tuples(p)
            pred = triplet_tuples(preds[p["id"]]) if p["id"] in preds else perturb_prediction(gold, rng, self.export.edges)
            gold_rows.append({"id": p["id"], "triplets": as_rows(gold)})
            pred_rows.append({"id": p["id"], "triplets": as_rows(pred)})
            pairs.append((set(pred), set(gold)))
        write_jsonl(out / "eval_gold.jsonl", gold_rows)
        write_jsonl(out / "eval_predictions.jsonl", pred_rows)
        counts = Counter(r for p in points for _, r, _ in triplet_tuples(p))
        (out / "train_counts.tsv").write_text("".join(f"{r}\t{n}\n" for r, n in sorted(counts.items())), encoding="utf-8")
        return pairs


def label_absent_share(points: list) -> float:
    """Share of (datapoint, entity) mentions whose label is not in the text:
    the input property that sends the codec's position heuristic down its
    slow branch."""
    total = absent = 0
    for p in points:
        for label in {x for s, _, o in triplet_tuples(p) for x in (s, o)}:
            total += 1
            absent += label not in p["text"]
    return absent / total if total else 0.0


# ---------------------------------------------------------------- metrics


def chain_seconds(chain: Chain) -> float:
    return sum(run.wall_s for runs in chain.runs.values() for run in runs)


def end_to_end(chains: list[Chain]) -> dict:
    """Each stage time is the median wall time of all that stage's runs in
    the invocation (``setup_s`` is ingest's). The runs of every stage are
    spread over the whole invocation, so a slow spell of the host weighs on
    each stage alike. ``chain_s`` sums the stage medians."""
    metrics = {}
    for stage in STAGES:
        times = [run.wall_s for c in chains for run in c.runs.get(stage, ())]
        metrics["setup_s" if stage == "ingest" else f"{stage}_s"] = (statistics.median(times), "s")
    metrics["chain_s"] = (sum(value for value, _ in metrics.values()), "s")
    metrics["peak_rss_mb"] = (max(run.rss_mb for c in chains for runs in c.runs.values() for run in runs), "MB")
    return metrics


def self_shares(chain: Chain, top: int = 6) -> list[str]:
    """One line per stage of a traced chain: its wall time, and the shares
    of it spent starting the process and in the self time of its largest
    spans, by name."""
    from spans import self_times

    lines = []
    for stage, (run,) in chain.runs.items():
        spans = run.report["spans"]
        owners = Counter({"startup": run.wall_s - run.report["main_s"]})
        for (name, *_), own in zip(spans, self_times(spans)):
            owners[name] += own
        shown = owners.most_common(top)
        shown.append(("other", max(0.0, run.wall_s - sum(t for _, t in shown))))
        lines.append(f"share {stage:8s} {run.wall_s:7.3f} s  " + "  ".join(f"{n} {100 * t / run.wall_s:.1f}%" for n, t in shown))
    return lines


def _pct(values: list, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def per_layer(untraced: Chain, traced: Chain) -> dict:
    from spans import self_times

    durations = defaultdict(list)
    selfs = defaultdict(float)
    counters = Counter()
    root_self = {}
    for stage, (run,) in traced.runs.items():
        spans = run.report["spans"]
        own = self_times(spans)
        for (name, start, end, _), self_s in zip(spans, own):
            durations[name].append(end - start)
            selfs[name] += self_s
        root_self[stage] = own[0]
        counters.update(run.report["counters"])

    def total(*names):
        return sum(sum(durations[n]) for n in names)

    def calls(*names):
        return sum(len(durations[n]) for n in names)

    m = {}
    m["kgstore.ingest_s"] = (total("kgstore.ingest"), "s")
    m["kgstore.filter_zero_degree_s"] = (total("kgstore.filter_zero_degree"), "s")
    m["kgstore.index_build_s"] = (total("kgstore.index_build"), "s")
    m["kgstore.edges"] = (traced.facts["ingest_counts"]["edges"], "count")
    m["kgstore.duplicate_edges_dropped"] = (traced.facts["ingest_counts"]["duplicate_edges_dropped"], "count")
    m["pipeline.save_graph_s"] = (total("pipeline.save_graph"), "s")
    m["pipeline.write_manifest_s"] = (total("pipeline.write_manifest"), "s")
    m["pipeline.graph_bytes"] = (traced.facts["graph_bytes"], "bytes")
    m["pipeline.load_graph_s"] = (total("pipeline.load_graph"), "s")
    m["pipeline.jsonl_io_s"] = (total("pipeline.read_jsonl", "pipeline.write_jsonl"), "s")

    ec, rc = "entity_centric", "relation_centric"
    m["sampler.state_init_s"] = (total("sampler.state_init"), "s")
    m["sampler.state_init_rss_mb"] = (counters["sampler.state_init_rss_mb"], "MB")
    for strategy in (ec, rc):
        m[f"sampler.start_s.{strategy}"] = (total(f"sampler.start.{strategy}"), "s")
    walks = durations[f"sampler.walk.{ec}"] + durations[f"sampler.walk.{rc}"]
    m["sampler.walk_s"] = (sum(walks), "s")
    m["sampler.walk_us_p50"] = (_pct(walks, 50) * 1e6, "us")
    m["sampler.walk_us_p99"] = (_pct(walks, 99) * 1e6, "us")
    for strategy in (ec, rc):
        busy = total(f"sampler.start.{strategy}", f"sampler.walk.{strategy}")
        m[f"sampler.sets_per_s.{strategy}"] = (calls(f"sampler.walk.{strategy}") / busy if busy else 0.0, "1/s")
    m["sampler.reweight_s"] = (total("sampler.reweight"), "s")
    m["sampler.reweights"] = (calls("sampler.reweight"), "count")
    summary = traced.facts["sample_summary"]
    m["sampler.partial_sets"] = (summary["partial_sets"], "count")
    m["sampler.mean_set_size"] = (summary["mean_set_size"], "triplets")
    m["sampler.relation_count_cv"] = (summary["relation_count_cv"], "ratio")

    records = traced.facts["records"]
    attempts = sum(r["attempts"] for r in records)
    m["textgen.build_prompt_s"] = (total("textgen.build_prompt"), "s")
    m["textgen.generate_one_ms_p50"] = (_pct(durations["textgen.generate_one"], 50) * 1e3, "ms")
    m["textgen.generate_one_ms_p99"] = (_pct(durations["textgen.generate_one"], 99) * 1e3, "ms")
    m["textgen.attempts"] = (attempts, "count")
    m["textgen.retries"] = (attempts - len(records), "count")
    m["textgen.ok_per_attempt"] = (sum(r["status"] == "ok" for r in records) / attempts, "ratio")
    m["textgen.limiter_wait_s"] = (total("textgen.limiter_acquire"), "s")
    m["textgen.completed_ids_s"] = (total("textgen.completed_ids"), "s")
    m["textgen.skipped"] = (traced.facts["skipped"], "count")

    m["codec.linearize_s"] = (total("codec.linearize"), "s")
    m["codec.linearize_calls"] = (calls("codec.linearize"), "count")
    m["codec.linearize_calls_per_kept_row"] = (calls("codec.linearize") / max(traced.facts["kept"], 1), "ratio")
    m["codec.label_absent_share"] = (traced.facts["label_absent_share"], "ratio")
    m["codec.parse_s"] = (total("codec.parse"), "s")
    m["codec.parse_calls"] = (calls("codec.parse"), "count")

    searches = durations["decoder.search"]
    scorer_calls = durations["decoder.score_many"]
    m["decoder.trie_build_s"] = (total("decoder.build_trie"), "s")
    m["decoder.trie_entries"] = (counters["decoder.trie_entries"], "count")
    m["decoder.search_ms_p50"] = (_pct(searches, 50) * 1e3, "ms")
    m["decoder.search_ms_p95"] = (_pct(searches, 95) * 1e3, "ms")
    m["decoder.search_self_s"] = (selfs["decoder.search"], "s")
    m["decoder.scorer_s"] = (sum(scorer_calls), "s")
    m["decoder.scorer_calls"] = (len(scorer_calls), "count")
    m["decoder.prefixes_scored"] = (counters["decoder.prefixes_scored"], "count")
    m["decoder.scorer_call_ms_p50"] = (_pct(scorer_calls, 50) * 1e3, "ms")
    m["decoder.scorer_call_ms_p99"] = (_pct(scorer_calls, 99) * 1e3, "ms")
    m["decoder.constraint_s"] = (total("decoder.allowed_next", "decoder.advance"), "s")
    m["decoder.constraint_calls"] = (calls("decoder.allowed_next", "decoder.advance"), "count")
    allowed = calls("decoder.allowed_next")
    m["decoder.constraint_unique_state_ratio"] = (counters["decoder.constraint_unique_states"] / allowed if allowed else 0.0, "ratio")
    m["decoder.exact_match_rate"] = (traced.facts["exact_match_rate"], "ratio")
    m["decoder.truncated"] = (traced.facts["truncated"], "count")

    m["metrics.evaluate_s"] = (total("metrics.evaluate"), "s")
    m["metrics.bootstrap_s"] = (total("metrics.bootstrap_ci"), "s")
    m["metrics.bootstrap_calls"] = (calls("metrics.bootstrap_ci"), "count")
    m["metrics.per_bucket_s"] = (total("metrics.per_bucket_f1"), "s")
    m["metrics.pairs"] = (counters["metrics.pairs"], "count")

    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = (root_self[stage], "s")
    m["cli.startup_s"] = (sum(r.wall_s - r.report["main_s"] for runs in untraced.runs.values() for r in runs), "s")
    m["trace.overhead_s"] = (chain_seconds(traced) - chain_seconds(untraced), "s")
    return m


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kgsynth pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kgsynth" / "cli.py").is_file():
        print(f"error: kgsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.perf_counter()
    wl = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    export = export_for(wl.scale, args.seed)
    ledger = Ledger()
    bench = Bench(wl, args.seed, run_dir, export, ledger, started)
    chains, traced = [], None
    try:
        # whole rounds of the chain spread each stage's runs over the run
        measuring = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            chain = bench.chain(run_dir / f"round{len(chains)}", traced=False,
                                ingest=len(chains) < SETUP_ROUNDS, repeat=not args.trace)
            chains.append(chain)
            if not chain.complete or args.trace:
                break
            now = time.perf_counter()
            last = now - round_start
            if now - started + 2 * last > DEADLINE_S or (len(chains) >= MIN_ROUNDS and now - measuring + last > args.seconds):
                break
        checked = list(chains)
        if args.trace and chains[0].complete:
            traced = bench.chain(run_dir / "round-traced", traced=True, repeat=False)
            checked.append(traced)
        for stage in STAGES:
            outputs = {d for c in checked for d in c.digests.get(stage, ())}
            ledger.check(len(outputs) <= 1, f"{stage} outputs differ between runs")
        reports = [r for c in checked for r in c.facts.get("eval_reports", ())]
        ledger.check(all(same_report(reports[0], r) for r in reports[1:]), "eval reports differ between runs")
    except StageFailed:
        pass

    complete = bool(chains) and all(c.complete for c in chains) and (
        not args.trace or traced is not None and traced.complete)
    correct = complete and not ledger.problems and ledger.failed == 0
    metrics = {}
    if complete:
        metrics = per_layer(chains[0], traced) if args.trace else end_to_end(chains)
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if complete and args.trace:
        print("\n".join(self_shares(traced)))
    elif complete:
        for stage in STAGES:
            times = [run.wall_s for c in chains for run in c.runs.get(stage, ())]
            print(f"runs {stage:8s} {len(times):3d}  " + " ".join(f"{t:.3f}" for t in times))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(f"rounds: {len(chains)}  attempted: {ledger.attempted}  failed: {ledger.failed}  correct: {correct}")
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
