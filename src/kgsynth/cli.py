"""Pipeline command-line interface.

Subcommands: ingest, sample, generate, prepare, decode, eval, stats.
One structured YAML config file drives a run; flags override config values.
Every command writes a manifest (input hashes + config snapshot) next to its
outputs. Exit codes: 0 success, 1 validation error, 2 runtime error,
3 partial success (e.g. some generations failed).

The endpoint credential is only ever read from an environment variable.
"""
from __future__ import annotations

import argparse
import difflib
import json
import logging
import math
import sys
from itertools import islice
from pathlib import Path

import yaml

# Each command imports the layers it runs inside its cmd_* body, so a stage
# process loads only those: generate, prepare and decode never load numpy.
from .pipeline import InputError, JsonlSink, ValidationError, jsonl_line, read_jsonl, read_lines, triplet_rows, write_json, write_jsonl, write_manifest

log = logging.getLogger("kgsynth")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3


class ConfigError(ValidationError):
    pass


# Names of this module that the command bodies call, so a caller can wrap or
# replace them here; each imports its owner on first use.
def load_graph(path):
    from .kgstore import load_graph as load

    return load(path)


def save_graph(graph, fh) -> None:
    from .kgstore import save_graph as save

    save(graph, fh)


def build_trie(catalog, tokenizer):
    from .decoder import build_trie as build

    return build(catalog, tokenizer)


def constrained_beam_search(scorer, input_context, engine, params):
    from .decoder import constrained_beam_search as search

    return search(scorer, input_context, engine, params)


# Every config key the CLI reads, dotted as ``section.key``, and its kind;
# DEFAULTS holds the defaults the CLI applies. The sampler, decode and metrics
# keys, and the generation keys that name a textgen parameter, have none there:
# ``given`` hands a layer only the keys the file sets, and the layer defaults
# the rest. Any other key without a default must be given (``generation.template``
# may be left out: the packaged template for the preset).
SETTINGS = {
    "seed": int,
    "schema": str,
    "tokenizer": str,
    "paths.edges": str,
    "paths.entity_labels": str,
    "paths.relation_labels": str,
    "paths.graph": str,
    "paths.workdir": str,
    "sampler.poisson_mean": float,
    "sampler.bias_factor": float,
    "sampler.dampening": float,
    "sampler.reweight_interval": int,
    "sampler.strategy": str,
    "generation.endpoint": str,
    "generation.model": str,
    "generation.preset": str,
    "generation.template": str,
    "generation.demonstrations": str,
    "generation.api_key_env": str,
    "generation.requests_per_minute": int,
    "generation.tokens_per_minute": int,
    "generation.price_per_1k_tokens": float,
    "generation.concurrency": int,
    "generation.max_attempts": int,
    "generation.backoff_base": float,
    "prepare.max_input_tokens": int,
    "prepare.max_target_tokens": int,
    "decode.num_beams": int,
    "decode.length_penalty": float,
    "decode.max_length": int,
    "metrics.n_bootstrap": int,
    "metrics.level": float,
    "metrics.macro_f1_mode": str,
}
DEFAULTS = {
    "seed": 0, "schema": "fe", "tokenizer": "byte", "paths.workdir": "out",
    "generation.model": "", "generation.preset": "code",
    "generation.requests_per_minute": 20, "generation.tokens_per_minute": 150_000,
    "generation.price_per_1k_tokens": 0.0,
    "prepare.max_input_tokens": 256, "prepare.max_target_tokens": 256,
}
SECTIONS = {key.partition(".")[0] for key in SETTINGS if "." in key}


def load_config(path) -> dict:
    """The config file at ``path``, checked against ``SETTINGS``: a value of
    the wrong kind (no bool is a number; a float key takes an int), a float
    key's value that is not finite (NaN, ±inf, or an int past the float
    range) or a section that is not a mapping is a ConfigError naming it,
    and a key not in the table is logged with the closest known key."""
    try:
        with open(existing(path, "--config"), encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh) or {}
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc})") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else str(path)
        raise ConfigError(f"{where}: not valid YAML ({getattr(exc, 'problem', None) or exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    values = []  # (dotted key, value, whether a dotted key sits in its section)
    for name, value in cfg.items():
        if name not in SECTIONS:
            values.append((str(name), value, "." not in str(name)))
        elif isinstance(value, (dict, type(None))):
            values += [(f"{name}.{key}", item, True) for key, item in (value or {}).items()]
        else:
            raise ConfigError(f"config section {name!r} must be a mapping, got {value!r}")
    for key, value, placed in values:
        kind = SETTINGS.get(key) if placed else None
        if kind is None:
            close = difflib.get_close_matches(key, [*SETTINGS, *SECTIONS], n=1)
            log.warning("config key %r is unknown and ignored%s", key, f"; the closest known key is {close[0]!r}" if close else "")
        elif value is not None and (isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind)):
            raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
        elif kind is float and value is not None and not abs(value) <= sys.float_info.max:  # NaN compares false
            raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return cfg


def setting(cfg: dict, key: str):
    """The value of the dotted config ``key`` in a config ``load_config``
    checked, a float for a float key; its default in ``DEFAULTS`` (None if
    it has none there) when it is absent or null."""
    section, _, name = key.rpartition(".")
    value = ((cfg.get(section) or {}) if section else cfg).get(name)
    if value is None:
        return DEFAULTS.get(key)
    return float(value) if SETTINGS[key] is float else value


def given(cfg: dict, section: str, *names: str) -> dict:
    """The keys of config ``section`` (only ``names``, if any are given) that
    the file sets to a value, by name, each read as ``setting`` reads it:
    the keyword arguments for the layer that owns them. A key not in
    ``SETTINGS`` is never among them."""
    return {name: setting(cfg, f"{section}.{name}") for name, value in (cfg.get(section) or {}).items()
            if value is not None and f"{section}.{name}" in SETTINGS and (not names or name in names)}


def existing(path, what: str) -> Path:
    """``path``, which ``what`` (a flag or a config key) names, if it is
    given and is a regular file."""
    if path is None:
        raise ConfigError(f"{what} is required")
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what}: file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"{what}: not a file: {path}")
    return path


def make_schema(cfg: dict):
    """The config's ``schema`` as a ``codec.Variant``."""
    from . import codec

    variant = setting(cfg, "schema").lower()
    if variant not in ("fe", "sc"):
        raise ConfigError(f"schema must be 'fe' or 'sc', got {variant!r}")
    return codec.Variant(variant)


def make_tokenizer(stage: Stage):
    from .decoder import ByteTokenizer, WordPieceTokenizer

    spec = setting(stage.cfg, "tokenizer")
    if spec == "byte":
        return ByteTokenizer()
    if spec.startswith("wordpiece:"):
        vocab_path = stage.input("tokenizer", spec.split(":", 1)[1])
        pieces = [piece for _, line in read_lines(vocab_path) if (piece := line.rstrip("\r\n"))]
        try:
            return WordPieceTokenizer(pieces)
        except ValidationError as exc:
            raise ConfigError(f"tokenizer: {vocab_path}: {exc}") from None
    raise ConfigError(f"unknown tokenizer {spec!r} (use 'byte' or 'wordpiece:<vocab file>')")


class Stage:
    """One run of a subcommand, as its body sees it, and the one opener of
    the files it writes. ``main`` builds it, calls the body, and then writes
    ``<command>.manifest.json`` through ``write`` from what the body asked for:

    - ``input(name, path=None)``: the path of an input file, named by its
      flag (``sets``) or config key (``paths.graph``), or ``path``, which
      that key's value names. It must exist; the manifest hashes it under
      the flag name or the key's last part.
    - ``write(name, binary=False)``: a context manager yielding a new file
      ``name`` in the output directory (``--out``, else ``paths.workdir``);
      ``sink(name)``: the ``JsonlSink`` there, which a killed run resumes.
      The manifest lists both; ``main`` first removes its old manifest.
    - ``seed``: ``--seed``, else the config's; once read, the manifest
      records it.
    - ``snapshot``: the config snapshot the body sets for the manifest.
    """

    def __init__(self, args):
        self.args = args
        self.cfg = load_config(args.config)
        self.out_dir = Path(args.out or setting(self.cfg, "paths.workdir"))
        self.snapshot: dict = {}
        self.inputs: dict[str, Path] = {}
        self.outputs: list[Path] = []
        self.seed_read = None

    def input(self, name: str, path=None) -> Path:
        if path is None and "." not in name:
            path = existing(getattr(self.args, name), "--" + name.replace("_", "-"))
        else:
            path = existing(setting(self.cfg, name) if path is None else path, name)
        self.inputs[name.rpartition(".")[2]] = path
        return path

    def _output(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(self.out_dir / name)
        return self.outputs[-1]

    def write(self, name: str, binary: bool = False):
        return open(self._output(name), "wb" if binary else "w", encoding=None if binary else "utf-8")

    def sink(self, name: str) -> JsonlSink:
        return JsonlSink(self._output(name))

    @property
    def seed(self) -> int:
        flag = self.args.seed is not None
        self.seed_read = self.args.seed if flag else setting(self.cfg, "seed")
        if self.seed_read < 0:
            raise ConfigError(f"{'--seed' if flag else 'seed'} must be >= 0, got {self.seed_read}")
        return self.seed_read


def cmd_ingest(stage: Stage) -> int:
    from . import kgstore

    graph = kgstore.filter_zero_degree(kgstore.ingest(
        stage.input("paths.edges"), stage.input("paths.entity_labels"), stage.input("paths.relation_labels")
    ))
    with stage.write("graph.json", binary=True) as fh:
        save_graph(graph, fh)
    stage.snapshot = {
        "counts": {
            "entities": len(graph.entities),
            "relations": len(graph.relations),
            "edges": len(graph.edges),
            "duplicate_edges_dropped": graph.stats.duplicate_edges_dropped,
            "literal_relations_dropped": graph.stats.literal_relations_dropped,
            "literal_edges_dropped": graph.stats.literal_edges_dropped,
        }
    }
    print(f"ingested {len(graph.entities)} entities, {len(graph.relations)} relations, {len(graph.edges)} edges")
    return EXIT_OK


def cmd_sample(stage: Stage) -> int:
    from . import sampler

    n = stage.args.n
    if n < 1:
        raise ConfigError(f"--n must be >= 1, got {n}")
    graph_path = stage.input("paths.graph")
    graph = load_graph(graph_path)
    if not len(graph.edges):
        raise InputError(f"{graph_path}: the graph has no edges to sample")
    scfg = sampler.SamplerConfig(**given(stage.cfg, "sampler"), seed=stage.seed)
    with stage.write("triplet_sets.jsonl") as fh:
        summary = sampler.write_dataset_jsonl(graph, scfg, n, fh)
    stage.snapshot = {"sampler": given(stage.cfg, "sampler"), "n": n, "summary": summary}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _set_triplets(raw) -> list:
    """The row's triplets to generate text for; an empty list is an InputError."""
    triplets = raw.triplets()
    if not triplets:
        raise InputError(f"{raw.where}: 'triplets' must not be empty")
    return triplets


def _load_demonstrations(path, count: int) -> list:
    demos = [(_set_triplets(raw), raw.get_as("text", str, "")) for raw in islice(read_jsonl(path), count)]
    if len(demos) < count:
        raise ConfigError(f"demonstrations file has {len(demos)} usable rows, template needs {count}")
    return demos


def cmd_generate(stage: Stage) -> int:
    from . import textgen

    sets_path = stage.input("sets")
    preset = setting(stage.cfg, "generation.preset")
    if preset not in textgen.PRESETS:
        raise ConfigError(f"unknown generation preset {preset!r}")
    params = textgen.PRESETS[preset]
    packaged = "few_shot.yaml" if preset == "code" else "zero_shot.yaml"  # demonstrations for the code preset
    template_path = setting(stage.cfg, "generation.template") or Path(__file__).with_name("templates") / packaged
    template = textgen.PromptTemplate.from_file(stage.input("generation.template", template_path))
    demos = []
    if template.num_demonstrations:
        demos = _load_demonstrations(stage.input("generation.demonstrations"), template.num_demonstrations)

    prompts = []
    sets = {}  # id -> (triplets, partial), read whole before any request
    for set_id, raw in _id_rows(sets_path):
        triplets = _set_triplets(raw)
        sets[set_id] = triplets, raw.get_as("partial", bool, False)
        prompts.append((set_id, textgen.build_prompt(triplets, template, demos)))

    url = setting(stage.cfg, "generation.endpoint")
    if not url:
        raise ConfigError("generation.endpoint is required")
    limiter = textgen.RateLimiter(
        setting(stage.cfg, "generation.requests_per_minute"),
        setting(stage.cfg, "generation.tokens_per_minute"),
    )
    price = setting(stage.cfg, "generation.price_per_1k_tokens")
    if price < 0:
        raise ConfigError(f"generation.price_per_1k_tokens must be >= 0, got {price}")
    client = textgen.CompletionClient(
        url, setting(stage.cfg, "generation.model"), params, limiter,
        **given(stage.cfg, "generation", "api_key_env", "concurrency", "max_attempts", "backoff_base"))
    with stage.sink("generation_records.jsonl") as sink:
        counts, completions = client.generate(prompts, sink)
    # one row per set with an ok record, in the order of the sets file
    with stage.write("datapoints.jsonl") as fh:
        write_jsonl(fh, (
            {
                "id": set_id,
                "text": completions[set_id].strip(),
                "triplets": triplet_rows(triplets),
                "provenance": "generated",
                "flags": {"partial": partial},
            }
            for set_id, (triplets, partial) in sets.items()
            if set_id in completions
        ))
    cost = textgen.estimate_cost(client.tokens_consumed, price)
    stage.snapshot = {"generation": {k: v for k, v in given(stage.cfg, "generation").items() if k != "endpoint"},
                      "counts": counts, "tokens_consumed": client.tokens_consumed, "cost": cost}
    print(json.dumps({**counts, "cost": cost}, sort_keys=True))
    return EXIT_PARTIAL if counts["failed"] else EXIT_OK


def _id_rows(path):
    """``(id, row)`` for each row of ``path``; an id that is neither a
    string nor an integer, or that was seen before, is an InputError naming
    ``path:line``."""
    seen = set()
    for raw in read_jsonl(path):
        row_id = raw.row_id()
        if row_id in seen:
            raise InputError(f"{raw.where}: id {row_id!r} appears more than once")
        seen.add(row_id)
        yield row_id, raw


def cmd_prepare(stage: Stage) -> int:
    from . import codec

    datapoints_path = stage.input("datapoints")
    tokenizer = make_tokenizer(stage)
    max_input = setting(stage.cfg, "prepare.max_input_tokens")
    max_target = setting(stage.cfg, "prepare.max_target_tokens")
    for name, value in (("max_input_tokens", max_input), ("max_target_tokens", max_target)):
        if value < 1:
            raise ConfigError(f"prepare.{name} must be >= 1, got {value}")

    drops = {"empty": 0, "input_too_long": 0, "target_too_long": 0, "unencodable": 0, "unlinearizable": 0}
    kept = 0
    with stage.write("prepared_fe.jsonl") as fe_file, stage.write("prepared_sc.jsonl") as sc_file:
        for point_id, raw in _id_rows(datapoints_path):
            text, triplets = raw.get_as("text", str, ""), raw.triplets()
            if not triplets:
                drops["empty"] += 1
                continue
            try:
                fe_target = codec.linearize(triplets, codec.Variant.FE, text)
            except codec.CodecError:  # parse could not read a label back
                drops["unlinearizable"] += 1
                continue
            input_ids, fe_ids = tokenizer.try_encode(text), tokenizer.try_encode(fe_target)
            if input_ids is None or fe_ids is None:
                drops["unencodable"] += 1
            elif len(input_ids) > max_input:
                drops["input_too_long"] += 1
            # the longer fully-expanded target governs, keeping the same
            # surviving datapoints for both linearizations
            elif len(fe_ids) > max_target:
                drops["target_too_long"] += 1
            else:
                sc_target = codec.linearize(triplets, codec.Variant.SC, text)
                fe_file.write(jsonl_line({"id": point_id, "input": text, "target": fe_target}))
                sc_file.write(jsonl_line({"id": point_id, "input": text, "target": sc_target}))
                kept += 1
    stage.snapshot = {"kept": kept, "drops": drops, "max_input_tokens": max_input, "max_target_tokens": max_target,
                      "tokenizer": setting(stage.cfg, "tokenizer")}
    print(json.dumps(stage.snapshot, sort_keys=True))
    return EXIT_OK


def catalog_trie(labels, tokenizer, entity: bool):
    """The trie over the surfaces of the ``labels`` that ``parse`` reads back,
    and its manifest counts: labels left out by reason, and entries kept."""
    from . import codec

    surfaces = [codec.entity_surface(label) if entity else label
                for label in labels if codec.linearizable(label, entity)]
    trie = build_trie(surfaces, tokenizer)
    return trie, {"kept": trie.n_entries, "dropped": {"not_linearizable": len(labels) - len(surfaces), **trie.dropped}}


def cmd_decode(stage: Stage) -> int:
    from . import codec
    from .catalog import read_graph_file
    from .decoder import ConstraintEngine, DecodeParams, ScorerError, SubprocessScorer, UniformScorer

    graph_path = stage.input("paths.graph")
    inputs_path = stage.input("inputs")
    variant = make_schema(stage.cfg)
    tokenizer = make_tokenizer(stage)
    params = DecodeParams(**given(stage.cfg, "decode"))
    if (scorer_cmd := stage.args.scorer_cmd) is not None and not scorer_cmd.strip():
        raise ConfigError(f"--scorer-cmd must not be blank, got {scorer_cmd!r}")
    decoded = 0
    with stage.sink("predictions.jsonl") as sink:
        done = {row.row_id() for row in sink.rows}  # read whole before the scorer starts
        # the scorer starts up while the catalogs are read and their tries built
        with (SubprocessScorer(scorer_cmd, tokenizer.vocab_size) if scorer_cmd
              else UniformScorer(tokenizer.vocab_size)) as scorer:
            # the output depends on the catalogs alone: only the header line is read
            entities, relations = read_graph_file(graph_path)[:2]
            entity_trie, entity_counts = catalog_trie(entities.labels, tokenizer, entity=True)
            relation_trie, relation_counts = catalog_trie(relations.labels, tokenizer, entity=False)
            catalog = {"entities": entity_counts, "relations": relation_counts}
            dropped = {name: counts["dropped"] for name, counts in catalog.items() if any(counts["dropped"].values())}
            if dropped:
                log.warning("decode left catalog labels out: %s", json.dumps(dropped, sort_keys=True))
            engine = ConstraintEngine(variant, tokenizer, entity_trie, relation_trie)
            entity_labels = set(entities.labels)
            relation_labels = set(relations.labels)
            for doc_id, raw in _id_rows(inputs_path):
                if doc_id in done:
                    continue
                # "text", else "context"; with neither, "text" is the key missing
                context = raw.get_as("context" if "text" not in raw and "context" in raw else "text", str)
                try:
                    best = constrained_beam_search(scorer, context, engine, params)
                except ScorerError as exc:
                    raise ScorerError(f"{raw.where}: input {doc_id!r}: {exc}") from None
                if not math.isfinite(best.normalized_score):
                    raise RuntimeError(f"{raw.where}: input {doc_id!r}: normalized score {best.normalized_score} is not "
                                       f"finite under decode.length_penalty {params.resolve_length_penalty(variant)}")
                parsed = codec.parse(best.text, variant, entity_labels, relation_labels)
                sink.append({
                    "id": doc_id,
                    "triplets": triplet_rows(parsed.triplets),
                    "linearized": best.text,
                    "score": best.normalized_score,
                    "truncated": not best.finished,
                })
                decoded += 1
    stage.snapshot = {"schema": variant.value, "tokenizer": setting(stage.cfg, "tokenizer"),
                      "scorer": scorer_cmd or "uniform", "decode": given(stage.cfg, "decode"), "catalog": catalog}
    print(f"decoded {decoded} inputs ({len(done)} predictions kept from an earlier run)")
    return EXIT_OK


def _triplets_by_id(path) -> dict[str, set]:
    return {row_id: set(raw.triplets()) for row_id, raw in _id_rows(path)}


def _pairs_from_files(predictions_path, gold_path) -> list:
    from . import metrics

    preds, gold = _triplets_by_id(predictions_path), _triplets_by_id(gold_path)
    return [
        metrics.EvalPair.make(doc_id, preds.get(doc_id, set()), gold.get(doc_id, set()))
        for doc_id in sorted(set(preds) | set(gold))
    ]


def _read_train_counts(path) -> dict:
    counts = {}
    for number, line in read_lines(path):
        line = line.rstrip("\r\n")
        if not line:
            continue
        try:
            relation, count = line.split("\t")
            count = int(count)
        except ValueError:
            raise InputError(f"{path}:{number}: expected relation<TAB>count") from None
        if count < 0:
            raise InputError(f"{path}:{number}: count must be >= 0, got {count}")
        if relation in counts:
            raise InputError(f"{path}:{number}: relation {relation!r} appears more than once")
        counts[relation] = count
    return counts


def cmd_eval(stage: Stage) -> int:
    from . import metrics

    pairs = _pairs_from_files(stage.input("predictions"), stage.input("gold"))
    if not pairs:
        raise ConfigError("no evaluation pairs found")
    train_counts = _read_train_counts(stage.input("train_counts")) if stage.args.train_counts else None
    report = metrics.evaluate(pairs, **given(stage.cfg, "metrics"), seed=stage.seed, train_counts=train_counts)
    with stage.write("eval_report.json") as fh:
        write_json(fh, report)
    with stage.write("buckets.tsv") as fh:  # the header alone without train counts
        fh.write("bucket\tn_gold\tn_predicted\tf1\tlower\tupper\n")
        for row in report["per_bucket"]:
            fh.write("{bucket}\t{n_gold}\t{n_predicted}\t{f1_point:.6f}\t{f1_lower:.6f}\t{f1_upper:.6f}\n".format(**row))
    stage.snapshot = {"metrics": given(stage.cfg, "metrics")}
    micro = report["micro"]["f1"]
    print(f"micro-F1 {micro['point']:.4f} [{micro['lower']:.4f}, {micro['upper']:.4f}]")
    return EXIT_OK


def cmd_stats(stage: Stage) -> int:
    from . import metrics

    stats, cdf = metrics.relation_stats(raw.triplets() for _, raw in _id_rows(stage.input("dataset")))
    with stage.write("relation_stats.json") as fh:
        write_json(fh, stats)
    with stage.write("relation_cdf.tsv") as fh:
        fh.write("count\tfraction_relations_leq\n")
        for count, fraction in cdf:
            fh.write(f"{count}\t{fraction:.6f}\n")
    summary = " ".join(f"{name}={value:g}" for name, value in stats["summary"].items())
    print(f"relation stats over {stats['n_relations']} relations: {summary}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML pipeline config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: paths.workdir)")

    p = sub.add_parser("ingest", help="load and filter the knowledge graph")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("sample", help="sample coherent triplet sets")
    common(p)
    p.add_argument("--n", type=int, required=True, help="number of triplet sets")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("generate", help="generate text for sampled triplet sets")
    common(p)
    p.add_argument("--sets", required=True, help="triplet-set JSONL from 'sample'")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("prepare", help="filter and linearize datapoints into training files")
    common(p)
    p.add_argument("--datapoints", required=True, help="DataPoint JSONL")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("decode", help="constrained beam search over a scorer plug-in")
    common(p)
    p.add_argument("--inputs", required=True, help="JSONL with one {'id', 'text'} object per line")
    p.add_argument("--scorer-cmd", default=None, help="external scorer command (newline-delimited JSON protocol)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="micro/macro P/R/F1 with bootstrap CIs")
    common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--train-counts", default=None, help="TSV relation<TAB>count for frequency buckets")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="relation occurrence distribution of a dataset")
    common(p)
    p.add_argument("--dataset", required=True, help="JSONL with triplets per row")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        stage = Stage(args)
        manifest = f"{args.command}.manifest.json"
        (stage.out_dir / manifest).unlink(missing_ok=True)  # a failed rerun leaves no manifest of an earlier run
        code = args.func(stage)
        outputs = list(stage.outputs)  # the manifest lists the body's outputs, not itself
        with stage.write(manifest) as fh:
            write_manifest(fh, args.command, stage.snapshot, stage.inputs, outputs, seed=stage.seed_read)
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("command failed")
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
