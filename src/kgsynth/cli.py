"""Pipeline command-line interface.

Subcommands: ingest, sample, generate, prepare, encode, decode, eval, stats.
One structured YAML config file drives a run; flags override config values.
Every command writes a manifest (input hashes + config snapshot) next to its
outputs. Exit codes: 0 success, 1 validation error, 2 runtime error,
3 partial success (e.g. some generations failed).

The endpoint credential is only ever read from an environment variable.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from pathlib import Path

import yaml

# Each command imports the layers it runs inside its cmd_* body, so a stage
# process loads only those: prepare and generate, for one, never load numpy.
from .pipeline import InputError, ValidationError, read_jsonl, read_lines, triplet_rows, triplets_from_row, write_json, write_jsonl, write_manifest

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


def save_graph(graph, path) -> None:
    from .kgstore import save_graph as save

    save(graph, path)


def build_trie(catalog, tokenizer):
    from .decoder import build_trie as build

    return build(catalog, tokenizer)


def constrained_beam_search(scorer, input_context, engine, params):
    from .decoder import constrained_beam_search as search

    return search(scorer, input_context, engine, params)


def load_config(path) -> dict:
    if path is None:
        raise ConfigError("--config is required")
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
    return cfg


def setting(cfg: dict, key: str, kind, default):
    """The config value at the dotted ``key`` as ``kind``, ``default`` when
    it is absent; a value ``kind`` rejects is a ConfigError naming the key."""
    section, _, name = key.rpartition(".")
    value = (cfg.get(section) or {}).get(name, default) if section else cfg.get(name, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {value!r}") from None


def existing(path, what: str) -> Path:
    """``path``, which ``what`` (a flag or a config key) names, if it exists."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what}: file not found: {path}")
    return path


def require_path(cfg: dict, dotted: str) -> Path:
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"config key {dotted!r} is required")
        node = node[part]
    return existing(node, dotted)


def make_schema(cfg: dict):
    from . import codec

    variant = str(cfg.get("schema", "fe")).lower()
    if variant not in ("fe", "sc"):
        raise ConfigError(f"schema must be 'fe' or 'sc', got {variant!r}")
    return codec.LinearizationSchema(variant=codec.Variant(variant))


def make_tokenizer(cfg: dict):
    from .decoder import ByteTokenizer, WordPieceTokenizer

    spec = str(cfg.get("tokenizer", "byte"))
    if spec == "byte":
        return ByteTokenizer()
    if spec.startswith("wordpiece:"):
        vocab_path = existing(spec.split(":", 1)[1], "tokenizer")
        pieces = [line.rstrip("\n") for line in open(vocab_path, encoding="utf-8") if line.rstrip("\n")]
        return WordPieceTokenizer(pieces)
    raise ConfigError(f"unknown tokenizer {spec!r} (use 'byte' or 'wordpiece:<vocab file>')")


class Stage:
    """One run of a subcommand, as its body sees it. ``main`` builds it,
    calls the body, and then writes ``<command>.manifest.json`` from what
    the body asked for:

    - ``input(name)``: the path of an input file, named by its flag
      (``sets``) or by its dotted config key (``paths.graph``). It must
      exist; the manifest hashes it under the flag name or the key's last
      part.
    - ``output(name)``: a file in the output directory (``--out``, else
      ``paths.workdir``), created on the first request; the manifest lists it.
    - ``seed``: ``--seed``, else the config's; once read, the manifest
      records it.
    - ``snapshot``: the config snapshot the body sets for the manifest.
    """

    def __init__(self, args):
        self.args = args
        self.cfg = load_config(args.config)
        self.snapshot: dict = {}
        self.inputs: dict[str, Path] = {}
        self.outputs: list[Path] = []
        self.seed_read = None

    def input(self, name: str) -> Path:
        if "." in name:
            path = require_path(self.cfg, name)
        else:
            path = existing(getattr(self.args, name), "--" + name.replace("_", "-"))
        self.inputs[name.rpartition(".")[2]] = path
        return path

    @functools.cached_property
    def out_dir(self) -> Path:
        path = Path(self.args.out or self.cfg.get("paths", {}).get("workdir", "out"))
        path.mkdir(parents=True, exist_ok=True)
        return path

    def output(self, name: str) -> Path:
        path = self.out_dir / name
        self.outputs.append(path)
        return path

    @property
    def seed(self) -> int:
        self.seed_read = self.args.seed if self.args.seed is not None else setting(self.cfg, "seed", int, 0)
        return self.seed_read


def cmd_ingest(stage: Stage) -> int:
    from . import kgstore

    graph = kgstore.filter_zero_degree(kgstore.ingest(
        stage.input("paths.edges"), stage.input("paths.entity_labels"), stage.input("paths.relation_labels")
    ))
    save_graph(graph, stage.output("graph.json"))
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

    graph = load_graph(stage.input("paths.graph"))
    scfg_raw = dict(stage.cfg.get("sampler", {}))
    scfg = sampler.SamplerConfig(
        poisson_mean=setting(stage.cfg, "sampler.poisson_mean", float, 3.0),
        bias_factor=setting(stage.cfg, "sampler.bias_factor", float, 7.0),
        dampening=setting(stage.cfg, "sampler.dampening", float, 0.01),
        reweight_interval=setting(stage.cfg, "sampler.reweight_interval", int, 20_000),
        strategy=setting(stage.cfg, "sampler.strategy", str, sampler.MIXED),
        seed=stage.seed,
    )
    n = int(stage.args.n)
    with open(stage.output("triplet_sets.jsonl"), "w", encoding="utf-8") as fh:
        summary = sampler.write_dataset_jsonl(graph, scfg, n, fh)
    stage.snapshot = {"sampler": scfg_raw, "n": n, "summary": summary}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _load_demonstrations(path, count: int) -> list:
    demos = []
    for raw in read_jsonl(path):
        demos.append((triplets_from_row(raw), str(raw.get("text", ""))))
        if len(demos) == count:
            break
    if len(demos) < count:
        raise ConfigError(f"demonstrations file has {len(demos)} usable rows, template needs {count}")
    return demos


def cmd_generate(stage: Stage) -> int:
    from . import textgen

    gen_cfg = dict(stage.cfg.get("generation", {}))
    sets_path = stage.input("sets")
    preset = str(gen_cfg.get("preset", "code"))
    if preset not in textgen.PRESETS:
        raise ConfigError(f"unknown generation preset {preset!r}")
    params = textgen.PRESETS[preset]
    template_path = gen_cfg.get("template")
    if template_path:
        template = textgen.PromptTemplate.from_file(existing(template_path, "generation.template"))
    else:
        # packaged defaults: demonstrations for the code preset, zero-shot otherwise
        from importlib.resources import files

        name = "few_shot.yaml" if preset == "code" else "zero_shot.yaml"
        template = textgen.PromptTemplate.from_file(files("kgsynth") / "templates" / name)
    demos = []
    if template.num_demonstrations:
        demos = _load_demonstrations(require_path(stage.cfg, "generation.demonstrations"), template.num_demonstrations)

    prompts = []
    sets_by_id = {}
    for raw in read_jsonl(sets_path):
        set_id = str(raw["id"])
        triplets = triplets_from_row(raw)
        sets_by_id[set_id] = raw
        prompts.append((set_id, textgen.build_prompt(triplets, template, demos)))

    endpoint = textgen.EndpointConfig(
        url=str(gen_cfg.get("endpoint", "")),
        model=str(gen_cfg.get("model", "")),
        api_key_env=str(gen_cfg.get("api_key_env", textgen.DEFAULT_API_KEY_ENV)),
    )
    if not endpoint.url:
        raise ConfigError("generation.endpoint is required")
    limiter = textgen.RateLimiter(
        setting(stage.cfg, "generation.requests_per_minute", int, 20),
        setting(stage.cfg, "generation.tokens_per_minute", int, 150_000),
    )
    ledger = textgen.CostLedger(setting(stage.cfg, "generation.price_per_1k_tokens", float, 0.0))
    client = textgen.CompletionClient(
        endpoint,
        params,
        limiter,
        ledger=ledger,
        concurrency=setting(stage.cfg, "generation.concurrency", int, 4),
        max_attempts=setting(stage.cfg, "generation.max_attempts", int, 5),
        backoff_base=setting(stage.cfg, "generation.backoff_base", float, 2.0),
    )
    records_path = stage.output("generation_records.jsonl")
    counts = client.generate(prompts, records_path)

    completions = {}
    for record in read_jsonl(records_path):
        if record["status"] == "ok":
            completions.setdefault(record["set_id"], record["completion"])
    # one row per set with an ok record, in the order of the sets file
    rows = [
        {
            "id": set_id,
            "text": completions[set_id].strip(),
            "triplets": triplet_rows(triplets_from_row(src)),
            "provenance": "generated",
            "flags": {"partial": bool(src.get("partial", False))},
        }
        for set_id, src in sets_by_id.items()
        if set_id in completions
    ]
    write_jsonl(stage.output("datapoints.jsonl"), rows)
    stage.snapshot = {"generation": {k: v for k, v in gen_cfg.items() if k != "endpoint"}, "counts": counts,
                      "tokens_consumed": ledger.tokens_consumed, "cost": ledger.cost}
    print(json.dumps({**counts, "cost": ledger.cost}, sort_keys=True))
    return EXIT_PARTIAL if counts["failed"] else EXIT_OK


def _datapoints(path):
    """(id, text, triplets) of each datapoint row."""
    for raw in read_jsonl(path):
        yield str(raw["id"]), str(raw.get("text", "")), triplets_from_row(raw)


def cmd_prepare(stage: Stage) -> int:
    from . import codec

    datapoints_path = stage.input("datapoints")
    tokenizer = make_tokenizer(stage.cfg)
    max_input = setting(stage.cfg, "prepare.max_input_tokens", int, 256)
    max_target = setting(stage.cfg, "prepare.max_target_tokens", int, 256)

    fe_schema = codec.LinearizationSchema(variant=codec.Variant.FE)
    sc_schema = codec.LinearizationSchema(variant=codec.Variant.SC)
    fe_rows, sc_rows = [], []
    drops = {"empty": 0, "input_too_long": 0, "target_too_long": 0, "unencodable": 0, "unlinearizable": 0}
    for point_id, text, triplets in _datapoints(datapoints_path):
        if not triplets:
            drops["empty"] += 1
            continue
        input_ids = tokenizer.try_encode(text)
        try:
            fe_target = codec.linearize(triplets, fe_schema, text)
        except codec.CodecError:  # parse could not read a label back
            drops["unlinearizable"] += 1
            continue
        fe_ids = tokenizer.try_encode(fe_target)
        if input_ids is None or fe_ids is None:
            drops["unencodable"] += 1
            continue
        if len(input_ids) > max_input:
            drops["input_too_long"] += 1
            continue
        # the longer fully-expanded target governs, keeping the same
        # surviving datapoints for both linearizations
        if len(fe_ids) > max_target:
            drops["target_too_long"] += 1
            continue
        sc_target = codec.linearize(triplets, sc_schema, text)
        fe_rows.append({"id": point_id, "input": text, "target": fe_target})
        sc_rows.append({"id": point_id, "input": text, "target": sc_target})

    write_jsonl(stage.output("prepared_fe.jsonl"), fe_rows)
    write_jsonl(stage.output("prepared_sc.jsonl"), sc_rows)
    stage.snapshot = {"kept": len(fe_rows), "drops": drops, "max_input_tokens": max_input, "max_target_tokens": max_target}
    print(json.dumps(stage.snapshot, sort_keys=True))
    return EXIT_OK


def cmd_encode(stage: Stage) -> int:
    from . import codec

    datapoints_path = stage.input("datapoints")
    schema = make_schema(stage.cfg)
    rows, unlinearizable = [], 0
    for point_id, text, triplets in _datapoints(datapoints_path):
        if not triplets:
            continue
        try:
            linearized = codec.linearize(triplets, schema, text)
        except codec.CodecError:  # parse could not read a label back
            unlinearizable += 1
            continue
        rows.append({"id": point_id, "text": text, "linearization": schema.variant.value, "linearized": linearized})
    write_jsonl(stage.output(f"encoded_{schema.variant.value}.jsonl"), rows)
    stage.snapshot = {"schema": schema.variant.value, "rows": len(rows), "unlinearizable": unlinearizable}
    print(f"encoded {len(rows)} datapoints ({schema.variant.value})")
    return EXIT_OK


def catalog_trie(labels, schema, tokenizer, entity: bool):
    """The trie over the surfaces of the ``labels`` that ``parse`` reads back,
    and its manifest counts: labels left out by reason, and entries kept."""
    from . import codec

    surfaces = [codec.entity_surface(label) if entity else label
                for label in labels if codec.linearizable(label, schema, entity)]
    trie = build_trie(surfaces, tokenizer)
    return trie, {"kept": trie.n_entries, "dropped": {"not_linearizable": len(labels) - len(surfaces), **trie.dropped}}


def cmd_decode(stage: Stage) -> int:
    from . import codec
    from .decoder import ConstraintEngine, DecodeParams, ScorerError, SubprocessScorer, UniformScorer

    graph = load_graph(stage.input("paths.graph"))
    inputs_path = stage.input("inputs")
    schema = make_schema(stage.cfg)
    tokenizer = make_tokenizer(stage.cfg)

    entity_trie, entity_counts = catalog_trie(graph.entities.labels, schema, tokenizer, entity=True)
    relation_trie, relation_counts = catalog_trie(graph.relations.labels, schema, tokenizer, entity=False)
    catalog = {"entities": entity_counts, "relations": relation_counts}
    dropped = {name: counts["dropped"] for name, counts in catalog.items() if any(counts["dropped"].values())}
    if dropped:
        log.warning("decode left catalog labels out: %s", json.dumps(dropped, sort_keys=True))
    engine = ConstraintEngine(schema, tokenizer, entity_trie, relation_trie)
    decode_cfg = dict(stage.cfg.get("decode", {}))
    params = DecodeParams(
        num_beams=setting(stage.cfg, "decode.num_beams", int, 10),
        length_penalty=decode_cfg.get("length_penalty"),
        max_length=setting(stage.cfg, "decode.max_length", int, 256),
        top_k_returned=setting(stage.cfg, "decode.top_k_returned", int, 1),
    )
    if stage.args.scorer_cmd:
        scorer = SubprocessScorer(stage.args.scorer_cmd, tokenizer.vocab_size, shell=True)
    else:
        scorer = UniformScorer(tokenizer.vocab_size)

    entity_labels = set(graph.entities.labels)
    relation_labels = set(graph.relations.labels)
    rows = []
    try:
        for raw in read_jsonl(inputs_path):
            doc_id = str(raw["id"])
            context = str(raw.get("text", raw.get("context", "")))
            try:
                results = constrained_beam_search(scorer, context, engine, params)
            except ScorerError as exc:
                raise ScorerError(f"{raw.where}: input {doc_id!r}: {exc}") from None
            best = results[0]
            parsed = codec.parse(best.text, schema, entity_labels, relation_labels)
            rows.append(
                {
                    "id": doc_id,
                    "triplets": triplet_rows(parsed.triplets),
                    "linearized": best.text,
                    "score": best.normalized_score,
                    "truncated": not best.finished,
                }
            )
    finally:
        if isinstance(scorer, SubprocessScorer):
            scorer.close()
    write_jsonl(stage.output("predictions.jsonl"), rows)
    stage.snapshot = {"schema": schema.variant.value, "decode": decode_cfg, "catalog": catalog}
    print(f"decoded {len(rows)} inputs")
    return EXIT_OK


def _triplets_by_id(path) -> dict[str, set]:
    rows = {}
    for raw in read_jsonl(path):
        doc_id = str(raw["id"])
        if doc_id in rows:
            raise InputError(f"{path}: id {doc_id!r} appears more than once")
        rows[doc_id] = set(triplets_from_row(raw))
    return rows


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
            counts[relation] = int(count)
        except ValueError:
            raise InputError(f"{path}:{number}: expected relation<TAB>count") from None
    return counts


def cmd_eval(stage: Stage) -> int:
    from . import metrics

    predictions, gold = stage.input("predictions"), stage.input("gold")
    mcfg = dict(stage.cfg.get("metrics", {}))
    pairs = _pairs_from_files(predictions, gold)
    if not pairs:
        raise ConfigError("no evaluation pairs found")
    train_counts = _read_train_counts(stage.input("train_counts")) if stage.args.train_counts else None
    report = metrics.evaluate(
        pairs,
        n_bootstrap=setting(stage.cfg, "metrics.n_bootstrap", int, 50),
        level=setting(stage.cfg, "metrics.level", float, 0.95),
        seed=stage.seed,
        macro_f1_mode=str(mcfg.get("macro_f1_mode", "mean_of_f1")),
        train_counts=train_counts,
    )
    write_json(stage.output("eval_report.json"), report.to_json_dict())
    if report.per_bucket:
        with open(stage.output("buckets.tsv"), "w", encoding="utf-8") as fh:
            fh.write("bucket\tn_gold\tn_predicted\tf1\tlower\tupper\n")
            for row in report.per_bucket:
                fh.write(f"{row.bucket}\t{row.n_gold}\t{row.n_predicted}\t{row.f1_point:.6f}\t{row.f1_lower:.6f}\t{row.f1_upper:.6f}\n")
    stage.snapshot = {"metrics": mcfg}
    micro = report.micro["f1"]
    print(f"micro-F1 {micro['point']:.4f} [{micro['lower']:.4f}, {micro['upper']:.4f}]")
    return EXIT_OK


def cmd_stats(stage: Stage) -> int:
    from . import metrics

    sets = [triplets_from_row(raw) for raw in read_jsonl(stage.input("dataset"))]
    if not any(sets):
        raise ConfigError("dataset contains no triplets")
    stats = metrics.relation_stats(sets)
    write_json(stage.output("relation_stats.json"), {
        "summary": {"min": stats.minimum, "q1": stats.q1, "median": stats.median, "q3": stats.q3, "max": stats.maximum},
        "n_relations": len(stats.counts),
        "counts": {str(k): v for k, v in sorted(stats.counts.items())},
    })
    with open(stage.output("relation_cdf.tsv"), "w", encoding="utf-8") as fh:
        fh.write("count\tfraction_relations_leq\n")
        for count, fraction in stats.cdf:
            fh.write(f"{count}\t{fraction:.6f}\n")
    print(f"relation stats over {len(stats.counts)} relations: "
          f"min={stats.minimum:g} q1={stats.q1:g} median={stats.median:g} q3={stats.q3:g} max={stats.maximum:g}")
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

    p = sub.add_parser("encode", help="linearize datapoints under the configured schema")
    common(p)
    p.add_argument("--datapoints", required=True, help="DataPoint JSONL")
    p.set_defaults(func=cmd_encode)

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
        code = args.func(stage)
        write_manifest(stage.out_dir / f"{args.command}.manifest.json", args.command, stage.snapshot,
                       stage.inputs, stage.outputs, seed=stage.seed_read)
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
