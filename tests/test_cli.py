import argparse
import dataclasses
import builtins
import hashlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests
import yaml

import kgsynth
from conftest import BASE64_LAYOUT, graph_file_bytes, make_datapoints
from kgsynth import cli, codec, kgstore
from kgsynth.cli import main
from kgsynth.decoder import scorers

ENTITIES = [("Q1", "Alpha"), ("Q2", "Beta"), ("Q3", "Gamma"), ("Q4", "Delta"), ("Q5", "Orphan")]
RELATIONS = [("P1", "linked to"), ("P2", "part of"), ("P3", "population", "literal")]
EDGES = [
    ("Q1", "P1", "Q2"),
    ("Q1", "P2", "Q3"),
    ("Q2", "P1", "Q3"),
    ("Q4", "P2", "Q1"),
    ("Q2", "P2", "Q4"),
    ("Q3", "P3", "Q4"),  # literal relation: dropped at ingest
]


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    data.mkdir()
    (data / "entities.tsv").write_text("".join(f"{e}\t{l}\n" for e, l in ENTITIES), encoding="utf-8")
    (data / "relations.tsv").write_text("".join("\t".join(r) + "\n" for r in RELATIONS), encoding="utf-8")
    (data / "edges.tsv").write_text("".join(f"{s}\t{r}\t{o}\n" for s, r, o in EDGES), encoding="utf-8")
    config = {
        "seed": 11,
        "schema": "fe",
        "tokenizer": "byte",
        "paths": {
            "edges": str(data / "edges.tsv"),
            "entity_labels": str(data / "entities.tsv"),
            "relation_labels": str(data / "relations.tsv"),
            "graph": str(out / "graph.json"),
            "workdir": str(out),
        },
        "sampler": {"poisson_mean": 2.0, "bias_factor": 7.0, "dampening": 1.0, "reweight_interval": 10, "strategy": "mixed"},
        "prepare": {"max_input_tokens": 256, "max_target_tokens": 256},
        "metrics": {"n_bootstrap": 10},
        "decode": {"num_beams": 2, "max_length": 120},
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return {"config": config_path, "out": out, "data": data, "raw": config}


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_ingest_writes_graph_and_stable_manifest(workspace):
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    graph_path = workspace["out"] / "graph.json"
    manifest_path = workspace["out"] / "ingest.manifest.json"
    assert graph_path.exists()
    manifest = json.loads(manifest_path.read_text())
    counts = manifest["config"]["counts"]
    assert counts["entities"] == 4  # Orphan only touched a literal edge
    assert counts["relations"] == 2
    assert counts["edges"] == 5
    assert counts["literal_relations_dropped"] == 1
    first = manifest_path.read_bytes()
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    assert manifest_path.read_bytes() == first


def test_ingest_missing_file_is_validation_error(workspace, tmp_path):
    bad = dict(workspace["raw"])
    bad["paths"] = dict(bad["paths"], edges=str(tmp_path / "nope.tsv"))
    bad_path = tmp_path / "bad.yaml"
    bad_path.write_text(yaml.safe_dump(bad), encoding="utf-8")
    assert run_cli("ingest", "--config", bad_path) == 1


def test_sample_is_deterministic(workspace, tmp_path):
    run_cli("ingest", "--config", workspace["config"])
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("sample", "--config", workspace["config"], "--n", 40, "--out", out_a) == 0
    assert run_cli("sample", "--config", workspace["config"], "--n", 40, "--out", out_b) == 0
    assert (out_a / "triplet_sets.jsonl").read_bytes() == (out_b / "triplet_sets.jsonl").read_bytes()
    rows = [json.loads(line) for line in (out_a / "triplet_sets.jsonl").read_text().splitlines()]
    assert len(rows) == 40
    for row in rows:
        assert row["triplets"]


def test_unreadable_graph_file_is_validation_error(workspace, tmp_path, capsys):
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    graph_path = workspace["out"] / "graph.json"
    good = graph_path.read_bytes()
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    nested = json.dumps({"entities": [["Q1", "Alpha"]], "relations": [["P1", "linked to"]], "edges": [[0, 0, 0]]})
    # a write torn in the header and in the body, a long body, the nested-list and base64 layouts
    for data in (good[: len(good) // 2], good[:-5], good + good[-12:], nested.encode(), BASE64_LAYOUT):
        graph_path.write_bytes(data)
        capsys.readouterr()
        assert run_cli("sample", "--config", workspace["config"], "--n", 5, "--out", tmp_path / "s") == 1
        assert str(graph_path) in capsys.readouterr().err
        assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs, "--out", tmp_path / "d") == 1
        assert str(graph_path) in capsys.readouterr().err


def test_graph_file_with_a_repeated_edge_row_exits_1(workspace, tmp_path, capsys):
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    graph_path = workspace["out"] / "graph.json"
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs, "--out", tmp_path / "good") == 0
    graph = kgstore.load_graph(graph_path)
    graph_path.write_bytes(graph_file_bytes(graph, [*graph.edges, graph.edges[0]]))  # the first row again
    capsys.readouterr()
    assert run_cli("sample", "--config", workspace["config"], "--n", 5, "--out", tmp_path / "s") == 1
    assert f"{graph_path}: edge (0, 0, 1) at row 5 repeats row 0" in capsys.readouterr().err
    # decode reads only the catalogs, so its predictions do not depend on the edges
    assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs, "--out", tmp_path / "d") == 0
    assert (tmp_path / "d" / "predictions.jsonl").read_bytes() == (tmp_path / "good" / "predictions.jsonl").read_bytes()


@pytest.mark.parametrize("catalogs", [False, True], ids=["empty-export", "catalogs-without-edges"])
def test_sample_over_a_graph_without_edges_exits_1_naming_it(catalogs, workspace, capsys):
    graph_path = workspace["out"] / "graph.json"
    if catalogs:
        assert run_cli("ingest", "--config", workspace["config"]) == 0
        graph_path.write_bytes(graph_file_bytes(kgstore.load_graph(graph_path), []))
    else:
        (workspace["data"] / "edges.tsv").write_text("", encoding="utf-8")
        assert run_cli("ingest", "--config", workspace["config"]) == 0
    capsys.readouterr()
    assert run_cli("sample", "--config", workspace["config"], "--n", 2) == 1
    assert capsys.readouterr().err == f"error: {graph_path}: the graph has no edges to sample\n"
    assert not (workspace["out"] / "triplet_sets.jsonl").exists()
    assert not (workspace["out"] / "sample.manifest.json").exists()


def write_datapoints(path, rows):
    path.write_text(
        "".join(
            json.dumps(
                {
                    "id": row["id"],
                    "text": row["text"],
                    "triplets": [{"s": s, "r": r, "o": o} for s, r, o in row["triplets"]],
                }
            )
            + "\n"
            for row in rows
        ),
        encoding="utf-8",
    )


def test_prepare_drops_long_and_empty_rows(workspace, tmp_path):
    dp = tmp_path / "datapoints.jsonl"
    write_datapoints(
        dp,
        [
            {"id": "a", "text": "Alpha is linked to Beta.", "triplets": [("Alpha", "linked to", "Beta")]},
            {"id": "b", "text": "x" * 600, "triplets": [("Alpha", "part of", "Gamma")]},
            {"id": "c", "text": "ok", "triplets": []},
        ],
    )
    assert run_cli("prepare", "--config", workspace["config"], "--datapoints", dp) == 0
    fe_rows = [json.loads(l) for l in (workspace["out"] / "prepared_fe.jsonl").read_text().splitlines()]
    sc_rows = [json.loads(l) for l in (workspace["out"] / "prepared_sc.jsonl").read_text().splitlines()]
    assert [r["id"] for r in fe_rows] == ["a"]  # long text and empty triplets dropped
    assert [r["id"] for r in sc_rows] == [r["id"] for r in fe_rows]
    manifest = json.loads((workspace["out"] / "prepare.manifest.json").read_text())
    assert manifest["config"]["drops"] == {"empty": 1, "input_too_long": 1, "target_too_long": 0, "unencodable": 0,
                                          "unlinearizable": 0}


TEXT_STAGE_OUTPUT_SHA256 = {
    "prepared_fe.jsonl": "060ac37fb6555b94756d8232b8e82b0bf8379735efbfbb2aed0cfea2581a7137",
    "prepared_sc.jsonl": "ca528cd74db29680f2fdee42485b00a25cf69ede93557f8f4c7e68e686fedb0c",
}


def test_text_stage_outputs_are_pinned(workspace, tmp_path):
    # sampled sets stated with paraphrased mentions, so the position rule
    # takes its word-run branch; plus one row for each drop the sets miss
    dp = tmp_path / "datapoints.jsonl"
    rows = [*make_datapoints(400, 3),
            {"id": "empty", "text": "nothing", "triplets": []},
            {"id": "unlinearizable", "text": "Alpha [e] is linked to Beta.",
             "triplets": [{"s": "Alpha [e]", "r": "linked to", "o": "Beta"}]}]
    dp.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out = workspace["out"]
    assert run_cli("prepare", "--config", workspace["config"], "--datapoints", dp) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in TEXT_STAGE_OUTPUT_SHA256}
    assert digests == TEXT_STAGE_OUTPUT_SHA256
    prepared = json.loads((out / "prepare.manifest.json").read_text())["config"]
    assert (prepared["kept"], prepared["drops"]) == (345, {"empty": 1, "input_too_long": 7, "target_too_long": 48,
                                                           "unencodable": 0, "unlinearizable": 1})


def test_stats_and_eval(workspace, tmp_path):
    gold = tmp_path / "gold.jsonl"
    preds = tmp_path / "preds.jsonl"
    write_datapoints(
        gold,
        [
            {"id": "1", "text": "", "triplets": [("Alpha", "linked to", "Beta"), ("Beta", "part of", "Gamma")]},
            {"id": "2", "text": "", "triplets": [("Delta", "part of", "Alpha")]},
        ],
    )
    write_datapoints(
        preds,
        [
            {"id": "1", "text": "", "triplets": [("Alpha", "linked to", "Beta")]},
            {"id": "2", "text": "", "triplets": [("Delta", "part of", "Alpha")]},
        ],
    )
    assert run_cli("stats", "--config", workspace["config"], "--dataset", gold) == 0
    stats = json.loads((workspace["out"] / "relation_stats.json").read_text())
    assert stats["counts"] == {"linked to": 1, "part of": 2}
    cdf = (workspace["out"] / "relation_cdf.tsv").read_text().splitlines()
    assert cdf[0] == "count\tfraction_relations_leq"

    train_counts = tmp_path / "train_counts.tsv"
    train_counts.write_text("linked to\t40\npart of\t1\n", encoding="utf-8")
    assert run_cli(
        "eval", "--config", workspace["config"], "--predictions", preds, "--gold", gold,
        "--train-counts", train_counts,
    ) == 0
    report = json.loads((workspace["out"] / "eval_report.json").read_text())
    assert report["micro"]["precision"]["point"] == 1.0
    assert report["micro"]["recall"]["point"] == pytest.approx(2 / 3)
    assert (workspace["out"] / "buckets.tsv").exists()
    # deterministic rerun
    first = (workspace["out"] / "eval_report.json").read_bytes()
    run_cli("eval", "--config", workspace["config"], "--predictions", preds, "--gold", gold,
            "--train-counts", train_counts)
    assert (workspace["out"] / "eval_report.json").read_bytes() == first


def test_eval_without_train_counts_writes_buckets_with_the_header_alone(workspace, tmp_path):
    row = {"id": "1", "text": "", "triplets": [("Alpha", "linked to", "Beta")]}
    preds, gold = eval_files(tmp_path, [row], [row])
    train_counts = tmp_path / "train_counts.tsv"
    train_counts.write_text("linked to\t40\n", encoding="utf-8")
    out, header = workspace["out"], "bucket\tn_gold\tn_predicted\tf1\tlower\tupper\n"
    assert run_cli("eval", "--config", workspace["config"], "--predictions", preds, "--gold", gold,
                   "--train-counts", train_counts) == 0
    assert (out / "buckets.tsv").read_text(encoding="utf-8") != header
    # a rerun into the same directory leaves no bucket rows of the first run
    assert run_cli("eval", "--config", workspace["config"], "--predictions", preds, "--gold", gold) == 0
    assert (out / "buckets.tsv").read_text(encoding="utf-8") == header
    outputs = json.loads((out / "eval.manifest.json").read_text(encoding="utf-8"))["outputs"]
    assert outputs == [str(out / "buckets.tsv"), str(out / "eval_report.json")]


def test_stats_on_a_dataset_without_triplets_exits_1(workspace, tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    write_datapoints(dataset, [{"id": "1", "text": "", "triplets": []}, {"id": "2", "text": "", "triplets": []}])
    assert run_cli("stats", "--config", workspace["config"], "--dataset", dataset) == 1
    assert "error: dataset contains no triplets" in capsys.readouterr().err
    assert not (workspace["out"] / "stats.manifest.json").exists()


EVAL_OUTPUT_SHA256 = {
    "eval_report.json": "70296938fafb6d46c84df41a966db4770d1e9534c34edcf56c4b71167956db63",
    "buckets.tsv": "85768c1fc288e87a3d5948dbd737585df4498438d59eb4577f5671df9ec3085d",
}
STATS_OUTPUT_SHA256 = {
    "relation_stats.json": "f9179a731c9024a6516466afff07a46eccee622ae3ea57142fd935d424850093",
    "relation_cdf.tsv": "fada9c80fc81f4dfdb615599ca38775ca5b0b7a192daa16cf093fe538cc85470",
}


def sixty_documents(tmp_path):
    """Gold and prediction files of 60 documents over 25 relations with
    uneven scores, so that the macro sums depend on the relations' order."""
    rng = random.Random(4)
    gold_rows, pred_rows = [], []
    for d in range(60):
        gold_t = {(f"e{rng.randrange(9)}", f"relation {rng.randrange(25)}", f"e{rng.randrange(9)}") for _ in range(4)}
        pred_t = {t for t in sorted(gold_t) if rng.random() < 0.7}
        pred_t |= {(f"e{rng.randrange(9)}", f"relation {rng.randrange(25)}", f"e{rng.randrange(9)}") for _ in range(2)}
        gold_rows.append({"id": str(d), "text": "", "triplets": sorted(gold_t)})
        pred_rows.append({"id": str(d), "text": "", "triplets": sorted(pred_t)})
    gold, preds = tmp_path / "gold.jsonl", tmp_path / "preds.jsonl"
    write_datapoints(gold, gold_rows)
    write_datapoints(preds, pred_rows)
    return gold, preds


def test_stats_outputs_are_pinned(workspace, tmp_path, capsys):
    gold, _ = sixty_documents(tmp_path)
    capsys.readouterr()
    assert run_cli("stats", "--config", workspace["config"], "--dataset", gold) == 0
    assert capsys.readouterr().out == "relation stats over 25 relations: min=4 q1=7 median=9 q3=11 max=19\n"
    out = workspace["out"]
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in STATS_OUTPUT_SHA256} == STATS_OUTPUT_SHA256


def test_eval_report_is_byte_identical_across_hash_seeds(workspace, tmp_path):
    gold, preds = sixty_documents(tmp_path)
    # every fourth relation stays unseen; the rest spread over several buckets
    train_counts = tmp_path / "train_counts.tsv"
    train_counts.write_text("".join(f"relation {r}\t{3 * r * r}\n" for r in range(25) if r % 4), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(kgsynth.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-m", "kgsynth.cli", "eval", "--config", str(workspace["config"]),
             "--predictions", str(preds), "--gold", str(gold), "--train-counts", str(train_counts), "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in EVAL_OUTPUT_SHA256})
    assert outputs[0] == outputs[1]
    # the bytes themselves are pinned, so a change to the counting or the bootstrap shows
    assert outputs[0] == EVAL_OUTPUT_SHA256


def test_decode_with_builtin_and_subprocess_scorers(workspace, tmp_path):
    run_cli("ingest", "--config", workspace["config"])
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")

    assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs) == 0
    rows = [json.loads(l) for l in (workspace["out"] / "predictions.jsonl").read_text().splitlines()]
    assert rows[0]["id"] == "q1"
    assert rows[0]["triplets"], rows[0]
    assert not rows[0]["truncated"]

    scorer = tmp_path / "scorer.py"
    scorer.write_text(
        "import json, sys\n"
        "vocab = 257\n"
        "for line in sys.stdin:\n"
        "    json.loads(line)\n"
        "    print(json.dumps({'logprobs': [-1.0] * vocab}))\n"
        "    sys.stdout.flush()\n",
        encoding="utf-8",
    )
    # a directory of its own: in the first one, decode would resume and skip q1
    assert run_cli(
        "decode", "--config", workspace["config"], "--inputs", inputs,
        "--scorer-cmd", f"{sys.executable} {scorer}", "--out", tmp_path / "subprocess",
    ) == 0
    rows = [json.loads(l) for l in (tmp_path / "subprocess" / "predictions.jsonl").read_text().splitlines()]
    assert [row["id"] for row in rows] == ["q1"]
    assert rows[0]["triplets"]


# input text -> the target a favouring scorer pushes the search towards, per
# schema: catalog-valid targets, one the catalog cuts off ("loves"), and none
DECODE_TARGETS = {
    "Alpha is linked to Beta.": {"fe": "[s] Alpha [r] linked to [o] Beta [e]",
                                 "sc": "[s] Alpha [r] linked to [o] Beta [e]"},
    "Alpha is linked to Beta and part of Gamma.": {
        "fe": "[s] Alpha [r] linked to [o] Beta [e] [s] Alpha [r] part of [o] Gamma [e]",
        "sc": "[s] Alpha [r] linked to [o] Beta [e] [r] part of [o] Gamma [e]"},
    "Beta is part of Delta, which is part of Alpha.": {
        "fe": "[s] Beta [r] part of [o] Delta [e] [s] Delta [r] part of [o] Alpha [e]",
        "sc": "[s] Beta [r] part of [o] Delta [e] [s] Delta [r] part of [o] Alpha [e]"},
    "Alpha loves Beta.": {"fe": "[s] Alpha [r] loves [o] Beta [e]", "sc": "[s] Alpha [r] loves [o] Beta [e]"},
    "Nothing is said here.": {},
}
# the scorer protocol over the byte vocab: the next target byte, or
# end-of-sequence after the whole target, scores 0 and every other token -8
FAVOURING_SCORER = (
    "import json, sys\n"
    "targets = {row['context']: list(row['target'].encode()) for row in map(json.loads, open(sys.argv[1]))}\n"
    "for line in sys.stdin:\n"
    "    request = json.loads(line)\n"
    "    target, prefix = targets.get(request['context']), request['prefix_tokens']\n"
    "    row = [-8.0] * 257\n"
    "    if target is not None and target[:len(prefix)] == prefix:\n"
    "        row[target[len(prefix)] if len(prefix) < len(target) else 256] = 0.0\n"
    "    print(json.dumps({'logprobs': row}), flush=True)\n"
)
DECODE_OUTPUT_SHA256 = {
    ("fe", "uniform"): "89f23680ee0fab622c67d3f24f6912d6388d258c900250d7397973882a5de5b5",
    ("fe", "favouring"): "0e770a56fd19a998677597fc803390302e69056ec6a5cc63a624748b0e8b296e",
    ("sc", "uniform"): "f28367c7518ca74bb50cb0c0aa3e7977bf4bcb7a50f0cf094542aad53836fc4b",
    ("sc", "favouring"): "168082ffd53c291bae6e3b4a4257357ed4c4bcb8aacad55a19e2288adccac434",
}


@pytest.mark.parametrize("schema, scorer", sorted(DECODE_OUTPUT_SHA256))
def test_decode_output_is_pinned(schema, scorer, workspace, tmp_path):
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    config = tmp_path / "decode.yaml"
    config.write_text(yaml.safe_dump({**workspace["raw"], "schema": schema}), encoding="utf-8")
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text("".join(json.dumps({"id": f"q{i}", "text": text}) + "\n" for i, text in enumerate(DECODE_TARGETS)),
                      encoding="utf-8")
    argv = ["decode", "--config", config, "--inputs", inputs, "--out", tmp_path / "d"]
    if scorer == "favouring":
        targets, script = tmp_path / "targets.jsonl", tmp_path / "scorer.py"
        targets.write_text("".join(json.dumps({"context": text, "target": by_schema[schema]}) + "\n"
                                   for text, by_schema in DECODE_TARGETS.items() if by_schema), encoding="utf-8")
        script.write_text(FAVOURING_SCORER, encoding="utf-8")
        argv += ["--scorer-cmd", f"{sys.executable} {script} {targets}"]
    assert run_cli(*argv) == 0
    predictions = (tmp_path / "d" / "predictions.jsonl").read_bytes()
    assert hashlib.sha256(predictions).hexdigest() == DECODE_OUTPUT_SHA256[schema, scorer], predictions.decode()


SEARCH = cli.constrained_beam_search


def decode_searching(workspace, inputs, out, monkeypatch, crash_after=None):
    """Decode ``inputs`` into ``out``, the search raising once it has run
    ``crash_after`` times; the exit code and the contexts searched."""
    searched = []

    def search(scorer, context, *args):
        if len(searched) == crash_after:
            raise RuntimeError("killed")
        searched.append(context)
        return SEARCH(scorer, context, *args)

    monkeypatch.setattr(cli, "constrained_beam_search", search)
    return run_cli("decode", "--config", workspace["config"], "--inputs", inputs, "--out", out), searched


@pytest.mark.parametrize("keep", ["every line", "half", "all but the newline"])
def test_killed_decode_resumes_with_the_inputs_left(keep, workspace, tmp_path, monkeypatch):
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    contexts = [f"context {i}" for i in range(5)]
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text("".join(json.dumps({"id": f"q{i}", "text": c}) + "\n" for i, c in enumerate(contexts)), encoding="utf-8")
    assert decode_searching(workspace, inputs, tmp_path / "whole", monkeypatch) == (0, contexts)
    whole = (tmp_path / "whole" / "predictions.jsonl").read_bytes()

    assert decode_searching(workspace, inputs, tmp_path / "o", monkeypatch, crash_after=3) == (2, contexts[:3])
    predictions = tmp_path / "o" / "predictions.jsonl"
    lines = predictions.read_bytes().splitlines(keepends=True)
    assert lines == whole.splitlines(keepends=True)[:3]  # each prediction is written as it is found
    last = {"every line": lines[-1], "half": lines[-1][: len(lines[-1]) // 2], "all but the newline": lines[-1][:-1]}[keep]
    predictions.write_bytes(b"".join(lines[:-1]) + last)  # a kill in the middle of the third append

    redone = 2 if keep == "half" else 3
    assert decode_searching(workspace, inputs, tmp_path / "o", monkeypatch) == (0, contexts[redone:])
    assert predictions.read_bytes() == whole


def test_decode_admits_only_labels_parse_reads_back(workspace, tmp_path, caplog):
    data = workspace["data"]
    entities = ENTITIES + [("Q6", "New_York"), ("Q7", "New York")]
    entities[1] = ("Q2", "Beta [o] Gamma")  # holds a delimiter
    (data / "entities.tsv").write_text("".join(f"{e}\t{l}\n" for e, l in entities), encoding="utf-8")
    # a trailing space that parse would strip off
    (data / "relations.tsv").write_text("P1\tlinked to \nP2\tpart of\nP3\tpopulation\tliteral\n", encoding="utf-8")
    edges = EDGES + [("Q6", "P2", "Q7"), ("Q7", "P1", "Q1")]
    (data / "edges.tsv").write_text("".join(f"{s}\t{r}\t{o}\n" for s, r, o in edges), encoding="utf-8")
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text("".join(json.dumps({"id": f"q{i}", "text": f"context {i}"}) + "\n" for i in range(4)), encoding="utf-8")
    with caplog.at_level("WARNING", logger="kgsynth"):
        assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs) == 0
    manifest = json.loads((workspace["out"] / "decode.manifest.json").read_text())
    assert manifest["config"]["catalog"] == {
        "entities": {"kept": 4, "dropped": {"duplicate": 1, "not_linearizable": 1, "not_tokenizable": 0}},
        "relations": {"kept": 1, "dropped": {"duplicate": 0, "not_linearizable": 1, "not_tokenizable": 0}},
    }
    assert [r.message for r in caplog.records if r.name == "kgsynth"] == [
        'decode left catalog labels out: {"entities": {"duplicate": 1, "not_linearizable": 1, "not_tokenizable": 0}, '
        '"relations": {"duplicate": 0, "not_linearizable": 1, "not_tokenizable": 0}}'
    ]
    labels = {label for _, label in entities}
    for row in map(json.loads, (workspace["out"] / "predictions.jsonl").read_text().splitlines()):
        parsed = codec.parse(row["linearized"], codec.Variant.FE, labels, {"linked to ", "part of"})
        assert row["triplets"] and not parsed.dropped_unresolvable and not parsed.dropped_fragments
        assert row["triplets"] == [{"s": s, "r": r, "o": o} for s, r, o in parsed.triplets]


def test_decode_refuses_a_score_that_is_not_finite(workspace, tmp_path, monkeypatch, capsys):
    # no hypothesis finishes within 200 bytes, and 200 ** 133 times a truncated
    # hypothesis's log-probability overflows to -inf
    data = workspace["data"]
    (data / "entities.tsv").write_text(f"Q1\t{'a' * 300}\nQ2\t{'b' * 300}\n", encoding="utf-8")
    (data / "relations.tsv").write_text("P1\tknows\n", encoding="utf-8")
    (data / "edges.tsv").write_text("Q1\tP1\tQ2\n", encoding="utf-8")
    config = tmp_path / "penalty.yaml"
    config.write_text(yaml.safe_dump(dict(workspace["raw"], decode={"num_beams": 2, "length_penalty": -133, "max_length": 200})),
                      encoding="utf-8")
    assert run_cli("ingest", "--config", config) == 0
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text("".join(json.dumps({"id": f"q{n}", "text": "some context"}) + "\n" for n in (1, 2)), encoding="utf-8")

    searched = []

    def search(scorer, context, engine, params):
        searched.append(context)
        if len(searched) == 1:  # the first input at a penalty whose score stays finite
            params = dataclasses.replace(params, length_penalty=0.8)
        return SEARCH(scorer, context, engine, params)

    monkeypatch.setattr(cli, "constrained_beam_search", search)
    capsys.readouterr()
    assert run_cli("decode", "--config", config, "--inputs", inputs) == cli.EXIT_RUNTIME
    assert (f"runtime error: {inputs}:2: input 'q2': normalized score -inf is not finite under decode.length_penalty -133.0"
            in capsys.readouterr().err)
    rows = [json.loads(line) for line in (workspace["out"] / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [row["id"] for row in rows] == ["q1"] and math.isfinite(rows[0]["score"])


def test_decode_with_no_admissible_relation_exits_1(workspace, tmp_path, capsys):
    (workspace["data"] / "relations.tsv").write_text("P1\tlinked [e]\nP2\tpart of \nP3\tpopulation\tliteral\n", encoding="utf-8")
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs) == 1
    assert capsys.readouterr().err == "error: cannot build a trie over an empty catalog\n"


def test_decode_tokenizes_each_catalog_label_once(workspace, tmp_path, monkeypatch):
    from kgsynth.decoder import ByteTokenizer

    run_cli("ingest", "--config", workspace["config"])
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    encoded = []
    try_encode = ByteTokenizer.try_encode
    monkeypatch.setattr(ByteTokenizer, "try_encode", lambda self, text: encoded.append(text) or try_encode(self, text))
    assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs) == 0
    # each catalog surface once, then the constraint engine's five delimiter segments
    assert encoded[:-5] == ["Alpha", "Beta", "Gamma", "Delta", "linked to", "part of"]
    assert encoded[-5:] == ["[s] ", " [s] ", " [r] ", " [o] ", " [e]"]


# values of a kind their key does not take, which load_config rejects itself
WRONG_KIND = [("decode.num_beams", "ten"), ("decode.length_penalty", "abc"), ("paths.edges", 5),
              ("decode.num_beams", 2.7), ("metrics.level", True), ("paths.edges", [1]), ("seed", False)]


@pytest.mark.parametrize("key, value", [
    ("sampler.poisson_mean", -1), ("decode.num_beams", 0), ("metrics.level", 2), ("metrics.n_bootstrap", 0),
    ("metrics.n_bootstrap", -3), ("decode", 5), ("generation.concurrency", 0), ("generation.price_per_1k_tokens", -1),
    ("generation.backoff_base", -1), ("generation.max_attempts", 0), ("metrics.macro_f1_mode", "nope"), *WRONG_KIND,
    ("prepare.max_input_tokens", -3), ("prepare.max_target_tokens", 0),
    ("decode.length_penalty", 150), ("decode.length_penalty", -150),
])
def test_config_value_a_layer_rejects_exits_1(key, value, workspace, tmp_path, monkeypatch, capsys):
    post = CountingPost()
    monkeypatch.setattr(requests, "post", post)
    run_cli("ingest", "--config", workspace["config"])
    raw = yaml.safe_load(generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions").read_text(encoding="utf-8"))
    section, _, name = key.partition(".")
    cfg = dict(raw, **{section: dict(raw[section], **{name: value}) if name else value})
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    inputs = tmp_path / "inputs.jsonl"
    row = {"id": "q1", "text": "some context", "triplets": [{"s": "Alpha", "r": "linked to", "o": "Beta"}]}
    inputs.write_text(json.dumps(row) + "\n", encoding="utf-8")
    argv = {"sampler": ["sample", "--n", 5], "metrics": ["eval", "--predictions", inputs, "--gold", inputs],
            "generation": ["generate", "--sets", inputs], "paths": ["ingest"],
            "prepare": ["prepare", "--datapoints", inputs]}.get(section, ["decode", "--inputs", inputs])
    capsys.readouterr()
    assert run_cli(argv[0], "--config", config, *argv[1:], "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (name or section) in err and "runtime error" not in err
    if (key, value) in WRONG_KIND:
        assert f"config key {key!r} must be " in err
    assert post.bodies == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=[".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("key", [key for key, kind in cli.SETTINGS.items() if kind is float])
def test_float_config_value_that_is_not_finite_exits_1(key, value, tmp_path, capsys):
    section, _, name = key.partition(".")
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({section: {name: value}}), encoding="utf-8")
    assert run_cli("stats", "--config", config, "--dataset", config) == 1
    assert capsys.readouterr().err == f"error: config key {key!r} must be finite, got {value!r}\n"


def test_misspelt_config_key_warns_naming_the_closest_known_key(workspace, tmp_path, caplog):
    run_cli("ingest", "--config", workspace["config"])
    config = tmp_path / "misspelt.yaml"
    raw = workspace["raw"]
    config.write_text(yaml.safe_dump(dict(raw, decode=dict(raw["decode"], num_beam=3))), encoding="utf-8")
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    caplog.clear()
    assert run_cli("decode", "--config", config, "--inputs", inputs, "--out", tmp_path / "o") == 0
    warnings = [r.getMessage() for r in caplog.records if "num_beam" in r.getMessage()]
    assert len(warnings) == 1 and "'decode.num_beam'" in warnings[0] and "'decode.num_beams'" in warnings[0]


@pytest.mark.parametrize("command", ["sample", "eval"])
@pytest.mark.parametrize("flag", [True, False])
def test_negative_seed_exits_1_naming_it(command, flag, workspace, tmp_path, capsys):
    run_cli("ingest", "--config", workspace["config"])
    config = tmp_path / "seeded.yaml"
    config.write_text(yaml.safe_dump(dict(workspace["raw"], seed=11 if flag else -1)), encoding="utf-8")
    gold = tmp_path / "gold.jsonl"
    write_datapoints(gold, [{"id": "1", "text": "", "triplets": [("Alpha", "linked to", "Beta")]}])
    argv = ["--n", 5] if command == "sample" else ["--predictions", gold, "--gold", gold]
    capsys.readouterr()
    assert run_cli(command, "--config", config, *argv, *(["--seed", -1] if flag else []), "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"error: {'--seed' if flag else 'seed'} must be >= 0, got -1\n"
    assert not (tmp_path / "o" / f"{command}.manifest.json").exists()


def test_sample_with_n_0_exits_1_and_writes_nothing(workspace, tmp_path, capsys):
    run_cli("ingest", "--config", workspace["config"])
    capsys.readouterr()
    assert run_cli("sample", "--config", workspace["config"], "--n", 0, "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == "error: --n must be >= 1, got 0\n"
    assert not (tmp_path / "o").exists()


class MockCompletionsHandler(BaseHTTPRequestHandler):
    fail_marker = None

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.fail_marker and self.fail_marker in body.get("prompt", ""):
            self.send_response(500)
            self.end_headers()
            return
        text = "A mock sentence expressing the facts."
        payload = {
            "choices": [{"text": text + "\nextra", "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 30, "completion_tokens": 9, "total_tokens": 39},
        }
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_endpoint():
    handler = type("Handler", (MockCompletionsHandler,), {"fail_marker": None})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/completions", handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def generation_config(workspace, tmp_path, url, **overrides):
    cfg = dict(workspace["raw"])
    cfg["generation"] = {
        "endpoint": url,
        "model": "mock-model",
        "preset": "text",
        "requests_per_minute": 1000,
        "tokens_per_minute": 1_000_000,
        "concurrency": 3,
        "max_attempts": 2,
        "backoff_base": 0.01,
        **overrides,
    }
    path = tmp_path / "gen_config.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def test_generate_against_mock_endpoint(workspace, tmp_path, mock_endpoint):
    url, _ = mock_endpoint
    run_cli("ingest", "--config", workspace["config"])
    run_cli("sample", "--config", workspace["config"], "--n", 8)
    config = generation_config(workspace, tmp_path, url)
    sets_file = workspace["out"] / "triplet_sets.jsonl"
    assert run_cli("generate", "--config", config, "--sets", sets_file) == 0
    datapoints = [json.loads(l) for l in (workspace["out"] / "datapoints.jsonl").read_text().splitlines()]
    assert len(datapoints) == 8
    for dp in datapoints:
        assert dp["text"] == "A mock sentence expressing the facts."  # stop-string stripped
        assert dp["provenance"] == "generated"
        assert dp["triplets"]
    # resumable: rerunning skips everything
    assert run_cli("generate", "--config", config, "--sets", sets_file) == 0
    records = [json.loads(l) for l in (workspace["out"] / "generation_records.jsonl").read_text().splitlines()]
    assert len(records) == 8


def test_generate_partial_failure_exit_code(workspace, tmp_path, mock_endpoint):
    url, handler = mock_endpoint
    handler.fail_marker = "(Alpha; linked to; Beta)"
    run_cli("ingest", "--config", workspace["config"])
    run_cli("sample", "--config", workspace["config"], "--n", 8)
    config = generation_config(workspace, tmp_path, url)
    sets_file = workspace["out"] / "triplet_sets.jsonl"
    code = run_cli("generate", "--config", config, "--sets", sets_file)
    records = [json.loads(l) for l in (workspace["out"] / "generation_records.jsonl").read_text().splitlines()]
    failed = [r for r in records if r["status"] == "failed"]
    assert (code == 3) == bool(failed)


@pytest.mark.parametrize("payload", [
    {"choices": ["oops"]},
    {"choices": [{"text": "x"}], "usage": ["x"]},
    {"choices": [{"text": "x"}], "usage": {"prompt_tokens": None}},
    {"choices": [{"text": "x"}], "usage": {"total_tokens": "many"}},
    {"choices": [{"text": None}]},
    {"choices": [{"text": 5}]},
    {"choices": [{"text": ["a"]}]},
    {"choices": [{"text": "x"}], "usage": {"total_tokens": -500}},
    {"choices": [{"text": "x"}], "usage": {"prompt_tokens": -1, "total_tokens": 5}},
    {"choices": [{"text": "x", "finish_reason": 5}]},
    {"choices": [{"text": "x", "finish_reason": ["stop"]}]},
], ids=["choice-not-object", "usage-not-object", "count-null", "count-not-a-number", "text-null", "text-a-number",
        "text-a-list", "total-negative", "prompt-count-negative", "finish-reason-a-number", "finish-reason-a-list"])
def test_malformed_200_response_is_a_failed_record(payload, workspace, tmp_path, monkeypatch):
    # the set about Gamma is answered with the malformed payload, the other well
    class Post(ConstantPost):
        def __call__(self, url, json, headers, timeout):
            return ConstantPost() if "Gamma" not in json["prompt"] else self

        def json(self):
            return payload

    monkeypatch.setattr(requests, "post", Post())
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions", price_per_1k_tokens=0.02)
    sets = tmp_path / "sets.jsonl"
    sets.write_text(json.dumps(GOOD_ROW) + "\n" + json.dumps(
        {"id": "1", "triplets": [{"s": "Beta", "r": "part of", "o": "Gamma"}]}) + "\n", encoding="utf-8")
    assert run_cli("generate", "--config", config, "--sets", sets) == 3
    out = workspace["out"]
    records = {r["set_id"]: r for r in map(json.loads, (out / "generation_records.jsonl").read_text().splitlines())}
    assert (records["1"]["status"], records["1"]["error"], records["1"]["attempts"]) == ("failed", "malformed response", 1)
    assert [json.loads(line)["id"] for line in (out / "datapoints.jsonl").read_text().splitlines()] == ["0"]
    assert (out / "generate.manifest.json").exists()


class TokenCountingPost:
    """``requests.post`` stand-in whose usage counts one token per prompt
    character, and that answers HTTP 400 to a prompt about Gamma while
    ``refuse_gamma``."""

    def __init__(self):
        self.refuse_gamma = True

    def __call__(self, url, json, headers, timeout):
        refused = self.refuse_gamma and "Gamma" in json["prompt"]
        return TokenCountingPost.Response(400 if refused else 200, len(json["prompt"]))

    class Response:
        def __init__(self, status_code, tokens):
            self.status_code, self.tokens = status_code, tokens

        def json(self):
            return {"choices": [{"text": "A sentence.", "finish_reason": "stop"}], "usage": {"total_tokens": self.tokens}}


def test_generate_manifest_prices_the_ok_records_the_run_appended(workspace, tmp_path, monkeypatch):
    post = TokenCountingPost()
    monkeypatch.setattr(requests, "post", post)
    run_cli("ingest", "--config", workspace["config"])
    run_cli("sample", "--config", workspace["config"], "--n", 8)
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions", price_per_1k_tokens=0.02)
    sets, out = workspace["out"] / "triplet_sets.jsonl", workspace["out"]
    records = out / "generation_records.jsonl"
    for resumed in (False, True):  # the fresh run fails the sets about Gamma, the resumed one answers them
        before = len(records.read_text(encoding="utf-8").splitlines()) if resumed else 0
        assert run_cli("generate", "--config", config, "--sets", sets) == (0 if resumed else 3)
        rows = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()[before:]]
        tokens = sum(row["total_tokens"] for row in rows if row["status"] == "ok")
        manifest = json.loads((out / "generate.manifest.json").read_text(encoding="utf-8"))["config"]
        assert tokens > 0 and (manifest["tokens_consumed"], manifest["cost"]) == (tokens, tokens / 1000 * 0.02)
        post.refuse_gamma = False


def test_two_fresh_generate_runs_write_equal_records(workspace, tmp_path, monkeypatch):
    monkeypatch.setattr(requests, "post", ConstantPost())
    run_cli("ingest", "--config", workspace["config"])
    run_cli("sample", "--config", workspace["config"], "--n", 8)
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions")
    records = []
    for out in ("a", "b"):
        assert run_cli("generate", "--config", config, "--sets", workspace["out"] / "triplet_sets.jsonl",
                       "--out", tmp_path / out) == 0
        records.append(sorted((tmp_path / out / "generation_records.jsonl").read_text(encoding="utf-8").splitlines()))
    assert records[0] == records[1] and len(records[0]) == 8


def test_unknown_tokenizer_is_validation_error(workspace, tmp_path):
    cfg = dict(workspace["raw"], tokenizer="quantum")
    path = tmp_path / "bad_tok.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    dp = tmp_path / "dp.jsonl"
    write_datapoints(dp, [{"id": "a", "text": "t", "triplets": [("Alpha", "linked to", "Beta")]}])
    assert run_cli("prepare", "--config", path, "--datapoints", dp) == 1


def wordpiece_config(workspace, tmp_path, vocab: str):
    """A config whose tokenizer reads its pieces from a file holding ``vocab``."""
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text(vocab, encoding="utf-8")
    config = tmp_path / "wordpiece.yaml"
    config.write_text(yaml.safe_dump(dict(workspace["raw"], tokenizer=f"wordpiece:{vocab_path}")), encoding="utf-8")
    return config, vocab_path


def test_prepare_and_decode_under_a_wordpiece_vocab(workspace, tmp_path):
    # one piece per printable ASCII character: "é" is the one character it cannot encode
    config, _ = wordpiece_config(workspace, tmp_path, "".join(chr(c) + "\n" for c in range(32, 127)))
    dp = tmp_path / "dp.jsonl"
    write_datapoints(dp, [
        {"id": "a", "text": "Alpha is linked to Beta.", "triplets": [("Alpha", "linked to", "Beta")]},
        {"id": "b", "text": "Beta is part of Gamma, café.", "triplets": [("Beta", "part of", "Gamma")]},
    ])
    out = workspace["out"]
    assert run_cli("prepare", "--config", config, "--datapoints", dp) == 0
    assert [json.loads(line)["id"] for line in (out / "prepared_fe.jsonl").read_text().splitlines()] == ["a"]
    assert json.loads((out / "prepare.manifest.json").read_text())["config"]["drops"]["unencodable"] == 1

    assert run_cli("ingest", "--config", config) == 0
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    assert run_cli("decode", "--config", config, "--inputs", inputs) == 0
    [prediction] = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
    assert prediction["triplets"] and not prediction["truncated"]


# the empty path names the working directory
@pytest.mark.parametrize("spec, shown", [("wordpiece:", "."), ("wordpiece:{tmp}", "{tmp}")], ids=["empty", "directory"])
def test_wordpiece_vocab_path_that_is_not_a_file_is_validation_error(spec, shown, workspace, tmp_path, capsys):
    config = tmp_path / "wordpiece.yaml"
    config.write_text(yaml.safe_dump(dict(workspace["raw"], tokenizer=spec.format(tmp=tmp_path))), encoding="utf-8")
    dp = tmp_path / "dp.jsonl"
    write_datapoints(dp, [{"id": "a", "text": "t", "triplets": [("Alpha", "linked to", "Beta")]}])
    assert run_cli("prepare", "--config", config, "--datapoints", dp) == 1
    assert capsys.readouterr().err == f"error: tokenizer: not a file: {shown.format(tmp=tmp_path)}\n"


@pytest.mark.parametrize("vocab, message", [("a\nb\na\n", "duplicate pieces in vocabulary"),
                                            ("\n\n", "piece list must be non-empty")])
def test_bad_wordpiece_vocab_is_validation_error_naming_the_file(vocab, message, workspace, tmp_path, capsys):
    config, vocab_path = wordpiece_config(workspace, tmp_path, vocab)
    dp = tmp_path / "dp.jsonl"
    write_datapoints(dp, [{"id": "a", "text": "t", "triplets": [("Alpha", "linked to", "Beta")]}])
    assert run_cli("prepare", "--config", config, "--datapoints", dp) == 1
    assert capsys.readouterr().err == f"error: tokenizer: {vocab_path}: {message}\n"


def test_delimiter_the_tokenizer_cannot_encode_is_validation_error(workspace, tmp_path, capsys):
    # every delimiter piece but " [r] ", and no "[" or "]" to spell it from
    letters = [chr(c) for c in range(32, 127) if chr(c) not in "[]"]
    config, _ = wordpiece_config(workspace, tmp_path, "".join(f"{p}\n" for p in ["[s] ", " [s] ", " [o] ", " [e]", *letters]))
    assert run_cli("ingest", "--config", config) == 0
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("decode", "--config", config, "--inputs", inputs) == 1
    assert capsys.readouterr().err == "error: delimiter segment ' [r] ' is not tokenizable\n"


@pytest.mark.parametrize("content, message", [
    (b"instruction: caf\xff\n", "not UTF-8"),
    (b"instruction: [x\n", "not valid YAML"),
    (b"instruction: x\nnum_demonstrations: two\n", "num_demonstrations must be an int, got 'two'"),
    (b"instruction: x\nnum_demonstrations: true\n", "num_demonstrations must be an int, got True"),
    (b"instruction: null\n", "instruction must be a string, got None"),
    (b"instruction: [a, b]\n", "instruction must be a string, got ['a', 'b']"),
    (b"instruction: x\ndemonstration_format: 5\n", "demonstration_format must be a string, got 5"),
    (b"instruction: x\ndemonstration_format: null\n", "demonstration_format must be a string, got None"),
], ids=["not-utf8", "not-yaml", "count-not-int", "count-bool", "instruction-null", "instruction-list",
        "format-int", "format-null"])
def test_malformed_template_is_validation_error_naming_the_file(content, message, workspace, tmp_path, capsys):
    template = tmp_path / "template.yaml"
    template.write_bytes(content)
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions", template=str(template))
    sets = tmp_path / "sets.jsonl"
    sets.write_text(json.dumps(GOOD_ROW) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("generate", "--config", config, "--sets", sets) == 1
    assert capsys.readouterr().err.startswith(f"error: {template}: {message}")


class ReverseOrderPost:
    """``requests.post`` stand-in that holds every request until all are in
    flight, then answers them in reverse order of arrival."""

    def __init__(self, n_requests):
        self.n_requests = n_requests
        self.arrived = 0
        self.answered = 0
        self.cond = threading.Condition()

    def __call__(self, url, json, headers, timeout):
        with self.cond:
            me = self.arrived
            self.arrived += 1
            self.cond.notify_all()
            if not self.cond.wait_for(
                lambda: self.arrived == self.n_requests and self.answered == self.n_requests - 1 - me, timeout=10
            ):
                raise TimeoutError("requests did not all arrive")
            self.answered += 1
            self.cond.notify_all()
        return self

    # the response side
    status_code = 200

    def json(self):
        return {"choices": [{"text": "A sentence.", "finish_reason": "stop"}], "usage": {"total_tokens": 5}}


def test_generate_rows_follow_sets_file_order(workspace, tmp_path, monkeypatch):
    n = 6
    run_cli("ingest", "--config", workspace["config"])
    run_cli("sample", "--config", workspace["config"], "--n", n)
    monkeypatch.setattr(requests, "post", ReverseOrderPost(n))
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions", concurrency=n)
    sets_file = workspace["out"] / "triplet_sets.jsonl"
    assert run_cli("generate", "--config", config, "--sets", sets_file) == 0
    records = [json.loads(l) for l in (workspace["out"] / "generation_records.jsonl").read_text().splitlines()]
    assert [r["set_id"] for r in records] != [str(i) for i in range(n)]  # completion order differs
    sets = [json.loads(l) for l in sets_file.read_text().splitlines()]
    datapoints = [json.loads(l) for l in (workspace["out"] / "datapoints.jsonl").read_text().splitlines()]
    assert [dp["id"] for dp in datapoints] == [str(row["id"]) for row in sets]
    assert [dp["triplets"] for dp in datapoints] == [row["triplets"] for row in sets]


class ConstantPost:
    """``requests.post`` stand-in that answers every request alike."""

    status_code = 200

    def __call__(self, url, json, headers, timeout):
        return self

    def json(self):
        return {"choices": [{"text": "Alpha is linked to Beta.", "finish_reason": "stop"}], "usage": {"total_tokens": 5}}


# per subcommand: the input that is pointed at a missing file (a flag or a
# config key), the inputs its manifest hashes, and whether it records a seed
STAGE_INPUTS = {
    "ingest": ("paths.edges", {"edges", "entity_labels", "relation_labels"}, False),
    "sample": ("paths.graph", {"graph"}, True),
    "generate": ("--sets", {"sets", "template"}, False),
    "prepare": ("--datapoints", {"datapoints"}, False),
    "decode": ("--inputs", {"graph", "inputs"}, False),
    "eval": ("--gold", {"predictions", "gold", "train_counts"}, True),
    "stats": ("--dataset", {"dataset"}, False),
}


@pytest.mark.parametrize("command", sorted(STAGE_INPUTS))
def test_every_stage_checks_its_inputs_and_reruns_to_the_same_manifest(command, workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(requests, "post", ConstantPost())
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions")
    out = workspace["out"]
    inputs, train_counts = tmp_path / "inputs.jsonl", tmp_path / "train_counts.tsv"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    train_counts.write_text("linked to\t40\npart of\t1\n", encoding="utf-8")
    stage_argv = {
        "ingest": [],
        "sample": ["--n", 6],
        "generate": ["--sets", out / "triplet_sets.jsonl"],
        "prepare": ["--datapoints", out / "datapoints.jsonl"],
        "decode": ["--inputs", inputs],
        "eval": ["--predictions", out / "predictions.jsonl", "--gold", out / "datapoints.jsonl",
                 "--train-counts", train_counts],
        "stats": ["--dataset", out / "datapoints.jsonl"],
    }
    for earlier in ("ingest", "sample", "generate", "decode"):
        assert run_cli(earlier, "--config", config, *stage_argv[earlier]) == 0
    argv = stage_argv[command]
    missing_input, hashed, seeded = STAGE_INPUTS[command]

    manifests = []
    for _ in range(2):
        if command == "generate":
            (out / "generation_records.jsonl").unlink()  # a rerun from scratch, not a resume
        assert run_cli(command, "--config", config, *argv) == 0
        manifests.append((out / f"{command}.manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    assert manifest["command"] == command
    assert set(manifest["inputs"]) == hashed
    assert manifest["seed"] == (11 if seeded else None)
    # every output and manifest is strict JSON; graph.json is a JSON header line, then binary edges
    for path in [*out.glob("*.json"), *out.glob("*.jsonl")]:
        data = path.read_bytes()
        documents = [data.split(b"\n", 1)[0]] if path.name == "graph.json" else data.splitlines() if path.suffix == ".jsonl" else [data]
        for document in documents:
            json.loads(document, parse_constant=lambda name: pytest.fail(f"{path.name} holds {name}, which is not JSON"))

    directory = tmp_path / "a directory"
    directory.mkdir()
    for bad, message in ((tmp_path / "missing" / "file", "file not found"), (directory, "not a file")):
        bad_argv, bad_config = list(argv), config
        if missing_input.startswith("--"):
            bad_argv[bad_argv.index(missing_input) + 1] = bad
        else:
            cfg = yaml.safe_load(config.read_text(encoding="utf-8"))
            cfg["paths"][missing_input.split(".")[1]] = str(bad)
            bad_config = tmp_path / "bad.yaml"
            bad_config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        capsys.readouterr()
        assert run_cli(command, "--config", bad_config, *bad_argv) == 1
        assert f"{missing_input}: {message}: {bad}" in capsys.readouterr().err
        assert not (out / f"{command}.manifest.json").exists()  # no manifest of the earlier run is left


def test_every_file_a_command_opens_is_its_config_an_input_an_output_or_its_manifest(workspace, tmp_path, monkeypatch):
    """All seven commands, generate under the packaged few-shot template and
    its demonstrations, and prepare and decode under a ``wordpiece:`` vocab:
    each file ``open`` is handed while ``main`` runs is one its manifest
    hashes or lists, the config, or the manifest itself."""
    monkeypatch.setattr(requests, "post", ConstantPost())
    out = workspace["out"]
    demonstrations, inputs, train_counts = tmp_path / "demos.jsonl", tmp_path / "inputs.jsonl", tmp_path / "train_counts.tsv"
    demonstrations.write_text("".join(json.dumps({**GOOD_ROW, "id": str(i)}) + "\n" for i in range(3)), encoding="utf-8")
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    train_counts.write_text("linked to\t40\npart of\t1\n", encoding="utf-8")
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions", preset="code",
                               demonstrations=str(demonstrations))
    wordpiece, _ = wordpiece_config(workspace, tmp_path, "".join(chr(c) + "\n" for c in range(32, 127)))
    runs = [
        (config, ["ingest"]),
        (config, ["sample", "--n", 6]),
        (config, ["generate", "--sets", out / "triplet_sets.jsonl"]),
        (config, ["prepare", "--datapoints", out / "datapoints.jsonl"]),
        (config, ["decode", "--inputs", inputs]),
        (config, ["eval", "--predictions", out / "predictions.jsonl", "--gold", out / "datapoints.jsonl",
                  "--train-counts", train_counts]),
        (config, ["stats", "--dataset", out / "datapoints.jsonl"]),
        (wordpiece, ["prepare", "--datapoints", out / "datapoints.jsonl", "--out", tmp_path / "wordpiece"]),
        (wordpiece, ["decode", "--inputs", inputs, "--out", tmp_path / "wordpiece"]),
    ]
    real_open, strays = builtins.open, {}
    for cfg, argv in runs:
        opened = []

        def spy(file, *args, **kwargs):
            opened.append(Path(file).resolve())
            return real_open(file, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", spy)
            patch.setattr(io, "open", spy)
            assert run_cli(argv[0], "--config", cfg, *argv[1:]) == 0
        manifest_path = Path(argv[argv.index("--out") + 1] if "--out" in argv else out) / f"{argv[0]}.manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        allowed = {Path(path).resolve() for path in [cfg, manifest_path, *manifest["outputs"],
                                                     *(entry["path"] for entry in manifest["inputs"].values())]}
        assert manifest_path.resolve() in opened  # the spy sees what main opens
        if set(opened) - allowed:
            strays[f"{argv[0]} under {cfg.name}"] = sorted(map(str, set(opened) - allowed))
    assert strays == {}


def test_manifests_record_the_tokenizer_the_scorer_and_the_keys_each_layer_gets(workspace, tmp_path, monkeypatch):
    monkeypatch.setattr(requests, "post", ConstantPost())
    raw, out = workspace["raw"], workspace["out"]
    generation = {"endpoint": "http://127.0.0.1:9/v1/completions", "preset": "text", "concurrency": 2}
    config = tmp_path / "config.yaml"  # each section holds a key the CLI warns it ignores
    config.write_text(yaml.safe_dump(dict(raw, sampler=dict(raw["sampler"], walk_length=3),
                                          generation=dict(generation, concurency=2),
                                          metrics=dict(raw["metrics"], n_boot=5),
                                          decode=dict(raw["decode"], top_k_returned=1))), encoding="utf-8")
    datapoints, inputs, script = tmp_path / "dp.jsonl", tmp_path / "inputs.jsonl", tmp_path / "scorer.py"
    write_datapoints(datapoints, [{"id": "q1", "text": "Alpha is linked to Beta.", "triplets": [("Alpha", "linked to", "Beta")]}])
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    script.write_text("import json, sys\n"
                      "for line in sys.stdin:\n"
                      "    print(json.dumps({'logprobs': [-1.0] * 257}), flush=True)\n", encoding="utf-8")
    scorer_cmd = f"{sys.executable} {script}"
    for argv in (["ingest"], ["sample", "--n", 4], ["generate", "--sets", out / "triplet_sets.jsonl"],
                 ["prepare", "--datapoints", datapoints],
                 ["decode", "--inputs", inputs, "--out", tmp_path / "uniform"],
                 ["decode", "--inputs", inputs, "--scorer-cmd", scorer_cmd],
                 ["eval", "--predictions", out / "predictions.jsonl", "--gold", datapoints]):
        assert run_cli(argv[0], "--config", config, *argv[1:]) == 0

    def snapshot(command, directory=out):
        return json.loads((directory / f"{command}.manifest.json").read_text(encoding="utf-8"))["config"]

    assert snapshot("sample")["sampler"] == raw["sampler"]
    assert snapshot("generate")["generation"] == {"preset": "text", "concurrency": 2}
    assert snapshot("prepare")["tokenizer"] == "byte"
    assert {key: snapshot("decode")[key] for key in ("tokenizer", "scorer", "decode")} == {
        "tokenizer": "byte", "scorer": scorer_cmd, "decode": raw["decode"]}
    assert snapshot("decode", tmp_path / "uniform")["scorer"] == "uniform"
    assert snapshot("eval")["metrics"] == raw["metrics"]


@pytest.mark.parametrize("bad_line", ['{"id": "b", "text": "torn', "[1, 2]"])
def test_malformed_jsonl_row_is_validation_error(workspace, tmp_path, capsys, bad_line):
    dp = tmp_path / "dp.jsonl"
    write_datapoints(dp, [{"id": "a", "text": "t", "triplets": [("Alpha", "linked to", "Beta")]}])
    with open(dp, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    assert run_cli("prepare", "--config", workspace["config"], "--datapoints", dp) == 1
    assert f"{dp}:2:" in capsys.readouterr().err


def eval_files(tmp_path, pred_rows, gold_rows):
    preds, gold = tmp_path / "preds.jsonl", tmp_path / "gold.jsonl"
    write_datapoints(preds, pred_rows)
    write_datapoints(gold, gold_rows)
    return preds, gold


@pytest.mark.parametrize("bad_line", ["linked to 40", "linked to\t40\tmore", "linked to\tmany", "linked to\t-1", "part of\t3"])
def test_malformed_train_counts_line_is_validation_error(workspace, tmp_path, capsys, bad_line):
    row = {"id": "1", "text": "", "triplets": [("Alpha", "linked to", "Beta")]}
    preds, gold = eval_files(tmp_path, [row], [row])
    train_counts = tmp_path / "train_counts.tsv"
    train_counts.write_text(f"part of\t1\n{bad_line}\n", encoding="utf-8")
    assert run_cli("eval", "--config", workspace["config"], "--predictions", preds, "--gold", gold,
                   "--train-counts", train_counts) == 1
    assert f"{train_counts}:2:" in capsys.readouterr().err


GOOD_ROW = {"id": "0", "text": "Alpha is linked to Beta.", "triplets": [{"s": "Alpha", "r": "linked to", "o": "Beta"}]}


def test_decode_resumed_over_a_prediction_with_a_list_id_exits_1(workspace, tmp_path, capsys):
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps(GOOD_ROW) + "\n", encoding="utf-8")
    predictions = tmp_path / "d" / "predictions.jsonl"
    predictions.parent.mkdir()
    predictions.write_text(json.dumps({"id": [0], "triplets": []}) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs, "--out", predictions.parent) == 1
    assert f"{predictions}:1: 'id' must be a string or an integer, got [0]" in capsys.readouterr().err


# --- every command x every row file it reads x every fault a row can hold ---

TRIPLETS = GOOD_ROW["triplets"]
# per (command, row file): where the command finds the file (a flag, a config
# key, or a sink in the output directory), a good row, and each field the
# command reads with its kind; a kind ending in "?" may be left out, and a
# list of kind "triplets!" may not be empty
ROW_FILES = {
    ("generate", "sets"): ("--sets", {"id": "0", "triplets": TRIPLETS, "partial": False},
                           {"id": "id", "triplets": "triplets!", "partial": "flag?"}),
    ("generate", "demonstrations"): ("generation.demonstrations", {"text": GOOD_ROW["text"], "triplets": TRIPLETS},
                                     {"text": "text?", "triplets": "triplets!"}),
    ("generate", "records"): ("generation_records.jsonl", {"set_id": "9", "status": "ok", "completion": "A sentence."},
                              {"set_id": "id", "status": "status", "completion": "text"}),
    ("prepare", "datapoints"): ("--datapoints", GOOD_ROW, {"id": "id", "text": "text?", "triplets": "triplets"}),
    ("stats", "dataset"): ("--dataset", GOOD_ROW, {"id": "id", "triplets": "triplets"}),
    # "context" is read when "text" is absent
    ("decode", "inputs"): ("--inputs", {"id": "0", "text": GOOD_ROW["text"]}, {"id": "id", "text": "text", "context": "text?"}),
    ("decode", "predictions"): ("predictions.jsonl", {"id": "9", "triplets": TRIPLETS}, {"id": "id"}),
    ("eval", "predictions"): ("--predictions", GOOD_ROW, {"id": "id", "triplets": "triplets"}),
    ("eval", "gold"): ("--gold", GOOD_ROW, {"id": "id", "triplets": "triplets"}),
}
# per kind: what the message says a value must be, and a value it refuses per JSON type
KINDS = {
    "id": ("a string or an integer", {"null": None, "number": 1.5, "list": [1], "object": {"n": 1}, "bool": True}),
    "text": ("a string", {"null": None, "number": 5, "list": ["Alpha"], "object": {"a": 1}, "bool": True}),
    "flag": ("true or false", {"null": None, "number": 0, "list": [True], "object": {"a": 1}, "string": "no"}),
    "status": ('"ok" or "failed"', {"null": None, "number": 5, "list": ["ok"], "object": {"a": 1}, "bool": True,
                                    "string": "OK"}),
    "triplets": ("a list of objects with keys 's', 'r', 'o'", {
        "null": None, "number": 5, "list": [["Alpha", "linked to", "Beta"]], "strings": ["Alpha linked to Beta"],
        "object": TRIPLETS[0], "bool": True}),
}


# the file a command writes only once it has read every row
REPORTS = {"generate": "datapoints.jsonl", "eval": "eval_report.json", "stats": "relation_stats.json"}


def row_line(row) -> bytes:
    return json.dumps(row).encode() + b"\n"


def row_faults(where, good, fields):
    """(fault, bad line, message) for each fault a row file of ``ROW_FILES`` can hold."""
    sink = where.endswith(".jsonl")  # a torn last line there is mended, not refused
    yield "not-JSON", b'{"id": "1", "text": "torn\n', "not valid JSON"
    if not sink:
        yield "torn-tail", b'{"id": "1", "text": "torn', "not valid JSON"
    yield "not-an-object", b"[1, 2]\n", "not a JSON object"
    yield "not-UTF-8", b'{"id": "1", "text": "caf\xff"}\n', "not UTF-8"
    if "id" in fields and not sink:
        yield "duplicate-id", row_line(good), f"id {good['id']!r} appears more than once"
    id_key = "set_id" if "set_id" in fields else "id"
    other = {**good, id_key: "1"} if id_key in good else dict(good)  # a row repeating no id
    for field, kind in fields.items():
        base = {k: v for k, v in other.items() if (field, k) != ("context", "text")}
        if not kind.endswith("?"):
            yield f"{field}-missing", row_line({k: v for k, v in base.items() if k != field}), f"missing key {field!r}"
        expected, values = KINDS[kind.rstrip("?!")]
        for type_name, value in values.items():
            yield (f"{field}={type_name}", row_line({**base, field: value}),
                   f"{field!r} must be {expected}, got {json.dumps(value)}")
        if kind == "triplets!":
            yield "triplets=empty", row_line({**base, "triplets": []}), "'triplets' must not be empty"
        if kind.startswith("triplets"):
            yield ("r-missing", row_line({**base, "triplets": [{"s": "Alpha", "o": "Beta"}]}),
                   "missing key 'r' in a triplet")
            for type_name, value in KINDS["text"][1].items():
                yield (f"o={type_name}", row_line({**base, "triplets": [{**TRIPLETS[0], "o": value}]}),
                       f"triplet key 'o' must be a string, got {json.dumps(value)}")


ROW_FAULTS = [
    pytest.param(command, name, line, message, id=f"{command}:{name}:{fault}")
    for (command, name), (where, good, fields) in ROW_FILES.items()
    for fault, line, message in row_faults(where, good, fields)
]


@pytest.mark.parametrize("command, name, bad_line, message", ROW_FAULTS)
def test_every_row_fault_exits_1_naming_the_line(command, name, bad_line, message, workspace, tmp_path, monkeypatch, capsys):
    """Each row file the command reads holds one good row, and the file
    ``name`` a bad second line: the command exits 1 naming ``path:2`` and
    the fault, writes no manifest and no report, sends no request, never
    searches the bad row, and starts no scorer before it has read the rows
    it resumes from."""
    post, searched, scorers_made = CountingPost(), [], []
    monkeypatch.setattr(requests, "post", post)
    search = cli.constrained_beam_search
    monkeypatch.setattr(cli, "constrained_beam_search", lambda scorer, context, *args: (
        searched.append(context), search(scorer, context, *args))[1])
    make_scorer = scorers.UniformScorer.__init__
    monkeypatch.setattr(scorers.UniformScorer, "__init__", lambda self, *args: (
        scorers_made.append(self), make_scorer(self, *args))[1])
    out = workspace["out"]
    out.mkdir()
    template = tmp_path / "template.yaml"
    template.write_text("instruction: x\nnum_demonstrations: 2\n", encoding="utf-8")
    paths = {file: out / where if where.endswith(".jsonl") else tmp_path / f"{file}.jsonl"
             for (c, file), (where, _, _) in ROW_FILES.items() if c == command}
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions", template=str(template),
                               demonstrations=str(paths.get("demonstrations", "")))
    if command == "decode":
        assert run_cli("ingest", "--config", config) == 0
    argv = []
    for file, path in paths.items():
        where, good, _ = ROW_FILES[command, file]
        # the template takes two demonstrations
        second = bad_line if file == name else row_line(good) if file == "demonstrations" else b""
        path.write_bytes(row_line(good) + second)
        if where.startswith("--"):
            argv += [where, path]
    capsys.readouterr()
    assert run_cli(command, "--config", config, *argv) == 1
    assert f"{paths[name]}:2: {message}" in capsys.readouterr().err
    assert not (out / f"{command}.manifest.json").exists()
    if command in REPORTS:
        assert not (out / REPORTS[command]).exists()
    assert post.bodies == []
    # a decode input before the bad line is searched, unless reading it fails
    # (a file that is not UTF-8 fails at its first read)
    assert searched == ([GOOD_ROW["text"]] if name == "inputs" and b"\xff" not in bad_line else [])
    if (command, name) == ("decode", "predictions"):
        assert scorers_made == []


def test_decode_over_a_bad_resume_row_leaves_no_scorer_running(workspace, tmp_path, monkeypatch, capsys):
    made = []
    make = scorers.SubprocessScorer.__init__
    monkeypatch.setattr(scorers.SubprocessScorer, "__init__", lambda self, *args, **kwargs: (
        made.append(self), make(self, *args, **kwargs))[1])
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps(GOOD_ROW) + "\n", encoding="utf-8")
    predictions = workspace["out"] / "predictions.jsonl"
    predictions.write_text(json.dumps({"id": [0], "triplets": []}) + "\n", encoding="utf-8")
    capsys.readouterr()
    try:
        assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs, "--scorer-cmd", "exec sleep 7") == 1
        assert f"{predictions}:1: 'id' must be a string or an integer, got [0]" in capsys.readouterr().err
        assert [scorer for scorer in made if scorer._proc.poll() is None] == []
    finally:
        for scorer in made:
            scorer.close()


def test_decode_over_an_unreadable_graph_file_leaves_no_scorer_running(workspace, tmp_path, monkeypatch, capsys):
    # the scorer starts before the graph header is read: the error must end it
    made = []
    make = scorers.SubprocessScorer.__init__
    monkeypatch.setattr(scorers.SubprocessScorer, "__init__", lambda self, *args, **kwargs: (
        made.append(self), make(self, *args, **kwargs))[1])
    graph = tmp_path / "graph.json"
    graph.write_text("edges\tnot a graph file\n", encoding="utf-8")
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({**workspace["raw"], "paths": {**workspace["raw"]["paths"], "graph": str(graph)}}),
                      encoding="utf-8")
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps(GOOD_ROW) + "\n", encoding="utf-8")
    capsys.readouterr()
    try:
        assert run_cli("decode", "--config", config, "--inputs", inputs, "--scorer-cmd", "exec sleep 7") == 1
        assert f"{graph}: not a readable graph file" in capsys.readouterr().err
        assert not (workspace["out"] / "decode.manifest.json").exists()
        assert len(made) == 1 and made[0]._proc.poll() is not None
    finally:
        for scorer in made:
            scorer.close()


@pytest.mark.parametrize("command", ["", "   "], ids=["empty", "spaces"])
def test_blank_scorer_cmd_exits_1_naming_it(command, workspace, tmp_path, monkeypatch, capsys):
    """Refused before the sink is read and before any scorer starts."""
    made = []

    def start(self, *args):
        made.append(args)
        raise AssertionError("a scorer process was started")

    monkeypatch.setattr(scorers.SubprocessScorer, "__init__", start)
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps(GOOD_ROW) + "\n", encoding="utf-8")
    # a resume row that reading the sink refuses
    (workspace["out"] / "predictions.jsonl").write_text(json.dumps({"id": [0], "triplets": []}) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs, "--scorer-cmd", command) == 1
    assert capsys.readouterr().err == f"error: --scorer-cmd must not be blank, got {command!r}\n"
    assert made == [] and not (workspace["out"] / "decode.manifest.json").exists()


BAD_UTF8_LINE = {
    "datapoints": b'{"id": "2", "text": "caf\xff", "triplets": []}\n',
    "train_counts": b"caf\xff\t3\n",
    "config": b"# caf\xff\n",
    "edges": b"Q1\tP1\tQ\xff\n",
    "entity_labels": b"Q9\tcaf\xff\n",
    "relation_labels": b"P9\tcaf\xff\n",
    "vocab": b"caf\xff\n",
}


@pytest.mark.parametrize("bad_file", sorted(BAD_UTF8_LINE))
def test_input_that_is_not_utf8_is_validation_error(bad_file, workspace, tmp_path, capsys):
    row = {"id": "1", "text": "", "triplets": [("Alpha", "linked to", "Beta")]}
    preds, gold = eval_files(tmp_path, [row], [row])
    train_counts = tmp_path / "train_counts.tsv"
    train_counts.write_text("linked to\t40\n", encoding="utf-8")
    config, vocab = workspace["config"], None
    if bad_file == "vocab":
        config, vocab = wordpiece_config(workspace, tmp_path, "a\nb\n")
    path = {"datapoints": gold, "train_counts": train_counts, "config": config, "vocab": vocab,
            **{name: workspace["raw"]["paths"][name] for name in ("edges", "entity_labels", "relation_labels")}}[bad_file]
    with open(path, "rb+") as fh:
        number = len(fh.read().splitlines()) + 1
        fh.write(BAD_UTF8_LINE[bad_file])
    if bad_file == "train_counts":
        argv = ["eval", "--predictions", preds, "--gold", gold, "--train-counts", train_counts]
    elif bad_file in workspace["raw"]["paths"]:
        argv = ["ingest"]
    else:
        argv = ["prepare", "--datapoints", gold]
    assert run_cli(*argv, "--config", config) == 1
    err = capsys.readouterr().err
    where = str(path) if bad_file == "config" else f"{path}:{number}"
    assert f"{where}: not UTF-8" in err


class CountingPost(ConstantPost):
    """``ConstantPost`` that keeps the body and headers of every request it answers."""

    def __init__(self):
        self.bodies, self.headers = [], []

    def __call__(self, url, json, headers, timeout):
        self.bodies.append(json)
        self.headers.append(headers)
        return self


def test_generate_sends_the_key_of_the_configured_variable(workspace, tmp_path, monkeypatch):
    post = CountingPost()
    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setenv("OTHER_KEY", "secret")
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions", api_key_env="OTHER_KEY")
    sets = tmp_path / "sets.jsonl"
    sets.write_text(json.dumps(GOOD_ROW) + "\n", encoding="utf-8")
    assert run_cli("generate", "--config", config, "--sets", sets) == 0
    assert [headers.get("Authorization") for headers in post.headers] == ["Bearer secret"]


def test_non_json_generation_record_fails_before_any_request(workspace, tmp_path, monkeypatch, capsys):
    post = CountingPost()
    monkeypatch.setattr(requests, "post", post)
    run_cli("ingest", "--config", workspace["config"])
    run_cli("sample", "--config", workspace["config"], "--n", 6)
    records = workspace["out"] / "generation_records.jsonl"
    done = [json.dumps({"set_id": set_id, "status": "ok", "completion": "A sentence."}) for set_id in ("0", "1")]
    records.write_text(f"{done[0]}\nnot a record\n{done[1]}\n", encoding="utf-8")
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions")
    capsys.readouterr()
    assert run_cli("generate", "--config", config, "--sets", workspace["out"] / "triplet_sets.jsonl") == 1
    assert f"{records}:2: not valid JSON" in capsys.readouterr().err
    assert post.bodies == []  # nothing is sent before the whole records file is read


@pytest.mark.parametrize("key", ["status", "completion"])
def test_generation_record_without_a_key_fails_before_any_request(key, workspace, tmp_path, monkeypatch, capsys):
    record = {"set_id": "1", "status": "ok", "completion": "A sentence."}
    del record[key]
    post = CountingPost()
    monkeypatch.setattr(requests, "post", post)
    run_cli("ingest", "--config", workspace["config"])
    run_cli("sample", "--config", workspace["config"], "--n", 6)
    records = workspace["out"] / "generation_records.jsonl"
    done = json.dumps({"set_id": "0", "status": "ok", "completion": "A sentence."})
    records.write_text(f"{done}\n{json.dumps(record)}\n", encoding="utf-8")
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions")
    capsys.readouterr()
    assert run_cli("generate", "--config", config, "--sets", workspace["out"] / "triplet_sets.jsonl") == 1
    assert f"{records}:2: missing key {key!r}" in capsys.readouterr().err
    assert post.bodies == []


FAILING_SCORERS = {
    # answers two requests, then exits with status 3
    "exits": "import json, sys\n"
             "for n, line in enumerate(sys.stdin):\n"
             "    if n == 2:\n"
             "        sys.exit(3)\n"
             "    print(json.dumps({'logprobs': [-1.0] * 257}), flush=True)\n",
    "nan": "import json, sys\n"
           "for line in sys.stdin:\n"
           "    print(json.dumps({'logprobs': [-1.0] * 256 + [float('nan')]}), flush=True)\n",
    "short": "import json, sys\n"
             "for line in sys.stdin:\n"
             "    print(json.dumps({'logprobs': [-1.0] * 3}), flush=True)\n",
    "garbled": "import sys\n"
               "for line in sys.stdin:\n"
               "    print('{\"scores\": []}', flush=True)\n",
}
# replies of the right length whose last value is ``value``, a JSON literal
FAILING_SCORERS.update({
    name: "import sys\n"
          "for line in sys.stdin:\n"
          f"    print('{{\"logprobs\": [' + '-1.0, ' * 256 + '{value}]}}', flush=True)\n"
    for name, value in [("overflow", "1e999"), ("huge_int", "1" + "0" * 400), ("null", "null"), ("string", '"-1.0"'),
                        ("true", "true"), ("false", "false"), ("above_0", "0.5")]
})


@pytest.mark.parametrize("failure, message", [
    ("exits", "scorer process closed its output and exited with status 3"),
    ("nan", "scorer returned non-finite log-probabilities"),
    ("short", "scorer returned 3 values, expected 257"),
    ("garbled", """scorer reply b'{"scores": []}' is not {"logprobs": [...]}"""),
    ("overflow", "scorer returned non-finite log-probabilities"),
    ("huge_int", "scorer returned non-finite log-probabilities"),
    ("null", "scorer returned log-probabilities that are not numbers"),
    ("string", "scorer returned log-probabilities that are not numbers"),
    ("true", "scorer returned log-probabilities that are not numbers"),
    ("false", "scorer returned log-probabilities that are not numbers"),
    ("above_0", "scorer returned log-probabilities above 0"),
])
def test_failing_scorer_is_runtime_error_naming_the_input(failure, message, workspace, tmp_path, capsys):
    run_cli("ingest", "--config", workspace["config"])
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text("".join(json.dumps({"id": f"q{n}", "text": "some context"}) + "\n" for n in (1, 2)), encoding="utf-8")
    scorer = tmp_path / "scorer.py"
    scorer.write_text(FAILING_SCORERS[failure], encoding="utf-8")
    capsys.readouterr()
    assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs,
                   "--scorer-cmd", f"{sys.executable} {scorer}") == cli.EXIT_RUNTIME
    assert f"runtime error: {inputs}:1: input 'q1': {message}" in capsys.readouterr().err
    assert not (workspace["out"] / "predictions.jsonl").exists()


def test_silent_scorer_is_runtime_error_naming_the_input(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scorers, "READ_TIMEOUT_S", 1.0)
    run_cli("ingest", "--config", workspace["config"])
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    capsys.readouterr()
    started = time.monotonic()
    assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs,
                   "--scorer-cmd", "exec sleep 30") == cli.EXIT_RUNTIME
    assert time.monotonic() - started < 15  # the time limit, and the scorer terminated, not waited for
    assert f"runtime error: {inputs}:1: input 'q1': scorer process sent nothing for 1 s" in capsys.readouterr().err
    assert not (workspace["out"] / "predictions.jsonl").exists()


@pytest.mark.parametrize("triplets", [[["Alpha", "linked to", "Beta"]], ["Alpha linked to Beta"], 5])
def test_triplet_that_is_not_an_object_is_validation_error(triplets, workspace, tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    rows = [GOOD_ROW, {"id": "1", "text": "", "triplets": triplets}]
    dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert run_cli("stats", "--config", workspace["config"], "--dataset", dataset) == 1
    assert f"{dataset}:2: 'triplets' must be a list of objects" in capsys.readouterr().err


def test_config_that_is_not_yaml_is_validation_error(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("seed: [1\n", encoding="utf-8")
    assert run_cli("stats", "--config", config, "--dataset", config) == 1
    assert f"{config}:2:1: not valid YAML (expected ',' or ']'" in capsys.readouterr().err


def test_row_with_an_unlinearizable_label_is_dropped(workspace, tmp_path):
    dp = tmp_path / "datapoints.jsonl"
    write_datapoints(dp, [
        {"id": "a", "text": "Alpha is linked to Beta.", "triplets": [("Alpha", "linked to", "Beta")]},
        {"id": "b", "text": "Alpha [e] is linked to Beta.", "triplets": [("Alpha [e]", "linked to", "Beta")]},
        {"id": "c", "text": "Beta is part of Gamma.", "triplets": [("Beta", "part [s] of", "Gamma")]},
        {"id": "d", "text": "Beta is part of Gamma.", "triplets": [("Beta", "part of", "Gamma")]},
    ])
    out = workspace["out"]
    assert run_cli("prepare", "--config", workspace["config"], "--datapoints", dp) == 0
    for name in ("prepared_fe.jsonl", "prepared_sc.jsonl"):
        assert [json.loads(line)["id"] for line in (out / name).read_text().splitlines()] == ["a", "d"]
    drops = json.loads((out / "prepare.manifest.json").read_text())["config"]["drops"]
    assert drops == {"empty": 0, "input_too_long": 0, "target_too_long": 0, "unencodable": 0, "unlinearizable": 2}


def test_a_triplet_a_row_repeats_is_read_once(workspace, tmp_path):
    dp = tmp_path / "datapoints.jsonl"
    write_datapoints(dp, [{"id": "a", "text": "Alpha is linked to Beta.",
                           "triplets": [("Alpha", "linked to", "Beta"), ("Alpha", "linked to", "Beta")]}])
    out = workspace["out"]
    assert run_cli("prepare", "--config", workspace["config"], "--datapoints", dp) == 0
    assert json.loads((out / "prepared_fe.jsonl").read_text(encoding="utf-8"))["target"] == (
        "[s] Alpha [r] linked to [o] Beta [e]")
    assert run_cli("stats", "--config", workspace["config"], "--dataset", dp) == 0
    assert json.loads((out / "relation_stats.json").read_text(encoding="utf-8"))["counts"] == {"linked to": 1}


def run_fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports
    kgsynth from this tree."""
    src = os.path.dirname(os.path.dirname(kgsynth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout


def test_importing_the_cli_loads_no_layer():
    loaded = json.loads(run_fresh_python("import json, sys\nimport kgsynth.cli\nprint(json.dumps(sorted(sys.modules)))"))
    assert not {"numpy", "requests", "kgsynth.kgstore", "kgsynth.decoder.scorers"} & set(loaded)


@pytest.mark.parametrize("command", ["generate", "prepare"])
def test_text_stages_never_load_numpy(command, workspace, tmp_path):
    rows = tmp_path / "rows.jsonl"
    rows.write_text(json.dumps(GOOD_ROW) + "\n", encoding="utf-8")
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions")
    argv = [command, "--config", str(config), "--sets" if command == "generate" else "--datapoints", str(rows)]
    stdout = run_fresh_python(
        "import json, sys\n"
        "import requests\n"
        "class Post:\n"
        "    status_code = 200\n"
        "    def __call__(self, url, json, headers, timeout):\n"
        "        return self\n"
        "    def json(self):\n"
        "        return {'choices': [{'text': 'Alpha is linked to Beta.', 'finish_reason': 'stop'}], 'usage': {}}\n"
        "requests.post = Post()\n"
        "from kgsynth import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules}))\n"
    )
    assert json.loads(stdout.splitlines()[-1]) == {"code": 0, "numpy": False}


@pytest.mark.parametrize("scorer", ["uniform", "subprocess"])
def test_decode_never_loads_numpy(scorer, workspace, tmp_path):
    assert run_cli("ingest", "--config", workspace["config"]) == 0
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    argv = ["decode", "--config", str(workspace["config"]), "--inputs", str(inputs), "--out", str(tmp_path / "d")]
    if scorer == "subprocess":
        script = tmp_path / "scorer.py"
        script.write_text("import json, sys\n"
                          "for line in sys.stdin:\n"
                          "    print(json.dumps({'logprobs': [-1.0] * 257}), flush=True)\n", encoding="utf-8")
        argv += ["--scorer-cmd", f"{sys.executable} {script}"]
    stdout = run_fresh_python(
        "import json, sys\n"
        "from kgsynth import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules}))\n"
    )
    assert json.loads(stdout.splitlines()[-1]) == {"code": 0, "numpy": False}
    assert (tmp_path / "d" / "predictions.jsonl").read_text().count("\n") == 1


DECODER_NAMES = [
    "ByteTokenizer", "CatalogTrie", "ConstraintEngine", "ConstraintError", "ConstraintState",
    "DecodedSequence", "DecodeParams", "DEFAULT_LENGTH_PENALTY", "Scorer", "ScorerError",
    "SubprocessScorer", "Tokenizer", "TrieNode", "UniformScorer", "WordPieceTokenizer",
    "build_trie", "constrained_beam_search",
]


def test_every_decoder_name_imports_from_the_package():
    stdout = run_fresh_python(
        "import json\n"
        "import kgsynth.decoder\n"
        "for name in kgsynth.decoder.__all__:\n"
        "    exec(f'from kgsynth.decoder import {name}')\n"
        "print(json.dumps(kgsynth.decoder.__all__))\n"
    )
    assert sorted(json.loads(stdout)) == sorted(DECODER_NAMES)


def test_every_layer_error_is_a_validation_error():
    from kgsynth import codec, kgstore, pipeline, textgen

    for error in (cli.ConfigError, pipeline.InputError, kgstore.KgError, textgen.TemplateError, codec.CodecError):
        assert issubclass(error, pipeline.ValidationError)
    assert issubclass(pipeline.ValidationError, ValueError)


def layer_default(key):
    """The default of the layer parameter the CLI hands config ``key`` to, or
    ``cli.DEFAULTS``' when no layer owns it (None: it has none)."""
    from kgsynth import metrics, sampler, textgen
    from kgsynth.decoder import DecodeParams

    owners = {"sampler": sampler.SamplerConfig, "decode": DecodeParams, "metrics": metrics.evaluate,
              **dict.fromkeys(("generation.api_key_env", "generation.concurrency", "generation.max_attempts",
                               "generation.backoff_base"), textgen.CompletionClient)}
    owner = owners.get(key) or owners.get(key.partition(".")[0])
    if owner is None:
        return cli.DEFAULTS.get(key)
    assert key not in cli.DEFAULTS  # a default is written in one place
    return inspect.signature(owner).parameters[key.rpartition(".")[2]].default


def test_readme_config_example_lists_every_key_the_cli_reads(tmp_path, caplog):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = tmp_path / "pipeline.yaml"
    example.write_text(readme.split("```yaml\n# pipeline.yaml\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    cfg = cli.load_config(example)  # every value of its key's kind
    assert not caplog.records  # and no key the table lacks
    documented = {f"{name}.{key}": value for name, section in cfg.items() if isinstance(section, dict) for key, value in section.items()}
    documented |= {name: value for name, value in cfg.items() if not isinstance(value, dict)}
    assert set(documented) == set(cli.SETTINGS)
    # every key is set to the default the program applies but those without
    # one, which the example fills in
    defaults = {key: layer_default(key) for key in cli.SETTINGS}
    given = {key for key in cli.SETTINGS if documented[key] != defaults[key]}
    assert given == {"paths.edges", "paths.entity_labels", "paths.relation_labels", "paths.graph",
                     "generation.endpoint", "generation.demonstrations"}
    assert all(defaults[key] is None for key in given)


def test_the_parser_the_readme_and_the_cli_docstring_list_the_same_commands(capsys):
    parser = cli.build_parser()
    (subparsers,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## CLI quickstart", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[1] for line in quickstart.splitlines() if line.startswith("kgsynth ")]
    (listed,) = [line for line in cli.__doc__.splitlines() if line.startswith("Subcommands: ")]
    commands = ["ingest", "sample", "generate", "prepare", "decode", "eval", "stats"]
    assert list(subparsers.choices) == documented == listed.removeprefix("Subcommands: ").rstrip(".").split(", ") == commands
    # a removed command is refused by argparse itself
    with pytest.raises(SystemExit) as exited:
        main(["encode", "--config", "pipeline.yaml", "--datapoints", "datapoints.jsonl"])
    assert exited.value.code == 2
    assert "invalid choice: 'encode'" in capsys.readouterr().err
