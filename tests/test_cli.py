import json
import os
import random
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests
import yaml

import kgsynth
from kgsynth import cli, codec
from kgsynth.cli import main

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
        "decode": {"num_beams": 2, "max_length": 120, "top_k_returned": 1},
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
    for data in (good[: len(good) // 2], nested.encode()):  # a torn write, the nested-list layout
        graph_path.write_bytes(data)
        capsys.readouterr()
        assert run_cli("sample", "--config", workspace["config"], "--n", 5, "--out", tmp_path / "s") == 1
        assert str(graph_path) in capsys.readouterr().err
        assert run_cli("decode", "--config", workspace["config"], "--inputs", inputs, "--out", tmp_path / "d") == 1
        assert str(graph_path) in capsys.readouterr().err


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


def test_encode_and_prepare(workspace, tmp_path):
    dp = tmp_path / "datapoints.jsonl"
    write_datapoints(
        dp,
        [
            {"id": "a", "text": "Alpha is linked to Beta.", "triplets": [("Alpha", "linked to", "Beta")]},
            {"id": "b", "text": "x" * 600, "triplets": [("Alpha", "part of", "Gamma")]},
            {"id": "c", "text": "ok", "triplets": []},
        ],
    )
    assert run_cli("encode", "--config", workspace["config"], "--datapoints", dp) == 0
    encoded = [json.loads(l) for l in (workspace["out"] / "encoded_fe.jsonl").read_text().splitlines()]
    assert encoded[0]["linearized"].startswith("[s] Alpha [r] linked to [o] Beta [e]")

    assert run_cli("prepare", "--config", workspace["config"], "--datapoints", dp) == 0
    fe_rows = [json.loads(l) for l in (workspace["out"] / "prepared_fe.jsonl").read_text().splitlines()]
    sc_rows = [json.loads(l) for l in (workspace["out"] / "prepared_sc.jsonl").read_text().splitlines()]
    assert [r["id"] for r in fe_rows] == ["a"]  # long text and empty triplets dropped
    assert [r["id"] for r in sc_rows] == [r["id"] for r in fe_rows]
    manifest = json.loads((workspace["out"] / "prepare.manifest.json").read_text())
    assert manifest["config"]["drops"] == {"empty": 1, "input_too_long": 1, "target_too_long": 0, "unencodable": 0,
                                          "unlinearizable": 0}


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


def test_eval_report_is_byte_identical_across_hash_seeds(workspace, tmp_path):
    # many relations with uneven scores, so the macro sums depend on their order
    rng = random.Random(4)
    gold_rows, pred_rows = [], []
    for d in range(60):
        gold_t = {(f"e{rng.randrange(9)}", f"relation {rng.randrange(25)}", f"e{rng.randrange(9)}") for _ in range(4)}
        pred_t = {t for t in gold_t if rng.random() < 0.7}
        pred_t |= {(f"e{rng.randrange(9)}", f"relation {rng.randrange(25)}", f"e{rng.randrange(9)}") for _ in range(2)}
        gold_rows.append({"id": str(d), "text": "", "triplets": sorted(gold_t)})
        pred_rows.append({"id": str(d), "text": "", "triplets": sorted(pred_t)})
    gold, preds = tmp_path / "gold.jsonl", tmp_path / "preds.jsonl"
    write_datapoints(gold, gold_rows)
    write_datapoints(preds, pred_rows)
    src = os.path.dirname(os.path.dirname(kgsynth.__file__))
    reports = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-m", "kgsynth.cli", "eval", "--config", str(workspace["config"]),
             "--predictions", str(preds), "--gold", str(gold), "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        reports.append((out / "eval_report.json").read_bytes())
    assert reports[0] == reports[1]


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
    assert run_cli(
        "decode", "--config", workspace["config"], "--inputs", inputs,
        "--scorer-cmd", f"{sys.executable} {scorer}",
    ) == 0
    rows = [json.loads(l) for l in (workspace["out"] / "predictions.jsonl").read_text().splitlines()]
    assert rows[0]["triplets"]


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
        parsed = codec.parse(row["linearized"], codec.LinearizationSchema(), labels, {"linked to ", "part of"})
        assert row["triplets"] and not parsed.dropped_unresolvable and not parsed.dropped_fragments
        assert row["triplets"] == [{"s": s, "r": r, "o": o} for s, r, o in parsed.triplets]


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


@pytest.mark.parametrize("key, value", [("sampler.poisson_mean", -1), ("decode.num_beams", 0), ("decode.num_beams", "ten")])
def test_config_value_a_layer_rejects_exits_1(key, value, workspace, tmp_path, capsys):
    run_cli("ingest", "--config", workspace["config"])
    section, name = key.split(".")
    cfg = dict(workspace["raw"], **{section: dict(workspace["raw"][section], **{name: value})})
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    inputs = tmp_path / "inputs.jsonl"
    inputs.write_text(json.dumps({"id": "q1", "text": "some context"}) + "\n", encoding="utf-8")
    argv = ["sample", "--n", 5] if section == "sampler" else ["decode", "--inputs", inputs]
    capsys.readouterr()
    assert run_cli(argv[0], "--config", config, *argv[1:], "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "runtime error" not in err


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


def test_unknown_tokenizer_is_validation_error(workspace, tmp_path):
    cfg = dict(workspace["raw"], tokenizer="quantum")
    path = tmp_path / "bad_tok.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    dp = tmp_path / "dp.jsonl"
    write_datapoints(dp, [{"id": "a", "text": "t", "triplets": [("Alpha", "linked to", "Beta")]}])
    assert run_cli("prepare", "--config", path, "--datapoints", dp) == 1


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
    "generate": ("--sets", {"sets"}, False),
    "prepare": ("--datapoints", {"datapoints"}, False),
    "encode": ("--datapoints", {"datapoints"}, False),
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
        "encode": ["--datapoints", out / "datapoints.jsonl"],
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

    missing = tmp_path / "missing" / "file"
    if missing_input.startswith("--"):
        argv = list(argv)
        argv[argv.index(missing_input) + 1] = missing
    else:
        cfg = yaml.safe_load(config.read_text(encoding="utf-8"))
        cfg["paths"][missing_input.split(".")[1]] = str(missing)
        config = tmp_path / "missing.yaml"
        config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(command, "--config", config, *argv) == 1
    err = capsys.readouterr().err
    assert f"{missing_input}: file not found: {missing}" in err


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


@pytest.mark.parametrize("bad_line", ["linked to 40", "linked to\t40\tmore", "linked to\tmany"])
def test_malformed_train_counts_line_is_validation_error(workspace, tmp_path, capsys, bad_line):
    row = {"id": "1", "text": "", "triplets": [("Alpha", "linked to", "Beta")]}
    preds, gold = eval_files(tmp_path, [row], [row])
    train_counts = tmp_path / "train_counts.tsv"
    train_counts.write_text(f"part of\t1\n{bad_line}\n", encoding="utf-8")
    assert run_cli("eval", "--config", workspace["config"], "--predictions", preds, "--gold", gold,
                   "--train-counts", train_counts) == 1
    assert f"{train_counts}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("repeated", ["predictions", "gold"])
def test_repeated_eval_id_is_validation_error(workspace, tmp_path, capsys, repeated):
    row = {"id": "1", "text": "", "triplets": [("Alpha", "linked to", "Beta")]}
    rows = {"predictions": [row], "gold": [row]}
    rows[repeated] = [row, {"id": "1", "text": "", "triplets": []}]  # the later row used to win silently
    preds, gold = eval_files(tmp_path, rows["predictions"], rows["gold"])
    assert run_cli("eval", "--config", workspace["config"], "--predictions", preds, "--gold", gold) == 1
    err = capsys.readouterr().err
    assert "'1'" in err and str(preds if repeated == "predictions" else gold) in err
    assert not (workspace["out"] / "eval_report.json").exists()


GOOD_ROW = {"id": "0", "text": "Alpha is linked to Beta.", "triplets": [{"s": "Alpha", "r": "linked to", "o": "Beta"}]}
# per subcommand: the flag naming the file that holds the bad row
ROW_INPUT = {"generate": "--sets", "prepare": "--datapoints", "encode": "--datapoints", "decode": "--inputs",
             "eval": "--gold", "stats": "--dataset"}


def run_on_bad_row(command, bad_row, workspace, tmp_path, capsys):
    """Run ``command`` on a file whose second row is ``bad_row``, with every
    other input good; return the exit code, the file and standard error."""
    config = generation_config(workspace, tmp_path, "http://127.0.0.1:9/v1/completions")
    if command == "decode":
        assert run_cli("ingest", "--config", config) == 0
    rows = tmp_path / "rows.jsonl"
    rows.write_text(json.dumps(GOOD_ROW) + "\n" + json.dumps(bad_row) + "\n", encoding="utf-8")
    argv = [ROW_INPUT[command], rows]
    if command == "eval":
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps(GOOD_ROW) + "\n", encoding="utf-8")
        argv += ["--predictions", preds]
    capsys.readouterr()
    code = run_cli(command, "--config", config, *argv)
    return code, rows, capsys.readouterr().err


@pytest.mark.parametrize("command, bad_row, key", [
    pytest.param(command, bad_row, key, id=f"{command}-{key}")
    for command in sorted(ROW_INPUT)
    for bad_row, key in (({"text": "Gamma is part of Delta."}, "id"), ({"id": "a", "triplets": [{"s": "Alpha"}]}, "r"))
    # decode reads no triplets, stats no ids
    if (command, key) not in (("decode", "r"), ("stats", "id"))
])
def test_row_without_a_key_is_validation_error(command, bad_row, key, workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(requests, "post", ConstantPost())
    searched = []
    search = cli.constrained_beam_search
    monkeypatch.setattr(cli, "constrained_beam_search", lambda scorer, context, *args: (
        searched.append(context), search(scorer, context, *args))[1])
    code, rows, err = run_on_bad_row(command, bad_row, workspace, tmp_path, capsys)
    assert code == 1
    assert f"{rows}:2: missing key '{key}'" in err
    assert searched == ([GOOD_ROW["text"]] if command == "decode" else [])  # the bad row is never searched


@pytest.mark.parametrize("label", [1, ["Alpha"], None], ids=["int", "list", "null"])
@pytest.mark.parametrize("command", sorted(set(ROW_INPUT) - {"decode"}))  # decode reads no triplets
def test_triplet_label_that_is_not_a_string_is_validation_error(command, label, workspace, tmp_path, monkeypatch, capsys):
    post = CountingPost()
    monkeypatch.setattr(requests, "post", post)
    bad_row = {"id": "a", "text": "Alpha x Beta", "triplets": [{"s": "Alpha", "r": "x", "o": label}]}
    code, rows, err = run_on_bad_row(command, bad_row, workspace, tmp_path, capsys)
    assert code == 1
    assert f"{rows}:2: triplet key 'o' must be a string, got {json.dumps(label)}" in err
    assert post.bodies == []


BAD_UTF8_LINE = {
    "datapoints": b'{"id": "2", "text": "caf\xff", "triplets": []}\n',
    "train_counts": b"caf\xff\t3\n",
    "config": b"# caf\xff\n",
}


@pytest.mark.parametrize("bad_file", sorted(BAD_UTF8_LINE))
def test_input_that_is_not_utf8_is_validation_error(bad_file, workspace, tmp_path, capsys):
    row = {"id": "1", "text": "", "triplets": [("Alpha", "linked to", "Beta")]}
    preds, gold = eval_files(tmp_path, [row], [row])
    train_counts = tmp_path / "train_counts.tsv"
    train_counts.write_text("linked to\t40\n", encoding="utf-8")
    path = {"datapoints": gold, "train_counts": train_counts, "config": workspace["config"]}[bad_file]
    with open(path, "ab") as fh:
        fh.write(BAD_UTF8_LINE[bad_file])
    if bad_file == "train_counts":
        argv = ["eval", "--predictions", preds, "--gold", gold, "--train-counts", train_counts]
    else:
        argv = ["prepare", "--datapoints", gold]
    assert run_cli(*argv, "--config", workspace["config"]) == 1
    err = capsys.readouterr().err
    where = str(path) if bad_file == "config" else f"{path}:2"
    assert f"{where}: not UTF-8" in err


class CountingPost(ConstantPost):
    """``ConstantPost`` that keeps the body of every request it answers."""

    def __init__(self):
        self.bodies = []

    def __call__(self, url, json, headers, timeout):
        self.bodies.append(json)
        return self


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


@pytest.mark.parametrize("failure, message", [
    ("exits", "scorer process closed its output and exited with status 3"),
    ("nan", "scorer returned non-finite log-probabilities"),
    ("short", "scorer returned 3 values, expected 257"),
    ("garbled", """scorer reply b'{"scores": []}' is not {"logprobs": [...]}"""),
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

    assert run_cli("encode", "--config", workspace["config"], "--datapoints", dp) == 0
    assert [json.loads(line)["id"] for line in (out / "encoded_fe.jsonl").read_text().splitlines()] == ["a", "d"]
    assert json.loads((out / "encode.manifest.json").read_text())["config"]["unlinearizable"] == 2


def run_fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports
    kgsynth from this tree."""
    src = os.path.dirname(os.path.dirname(kgsynth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True).stdout


def test_importing_the_cli_loads_no_layer():
    loaded = json.loads(run_fresh_python("import json, sys\nimport kgsynth.cli\nprint(json.dumps(sorted(sys.modules)))"))
    assert not {"numpy", "requests", "kgsynth.kgstore", "kgsynth.decoder.scorers"} & set(loaded)


@pytest.mark.parametrize("command", ["generate", "prepare", "encode"])
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


DECODER_NAMES = [
    "AdversarialScorer", "ByteTokenizer", "CatalogTrie", "ConstraintEngine", "ConstraintError", "ConstraintState",
    "DecodedSequence", "DecodeParams", "DEFAULT_LENGTH_PENALTY", "OracleScorer", "Scorer", "ScorerError",
    "SubprocessScorer", "Tokenizer", "TrieNode", "UnencodableText", "UniformScorer", "WordPieceTokenizer",
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
