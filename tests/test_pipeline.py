import json
import sys
import threading

import pytest

from kgsynth.pipeline import InputError, JsonlSink, jsonl_line, read_jsonl

ROWS = [{"id": "1", "text": "café"}, {"id": "2", "text": "naïve"}]


def test_sink_file_exists_after_a_clean_exit_or_a_first_row(tmp_path):
    with pytest.raises(RuntimeError):
        with JsonlSink(tmp_path / "failed.jsonl"):
            raise RuntimeError("before the first row")
    assert not (tmp_path / "failed.jsonl").exists()

    with JsonlSink(tmp_path / "empty.jsonl") as sink:
        assert list(sink.rows) == []
    assert (tmp_path / "empty.jsonl").read_bytes() == b""

    with pytest.raises(RuntimeError):
        with JsonlSink(tmp_path / "partial.jsonl") as sink:
            sink.append(ROWS[0])
            raise RuntimeError("after the first row")
    assert list(read_jsonl(tmp_path / "partial.jsonl")) == ROWS[:1]


@pytest.mark.parametrize("keep", ["one byte", "half", "inside a character", "all but the newline"])
def test_sink_repairs_a_torn_last_line_while_reading_the_rows(tmp_path, keep):
    path = tmp_path / "rows.jsonl"
    first, second = (jsonl_line(row).encode("utf-8") for row in ROWS)
    cut = {"one byte": 1, "half": len(second) // 2, "inside a character": second.index("ï".encode("utf-8")) + 1,
           "all but the newline": -1}[keep]
    path.write_bytes(first + second[:cut])
    whole = keep == "all but the newline"
    with JsonlSink(path) as sink:
        rows = list(sink.rows)
        assert rows == (ROWS if whole else ROWS[:1])
        assert rows[0].where == f"{path}:1"
        assert path.read_bytes() == (first + second if whole else first)
        if not whole:
            sink.append(ROWS[1])
    assert path.read_bytes() == first + second


def test_sink_stops_at_a_bad_line_with_a_newline(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b"not json\n" + jsonl_line(ROWS[0]).encode("utf-8"))
    with pytest.raises(InputError, match=r"rows\.jsonl:1: not valid JSON"):
        list(JsonlSink(path).rows)
    assert path.read_bytes().startswith(b"not json\n")


def test_jsonl_line_keeps_non_ascii_and_sorts_keys():
    assert jsonl_line({"b": "é", "a": 1}) == json.dumps({"a": 1, "b": "é"}, ensure_ascii=False) + "\n"


def test_sink_appends_whole_lines_from_many_threads(tmp_path):
    path = tmp_path / "rows.jsonl"
    ids = [[f"{k}-{i}" for i in range(200)] for k in range(8)]  # more threads than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with JsonlSink(path) as sink:
            threads = [threading.Thread(target=lambda mine=mine: [sink.append({"id": i, "text": "x" * 300}) for i in mine])
                       for mine in ids]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(row["id"] for row in read_jsonl(path)) == sorted(i for mine in ids for i in mine)


def test_sink_mends_a_torn_last_line_before_the_first_append_even_unread(tmp_path):
    path = tmp_path / "rows.jsonl"
    first, second = (jsonl_line(row).encode("utf-8") for row in ROWS)
    path.write_bytes(first + second[:5])
    with JsonlSink(path) as sink:
        sink.append(ROWS[1])  # rows never iterated
    assert path.read_bytes() == first + second
