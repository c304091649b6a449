"""The ``python -m repro.obs`` command-line entry points."""

import io
import json

import pytest

from repro import EngineOptions, bulk_load
from repro.core.config import QueryConfig
from repro.datasets.synthetic import uniform_points
from repro.obs.cli import main
from repro.service.engine import QueryEngine

pytestmark = pytest.mark.obs


class TestTraceCommand:
    def test_renders_tree_and_neighbors(self, capsys):
        code = main(
            ["trace", "--n", "300", "--seed", "4", "--k", "3",
             "--point", "500", "500"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("trace:")
        assert "3 nearest neighbors" in out
        assert "payload=" in out

    def test_json_output_is_a_trace_dict(self, capsys):
        code = main(["trace", "--n", "200", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["meta"]["k"] == 5
        assert any(event[0] == "enter" for event in data["events"])

    def test_best_first_algorithm(self, capsys):
        code = main(
            ["trace", "--n", "200", "--algorithm", "best-first", "--k", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "algorithm=best-first" in out


class TestTopCommand:
    def test_reads_engine_dump(self, tmp_path, capsys):
        points = uniform_points(400, seed=6)
        tree = bulk_load(
            [(p, i) for i, p in enumerate(points)], max_entries=8
        )
        path = tmp_path / "slow.jsonl"
        with QueryEngine(
            tree,
            config=QueryConfig(k=4),
            options=EngineOptions(workers=1, slow_query_ms=0.0),
        ) as eng:
            for query in [(10.0, 10.0), (990.0, 990.0)]:
                eng.query(query)
            with open(path, "w") as fp:
                eng.slow_queries.dump_jsonl(fp)
        code = main(["top", str(path), "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 record(s)" in out
        assert "worst 1:" in out

    def test_missing_file_fails_cleanly(self, capsys):
        code = main(["top", "/no/such/file.jsonl"])
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot read" in captured.err

    def test_malformed_log_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        code = main(["top", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "line 1" in captured.err
