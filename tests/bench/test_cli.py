"""Unit tests for the repro-bench command-line interface."""

import pytest

from repro.bench.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("E1", "E4", "E7"):
            assert experiment_id in out


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "E2", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out
        assert "pages" in out
        assert "completed in" in out

    def test_run_markdown(self, capsys):
        assert main(["run", "E2", "--scale", "quick", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "|---" in out

    def test_run_csv(self, capsys):
        assert main(["run", "E2", "--scale", "quick", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "k,DFS pages,best-first pages" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert main(["run", "E2", "--scale", "quick", "-o", str(target)]) == 0
        capsys.readouterr()
        assert target.exists()
        assert "E2" in target.read_text()

    def test_unknown_experiment_raises(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            main(["run", "E42", "--scale", "quick"])

    def test_unknown_scale_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "E1", "--scale", "enormous"])

    def test_json_stamps_provenance(self, capsys):
        import json
        import os

        from repro.packed.batch import NUMPY_AVAILABLE

        assert main(["run", "E2", "--scale", "quick", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        affinity = getattr(os, "sched_getaffinity", None)
        expected_cpus = (
            len(affinity(0)) if affinity is not None else (os.cpu_count() or 1)
        )
        assert document["cpus"] == expected_cpus
        assert document["numpy"] is NUMPY_AVAILABLE
        assert document["experiments"][0]["id"] == "E2"

