"""Documentation/registry consistency: the docs must not drift.

DESIGN.md's experiment index, EXPERIMENTS.md's sections and the
``benchmarks/`` directory must all agree with the live experiment
registry — a cheap guard against the most common doc-rot failure in
research code.
"""

import pathlib
import re

from repro.bench.experiments import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_design_lists_every_experiment():
    design = (ROOT / "DESIGN.md").read_text()
    for identifier in EXPERIMENTS:
        assert re.search(
            rf"\|\s*{identifier}\s*\|", design
        ), f"{identifier} missing from DESIGN.md's experiment index"


def test_experiments_md_covers_every_experiment():
    recorded = (ROOT / "EXPERIMENTS.md").read_text()
    for identifier in EXPERIMENTS:
        assert f"## {identifier} " in recorded or f"## {identifier}—" in recorded or \
            f"## {identifier} —" in recorded, (
                f"{identifier} has no section in EXPERIMENTS.md"
            )


def test_benchmark_file_exists_per_experiment():
    bench_dir = ROOT / "benchmarks"
    bench_names = {p.name for p in bench_dir.glob("bench_*.py")}
    for identifier in EXPERIMENTS:
        stem = identifier.lower()
        assert any(
            name.startswith(f"bench_{stem}_") for name in bench_names
        ), f"no benchmarks/bench_{stem}_*.py for {identifier}"


def _experiment_ids(pattern, texts):
    return {
        f"E{number}" for text in texts for number in re.findall(pattern, text)
    }


def test_docs_and_files_name_only_registered_experiments():
    """The converse: a section, index row, benchmark file or committed
    baseline for an experiment the registry no longer has is doc rot."""
    named = {
        "EXPERIMENTS.md section": _experiment_ids(
            r"(?m)^## E(\d+)\b", [(ROOT / "EXPERIMENTS.md").read_text()]
        ),
        "DESIGN.md index row": _experiment_ids(
            r"(?m)^\|\s*E(\d+)\s*\|", [(ROOT / "DESIGN.md").read_text()]
        ),
        "benchmarks/ file": _experiment_ids(
            r"^bench_e(\d+)_",
            [p.name for p in (ROOT / "benchmarks").glob("bench_e*.py")],
        ),
        "BENCH_*.json baseline": _experiment_ids(
            r"^BENCH_e(\d+)_", [p.name for p in ROOT.glob("BENCH_e*.json")]
        ),
    }
    for where, identifiers in named.items():
        assert identifiers <= set(EXPERIMENTS), (
            f"{where} names unregistered experiments: "
            f"{sorted(identifiers - set(EXPERIMENTS))}"
        )


def test_stated_experiment_range_matches_the_registry():
    numbers = sorted(int(identifier[1:]) for identifier in EXPERIMENTS)
    assert numbers == list(range(1, numbers[-1] + 1))
    for name in ("README.md", "docs/API.md"):
        stated = re.findall(
            r"E1\s*(?:–|-|\.\.)\s*E(\d+)", (ROOT / name).read_text()
        )
        assert stated, f"{name} no longer states the experiment range"
        for last in stated:
            assert int(last) == numbers[-1], (
                f"{name} says the experiments run E1..E{last}; the "
                f"registry ends at E{numbers[-1]}"
            )


def test_registry_descriptions_are_substantive():
    for experiment in EXPERIMENTS.values():
        assert len(experiment.title) > 10
        assert len(experiment.description) > 30
        assert experiment.paper_ref


def test_readme_mentions_key_documents():
    readme = (ROOT / "README.md").read_text()
    for doc in ("DESIGN.md", "EXPERIMENTS.md", "docs/ALGORITHM.md",
                "docs/API.md", "docs/REPRODUCING.md"):
        assert doc.split("/")[-1] in readme, f"README does not mention {doc}"


def test_the_retired_shard_fork_stays_retired():
    """One wire op, one submit, one merge: the names of the second copy
    of the sharded gather path must not reappear in code or prose."""
    retired = ("submit_batch", "_merge_flat", '"query_batch"')
    files = sorted((ROOT / "docs").glob("*.md"))
    files += sorted((ROOT / "src" / "repro" / "shard").glob("*.py"))
    assert files
    for path in files:
        text = path.read_text()
        for name in retired:
            assert name not in text, (
                f"{path.relative_to(ROOT)} mentions {name}: the sharded "
                f"engine has one query op (a window), one submit per "
                f"handle and one _merge"
            )
