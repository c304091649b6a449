import copy

import compare


def result(**metrics):
    entries = {
        name: {"value": value, "unit": "x", "samples": 5, "spread": spread}
        for name, (value, spread) in metrics.items()
    }
    return {
        "stamp": {"cpus": 2, "numpy": True},
        "seed": 1995, "scale": "full", "seconds": 10.0,
        "workloads": {
            "lib_solo": {
                "metrics": entries,
                "ops": {"certified": 1000, "weight": 1, "timed": [50000]},
            }
        },
    }


BASE = dict(
    qps=(7000.0, 0.02), op_p50_ms=(0.140, 0.02), op_p99_ms=(0.300, 0.04),
    pages_per_query=(3.956, None), failed_frac=(0.0, None), setup_s=(1.4, 0.05),
)


def verdicts(a, b):
    return {row[1]: row[5] for row in compare.compare(a, b)}


def test_same_run_twice_is_all_same():
    a = result(**BASE)
    words = verdicts(a, copy.deepcopy(a))
    assert set(words) == set(BASE) and set(words.values()) == {"same"}


def test_direction_and_bound():
    a = result(**BASE)
    table = compare.metric_table()
    bound = table["qps"][2]
    b = result(**{**BASE, "qps": (7000.0 * (1 - 1.2 * bound), 0.02),
                  "op_p50_ms": (0.140 * (1 - 1.2 * table["op_p50_ms"][2]), 0.02)})
    words = verdicts(a, b)
    assert words["qps"] == "worse"          # fewer queries per second
    assert words["op_p50_ms"] == "better"   # lower latency
    b = result(**{**BASE, "qps": (7000.0 * (1 - 0.5 * bound), 0.02)})
    assert verdicts(a, b)["qps"] == "same"  # inside the bound


def test_noise_wider_than_the_bound_is_unresolved_not_same():
    a = result(**{**BASE, "op_p99_ms": (0.300, 0.30)})
    b = result(**{**BASE, "op_p99_ms": (0.345, 0.05)})
    assert verdicts(a, b)["op_p99_ms"] == "unresolved"
    # ... unless the difference clears the noise as well.
    b = result(**{**BASE, "op_p99_ms": (0.450, 0.05)})
    assert verdicts(a, b)["op_p99_ms"] == "worse"


def test_exact_metrics_have_no_tolerance():
    a = result(**BASE)
    b = result(**{**BASE, "pages_per_query": (3.957, None)})
    assert verdicts(a, b)["pages_per_query"] == "worse"
    b = result(**{**BASE, "failed_frac": (0.001, None)})
    assert verdicts(a, b)["failed_frac"] == "worse"
    b = result(**{**BASE, "pages_per_query": (3.9, None)})
    assert verdicts(a, b)["pages_per_query"] == "better"


def test_refuses_results_that_are_not_comparable(capsys, tmp_path):
    a = result(**BASE)
    assert compare.incomparable(a, copy.deepcopy(a)) == []
    for mutate in (
        lambda r: r["stamp"].update(cpus=1),
        lambda r: r["stamp"].update(numpy=False),
        lambda r: r.update(seed=7),
        lambda r: r.update(seconds=5.0),
        lambda r: r["workloads"]["lib_solo"]["ops"].update(certified=200),
    ):
        b = copy.deepcopy(a)
        mutate(b)
        assert compare.incomparable(a, b)
    # Timed op counts follow the speed being measured; they may differ.
    b = copy.deepcopy(a)
    b["workloads"]["lib_solo"]["ops"]["timed"] = [60000]
    assert compare.incomparable(a, b) == []
