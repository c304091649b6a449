"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Sequence, Tuple

import os

import pytest
from hypothesis import settings

from repro import RTree, bulk_load
from repro.core.neighbors import Neighbor
from repro.datasets import gaussian_clusters, uniform_points


# Hypothesis effort profiles: default keeps the suite fast; set
# REPRO_HYPOTHESIS_PROFILE=thorough for a deeper soak (e.g. nightly runs).
settings.register_profile("default", deadline=None)
settings.register_profile("thorough", deadline=None, max_examples=500)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))


def assert_same_distances(
    actual: Sequence[Neighbor],
    expected: Sequence[Neighbor],
    tolerance: float = 1e-9,
) -> None:
    """Two k-NN answers agree if their distance sequences agree.

    Payloads may legitimately differ under exact ties, so correctness is
    defined on distances (which is also how the paper defines the result).
    """
    assert len(actual) == len(expected), (
        f"result sizes differ: {len(actual)} vs {len(expected)}"
    )
    for i, (a, e) in enumerate(zip(actual, expected)):
        assert abs(a.distance - e.distance) <= tolerance, (
            f"distance #{i} differs: {a.distance} vs {e.distance}"
        )


def build_point_tree(
    points: Sequence[Sequence[float]],
    max_entries: int = 8,
    **kwargs,
) -> RTree:
    """Insert points one by one into a fresh tree, payload = index."""
    tree = RTree(max_entries=max_entries, **kwargs)
    for i, p in enumerate(points):
        tree.insert(p, payload=i)
    return tree


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBEEF)


@pytest.fixture
def small_points() -> List[Tuple[float, float]]:
    """100 uniform points — enough to force several node splits."""
    return uniform_points(100, seed=11)


@pytest.fixture
def medium_points() -> List[Tuple[float, float]]:
    """1500 uniform points — a tree of height >= 3 at fanout 8."""
    return uniform_points(1500, seed=12)


@pytest.fixture
def clustered_points() -> List[Tuple[float, float]]:
    return gaussian_clusters(800, seed=13)


@pytest.fixture
def small_tree(small_points) -> RTree:
    return build_point_tree(small_points)


@pytest.fixture
def medium_tree(medium_points) -> RTree:
    return build_point_tree(medium_points)


@pytest.fixture
def bulk_tree(medium_points) -> RTree:
    return bulk_load(
        [(p, i) for i, p in enumerate(medium_points)], max_entries=16
    )


@pytest.fixture
def kernel_clock(monkeypatch):
    """Pin the packed best-first kernel's warm/cold gate for one test.

    ``kernel_clock("warm")`` makes every query look as if the previous
    one finished an instant ago; ``kernel_clock("cold")`` makes every
    query arrive a second after the last.  Engines with process shards
    must be built *after* the call: fork copies the patched clock.
    """
    from repro.packed import kernels

    def _set(mode: str) -> None:
        if mode == "warm":
            monkeypatch.setattr(kernels, "_clock", lambda: 0.0)
            monkeypatch.setattr(kernels, "_last_done", 0.0)
        elif mode == "cold":
            monkeypatch.setattr(
                kernels, "_clock", itertools.count(0.0, 1.0).__next__
            )
            monkeypatch.setattr(kernels, "_last_done", -math.inf)
        else:
            raise ValueError(mode)

    return _set
