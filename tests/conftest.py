import random

import numpy as np
import pytest

from twopoint import build_graph, catalog, complete_graph, cycle_graph


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture
def k2():
    return complete_graph(2)


@pytest.fixture
def petersen():
    return catalog("petersen")


def random_graph(rng: np.random.Generator, n: int, p: float):
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def sampled_graph(seed, n: int, m: int):
    """m of the n(n-1)/2 vertex pairs drawn by random.Random(seed), sorted:
    the draw of the benchmark's random graphs."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(n, sorted(random.Random(seed).sample(pairs, m)))
