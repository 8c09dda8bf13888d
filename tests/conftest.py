import random

import pytest

from covertree import graph_core


@pytest.fixture(scope="session")
def k4():
    return graph_core.generate("complete", 4)


@pytest.fixture(scope="session")
def petersen():
    return graph_core.generate("petersen")


@pytest.fixture(scope="session")
def k33():
    return graph_core.generate("complete_bipartite", 3, 3)


@pytest.fixture(scope="session")
def k34():
    return graph_core.generate("complete_bipartite", 3, 4)


@pytest.fixture(scope="session")
def k23():
    return graph_core.generate("complete_bipartite", 2, 3)


@pytest.fixture(scope="session")
def seeded_cubic():
    """Factory for cubic graphs: ``cycle_with_chords`` on n (even) vertices
    plus a seeded perfect chord matching, redrawn until the graph is simple."""
    def build(n, seed):
        rng = random.Random(seed)
        while True:
            ends = list(range(n))
            rng.shuffle(ends)
            chords = list(zip(ends[::2], ends[1::2]))
            if not any((u - v) % n in (1, n - 1) for u, v in chords):
                return graph_core.generate("cycle_with_chords", n,
                                           *[x for chord in chords for x in chord])
    return build
