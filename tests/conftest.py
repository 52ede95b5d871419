"""Shared fixtures: generated datasets are session-scoped (generation and
image rendering are the expensive part of the suite)."""

import pytest
from _caches import CACHE_CLASSES

from repro.cachenet import CacheClient, CacheTierServer
from repro.datasets import generate_artwork_dataset, generate_rotowire_dataset


@pytest.fixture(scope="session")
def rotowire_dataset():
    return generate_rotowire_dataset()


@pytest.fixture(scope="session")
def artwork_dataset():
    return generate_artwork_dataset()


@pytest.fixture(scope="session")
def rotowire_lake(rotowire_dataset):
    return rotowire_dataset.as_lake()


@pytest.fixture(scope="session")
def artwork_lake(artwork_dataset):
    return artwork_dataset.as_lake()


@pytest.fixture(scope="session")
def shared_tier():
    server = CacheTierServer(bind="tcp://127.0.0.1:0").start()
    yield server
    server.stop()


@pytest.fixture()
def each_cache(shared_tier):
    """``each_cache(capacity)`` → ``[(label, cache), ...]``: a fresh cache
    of each space, local and in front of the (emptied) shared tier; with
    ``tiered=False`` local ones only."""
    clients = []

    def make(capacity: int | None = None, tiered: bool = True) -> list:
        shared_tier.plans.clear()
        shared_tier.answers.clear()
        caches = []
        for cache_cls in CACHE_CLASSES:
            name = cache_cls.space.name
            caches.append((name, cache_cls(capacity)))
            if tiered:
                clients.append(CacheClient(shared_tier.url))
                caches.append((f"{name}+tier",
                               cache_cls(capacity, tier=clients[-1])))
        return caches

    yield make
    for client in clients:
        client.close()
