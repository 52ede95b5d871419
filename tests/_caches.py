"""Vocabulary for the cache contract tests.

The plan and answer caches are one structure (``repro.core.cache.Cache``)
over two spaces, so their LRU contract is tested once, over both spaces —
and, where a test is about counting or eviction, both locally and in
front of a cache tier (the ``each_cache`` fixture in ``conftest.py``).
The helpers speak a cache's own space: a key or value told apart by a
tag.
"""

from repro.core.answer_cache import AnswerCache
from repro.core.batch import PlanCache
from repro.core.plan import BoundPlan, LogicalPlan, LogicalStep

CACHE_CLASSES = (PlanCache, AnswerCache)


def key(cache, tag: str, fingerprint: str = "fp") -> tuple:
    """A key of *cache*'s space told apart by *tag*."""
    if cache.space.name == "plan":
        return (tag, fingerprint)
    return (fingerprint, tag, "int")


def value(cache, tag: str) -> object:
    """A value of *cache*'s space told apart by *tag*."""
    if cache.space.name == "plan":
        return BoundPlan(LogicalPlan(
            steps=[LogicalStep(index=1, description=tag, inputs=["t"],
                               output="out")],
            thought=tag))
    return tag
