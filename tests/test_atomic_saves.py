"""Atomic cache persistence: concurrent saves never corrupt the file.

``Cache.save``, the one save of both the plan and the answer cache,
writes through :func:`repro.core.persist.atomic_write_text` — a temp file
in the target directory renamed into place with ``os.replace`` — so a
reader (or the cache-tier server flushing on a signal racing a drain)
always sees a complete, loadable file, never a half-written one.
"""

from __future__ import annotations

import json
import threading

import pytest
from _caches import key, value

from repro.core.answer_cache import AnswerCache
from repro.core.batch import PlanCache
from repro.core.persist import atomic_write_text


def test_atomic_write_replaces_not_truncates(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    atomic_write_text(path, "new")
    assert path.read_text() == "new"
    # No temp droppings left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_write_failure_leaves_target_and_no_droppings(tmp_path,
                                                             monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old")

    import repro.core.persist as persist

    def exploding_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(persist.os, "replace", exploding_replace)
    with pytest.raises(OSError, match="disk went away"):
        atomic_write_text(path, "new")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_write_creates_parentless_relative_file(tmp_path,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    atomic_write_text("bare.json", "content")
    assert (tmp_path / "bare.json").read_text() == "content"


@pytest.mark.parametrize("make_cache,loader", [
    (lambda i: _filled(PlanCache, i), PlanCache.load),
    (lambda i: _filled(AnswerCache, i), AnswerCache.load),
])
def test_concurrent_saves_to_one_path_always_loadable(tmp_path, make_cache,
                                                      loader):
    """Eight threads hammer save() on one path; every snapshot a reader
    could observe is a complete file in the v1 format."""
    path = tmp_path / "cache.json"
    errors: list[Exception] = []
    start = threading.Barrier(8)

    def writer(worker_id: int) -> None:
        try:
            cache = make_cache(worker_id)
            start.wait()
            for _ in range(10):
                cache.save(path)
                # Read-your-races: whatever is on disk right now must
                # parse and load, whole, from some writer's snapshot.
                payload = json.loads(path.read_text(encoding="utf-8"))
                assert payload["entries"]
                assert len(loader(path)) >= 1
        except Exception as exc:  # noqa: BLE001 - surfaced in the assert
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(n,))
               for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # The winning writer's file is complete; no temp files remain.
    assert len(loader(path)) >= 1
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def _filled(cache_cls, worker_id: int):
    cache = cache_cls(8)
    cache.put(key(cache, f"query {worker_id}"),
              value(cache, f"writer {worker_id}"))
    return cache
