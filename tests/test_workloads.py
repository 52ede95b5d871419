"""The fixed per-dataset query lists in :mod:`repro.testing.workloads`."""

import pytest

from repro.testing.workloads import WORKLOADS, workload


def test_workload_repeats_fixed_list():
    unique = WORKLOADS["artwork"]
    assert workload("artwork", repeats=2) == list(unique) * 2


def test_workload_rejects_unknown_dataset_and_bad_repeats():
    with pytest.raises(KeyError):
        workload("nope")
    with pytest.raises(ValueError):
        workload("artwork", repeats=0)
