"""Tests for the worker count and the chunked map."""

import os

import pytest

from lrdcp import _parallel


def _square(x):
    return x * x


class TestWorkerCount:
    @pytest.mark.parametrize("value", ["0", "-3", "many", "1.5"])
    def test_rejects_values_below_one_or_non_integer(self, value, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", value)
        with pytest.raises(ValueError) as excinfo:
            _parallel.worker_count()
        assert str(excinfo.value) == (
            f"LRD_CP_THREADS must be an integer >= 1, got {value!r}"
        )

    def test_explicit_count_is_used(self, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", "3")
        assert _parallel.worker_count() == 3

    def test_default_is_affinity_size(self, monkeypatch):
        monkeypatch.delenv("LRD_CP_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _parallel.worker_count() == 3

    def test_default_without_affinity_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("LRD_CP_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _parallel.worker_count() == 6


class TestChunkedMap:
    def test_pool_preserves_task_order(self, monkeypatch):
        monkeypatch.setenv("LRD_CP_THREADS", "2")
        tasks = list(range(7))
        assert _parallel.chunked_map(_square, tasks) == [t * t for t in tasks]
