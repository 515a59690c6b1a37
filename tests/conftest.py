"""Shared fixtures.

The paper-sized dataset pipeline costs a few seconds to build; it is
session-scoped and shared across test modules. Smaller fixtures (mini
corpus, single programs) are derived cheaply.
"""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _isolated_response_cache(tmp_path, monkeypatch):
    """Keep CLI/default disk caches out of the working tree during tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "response-cache"))
    monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "profile-cache"))
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "artifact-cache"))
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    # CLI invocations install process-wide stores (and maybe a fault
    # plan); forget them so each test sees only its own environment.
    from repro import runtime

    runtime.reset()
    yield
    runtime.reset()


#: The process-wide memo tables a test may need empty, as (module, name).
_MEMO_TABLES = (
    ("repro.gpusim.profiler", "PROFILE_BATCHES"),
    ("repro.gpusim.profiler", "TRACES"),
    ("repro.dataset.text", "SOURCES"),
    ("repro.dataset.text", "COUNTS"),
    ("repro.dataset.text", "KEYED_SOURCES"),
    ("repro.eval.matrix", "SCENARIOS"),
    ("repro.llm.reasoner", "ANALYSES"),
    ("repro.llm.reasoner", "DRAWS"),
)


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty memo tables for one test, so every pass does (and stores)
    its work; the session's warm tables come back afterwards. Calling the
    fixture's value empties them again, as a new process finds them."""
    import importlib

    from repro.util.memo import IdentityMemo, Memo

    tables = []
    for module_name, name in _MEMO_TABLES:
        module = importlib.import_module(module_name)
        table = getattr(module, name)
        fresh = Memo(table.cap) if isinstance(table, Memo) else IdentityMemo()
        monkeypatch.setattr(module, name, fresh)
        tables.append(fresh)

    def clear() -> None:
        for table in tables:
            table.clear()

    return clear


@pytest.fixture
def run_holding():
    """``run_holding(store, key, prefix="")``: the run file holding entry
    ``key`` (the newest, when several runs hold it).

    Stores write immutable runs named by a content digest, so a test that
    damages, ages or deletes "the segment holding a key" targets this
    file."""
    from repro.store.base import _segment_view

    def find(store, key, prefix=""):
        store.flush()
        holders = [
            path
            for path in store._segment_files()
            if path.name.startswith(prefix)
            and (view := _segment_view(path)) is not None
            and key in view.keys()
        ]
        assert holders, f"no run holds {key!r}"
        return max(holders, key=lambda path: path.stat().st_mtime_ns)

    return find


@pytest.fixture(scope="session")
def dataset():
    """The full paper dataset pipeline (built once per test session)."""
    from repro.dataset import paper_dataset

    return paper_dataset()


@pytest.fixture(scope="session")
def corpus():
    """The full 749-program corpus."""
    from repro.kernels.corpus import default_corpus

    return default_corpus()


@pytest.fixture(scope="session")
def mini_corpus():
    """A small corpus for fast structural tests."""
    from repro.kernels.corpus import build_corpus

    return build_corpus(30, 20)


@pytest.fixture(scope="session")
def tokenizer():
    from repro.tokenizer import corpus_tokenizer

    return corpus_tokenizer()


@pytest.fixture(scope="session")
def device():
    from repro.gpusim import default_device

    return default_device()


@pytest.fixture(scope="session")
def balanced_samples(dataset):
    return list(dataset.balanced)
