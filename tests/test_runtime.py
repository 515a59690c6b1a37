"""Tests for :mod:`repro.runtime`, the process-wide profile store,
artifact cache and fault plan.

Contracts:

* **One instance per env text.** Every lookup in a process returns the
  same env-built store, so a ``deferred()`` block on it batches every put
  the library makes; changing one field's env vars never rebuilds another.
* **Installed beats env.** :func:`repro.runtime.install` overrides a
  field (``None`` turns it off), :func:`repro.runtime.reset` restores the
  env fallback, and the ``set_active_*`` forwards install the same way.
* **One field at a time.** Reading one field parses only that field's
  env vars: a malformed ``$REPRO_FAULT_PLAN`` never breaks a store
  lookup, nor ``repro-paper cache``.
* **Blank is unset.** A blank store env var means "no directory" to the
  library and "the default directory" to the CLI, never a directory named
  by whitespace.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

from repro import runtime
from repro.cli import main
from repro.dataset.text import program_texts
from repro.gpusim import device_for, profile_programs
from repro.gpusim.store import ProfileStore, set_active_profile_store
from repro.kernels.corpus import build_corpus
from repro.roofline.hardware import GPU_DATABASE
from repro.store.text import ArtifactCache, set_active_artifact_cache
from repro.tokenizer.bpe import BpeTokenizer


def _runs(root: Path) -> list[Path]:
    return sorted(root.glob("*.bin")) if root.is_dir() else []


class TestEnvBuiltValues:
    def test_env_stores_are_one_instance_and_defer_every_put(
        self, tmp_path, fresh_memos
    ):
        # The autouse fixture points both store env vars at tmp dirs.
        rt = runtime.current()
        assert rt.profile_store is runtime.current().profile_store
        assert rt.artifact_cache is runtime.current().artifact_cache
        assert rt.profile_store.root == tmp_path / "profile-cache"
        assert rt.artifact_cache.root == tmp_path / "artifact-cache"

        programs = build_corpus(3, 2).programs
        device = device_for(next(iter(GPU_DATABASE.values())))
        tokenizer = BpeTokenizer(merges=[("a", "b"), (" ", "f")])
        roots = (rt.profile_store.root, rt.artifact_cache.root)
        with rt.profile_store.deferred(), rt.artifact_cache.deferred():
            # Both passes look their store up again through the runtime.
            profile_programs(programs, device)
            program_texts(programs, tokenizer)
            assert [_runs(root) for root in roots] == [[], []]
        assert all(_runs(root) for root in roots)

    def test_store_env_change_keeps_the_fault_plan(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=5;torn_write:rate=1")
        plan = runtime.current().fault_plan
        store = runtime.current().profile_store
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "other"))
        rt = runtime.current()
        assert rt.fault_plan is plan
        assert rt.profile_store is not store
        assert rt.profile_store.root == tmp_path / "other"

    def test_a_bad_fault_plan_breaks_only_the_fault_plan(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "junk")
        rt = runtime.current()
        assert rt.profile_store.root == tmp_path / "profile-cache"
        assert rt.artifact_cache.root == tmp_path / "artifact-cache"
        with pytest.raises(ValueError):
            rt.fault_plan
        assert main(["cache"]) == 0
        assert "profile store:" in capsys.readouterr().out

    def test_concurrent_lookups_share_one_instance(self, tmp_path):
        stores: list[int] = []
        caches: list[int] = []
        start = threading.Barrier(16)

        def look():
            start.wait(timeout=10)
            for _ in range(200):
                rt = runtime.current()
                stores.append(id(rt.profile_store))
                caches.append(id(rt.artifact_cache))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=look) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(stores) == len(caches) == 16 * 200
        assert len(set(stores)) == len(set(caches)) == 1


class TestInstall:
    def test_install_overrides_only_named_fields(self, tmp_path):
        store = ProfileStore(tmp_path / "ps")
        runtime.install(profile_store=store)
        rt = runtime.current()
        assert rt.profile_store is store
        assert rt.artifact_cache.root == tmp_path / "artifact-cache"
        runtime.install(profile_store=None)
        assert runtime.current().profile_store is None
        runtime.reset()
        assert runtime.current().profile_store.root == tmp_path / "profile-cache"

    def test_unknown_field_is_rejected(self):
        with pytest.raises(TypeError, match="response_store"):
            runtime.install(response_store=None)

    def test_set_active_forwards_install(self, tmp_path):
        store = ProfileStore(tmp_path / "ps")
        cache = ArtifactCache(tmp_path / "ac")
        set_active_profile_store(store)
        set_active_artifact_cache(cache)
        rt = runtime.current()
        assert rt.profile_store is store
        assert rt.artifact_cache is cache
        set_active_profile_store(None)
        set_active_artifact_cache(None)
        rt = runtime.current()
        assert rt.profile_store is None and rt.artifact_cache is None


class TestBlankEnv:
    @pytest.mark.parametrize("env,label,dirname", [
        ("REPRO_CACHE_DIR", "cache dir", ".repro-cache"),
        ("REPRO_PROFILE_CACHE", "profile store", ".repro-profile-cache"),
        ("REPRO_ARTIFACT_CACHE", "artifact cache", ".repro-artifact-cache"),
    ])
    def test_blank_store_env_reads_as_unset(
        self, env, label, dirname, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(env, "  ")
        # Library: no directory, so no store.
        assert runtime.env_root(env) is None
        assert runtime.env_root(env, dirname) == Path(dirname)
        rt = runtime.current()
        field = {"REPRO_PROFILE_CACHE": rt.profile_store,
                 "REPRO_ARTIFACT_CACHE": rt.artifact_cache}
        assert field.get(env) is None
        # CLI: the default directory, as if the variable were unset.
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert f"{label}: {dirname} (missing; treated as empty)" in out
        assert not (tmp_path / "  ").exists()
