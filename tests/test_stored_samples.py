"""Profiled sample sets served whole from the artifact cache.

A warm process reads the paper dataset and every scenario's samples from
the ``samples-`` segment plus the sources segment, and builds neither the
corpus nor the tokenizer. Three contracts:

* **Equality**: a warm read gives the very samples a cold build gave.
* **Invalidation**: one changed byte anywhere in the package (here the
  roofline classifier, which has no version constant) makes the warm
  read miss.
* **Fallback**: a missing or corrupt entry, a missing source, a family
  registered outside ``repro.kernels`` or no cache at all runs the build.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro.dataset as dataset_mod
from repro import runtime
from repro.dataset import paper_dataset
from repro.dataset.build import build_sample, sample_set_key, stored_samples
from repro.dataset.text import program_texts
from repro.eval.matrix import scenario_samples
from repro.gpusim import default_device, device_for
from repro.kernels import corpus as corpus_mod
from repro.kernels.corpus import build_corpus, generator_digest, package_digest
from repro.kernels.families import all_families, get_family
from repro.roofline.hardware import get_gpu
from repro.store.text import ArtifactCache, program_text_key
from repro.tokenizer import pretrained
from repro.tokenizer.bpe import BpeTokenizer

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "ac")


@pytest.fixture()
def small():
    """Five registered corpus programs, their samples' build and a
    counter of its calls."""
    programs = list(build_corpus(3, 2).programs)
    device = default_device()
    tokenizer = BpeTokenizer(merges=[("a", "b"), (" ", "f")])
    calls: list[int] = []

    def build(cache):
        def run():
            calls.append(1)
            texts = program_texts(programs, tokenizer, cache=cache)
            return [
                build_sample(p, device, tokenizer, text=texts[p.uid])
                for p in programs
            ]

        return run

    return programs, device, build, calls


def _forbid_corpus_and_tokenizer(monkeypatch):
    def no_corpus(*args, **kwargs):
        raise AssertionError("a warm read built the corpus")

    def no_tokenizer(*args, **kwargs):
        raise AssertionError("a warm read trained the tokenizer")

    monkeypatch.setattr(corpus_mod, "_default_corpus", None)
    monkeypatch.setattr(corpus_mod, "build_corpus", no_corpus)
    monkeypatch.setattr(pretrained, "_PRETRAINED", None)
    monkeypatch.setattr(pretrained, "train_corpus_tokenizer", no_tokenizer)


class TestWarmStart:
    def test_cold_and_warm_runs_are_equal(
        self, cache, fresh_memos, monkeypatch, capsys
    ):
        from repro.cli import main

        gpus = [get_gpu("V100"), get_gpu("H100")]
        runtime.install(profile_store=None, artifact_cache=cache)
        monkeypatch.setattr(dataset_mod, "_CACHED", None)
        cold = paper_dataset()
        cold_scenarios = [scenario_samples(g) for g in gpus]

        # A new process: no memo, and building the corpus or training the
        # tokenizer fails the test.
        monkeypatch.setattr(dataset_mod, "_CACHED", None)
        fresh_memos()
        _forbid_corpus_and_tokenizer(monkeypatch)
        warm = paper_dataset()
        warm_scenarios = [scenario_samples(g) for g in gpus]

        assert warm == cold
        assert warm.prune_report == cold.prune_report
        assert warm_scenarios == cold_scenarios
        # Every set that holds a program shares one source string.
        by_uid = {s.uid: s.source for s in warm.profiled}
        for sample in warm_scenarios[0]:
            assert sample.source is by_uid[sample.uid]

        assert cache.manifest().count("samples") == 3
        capsys.readouterr()
        assert main(["cache", "--artifact-cache", str(cache.root)]) == 0
        assert "samples:    3" in capsys.readouterr().out

    def test_a_hit_reads_without_building(self, cache, small, fresh_memos):
        programs, device, build, calls = small
        uids = [p.uid for p in programs]
        first = stored_samples(device, uids, build(cache), cache=cache)
        fresh_memos()
        again = stored_samples(device, uids, build(cache), cache=cache)
        assert again == first
        assert len(calls) == 1
        assert cache.manifest().count("samples") == 1

    def test_text_memoized_under_one_cache_reaches_the_next(
        self, tmp_path, small, fresh_memos
    ):
        programs, device, build, calls = small
        uids = [p.uid for p in programs]
        build(ArtifactCache(tmp_path / "a"))()  # memoizes every text
        calls.clear()
        later = ArtifactCache(tmp_path / "b")
        first = stored_samples(device, uids, build(later), cache=later)
        for _ in range(2):
            assert stored_samples(device, uids, build(later), cache=later) == first
        assert len(calls) == 1
        keys = [program_text_key(p) for p in programs]
        assert sorted(later.get_sources(keys)) == sorted(keys)

    def test_subsets_and_devices_key_apart(self, small):
        programs, device, _, _ = small
        uids = [p.uid for p in programs]
        other = get_gpu("H100")
        keys = {
            sample_set_key(device, None),
            sample_set_key(device, uids),
            sample_set_key(device, uids[:-1]),
            sample_set_key(device, uids[::-1]),
            sample_set_key(device_for(other), uids),
        }
        assert len(keys) == 5


class TestOneByteEdit:
    def test_an_edit_to_the_classifier_misses(
        self, cache, small, fresh_memos, tmp_path, monkeypatch
    ):
        programs, device, build, calls = small
        uids = [p.uid for p in programs]
        first = stored_samples(device, uids, build(cache), cache=cache)

        root = tmp_path / "repro"
        shutil.copytree(SRC / "repro", root)
        classifier = root / "roofline" / "classify.py"
        data = bytearray(classifier.read_bytes())
        data[-1] ^= 0x01
        classifier.write_bytes(bytes(data))
        before = package_digest()
        generator_digest()  # source keys keep the package's own digest
        monkeypatch.setattr(corpus_mod, "_PACKAGE_ROOT", root)
        monkeypatch.setattr(corpus_mod, "_PACKAGE_DIGEST", None)
        assert package_digest() != before

        again = stored_samples(device, uids, build(cache), cache=cache)
        assert len(calls) == 2
        assert again == first
        assert cache.manifest().count("samples") == 2


class TestFallback:
    def test_foreign_family_bypasses_the_store(
        self, cache, small, fresh_memos, monkeypatch
    ):
        programs, device, build, calls = small
        name = next(iter(all_families()))
        monkeypatch.setattr(get_family(name).build, "__module__", "user_code")
        for _ in range(2):
            stored_samples(device, None, build(cache), cache=cache)
        assert len(calls) == 2
        assert cache.manifest().count("samples") == 0

    def test_missing_source_runs_the_build(self, cache, small, fresh_memos):
        programs, device, build, calls = small
        uids = [p.uid for p in programs]
        samples = build(None)()
        key = sample_set_key(device, uids)
        cache.put_samples(key, [s.to_dict(include_source=False) for s in samples])
        cache.put_sources(
            {program_text_key(p): s.source for p, s in zip(programs[1:], samples[1:])}
        )
        assert stored_samples(device, uids, build(None), cache=cache) == samples
        assert len(calls) == 2

        # With every source present the same entry serves the set.
        cache.put_sources({program_text_key(programs[0]): samples[0].source})
        assert stored_samples(device, uids, build(None), cache=cache) == samples
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "damage",
        [
            lambda record: {k: v for k, v in record.items() if k != "uid"},
            lambda record: {k: v for k, v in record.items() if k != "label"},
            lambda record: {**record, "label": "sideways"},
            lambda record: {**record, "block": None},
        ],
        ids=["missing-uid", "missing-field", "bad-label", "bad-block"],
    )
    def test_corrupt_entry_runs_the_build_and_is_repaired(
        self, cache, small, fresh_memos, damage
    ):
        programs, device, build, calls = small
        uids = [p.uid for p in programs]
        samples = stored_samples(device, uids, build(cache), cache=cache)
        key = sample_set_key(device, uids)
        records = cache.get_samples(key)
        cache.put_samples(key, [damage(records[0]), *records[1:]])
        assert stored_samples(device, uids, build(cache), cache=cache) == samples
        assert len(calls) == 2
        assert cache.get_samples(key) == records

    def test_no_cache_just_builds(self, small, fresh_memos):
        programs, device, build, calls = small
        for _ in range(2):
            stored_samples(device, None, build(None), cache=None)
        assert len(calls) == 2
