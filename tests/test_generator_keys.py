"""Store keys of generated corpus programs.

A program :func:`build_corpus` returned is keyed by one generator digest
plus its uid; every other program keeps the ``repr`` key over its spec
tree. Three contracts:

* **Coverage**: every ``repro`` module the generator imports is hashed
  into :func:`generator_digest`, so a new dependency cannot be left out.
* **Invalidation**: one changed byte in the generator's sources changes
  every text and profile key of the corpus, and warm stores then miss.
* **Fallback**: copies, hand-built specs and programs of families outside
  ``repro.kernels`` keep the ``repr`` key.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dataset.text import program_texts
from repro.gpusim import default_device, profile_corpus
from repro.gpusim import store as profile_store_mod
from repro.gpusim.store import PROFILER_VERSION, ProfileStore, program_profile_key
from repro.kernels import corpus as corpus_mod
from repro.kernels.corpus import build_corpus, generator_digest
from repro.kernels.families import get_family
from repro.store import text as text_store_mod
from repro.store.text import (
    TEXT_VERSION,
    ArtifactCache,
    program_text_key,
    tokenizer_train_key,
)
from repro.tokenizer.bpe import BpeTokenizer
from repro.util.hashing import stable_hash_hex

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def small_corpus():
    return build_corpus(3, 2)


class TestGeneratorKeys:
    def test_generated_programs_key_by_digest_and_uid(self, small_corpus):
        digest = generator_digest()
        for p in small_corpus.programs:
            assert program_text_key(p) == stable_hash_hex(
                TEXT_VERSION, digest, p.uid
            )
            assert program_profile_key(p) == stable_hash_hex(
                PROFILER_VERSION, digest, p.uid
            )

    def test_keys_are_the_same_across_corpus_builds(self, small_corpus):
        bigger = build_corpus(8, 5)
        for p in small_corpus.programs:
            q = bigger.get(p.uid)
            assert q is not p
            assert program_text_key(q) == program_text_key(p)
            assert program_profile_key(q) == program_profile_key(p)

    def test_digest_is_computed_once(self, monkeypatch):
        digest = generator_digest()

        def no_reads(self):
            raise AssertionError("generator sources read twice")

        monkeypatch.setattr(Path, "read_bytes", no_reads)
        assert generator_digest() == digest

    @pytest.mark.parametrize(
        "make_copy",
        [
            lambda p: dataclasses.replace(p),
            copy.deepcopy,
            lambda p: pickle.loads(pickle.dumps(p)),
        ],
        ids=["replace", "deepcopy", "pickle"],
    )
    def test_copies_keep_the_repr_key(self, small_corpus, make_copy):
        p = small_corpus.programs[0]
        q = make_copy(p)
        assert q == p and q is not p
        assert program_text_key(q) == text_store_mod._compute_text_key(q)
        assert program_profile_key(q) == (
            profile_store_mod._compute_program_key(q)
        )
        assert program_text_key(q) != program_text_key(p)

    def test_user_registered_family_keeps_the_repr_key(self, monkeypatch):
        name = build_corpus(1, 0).programs[0].family
        monkeypatch.setattr(get_family(name).build, "__module__", "user_code")
        p = build_corpus(1, 0).programs[0]
        assert p.family == name
        assert program_text_key(p) == text_store_mod._compute_text_key(p)

    def test_dead_programs_leave_the_registry(self):
        corpus = build_corpus(3, 2)
        assert all(corpus_mod.GENERATED.get(p) for p in corpus.programs)
        held, n = len(corpus_mod.GENERATED), len(corpus.programs)
        del corpus
        assert len(corpus_mod.GENERATED) == held - n


def test_digest_covers_every_module_the_generator_imports():
    code = "\n".join([
        "import sys",
        "from pathlib import Path",
        "import repro.kernels.corpus",
        "from repro.kernels.codegen import render_program",
        "from repro.kernels.families import all_families",
        "corpus = repro.kernels.corpus.build_corpus()",
        "for program in corpus.programs:",
        "    render_program(program)",
        "assert {p.family for p in corpus.programs} == set(all_families())",
        "hashed = {p.resolve() for p in repro.kernels.corpus.generator_files()}",
        "for name, module in sorted(sys.modules.items()):",
        "    if name == 'repro' or name.startswith('repro.'):",
        "        path = Path(module.__file__).resolve()",
        "        print(name, path in hashed)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    seen = dict(line.split() for line in proc.stdout.splitlines())
    assert "repro.kernels.families.streaming" in seen
    assert "repro.util.rng" in seen
    assert {name for name, hashed in seen.items() if hashed != "True"} == set()


def _digest_of(root: Path, monkeypatch) -> str:
    """The generator digest of the sources under ``root``; the package's
    own digest memo is left as it was."""
    with monkeypatch.context() as m:
        m.setattr(corpus_mod, "_PACKAGE_ROOT", root)
        m.setattr(corpus_mod, "_DIGEST", None)
        return generator_digest()


class TestOneByteEdit:
    @pytest.fixture()
    def edited_digest(self, tmp_path, monkeypatch):
        """The generator digest over a copy of the sources with one byte
        of a kernel-family file changed."""
        root = tmp_path / "repro"
        shutil.copytree(SRC / "repro", root)
        family_file = root / "kernels" / "families" / "streaming.py"
        data = bytearray(family_file.read_bytes())
        data[-1] ^= 0x01
        family_file.write_bytes(bytes(data))
        digest = _digest_of(root, monkeypatch)
        assert digest != generator_digest()
        return digest

    def test_copy_digests_like_the_package(self, tmp_path, monkeypatch):
        shutil.copytree(SRC / "repro", tmp_path / "repro")
        assert _digest_of(tmp_path / "repro", monkeypatch) == generator_digest()

    def test_every_key_changes_and_warm_stores_miss(
        self, small_corpus, edited_digest, tmp_path, monkeypatch, fresh_memos
    ):
        programs = list(small_corpus.programs)
        device = default_device()
        tokenizer = BpeTokenizer(merges=[("a", "b"), (" ", "f")])
        profiles = ProfileStore(tmp_path / "ps")
        artifacts = ArtifactCache(tmp_path / "ac")
        profile_corpus(small_corpus, device, store=profiles)
        program_texts(programs, tokenizer, cache=artifacts)
        profiles.flush()
        artifacts.flush()

        def keys():
            text = [program_text_key(p) for p in programs]
            profile = [program_profile_key(p) for p in programs]
            return text, profile

        text_keys, profile_keys = keys()
        train_key = tokenizer_train_key(programs, 10)
        # Warm: every entry the passes above wrote is found.
        assert len(profiles.get_profiles(device, profile_keys)) == len(programs)
        assert len(profiles.get_traces(profile_keys)) == len(programs)
        assert len(artifacts.get_sources(text_keys)) == len(programs)
        assert len(artifacts.get_token_counts(
            tokenizer.digest(), text_keys
        )) == len(programs)

        monkeypatch.setattr(corpus_mod, "_DIGEST", edited_digest)
        new_text, new_profile = keys()
        assert not set(new_text) & set(text_keys)
        assert not set(new_profile) & set(profile_keys)
        assert tokenizer_train_key(programs, 10) != train_key
        assert profiles.get_profiles(device, new_profile) == {}
        assert profiles.get_traces(new_profile) == {}
        assert artifacts.get_sources(new_text) == {}
        assert artifacts.get_token_counts(tokenizer.digest(), new_text) == {}
