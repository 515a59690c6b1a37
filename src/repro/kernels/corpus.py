"""Corpus assembly: the reproduction's stand-in for HeCBench.

The paper builds and profiles 446 CUDA and 303 OpenMP-offload programs
(§2.1). We enumerate (family, variant) pairs over the ~90 registered
families in deterministic registration order, cycling variants until the
target counts are met — families therefore get 4-5 CUDA variants and 3-4 OMP
variants each, mirroring HeCBench's uneven per-benchmark coverage.

Every program :func:`build_corpus` returns is a pure function of its
``(family, variant, language)`` — which its uid names — and of the
generator's code. So the stores address such a program by
:func:`generated_program_key`: one SHA-256 over a store version, the
:func:`generator_digest` (numpy's version and the bytes of every module
the generator runs, hashed once per process) and the uid, instead of a
``repr`` walk of its spec tree. Any edit to the generator changes the
digest, so every key changes with it and a stale entry can only read as
a miss. A stored sample set (:func:`repro.dataset.build.sample_set_key`)
hashes :func:`package_digest` instead: every module of the package, since
profiling, labelling and token counting shape a sample too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy

from repro.kernels.families import (
    FamilySpec,
    all_families,
    families_for,
    get_family,
)
from repro.kernels.program import ProgramSpec
from repro.types import Language
from repro.util.hashing import stable_hash_hex
from repro.util.memo import IdentityMemo

#: Paper §2.1 corpus sizes.
DEFAULT_CUDA_COUNT = 446
DEFAULT_OMP_COUNT = 303


@dataclass(frozen=True)
class Corpus:
    """The full generated benchmark suite."""

    programs: tuple[ProgramSpec, ...]
    #: uid → program index, built once at construction so :meth:`get` is a
    #: dict lookup rather than a per-call scan of all 749 programs.
    _by_uid: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        index = {p.uid: p for p in self.programs}
        object.__setattr__(self, "_by_uid", index)

    def by_language(self, language: Language) -> list[ProgramSpec]:
        return [p for p in self.programs if p.language is language]

    def by_family(self, family: str) -> list[ProgramSpec]:
        return [p for p in self.programs if p.family == family]

    def get(self, uid: str) -> ProgramSpec:
        try:
            return self._by_uid[uid]
        except KeyError:
            raise KeyError(f"no program with uid {uid!r}") from None

    def __len__(self) -> int:
        return len(self.programs)


def _enumerate(language: Language, count: int) -> list[ProgramSpec]:
    fams = families_for(language)
    if not fams:
        raise RuntimeError("no families registered")
    out: list[ProgramSpec] = []
    variant = 0
    while len(out) < count:
        for fam in fams:
            if len(out) >= count:
                break
            out.append(fam.build(variant, language))
        variant += 1
        if variant > 64:  # pragma: no cover - runaway guard
            raise RuntimeError("variant enumeration did not converge")
    return out


def build_corpus(
    cuda_count: int = DEFAULT_CUDA_COUNT,
    omp_count: int = DEFAULT_OMP_COUNT,
) -> Corpus:
    """Build the full two-language corpus.

    Deterministic: same counts → bit-identical corpus, across runs and
    machines.
    """
    if cuda_count < 0 or omp_count < 0:
        raise ValueError("corpus counts must be non-negative")
    programs = _enumerate(Language.CUDA, cuda_count) + _enumerate(
        Language.OMP, omp_count
    )
    uids = [p.uid for p in programs]
    if len(uids) != len(set(uids)):
        dupes = sorted({u for u in uids if uids.count(u) > 1})
        raise RuntimeError(f"duplicate program uids in corpus: {dupes[:5]}")
    _register(programs)
    return Corpus(programs=tuple(programs))


_default_corpus: Corpus | None = None


def default_corpus() -> Corpus:
    """The paper-sized corpus, built once per process."""
    global _default_corpus
    if _default_corpus is None:
        _default_corpus = build_corpus()
    return _default_corpus


# ---------------------------------------------------------------------------
# Generator keys
# ---------------------------------------------------------------------------

#: The ``repro`` package directory: the root the generator's files are
#: listed from.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: The modules outside ``kernels/`` that the generator runs, relative to
#: the package root: the package inits it passes through, the RNG streams
#: and the hashing under them, the shared enums, and the memo that
#: registers the generated programs.
_GENERATOR_MODULES = (
    "__init__.py",
    "types.py",
    "util/__init__.py",
    "util/hashing.py",
    "util/memo.py",
    "util/rng.py",
)

#: Every program :func:`build_corpus` returned that is still alive.
GENERATED = IdentityMemo()

_DIGEST: str | None = None
_PACKAGE_DIGEST: str | None = None


def _py_files(directory: Path) -> list[Path]:
    """Every ``*.py`` under ``directory``, in package-relative path order."""
    return sorted(directory.rglob("*.py"), key=_relative)


def _relative(path: Path) -> str:
    return path.relative_to(_PACKAGE_ROOT).as_posix()


def _files_digest(files: list[Path]) -> str:
    """SHA-256 over numpy's version and the relative path and bytes of
    every file of ``files``."""
    return stable_hash_hex(
        numpy.__version__,
        [(_relative(path), path.read_bytes()) for path in files],
    )


def generator_files() -> list[Path]:
    """Every source file the corpus generator runs, codegen included, in
    the order :func:`generator_digest` hashes them."""
    return [_PACKAGE_ROOT / name for name in _GENERATOR_MODULES] + _py_files(
        _PACKAGE_ROOT / "kernels"
    )


def generator_digest() -> str:
    """SHA-256 over numpy's version (its ``PCG64`` streams draw every
    variant) and the relative path and bytes of every file of
    :func:`generator_files`. Computed once per process."""
    global _DIGEST
    if _DIGEST is None:
        _DIGEST = _files_digest(generator_files())
    return _DIGEST


def package_digest() -> str:
    """SHA-256 over numpy's version and the relative path and bytes of
    every ``repro/**/*.py``. Computed once per process.

    A profiled sample folds together the generator, the profiler, the
    roofline classifier, the tokenizer trainer and its counter, and not
    all of them carry a version constant; so a stored sample set is keyed
    by the whole package, and any edit to it reads as a miss."""
    global _PACKAGE_DIGEST
    if _PACKAGE_DIGEST is None:
        _PACKAGE_DIGEST = _files_digest(_py_files(_PACKAGE_ROOT))
    return _PACKAGE_DIGEST


def _register(programs: list[ProgramSpec]) -> None:
    """Mark ``programs`` as generated. A program whose family builder
    lives outside ``repro.kernels`` (a family registered by user code) is
    not: :func:`generator_digest` does not hash that code."""
    for program in programs:
        if not _in_package(get_family(program.family)):
            continue
        GENERATED.put(program, value=True)


def generated_program_key(program: ProgramSpec, version: str) -> str | None:
    """``program``'s store key under ``version`` if :func:`build_corpus`
    returned this very object, else ``None``.

    A copy (``dataclasses.replace``, a pickle round trip) or a hand-built
    spec is not registered, so its caller falls back to a key over the
    spec's own content.
    """
    if not GENERATED.get(program):
        return None
    return generated_uid_key(program.uid, version)


def generated_uid_key(uid: str, version: str) -> str:
    """The store key under ``version`` of the corpus program named
    ``uid``: what :func:`generated_program_key` returns for it, without
    building the program."""
    return stable_hash_hex(version, generator_digest(), uid)


def generated_families_only() -> bool:
    """Whether every registered family's builder lives in
    ``repro.kernels``, so :func:`generator_digest` covers the default
    corpus."""
    return all(map(_in_package, all_families().values()))


def _in_package(family: FamilySpec) -> bool:
    """Whether ``family``'s builder is code of ``repro.kernels``."""
    return family.build.__module__.startswith("repro.kernels.")
