"""Persistent, content-addressed text artifacts: tokenizers and renders.

With completions replayed from the response cache and kernel profiles
served by the profile store, a cold ``paper_dataset()`` spends nearly all
of its remaining time *re-deriving deterministic text*: training the BPE
tokenizer and rendering/token-counting every program. Both are pure
functions of versioned inputs, so both persist in one
:class:`ArtifactCache` (``--artifact-cache`` /
``$REPRO_ARTIFACT_CACHE``), an :class:`~repro.store.base.ArtifactStore`
with four segment kinds under one root and one size bound:

* **tokenizers** — learned BPE merge lists, keyed by SHA-256 over the
  **training-text digests** (the :func:`program_text_key` of every
  sampled training program — each of which already pins the codegen
  semantics via :data:`TEXT_VERSION`), the merge budget, and the
  tokenizer version. A warm cache means a cold process trains **zero**
  tokenizers — and never renders the training sample either, because the
  key derives from the render *inputs*, not the rendered bytes.
* **sources** — one tokenizer-independent segment (program text key →
  concatenated source), like the profile store's device-independent
  traces;
* **token counts** — one segment per tokenizer digest (program text key →
  token count), like per-device profiles. A 6-device matrix sweep
  token-counts each program once, and a warm cache renders and counts
  **nothing**;
* **samples** — one entry per profiled sample set (device × uid subset,
  :func:`repro.dataset.build.sample_set_key`): the ordered samples
  without their sources, which the sources segment fills back in. A warm
  process reads a whole dataset or scenario this way and builds **no**
  corpus.

A corpus program's text key hashes the generator digest, so any
generator or codegen edit changes it; any pretokenizer or trainer change
bumps a version hashed into every key. A sample set's key hashes the
whole package (:func:`~repro.kernels.corpus.package_digest`), so any
edit reads it as a miss. Stale entries can only read as misses, never
as wrong text.
The process-wide cache — installed by the CLI, else built from
``$REPRO_ARTIFACT_CACHE`` — lives in :mod:`repro.runtime`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro import runtime
from repro.kernels.corpus import generated_program_key
from repro.store.base import ArtifactStore, CountRow
from repro.tokenizer.bpe import BPE_VERSION
from repro.util.hashing import stable_hash_hex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.program import ProgramSpec

#: Bump whenever codegen rendering or pretokenization semantics change:
#: hashed into every text key, so old sources/counts/tokenizers become
#: unreachable (misses) instead of replaying stale text.
TEXT_VERSION = "text-artifacts-v1"

_SEGMENT_PREFIX_TOKENIZERS = "tokenizers-"
_SEGMENT_PREFIX_SOURCES = "sources-"
_SEGMENT_PREFIX_COUNTS = "tokencounts-"
_SEGMENT_PREFIX_SAMPLES = "samples-"

#: Every text-artifact segment kind.
TEXT_SEGMENT_PREFIXES = (
    _SEGMENT_PREFIX_TOKENIZERS,
    _SEGMENT_PREFIX_SOURCES,
    _SEGMENT_PREFIX_COUNTS,
    _SEGMENT_PREFIX_SAMPLES,
)


# ---------------------------------------------------------------------------
# Content digests
# ---------------------------------------------------------------------------

def program_text_key(program: "ProgramSpec") -> str:
    """SHA-256 content address of one program's *rendering* inputs.

    A program :func:`~repro.kernels.corpus.build_corpus` returned is a
    pure function of its uid and the generator's code, so its key is
    :data:`TEXT_VERSION`, the generator digest and the uid
    (:func:`~repro.kernels.corpus.generated_program_key`): one short hash,
    and any generator or codegen edit changes every such key. Any other
    program — a ``dataclasses.replace`` copy, a hand-built spec, a
    held-out example — is keyed by its full frozen spec tree: every
    kernel's IR (auxiliary kernels render too), launch geometry, cmdline
    and the verbosity/header/split knobs, via the deterministic ``repr``,
    plus :data:`TEXT_VERSION`.
    """
    key = generated_program_key(program, TEXT_VERSION)
    if key is not None:
        return key
    return _compute_text_key(program)


def _compute_text_key(program: "ProgramSpec") -> str:
    return stable_hash_hex(TEXT_VERSION, program.uid, repr(program))


def tokenizer_train_key(
    programs: Sequence["ProgramSpec"], num_merges: int
) -> str:
    """SHA-256 content address of one corpus-tokenizer training run.

    Derives from the training programs' text keys rather than their
    rendered bytes, so a warm :class:`ArtifactCache` lookup needs no
    rendering at all; :data:`BPE_VERSION` rides along so trainer semantic
    changes invalidate stored merges.
    """
    return stable_hash_hex(
        TEXT_VERSION,
        BPE_VERSION,
        int(num_merges),
        [program_text_key(p) for p in programs],
    )


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

class ArtifactCache(ArtifactStore):
    """Learned BPE merges, rendered program sources, per-tokenizer token
    counts and profiled sample sets, under one root directory and one
    size bound.

    Tokenizer entries are tiny (~900 merge pairs) and every consumer wants
    the whole tokenizer, so all of them share one segment. Sources are
    tokenizer-independent (one segment, like the profile store's
    device-independent traces); token counts hang off a tokenizer digest
    (one segment per tokenizer, like per-device profiles). Sample sets
    share one segment, one entry per set.
    """

    version = TEXT_VERSION
    segment_prefixes = TEXT_SEGMENT_PREFIXES
    version_row = "artifacts"
    count_rows = (
        CountRow("tokenizers", _SEGMENT_PREFIX_TOKENIZERS),
        CountRow("sources", _SEGMENT_PREFIX_SOURCES),
        CountRow("counts", _SEGMENT_PREFIX_COUNTS, per="tokenizer"),
        CountRow("samples", _SEGMENT_PREFIX_SAMPLES),
    )

    def _version_key(self) -> str:
        """The logical key of the tokenizers and the sources segments."""
        return stable_hash_hex(TEXT_VERSION)

    # -- tokenizers ----------------------------------------------------------
    def get_merges(self, key: str) -> list[tuple[str, str]] | None:
        """The stored merge list under ``key``, or ``None`` on a miss.

        Lazy: decodes only this tokenizer's blob, not the segment."""
        entries = self._get_entries(
            _SEGMENT_PREFIX_TOKENIZERS,
            self._version_key(),
            [key],
        )
        raw = entries.get(key)
        if not isinstance(raw, list):
            return None
        merges: list[tuple[str, str]] = []
        for pair in raw:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(s, str) for s in pair)
            ):
                return None  # corrupt entry == miss; the re-put repairs it
            merges.append((pair[0], pair[1]))
        return merges

    def put_merges(
        self, key: str, merges: Iterable[tuple[str, str]]
    ) -> None:
        self._merge_entries(
            _SEGMENT_PREFIX_TOKENIZERS,
            self._version_key(),
            {"version": TEXT_VERSION},
            {key: [list(pair) for pair in merges]},
        )

    # -- sources -------------------------------------------------------------
    def get_sources(self, text_keys: Sequence[str]) -> dict[str, str]:
        """text key → concatenated source for every requested key on disk.

        Lazy: only the requested programs' source blobs decode."""
        entries = self._get_entries(
            _SEGMENT_PREFIX_SOURCES,
            self._version_key(),
            text_keys,
        )
        return {
            key: value
            for key, value in entries.items()
            if isinstance(value, str)
        }

    def put_sources(self, sources: Mapping[str, str]) -> None:
        self._merge_entries(
            _SEGMENT_PREFIX_SOURCES,
            self._version_key(),
            {"version": TEXT_VERSION},
            dict(sources),
        )

    # -- token counts --------------------------------------------------------
    def get_token_counts(
        self, tokenizer_digest: str, text_keys: Sequence[str]
    ) -> dict[str, int]:
        """text key → token count under one tokenizer digest (lazy)."""
        entries = self._get_entries(
            _SEGMENT_PREFIX_COUNTS,
            tokenizer_digest,
            text_keys,
        )
        out: dict[str, int] = {}
        for key, raw in entries.items():
            if isinstance(raw, int) and not isinstance(raw, bool):
                out[key] = raw
        return out

    def put_token_counts(
        self, tokenizer_digest: str, counts: Mapping[str, int]
    ) -> None:
        self._merge_entries(
            _SEGMENT_PREFIX_COUNTS,
            tokenizer_digest,
            {"version": TEXT_VERSION},
            dict(counts),
        )

    # -- sample sets ---------------------------------------------------------
    def get_samples(self, key: str) -> list[dict] | None:
        """The stored sample records under ``key`` (each a
        ``Sample.to_dict(include_source=False)``), or ``None`` on a miss.

        Lazy: decodes only this set's blob."""
        raw = self._get_entries(
            _SEGMENT_PREFIX_SAMPLES, self._version_key(), [key]
        ).get(key)
        if not isinstance(raw, list) or not all(
            isinstance(record, dict) for record in raw
        ):
            return None  # corrupt entry == miss; the re-put repairs it
        return raw

    def put_samples(self, key: str, records: Sequence[Mapping]) -> None:
        self._merge_entries(
            _SEGMENT_PREFIX_SAMPLES,
            self._version_key(),
            {"version": TEXT_VERSION},
            {key: list(records)},
        )

    # -- lifecycle -----------------------------------------------------------
    def __len__(self) -> int:
        """Total stored entries of every kind."""
        return sum(len(data["entries"]) for _, data in self.iter_segments())


def set_active_artifact_cache(cache: ArtifactCache | None) -> None:
    """Install (or, with ``None``, disable) the process-wide cache; see
    :func:`repro.runtime.install`."""
    runtime.install(artifact_cache=cache)
