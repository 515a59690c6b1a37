"""Generic content-addressed artifact stores.

The repo has three persistent caches with the same shape — the response
cache, the kernel-profile store, and the text-artifact cache for
tokenizers and rendered sources. This package factors the
shared segment/eviction/atomic-write/manifest machinery into one
:class:`ArtifactStore` base so every store obeys the same contract:

* entries are addressed by SHA-256 content digests that hash in a version
  string — a stale entry can only read as a *miss*, never as a wrong
  value;
* storage is one logical segment per reuse unit, kept as immutable
  packed-binary runs: each flush installs one new run atomically (temp
  file + ``os.replace``) and never rewrites another, so writers sharing a
  directory keep each other's entries; compaction merges runs;
  torn/corrupt/foreign files read as empty and the next put rewrites
  their entries;
* stores can be size-bounded, evicting whole oldest-written runs until
  they fit.

Concrete stores: :class:`repro.gpusim.store.ProfileStore` (kernel
profiles + symbolic traces) and :class:`repro.store.text.ArtifactCache`
(learned BPE merges, rendered program sources and per-tokenizer token
counts, one store per root). The process-wide instance of each lives in
:mod:`repro.runtime`.
"""

from repro.store.base import ArtifactStore, memoized_object_key
from repro.store.doctor import (
    DoctorReport,
    StoreIssue,
    diagnose_store,
    doctor_store,
    quiet_attach,
    repair_store,
)
from repro.store.text import (
    ARTIFACT_CACHE_ENV,
    ARTIFACT_CACHE_MAX_BYTES_ENV,
    DEFAULT_ARTIFACT_CACHE_DIRNAME,
    TEXT_VERSION,
    ArtifactCache,
    ArtifactCacheManifest,
    program_text_key,
    tokenizer_train_key,
)

__all__ = [
    "ArtifactStore",
    "memoized_object_key",
    "DoctorReport",
    "StoreIssue",
    "diagnose_store",
    "doctor_store",
    "quiet_attach",
    "repair_store",
    "TEXT_VERSION",
    "ARTIFACT_CACHE_ENV",
    "ARTIFACT_CACHE_MAX_BYTES_ENV",
    "DEFAULT_ARTIFACT_CACHE_DIRNAME",
    "ArtifactCache",
    "ArtifactCacheManifest",
    "program_text_key",
    "tokenizer_train_key",
]
