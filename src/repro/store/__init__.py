"""Generic content-addressed artifact stores.

The repo grew three persistent caches with the same shape — the response
cache (PR 1), the kernel-profile store (PR 4), and now the text-artifact
stores for tokenizers and rendered sources. This package factors the
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
profiles + symbolic traces), :class:`repro.store.text.TokenizerStore`
(learned BPE merges), and :class:`repro.store.text.RenderStore`
(rendered program sources + per-tokenizer token counts).
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
    RenderStore,
    TokenizerStore,
    active_artifact_cache,
    default_artifact_cache_dir,
    default_artifact_cache_max_bytes,
    program_text_key,
    reset_active_artifact_cache,
    set_active_artifact_cache,
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
    "TokenizerStore",
    "RenderStore",
    "active_artifact_cache",
    "set_active_artifact_cache",
    "reset_active_artifact_cache",
    "default_artifact_cache_dir",
    "default_artifact_cache_max_bytes",
    "program_text_key",
    "tokenizer_train_key",
]
