"""Generic content-addressed artifact stores.

The repo has three persistent caches with the same shape — the response
cache, the kernel-profile store, and the text-artifact cache for
tokenizers and rendered sources. This package factors the
shared segment/eviction/atomic-write/manifest machinery into one
:class:`~repro.store.base.ArtifactStore` base so every store obeys the
same contract:

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

:mod:`repro.store.families` is the one place a store is declared: one
row per store holds its env vars, default directory, CLI flags and
class. This package exports only that table, and imports no store code,
so reading the table stays cheap; import the stores from their modules
(:mod:`repro.store.base`, :mod:`repro.store.doctor`,
:mod:`repro.store.text`).
"""

from repro.store.families import (
    ARTIFACTS,
    FAMILIES,
    PROFILES,
    RESPONSES,
    StoreFamily,
)

__all__ = ["StoreFamily", "FAMILIES", "RESPONSES", "PROFILES", "ARTIFACTS"]
