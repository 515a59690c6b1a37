"""Batched, memoized, store-backed text preparation (render + token count).

Rendered source and its token count are **device-independent**: the same
program renders to the same bytes whichever GPU the scenario profiles, so
a 6-device matrix sweep must pay the render/tokenize cost once, not six
times. This module is that shared pass, layered like
:func:`repro.gpusim.profile_programs`:

* an in-process memo keyed by *object identity* and the artifact
  cache's root (a :class:`repro.util.memo.IdentityMemo`, so a dead corpus
  frees its text and id reuse cannot alias) — the corpus and scenario
  passes share one render per program object, and the memo costs no
  digest work at all;
* under it, the persistent artifact cache
  (:class:`repro.store.text.ArtifactCache`), addressed by
  :func:`repro.store.text.program_text_key` and the tokenizer digest. A
  corpus program's text key is one short hash of the generator digest
  and its uid: the generator's code (codegen included) and the uid fix
  its source, and any edit to that code changes the digest. Any other
  program's key walks its spec tree. So a stale entry can only read as a
  miss, and a warm artifact cache means a cold process renders and
  token-counts **zero** programs;
* misses fan out over ``jobs`` worker threads and write back through
  both layers.

Sources and counts round-trip JSON byte-exactly, so samples, prune
decisions, and report digests are identical with and without the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro import runtime
from repro.kernels.codegen import render_program
from repro.store.text import program_text_key
from repro.util.memo import IdentityMemo, Memo
from repro.util.parallel import parallel_map

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.program import ProgramSpec
    from repro.tokenizer.bpe import BpeTokenizer


@dataclass(frozen=True)
class TextArtifact:
    """One program's device-independent text: source and its token count."""

    source: str
    token_count: int


# Identity-keyed memos: SOURCES maps (program, cache root) → source,
# COUNTS maps (program, cache root, tokenizer digest) → count. A hit skips
# the cache, so its root is in the key: text memoized under one cache
# still reaches a later one. One process can hold several trained
# tokenizers, hence the digest.
SOURCES = IdentityMemo()
COUNTS = IdentityMemo()
# Text key → source, for sources read by key with no program object to
# anchor them (stored sample sets): every set that holds a program shares
# one string. Bounded by the corpus's distinct text keys.
KEYED_SOURCES = Memo()


def stored_sources(text_keys: Sequence[str], cache) -> dict[str, str]:
    """text key → source for every key in memory or in ``cache``; a key
    found in neither is left out. Each source is decoded once per
    process."""
    out = {
        key: source
        for key in text_keys
        if (source := KEYED_SOURCES.get(key)) is not None
    }
    missing = [key for key in text_keys if key not in out]
    if missing:
        for key, source in cache.get_sources(missing).items():
            out[key] = KEYED_SOURCES.setdefault(key, source)
    return out


def rendered_sources(
    programs: Sequence["ProgramSpec"],
    *,
    jobs: int = 1,
    cache=runtime.CURRENT,
) -> dict[str, str]:
    """uid → concatenated source, rendering each program at most once.

    Layered memo → artifact cache → :func:`render_program`; newly rendered
    sources are written back through both layers.
    """
    if cache is runtime.CURRENT:
        cache = runtime.current().artifact_cache
    tag = str(cache.root) if cache is not None else ""
    programs = list(programs)
    sources: dict[int, str] = {}
    missing: list[tuple[int, "ProgramSpec"]] = []
    for i, program in enumerate(programs):
        hit = SOURCES.get(program, tag)
        if hit is not None:
            sources[i] = hit
        else:
            missing.append((i, program))
    if cache is not None and missing:
        keys = [program_text_key(p) for _, p in missing]
        stored = cache.get_sources(keys)
        if stored:
            rest = []
            for (i, program), key in zip(missing, keys):
                if key in stored:
                    sources[i] = SOURCES.put(program, tag, value=stored[key])
                else:
                    rest.append((i, program))
            missing = rest
    if missing:
        rendered = parallel_map(
            lambda item: render_program(item[1]).concatenated_source(),
            missing,
            jobs=jobs,
        )
        for (i, program), text in zip(missing, rendered):
            sources[i] = SOURCES.put(program, tag, value=text)
        if cache is not None:
            cache.put_sources(
                {
                    program_text_key(p): text
                    for (_, p), text in zip(missing, rendered)
                }
            )
    return {p.uid: sources[i] for i, p in enumerate(programs)}


def program_texts(
    programs: Sequence["ProgramSpec"],
    tokenizer: "BpeTokenizer",
    *,
    jobs: int = 1,
    cache=runtime.CURRENT,
) -> dict[str, TextArtifact]:
    """uid → :class:`TextArtifact` for one batch of programs.

    The device-independent half of :func:`repro.dataset.build.build_sample`,
    hoisted out of the per-device loop: every scenario GPU of a matrix
    sweep shares one render and one token count per program.
    """
    if cache is runtime.CURRENT:
        cache = runtime.current().artifact_cache
    tag = str(cache.root) if cache is not None else ""
    programs = list(programs)
    tdigest = tokenizer.digest()
    sources = rendered_sources(programs, jobs=jobs, cache=cache)

    counts: dict[int, int] = {}
    missing: list[tuple[int, "ProgramSpec"]] = []
    for i, program in enumerate(programs):
        hit = COUNTS.get(program, tag, tdigest)
        if hit is not None:
            counts[i] = hit
        else:
            missing.append((i, program))
    if cache is not None and missing:
        keys = [program_text_key(p) for _, p in missing]
        stored = cache.get_token_counts(tdigest, keys)
        if stored:
            rest = []
            for (i, program), key in zip(missing, keys):
                if key in stored:
                    counts[i] = COUNTS.put(
                        program, tag, tdigest, value=stored[key]
                    )
                else:
                    rest.append((i, program))
            missing = rest
    if missing:
        counted = parallel_map(
            lambda item: tokenizer.count_tokens(sources[item[1].uid]),
            missing,
            jobs=jobs,
        )
        for (i, program), count in zip(missing, counted):
            counts[i] = COUNTS.put(program, tag, tdigest, value=count)
        if cache is not None:
            cache.put_token_counts(
                tdigest,
                {
                    program_text_key(p): count
                    for (_, p), count in zip(missing, counted)
                },
            )
    return {
        p.uid: TextArtifact(source=sources[p.uid], token_count=counts[i])
        for i, p in enumerate(programs)
    }
