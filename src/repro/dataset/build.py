"""Dataset construction: profile the corpus and attach ground-truth labels.

Reproduces paper §2.1-2.2: every program's *first kernel* is profiled on the
simulated RTX 3080, labelled BB/CB against the three theoretical rooflines,
rendered to concatenated source text, and token-counted with the
corpus-trained tokenizer.

A profiled sample set of the default corpus is a pure function of the
package's code and the device, so :func:`stored_samples` persists it
whole in the artifact cache: a warm process reads it back without
building the corpus or the tokenizer.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import runtime
from repro.dataset.records import CounterSummary, Sample
from repro.dataset.text import TextArtifact, program_texts, stored_sources
from repro.gpusim import (
    DeviceModel,
    KernelProfile,
    default_device,
    device_profile_key,
    profile_corpus,
    profile_first_kernel,
)
from repro.kernels.codegen import render_program
from repro.kernels.corpus import (
    Corpus,
    default_corpus,
    generated_families_only,
    generated_uid_key,
    package_digest,
)
from repro.roofline import classify_kernel
from repro.store.text import TEXT_VERSION
from repro.tokenizer import BpeTokenizer, corpus_tokenizer
from repro.util.hashing import stable_hash_hex
from repro.util.parallel import parallel_map


def build_sample(
    program,
    device: DeviceModel,
    tokenizer: BpeTokenizer,
    profile: KernelProfile | None = None,
    text: TextArtifact | None = None,
) -> Sample:
    """Profile, label, render, and token-count one program.

    Pass ``profile`` to reuse a counter set from a batched
    :func:`repro.gpusim.profile_corpus` pass, and ``text`` to reuse a
    device-independent render/token-count from a batched
    :func:`repro.dataset.text.program_texts` pass, instead of recomputing
    either per device.
    """
    if profile is None:
        profile = profile_first_kernel(program, device)
    counters = profile.counters
    detail = classify_kernel(
        counters.intensity_profile(), device.spec.rooflines()
    )
    if text is None:
        source = render_program(program).concatenated_source()
        token_count = tokenizer.count_tokens(source)
    else:
        source = text.source
        token_count = text.token_count
    first = program.first_kernel
    return Sample(
        uid=program.uid,
        language=program.language,
        family=program.family,
        program_name=program.name,
        kernel_name=first.kernel.name,
        label=detail.label,
        counters=CounterSummary(
            sp_flops=counters.sp_flops,
            dp_flops=counters.dp_flops,
            int_ops=counters.int_ops,
            dram_read_bytes=counters.dram_read_bytes,
            dram_write_bytes=counters.dram_write_bytes,
            time_s=counters.time_s,
        ),
        token_count=token_count,
        source=source,
        block=(first.launch.block.x, first.launch.block.y, first.launch.block.z),
        grid=(first.launch.grid.x, first.launch.grid.y, first.launch.grid.z),
        argv=program.cmdline.argv_string(),
        gpu_name=device.spec.name,
    )


def build_samples(
    corpus: Corpus | None = None,
    device: DeviceModel | None = None,
    tokenizer: BpeTokenizer | None = None,
    *,
    jobs: int = 1,
) -> list[Sample]:
    """Profile and label the whole corpus (the paper's 749 programs).

    The gpusim profiling runs as one batched, memoized, two-phase pass
    shared with every other consumer of this (corpus, device) pair — and,
    when the runtime holds a persistent profile store
    (:func:`repro.runtime.current`), served from disk
    with zero IR walks in warm-store processes. Rendering and
    token-counting run the same way through the device-independent
    :func:`repro.dataset.text.program_texts` pass (memoized, and served
    whole from a warm artifact cache), fanned over ``jobs`` threads.
    """
    corpus = corpus or default_corpus()
    device = device or default_device()
    tokenizer = tokenizer or corpus_tokenizer()
    profiles = profile_corpus(corpus, device, jobs=jobs)
    texts = program_texts(corpus.programs, tokenizer, jobs=jobs)
    return parallel_map(
        lambda p: build_sample(
            p,
            device,
            tokenizer,
            profile=profiles[p.uid],
            text=texts[p.uid],
        ),
        corpus.programs,
        jobs=jobs,
    )


def sample_set_key(device: DeviceModel, uids: Sequence[str] | None) -> str:
    """SHA-256 content address of one profiled sample set: the default
    corpus's programs named by ``uids`` (``None``: all of them, in
    corpus order) profiled, labelled and token-counted on ``device``.

    Hashes the whole package rather than the generator alone, since the
    profiler, the roofline classifier and the tokenizer shape every
    sample too."""
    return stable_hash_hex(
        "samples",
        package_digest(),
        device_profile_key(device),
        None if uids is None else list(uids),
    )


def stored_samples(
    device: DeviceModel,
    uids: Sequence[str] | None,
    build: Callable[[], Sequence[Sample]],
    *,
    cache=runtime.CURRENT,
) -> list[Sample]:
    """The default corpus's samples named by ``uids`` (``None``: all of
    them) on ``device``, read whole from the artifact cache, else
    ``build()``'s and then stored.

    A hit is one sample-set entry plus each program's source from the
    sources segment, under the key the text pass stores it by. A missing
    entry or source runs ``build`` instead. Without a cache, or while a
    family registered outside ``repro.kernels`` can join the corpus (the
    package digest does not cover its code), this is just ``build()``.
    """
    if cache is runtime.CURRENT:
        cache = runtime.current().artifact_cache
    if cache is None or not generated_families_only():
        return list(build())
    key = sample_set_key(device, uids)
    hit = _read_samples(cache, key)
    if hit is not None:
        return hit
    samples = list(build())
    cache.put_samples(key, [s.to_dict(include_source=False) for s in samples])
    return samples


def _read_samples(cache, key: str) -> list[Sample] | None:
    """The sample set stored under ``key`` with its sources filled in, or
    ``None`` if the set or any of its sources is missing or corrupt."""
    records = cache.get_samples(key)
    if records is None:
        return None
    try:
        text_keys = [generated_uid_key(r["uid"], TEXT_VERSION) for r in records]
    except (KeyError, TypeError):
        return None
    sources = stored_sources(text_keys, cache)
    if len(sources) < len(set(text_keys)):
        return None
    try:
        return [
            Sample.from_dict({**record, "source": sources[text_key]})
            for record, text_key in zip(records, text_keys)
        ]
    except (KeyError, TypeError, ValueError):
        return None
