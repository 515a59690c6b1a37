"""Shared utilities: deterministic RNG streams, stable hashing, statistics
helpers, ASCII plotting, and table rendering.

Everything in :mod:`repro` that needs randomness draws it from
:class:`repro.util.rng.RngStream` so that corpus generation, profiling noise,
and LLM-emulator behaviour are bit-reproducible across runs and platforms.

Import from the submodules (``repro.util.rng``, ``repro.util.hashing``,
...). This package imports none of them, so importing one runs no other:
:func:`repro.kernels.corpus.generator_files` lists exactly the modules the
corpus generator runs, and a test pins that list against ``sys.modules``.
"""
