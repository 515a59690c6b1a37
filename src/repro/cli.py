"""Command-line interface: run any of the paper's experiments from a shell.

Installed as ``repro-paper``; every subcommand is also reachable via
``python -m repro.cli``. Examples::

    repro-paper models
    repro-paper dataset --out balanced.jsonl
    repro-paper classify cuda/saxpy-v1 --model o3-mini-high
    repro-paper rq1 --model gpt-4o-mini
    repro-paper rq2 --model o3-mini-high --limit 50
    repro-paper rq4 --scope cuda
    repro-paper decompose --model o1 --limit 50
    repro-paper table1 --jobs 8
    repro-paper matrix --gpus all --jobs 4
    repro-paper matrix --gpus v100,h100 --rq both --stats
    repro-paper stats --gpus v100,h100 --rq both --stats-seed 7
    repro-paper variants
    repro-paper export stats --gpus v100,h100 --rq both --out stats.json
    repro-paper sweep --gpus v100,h100 --shard 0/3 --cache-dir shard-0
    repro-paper merge-caches shard-0 shard-1 shard-2 --into merged
    repro-paper figures --which 1
    repro-paper cache --wipe
    repro-paper doctor --dry-run
    repro-paper serve --port 8077 --warm
    repro-paper sweep --gpus all --failure-mode collect --max-failures 20

Experiment commands accept ``--jobs`` (workers; 0 = all cores): one job
runs the plain loop, more run a thread pool in this process — the
multi-process path is ``sweep --shard`` plus ``merge-caches``. They
share a content-addressed response cache (``--cache-dir``, default
``$REPRO_CACHE_DIR`` or ``.repro-cache``; size-bound it with
``--cache-max-bytes``, disable with ``--no-cache``), so a repeated run
replays memoized completions instead of re-querying the models. Kernel
profiling persists the same way in a content-addressed profile store
(``--profile-cache``, default ``$REPRO_PROFILE_CACHE`` or
``.repro-profile-cache``; ``--profile-cache-max-bytes`` /
``--no-profile-cache``), so a warm store skips the symbolic IR walk
entirely on later runs, shards, and CI jobs. Text artifacts — the
trained BPE tokenizer, rendered program sources, and token counts —
persist in a third content-addressed store (``--artifact-cache``,
default ``$REPRO_ARTIFACT_CACHE`` or ``.repro-artifact-cache``;
``--artifact-cache-max-bytes`` / ``--no-artifact-cache``), so a warm
cache trains zero tokenizers and renders zero programs. Each command
installs the profile store, artifact cache and ``--inject-faults`` plan
its flags select into :mod:`repro.runtime` once; a blank store env var
reads as unset.

Distributed sweeps: ``sweep --shard I/N`` executes one deterministic shard
of the (model × regime × GPU × kernel) grid on any machine, and
``merge-caches`` unions the shard caches into one store whose replayed
report is byte-identical to a single-machine run.

Fault tolerance: experiment commands take ``--failure-mode collect`` (record
units that exhaust their retries instead of aborting; bound with
``--max-failures``) and ``--inject-faults SPEC`` (a seeded, deterministic
fault plan for chaos testing; also ``$REPRO_FAULT_PLAN``). A sweep that
dies part-way resumes by re-running the same command: the response cache
keeps every run it spilled (one per 64 completions), and the re-run
replays those as hits. Ctrl-C/SIGTERM exit 130. ``repro-paper doctor``
fscks all three stores and quarantines damage (``--dry-run`` reports
only).

Matrix regimes are prompt variants: ``--rq rq2|rq3|both`` selects the two
seed regimes and ``--variants name,…`` appends ablation variants
(``no-hint``, ``problem-hint``, ``few-shot-K``; see
``repro-paper variants``). ``matrix --stats`` / ``stats`` append the
significance report (paired Wilcoxon, A12 effect sizes, seeded bootstrap
CIs — ``--stats-seed``, ``--resamples``, ``--ci-method``), and ``export``
writes any run/matrix/stats result as JSON through the shared
``Reportable`` writer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence


def _add_store_flags(p: argparse.ArgumentParser) -> None:
    from repro.gpusim.store import DEFAULT_PROFILE_CACHE_DIRNAME
    from repro.store.text import DEFAULT_ARTIFACT_CACHE_DIRNAME

    p.add_argument("--profile-cache", default=None,
                   help="persistent kernel-profile store directory "
                        "(default: $REPRO_PROFILE_CACHE or "
                        f"{DEFAULT_PROFILE_CACHE_DIRNAME})")
    p.add_argument("--profile-cache-max-bytes", type=_non_negative_int,
                   default=None,
                   help="size-bound the profile store, evicting oldest "
                        "segments (default: $REPRO_PROFILE_CACHE_MAX_BYTES "
                        "or unbounded)")
    p.add_argument("--no-profile-cache", action="store_true",
                   help="disable the persistent profile store for this run")
    p.add_argument("--artifact-cache", default=None,
                   help="persistent text-artifact store directory: trained "
                        "tokenizers, rendered sources, token counts "
                        "(default: $REPRO_ARTIFACT_CACHE or "
                        f"{DEFAULT_ARTIFACT_CACHE_DIRNAME})")
    p.add_argument("--artifact-cache-max-bytes", type=_non_negative_int,
                   default=None,
                   help="size-bound the artifact cache, evicting oldest "
                        "segments (default: $REPRO_ARTIFACT_CACHE_MAX_BYTES "
                        "or unbounded)")
    p.add_argument("--no-artifact-cache", action="store_true",
                   help="disable the persistent text-artifact store for "
                        "this run")


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    from repro.eval.engine import DEFAULT_CACHE_DIRNAME

    p.add_argument("--cache-dir", default=None,
                   help="response cache directory (default: $REPRO_CACHE_DIR "
                        f"or {DEFAULT_CACHE_DIRNAME})")
    p.add_argument("--cache-max-bytes", type=_non_negative_int,
                   default=None,
                   help="size-bound the cache, evicting oldest entries "
                        "(default: $REPRO_CACHE_MAX_BYTES or unbounded)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the response cache for this run")
    _add_store_flags(p)


def _add_fault_flags(p: argparse.ArgumentParser) -> None:
    from repro.eval.engine import FAILURE_MODES

    p.add_argument("--failure-mode", choices=FAILURE_MODES,
                   default="fail_fast",
                   help="what to do when a unit exhausts its retries: "
                        "fail_fast aborts the run (default); collect "
                        "records the unit as failed and keeps going")
    p.add_argument("--max-failures", type=int, default=None,
                   help="with --failure-mode collect, abort once this many "
                        "units have failed (default: unlimited)")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="deterministic fault plan for chaos testing, e.g. "
                        "'seed=7;provider_error:rate=0.25,attempts=2;"
                        "torn_write:rate=0.5' (default: $REPRO_FAULT_PLAN "
                        "if set)")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="threads for (model, item) work units (0 = all "
                        "cores; default 1, the plain loop; for many cores "
                        "use sweep --shard and merge-caches)")
    _add_fault_flags(p)
    _add_cache_flags(p)


def _flag_root(args: argparse.Namespace, attr: str, env: str, dirname: str):
    """A store directory: an explicit flag wins ("" falls through like an
    absent flag), then ``$env`` (blank reads as unset), then ``dirname``."""
    from repro.runtime import env_root

    value = getattr(args, attr, None)
    return value if value else env_root(env, dirname)


def _flag_max_bytes(args: argparse.Namespace, attr: str, env: str):
    """A store size bound: an explicit flag wins (0 too: a zero bound
    means "keep nothing", a real request), then ``$env``."""
    from repro.runtime import env_max_bytes

    value = getattr(args, attr, None)
    return value if value is not None else env_max_bytes(env)


def _install_runtime(args: argparse.Namespace):
    """Install the profile store, artifact cache and fault plan the flags
    select into :mod:`repro.runtime`, and return
    :func:`repro.runtime.current`.

    Every consumer downstream (dataset build, tokenizer training, matrix
    scenarios, shard execution, store writes, engine retry loops) reads
    them through :func:`repro.runtime.current` — no threading of stores
    through call chains. Without ``--inject-faults`` any
    ``$REPRO_FAULT_PLAN`` plan stays in effect (that is how sharded
    workers and subprocess chaos tests inherit one). A malformed spec is a
    usage error: print it and exit 2 like argparse.
    """
    from repro import runtime
    from repro.gpusim.store import (
        DEFAULT_PROFILE_CACHE_DIRNAME,
        PROFILE_CACHE_ENV,
        PROFILE_CACHE_MAX_BYTES_ENV,
        ProfileStore,
    )
    from repro.store.text import (
        ARTIFACT_CACHE_ENV,
        ARTIFACT_CACHE_MAX_BYTES_ENV,
        DEFAULT_ARTIFACT_CACHE_DIRNAME,
        ArtifactCache,
    )
    from repro.util.faults import FaultPlan

    fields: dict = {"profile_store": None, "artifact_cache": None}
    if not getattr(args, "no_profile_cache", False):
        fields["profile_store"] = ProfileStore(
            _flag_root(args, "profile_cache", PROFILE_CACHE_ENV,
                       DEFAULT_PROFILE_CACHE_DIRNAME),
            max_bytes=_flag_max_bytes(
                args, "profile_cache_max_bytes", PROFILE_CACHE_MAX_BYTES_ENV
            ),
        )
    if not getattr(args, "no_artifact_cache", False):
        fields["artifact_cache"] = ArtifactCache(
            _flag_root(args, "artifact_cache", ARTIFACT_CACHE_ENV,
                       DEFAULT_ARTIFACT_CACHE_DIRNAME),
            max_bytes=_flag_max_bytes(
                args, "artifact_cache_max_bytes", ARTIFACT_CACHE_MAX_BYTES_ENV
            ),
        )
    spec = getattr(args, "inject_faults", None)
    if spec is not None:
        try:
            fields["fault_plan"] = FaultPlan.parse(spec)
        except ValueError as exc:
            print(f"error: --inject-faults: {exc}", file=sys.stderr)
            raise SystemExit(2)
    runtime.install(**fields)
    return runtime.current()


def _add_stats_flags(p: argparse.ArgumentParser) -> None:
    from repro.analysis.stats import DEFAULT_RESAMPLES, DEFAULT_STATS_SEED

    p.add_argument("--stats-seed", type=int, default=DEFAULT_STATS_SEED,
                   help="seed for the bootstrap resampling streams "
                        f"(default {DEFAULT_STATS_SEED}; same seed = "
                        "same report digest)")
    p.add_argument("--resamples", type=_positive_int,
                   default=DEFAULT_RESAMPLES,
                   help="bootstrap resamples per (cell, metric) CI "
                        f"(default {DEFAULT_RESAMPLES})")
    p.add_argument("--ci-method", choices=("bca", "percentile"),
                   default="bca",
                   help="bootstrap CI construction (default bca)")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="CI confidence level (default 0.95)")


def _int_in(text: str, low: int, high: int | None = None) -> int:
    """``text`` as an integer in ``[low, high]``, else an argparse usage
    error naming the bound."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    if high is not None and value > high:
        raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for counts and byte bounds (``--limit``,
    ``--*max-bytes``): a negative value is a usage error, not a silent
    slice from the end or an empty store."""
    return _int_in(text, 0)


def _positive_int(text: str) -> int:
    """argparse type for sizes that must admit at least one (attempts,
    burst, concurrency, queue budget, resamples)."""
    return _int_in(text, 1)


def _port(text: str) -> int:
    """argparse type for a TCP port; 0 picks an ephemeral one."""
    return _int_in(text, 0, 65535)


def _add_limit_flag(p: argparse.ArgumentParser, unit: str) -> None:
    p.add_argument("--limit", type=_non_negative_int, default=0,
                   help=f"evaluate only the first N {unit} (default 0 = all)")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    """The (model × regime × GPU × kernel) grid selection of the matrix
    commands."""
    p.add_argument("--model", default="all",
                   help="model name or 'all' (default)")
    p.add_argument("--gpus", default="all",
                   help="comma-separated GPU names (substring match) or "
                        "'all' (default)")
    p.add_argument("--rq", choices=("rq2", "rq3", "both"), default="rq2",
                   help="classification regime(s) to sweep (default rq2)")
    p.add_argument("--variants", default="",
                   help="comma-separated extra prompt-variant regimes to "
                        "sweep alongside --rq (e.g. no-hint,problem-hint,"
                        "few-shot-4); see 'repro-paper variants'")
    _add_limit_flag(p, "kernels per device")


def _resolve_regimes(args: argparse.Namespace) -> tuple[str, ...]:
    """Compose the regime axis from ``--rq`` plus ``--variants``."""
    from repro.eval.rq23 import MATRIX_RQS

    regimes = list(MATRIX_RQS if args.rq == "both" else (args.rq,))
    for label in (getattr(args, "variants", "") or "").split(","):
        label = label.strip()
        if label and label not in regimes:
            regimes.append(label)
    return tuple(regimes)


def _build_stats(args: argparse.Namespace, result):
    from repro.analysis.stats import build_stats_report

    try:
        return build_stats_report(
            result,
            seed=args.stats_seed,
            n_resamples=args.resamples,
            confidence=args.confidence,
            ci_method=args.ci_method,
        )
    except ValueError as exc:  # e.g. a --confidence outside (0, 1)
        raise _UsageError(exc) from None


def _make_store(args: argparse.Namespace):
    """The response store selected by the cache flags (None = disabled)."""
    from repro.eval.engine import (
        CACHE_DIR_ENV,
        CACHE_MAX_BYTES_ENV,
        DEFAULT_CACHE_DIRNAME,
        DiskResponseStore,
    )

    if args.no_cache:
        return None
    return DiskResponseStore(
        _flag_root(args, "cache_dir", CACHE_DIR_ENV, DEFAULT_CACHE_DIRNAME),
        max_bytes=_flag_max_bytes(args, "cache_max_bytes", CACHE_MAX_BYTES_ENV),
    )


def _make_engine(args: argparse.Namespace):
    from repro.eval.engine import EvalEngine

    _install_runtime(args)
    store = _make_store(args)
    try:
        return EvalEngine(
            jobs=args.jobs,
            store=store,
            failure_mode=getattr(args, "failure_mode", "fail_fast"),
            max_failures=getattr(args, "max_failures", None),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _report_cache(engine) -> None:
    if engine.store is None:
        return
    print(f"cache: {engine.stats.summary()} "
          f"({len(engine.store)} entries @ {engine.store.root})")


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.llm import all_models
    from repro.util.tables import format_table

    rows = []
    for m in all_models():
        c = m.config
        rows.append([
            c.name,
            "yes" if c.reasoning else "",
            f"${c.input_cost_per_m:g} / ${c.output_cost_per_m:g}",
            "yes" if c.supports_sampling_params else "no",
        ])
    print(format_table(
        ["Model", "Reasoning", "$/1M in/out", "Accepts temperature"],
        rows, title="Emulated model zoo (Table 1)",
    ))
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.dataset import cell_counts, paper_dataset, save_samples

    _install_runtime(args)
    ds = paper_dataset(jobs=args.jobs)
    r = ds.prune_report
    print(f"profiled: {r.total_before} ({r.cuda_before} CUDA + {r.omp_before} OMP)")
    print(f"pruned @ {r.cutoff} tokens: kept {r.total_after} "
          f"({r.cuda_after} CUDA + {r.omp_after} OMP)")
    print(f"balanced: {len(ds.balanced)}; split {len(ds.train)}/{len(ds.validation)}")
    for (lang, label), n in sorted(cell_counts(list(ds.balanced)).items(), key=str):
        print(f"  {lang.display:4s} {label.value}: {n}")
    if args.out:
        save_samples(list(ds.balanced), args.out, include_source=not args.compact)
        print(f"wrote {args.out}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.dataset import paper_dataset
    from repro.eval.rq23 import regime_variant
    from repro.llm import query_cost_usd
    from repro.prompts import build_classify_prompt

    models = _select_models(args.model)
    if len(models) != 1:
        raise _UsageError("classify needs one --model, not 'all'")
    model = models[0]
    _install_runtime(args)
    ds = paper_dataset()
    matches = [s for s in ds.balanced if s.uid == args.uid]
    if not matches:
        print(f"error: {args.uid!r} is not in the balanced dataset "
              f"(try one of: {', '.join(s.uid for s in ds.balanced[:3])} ...)",
              file=sys.stderr)
        return 2
    sample = matches[0]
    variant = regime_variant("rq3" if args.few_shot else "rq2")
    prompt = build_classify_prompt(sample, variant=variant)
    response = model.complete(prompt.text)
    pred = response.boundedness()
    print(f"program:    {sample.uid}")
    print(f"kernel:     {sample.kernel_name}")
    print(f"model:      {model.name} ({variant.name})")
    print(f"prediction: {pred.word}")
    print(f"truth:      {sample.label.word}")
    print(f"correct:    {pred == sample.label}")
    print(f"cost:       ${query_cost_usd(response.usage, model.config):.5f}")
    return 0 if pred == sample.label else 1


def _select_models(name: str):
    """``--model``: one zoo model, or every one for ``all``. An unknown
    name raises :class:`_UsageError`."""
    from repro.llm import all_models, get_model

    if name == "all":
        return all_models()
    try:
        return [get_model(name)]
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _limited_samples(args: argparse.Namespace) -> list:
    """The balanced dataset, cut to its first ``--limit`` samples."""
    from repro.dataset import paper_dataset

    samples = list(paper_dataset(jobs=args.jobs).balanced)
    return samples[: args.limit] if args.limit else samples


class _UsageError(Exception):
    """A bad selection on the command line: :func:`main` prints it and
    returns 2."""


def _run_grid(args: argparse.Namespace, engine=None):
    """Run the matrix grid the ``_add_grid_flags`` flags select; return
    the result and the engine it ran on.

    The engine is built from the engine flags (once the GPU selection
    resolves) unless one is given. A bad model, GPU or regime selection
    raises :class:`_UsageError`.
    """
    from repro.eval.matrix import run_matrix
    from repro.roofline.hardware import resolve_gpus

    models = _select_models(args.model)
    try:
        gpus = resolve_gpus(args.gpus)
    except (KeyError, ValueError) as exc:
        raise _UsageError(exc) from None
    if engine is None:
        engine = _make_engine(args)
    try:
        result = run_matrix(
            models, gpus, rqs=_resolve_regimes(args), limit=args.limit,
            engine=engine,
        )
    except (KeyError, ValueError) as exc:
        raise _UsageError(exc) from None
    return result, engine


def _cmd_rq1(args: argparse.Namespace) -> int:
    from repro.eval.rq1 import run_rq1
    from repro.util.tables import format_table

    models = _select_models(args.model)
    engine = _make_engine(args)
    rows = []
    for model in models:
        r = run_rq1(model, num_rooflines=args.rooflines, engine=engine)
        rows.append([model.name, r.best_accuracy, r.best_accuracy_cot])
    print(format_table(["Model", "RQ1 Acc", "RQ1 CoT Acc"], rows,
                       title=f"RQ1 over {args.rooflines} rooflines"))
    _report_cache(engine)
    return 0


#: Table titles (and --help text) of the ``rq2``/``rq3`` subcommands.
_RQ23_TITLES = {"rq2": "RQ2 (zero-shot)", "rq3": "RQ3 (two-shot)"}


def _cmd_rq23(args: argparse.Namespace) -> int:
    from repro.eval.rq23 import regime_variant, run_classification
    from repro.util.tables import format_table

    models = _select_models(args.model)
    engine = _make_engine(args)
    samples = _limited_samples(args)
    variant = regime_variant(args.command)
    rows = []
    for model in models:
        r = run_classification(model, samples, variant=variant, engine=engine)
        m = r.metrics
        rows.append([model.name, m.accuracy, m.macro_f1, m.mcc])
    title = f"{_RQ23_TITLES[args.command]} over {len(samples)} samples"
    print(format_table(["Model", "Acc", "F1", "MCC"], rows, title=title))
    _report_cache(engine)
    return 0


def _cmd_rq4(args: argparse.Namespace) -> int:
    from repro.eval.rq4 import run_rq4

    _install_runtime(args)
    r = run_rq4(scope=args.scope, jobs=args.jobs)
    print(f"scope:              {r.scope}")
    print(f"train/validation:   {r.train_size}/{r.validation_size}")
    print(f"validation acc:     {r.validation_metrics.accuracy:.2f}")
    print(f"prediction entropy: {r.validation_prediction_entropy:.3f}")
    print(f"collapsed:          {r.collapsed}"
          + (f" (always answers {r.collapsed_to.word})" if r.collapsed_to else ""))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from repro.eval.decompose import run_decompose_experiment
    from repro.eval.rq23 import run_rq2
    from repro.util.tables import format_table

    models = _select_models(args.model)
    engine = _make_engine(args)
    samples = _limited_samples(args)
    rows = []
    for model in models:
        rq2 = run_rq2(model, samples, engine=engine).metrics
        dec = run_decompose_experiment(model, samples, engine=engine).metrics()
        rows.append([model.name, rq2.accuracy, dec.accuracy,
                     dec.accuracy - rq2.accuracy])
    print(format_table(
        ["Model", "RQ2 Acc", "Decomposed Acc", "Delta"], rows,
        title=f"Question decomposition over {len(samples)} samples",
    ))
    _report_cache(engine)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.eval.table1 import build_table1

    models = _select_models(args.model)
    engine = _make_engine(args)
    samples = _limited_samples(args)
    table = build_table1(
        samples, models=models, num_rooflines=args.rooflines, engine=engine
    )
    print(table.render_markdown() if args.markdown else table.render())
    _report_cache(engine)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    result, engine = _run_grid(args)
    print(result.render(flip_limit=args.flip_limit))
    if getattr(args, "stats", False):
        print()
        print(_build_stats(args, result).render())
    _report_cache(engine)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.eval.export import write_report

    result, engine = _run_grid(args)
    report = _build_stats(args, result)
    print(report.render())
    if args.out:
        print(f"wrote {write_report(report, args.out)}")
    _report_cache(engine)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.eval.export import write_report
    from repro.eval.rq23 import classification_items, regime_variant
    from repro.eval.runner import run_queries

    engine = _make_engine(args)
    if args.kind == "run":
        try:
            models = _select_models(args.model)
            regime = _resolve_regimes(args)
            if len(models) != 1:
                raise _UsageError("'export run' needs one --model, not 'all'")
            if len(regime) != 1:
                raise _UsageError("'export run' takes a single regime")
            items = classification_items(
                _limited_samples(args), variant=regime_variant(regime[0])
            )
            report = run_queries(models[0], items, engine=engine)
        except (KeyError, ValueError) as exc:
            raise _UsageError(exc) from None
    else:
        matrix, _ = _run_grid(args, engine)
        report = (
            _build_stats(args, matrix) if args.kind == "stats" else matrix
        )
    print(f"wrote {write_report(report, args.out)} "
          f"(digest {report.digest()[:12]}…)")
    _report_cache(engine)
    return 0


def _cmd_variants(args: argparse.Namespace) -> int:
    from repro.eval.rq23 import REGIME_VARIANTS
    from repro.prompts import MAX_FEW_SHOT, all_variants
    from repro.util.tables import format_table

    rows = []
    for v in all_variants():
        rows.append([
            v.name,
            v.examples,
            v.shots or "",
            "yes" if v.hint else "",
        ])
    print(format_table(
        ["Variant", "Examples", "Shots", "Hint"],
        rows,
        title="Registered prompt variants (regimes for matrix/sweep/stats)",
    ))
    print(f"\nAny few-shot-K (K <= {MAX_FEW_SHOT}) resolves on demand; "
          f"{'/'.join(REGIME_VARIANTS)} alias "
          f"{'/'.join(REGIME_VARIANTS.values())}.")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.eval.shard import parse_shard_spec, run_shard
    from repro.roofline.hardware import resolve_gpus

    try:
        shard_index, num_shards = parse_shard_spec(args.shard)
        gpus = resolve_gpus(args.gpus)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if num_shards == 1:
        # An unsharded sweep IS a matrix run (same flags, same report).
        return _cmd_matrix(args)
    models = _select_models(args.model)
    engine = _make_engine(args)
    if engine.store is None:
        print("error: a sharded sweep's output is its cache; "
              "drop --no-cache (or point --cache-dir at the shard's store)",
              file=sys.stderr)
        return 2
    try:
        report = run_shard(
            models,
            gpus,
            shard_index=shard_index,
            num_shards=num_shards,
            rqs=_resolve_regimes(args),
            limit=args.limit,
            engine=engine,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    _report_cache(engine)
    return 0


def _cmd_merge_caches(args: argparse.Namespace) -> int:
    from repro.eval.engine import DiskResponseStore, EvalEngine
    from repro.eval.shard import CacheMergeConflict, merge_caches

    try:
        report = merge_caches(
            args.sources, args.into, max_bytes=args.cache_max_bytes
        )
    except CacheMergeConflict as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    store = DiskResponseStore(args.into, max_bytes=args.cache_max_bytes)
    print(store.manifest().render())
    if not args.report:
        return 0

    _install_runtime(args)
    engine = EvalEngine(jobs=args.jobs, store=store)
    result, _ = _run_grid(args, engine)
    print()
    print(result.render())
    _report_cache(engine)
    # Replaying may have recomputed entries the size bound evicted;
    # re-apply the bound before exiting (no-op when unbounded).
    store.evict()
    return 0


def _doctor_families(args: argparse.Namespace):
    """The response store, profile store and artifact cache the doctor
    and the cache manifest inspect, honouring the shared dir flags."""
    from repro.eval.engine import (
        CACHE_DIR_ENV,
        DEFAULT_CACHE_DIRNAME,
        DiskResponseStore,
    )

    rt = _install_runtime(args)
    store = DiskResponseStore(
        _flag_root(args, "cache_dir", CACHE_DIR_ENV, DEFAULT_CACHE_DIRNAME)
    )
    return store, rt.profile_store, rt.artifact_cache


def _doctor_hint(store, label: str) -> None:
    """One summary line when a store has doctor-visible damage — printed
    uniformly for all three families by ``repro-paper cache``."""
    from repro.store.doctor import diagnose_store

    report = diagnose_store(store, label)
    if report.healthy:
        return
    kinds: dict[str, int] = {}
    for issue in report.issues:
        kinds[issue.kind] = kinds.get(issue.kind, 0) + 1
    summary = ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
    print(f"doctor:    {summary} — run 'repro-paper doctor' to repair")


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.store.doctor import doctor_store, quiet_attach

    # Attach without the stale-tmp sweep: a --dry-run must *report* leaked
    # tmp files, not clean them up as a side effect of looking.
    with quiet_attach():
        store, profiles, artifacts = _doctor_families(args)
    families = (
        ("responses", store),
        ("profiles", profiles),
        ("artifacts", artifacts),
    )
    issues = 0
    first = True
    for label, family in families:
        if not first:
            print()
        first = False
        if not family.root.is_dir():
            print(f"{label}: {family.root} (missing; nothing to check)")
            continue
        report = doctor_store(family, label, repair=not args.dry_run)
        print(report.render())
        issues += len(report.issues)
    if args.dry_run and issues:
        # Same convention as linters: a dry run that found problems fails,
        # so CI can gate on store health without repairing anything.
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store, profiles, artifacts = _doctor_families(args)
    if args.wipe:
        if not store.root.is_dir():
            print(f"cache dir: {store.root} (missing; treated as empty)")
        else:
            n = len(store)
            store.clear()
            print(f"wiped {n} entries @ {store.root}")
        if not profiles.root.is_dir():
            print(f"profile store: {profiles.root} (missing; treated as empty)")
        else:
            n = len(profiles)
            profiles.clear()
            print(f"wiped {n} profile entries @ {profiles.root}")
        if not artifacts.root.is_dir():
            print(f"artifact cache: {artifacts.root} "
                  "(missing; treated as empty)")
        else:
            m = artifacts.manifest()
            n = m.tokenizer_entries + m.source_entries + m.count_entries
            artifacts.clear()
            print(f"wiped {n} artifact entries @ {artifacts.root}")
        return 0
    if not store.root.is_dir():
        # A missing directory is an empty cache, not an error — common on
        # fresh checkouts and CI runners inspecting never-populated stores.
        print(f"cache dir: {store.root} (missing; treated as empty)")
        print(store.manifest().render())
    else:
        if args.max_bytes is not None:
            removed = store.evict(args.max_bytes)
            print(f"evicted {removed} segments @ {store.root}")
        print(f"cache dir: {store.root}")
        print(store.manifest().render())
        snapshot = store.root / SERVE_STATS_NAME
        if snapshot.is_file():
            try:
                data = json.loads(snapshot.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                data = None
            if isinstance(data, dict):
                print(f"serve:     {_render_serve_snapshot(data)}")
        _doctor_hint(store, "responses")
    print()
    if not profiles.root.is_dir():
        print(f"profile store: {profiles.root} (missing; treated as empty)")
    else:
        if args.profile_max_bytes is not None:
            removed = profiles.evict(args.profile_max_bytes)
            print(f"evicted {removed} profile segments @ {profiles.root}")
        print(f"profile store: {profiles.root}")
    print(profiles.manifest().render())
    if profiles.root.is_dir():
        _doctor_hint(profiles, "profiles")
    print()
    if not artifacts.root.is_dir():
        print(f"artifact cache: {artifacts.root} (missing; treated as empty)")
    else:
        if args.artifact_max_bytes is not None:
            removed = artifacts.evict(args.artifact_max_bytes)
            print(f"evicted {removed} artifact segments @ {artifacts.root}")
        print(f"artifact cache: {artifacts.root}")
    print(artifacts.manifest().render())
    if artifacts.root.is_dir():
        _doctor_hint(artifacts, "artifacts")
    return 0


#: Stats snapshot the serve command leaves in the cache dir on shutdown,
#: so ``repro-paper cache`` can report the last session's resilience story.
SERVE_STATS_NAME = "serve-stats.json"


def _write_serve_snapshot(store, service) -> None:
    if store is None:
        return
    payload = service.stats()
    path = store.root / SERVE_STATS_NAME
    try:
        store.root.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    except OSError:  # pragma: no cover - snapshot is best-effort
        return
    print(f"stats snapshot: {path}", flush=True)


def _render_serve_snapshot(data: dict) -> str:
    line = (
        f"{data.get('hits', 0)} hits, {data.get('misses', 0)} misses, "
        f"{data.get('shed', 0)} shed, "
        f"{data.get('failed_over', 0)} failed over, "
        f"{data.get('hedged', 0)} hedged"
    )
    breakers = data.get("breakers") or {}
    if isinstance(breakers, dict) and breakers:
        states = ", ".join(
            f"{label}={entry.get('state', '?')}"
            f" (opened {entry.get('opened', 0)}x)"
            for label, entry in sorted(breakers.items())
            if isinstance(entry, dict)
        )
        line += f"; breakers: {states}"
    return line


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serve import (
        AsyncEvalEngine,
        BreakerPolicy,
        HedgePolicy,
        PredictionServer,
        PredictionService,
        RateLimiter,
        RetryPolicy,
    )

    _install_runtime(args)
    store = _make_store(args)
    hedge = None if args.no_hedge else HedgePolicy(delay_s=args.hedge_delay)
    try:
        breaker = BreakerPolicy(
            window=args.breaker_window,
            threshold=args.breaker_threshold,
            cooldown_s=args.breaker_cooldown,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    engine = AsyncEvalEngine(
        store=store,
        retry=RetryPolicy(
            max_attempts=args.retries,
            timeout_s=args.attempt_timeout,
        ),
        limiter=RateLimiter(args.rate_limit, burst=args.burst),
        max_concurrency=args.max_concurrency,
        breaker=breaker,
        hedge=hedge,
    )
    service = PredictionService(
        engine,
        provider_family=args.provider_family,
        jobs=args.jobs,
        queue_budget=args.queue_budget,
    )
    if args.warm:
        print(f"warming sample index... {service.warm()} samples", flush=True)
    server = PredictionServer(
        service,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
    )
    if store is not None:
        print(f"cache: {len(store)} entries @ {store.root}", flush=True)
    print(f"serving on {server.url} "
          f"(providers: {args.provider_family}; Ctrl-C to stop, "
          f"SIGTERM to drain)", flush=True)

    # SIGTERM means *drain*: stop taking work, let in-flight requests
    # finish (bounded by --drain-timeout), exit 0 — the contract the CI
    # chaos job asserts. Ctrl-C/SIGINT keeps the fast-close path. The
    # server's event loop runs on a background thread, so this main
    # thread is free to wait on the event and then drain or close it.
    stop = threading.Event()
    drain_requested = threading.Event()

    def _on_sigterm(signum, frame):
        drain_requested.set()
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass

    server.start()
    try:
        while not stop.is_set():
            stop.wait(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        if drain_requested.is_set():
            print("draining...", flush=True)
            clean = server.drain(args.drain_timeout)
            print(
                "drained clean" if clean
                else "drain timed out; stragglers cancelled",
                flush=True,
            )
        else:
            server.close()
        _write_serve_snapshot(store, service)
        print(f"served: {engine.stats.summary()}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.dataset import paper_dataset
    from repro.eval.figures import figure1_data, figure2_data

    _install_runtime(args)
    ds = paper_dataset()
    if args.which in ("1", "both"):
        print(figure1_data(list(ds.profiled)).render_ascii())
        print()
    if args.which in ("2", "both"):
        print(figure2_data(ds).render_ascii())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper",
        description="Reproduction of 'Can Large Language Models Predict "
        "Parallel Code Performance?' (Bolet et al., 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the emulated model zoo")

    p = sub.add_parser("dataset", help="build the paper's dataset pipeline")
    p.add_argument("--out", help="write the balanced dataset to a JSONL file")
    p.add_argument("--compact", action="store_true",
                   help="omit source text from the output file")
    p.add_argument("--jobs", type=int, default=1,
                   help="workers for the profile/render pass (0 = all cores)")
    _add_store_flags(p)

    p = sub.add_parser("classify", help="classify one dataset program")
    p.add_argument("uid", help="program uid, e.g. cuda/saxpy-v1")
    p.add_argument("--model", default="o3-mini-high")
    p.add_argument("--few-shot", action="store_true")
    _add_store_flags(p)

    p = sub.add_parser("rq1", help="RQ1: explicit roofline arithmetic")
    p.add_argument("--model", default="all")
    p.add_argument("--rooflines", type=int, default=240)
    _add_engine_flags(p)

    for name, title in _RQ23_TITLES.items():
        p = sub.add_parser(name, help=f"{title} classification")
        p.add_argument("--model", default="all")
        _add_limit_flag(p, "samples")
        _add_engine_flags(p)

    p = sub.add_parser("rq4", help="RQ4: fine-tuning study")
    p.add_argument("--scope", choices=("all", "cuda", "omp"), default="all")
    p.add_argument("--jobs", type=int, default=1,
                   help="workers for validation inference")
    _add_store_flags(p)

    p = sub.add_parser("decompose", help="question-decomposition extension")
    p.add_argument("--model", default="all")
    _add_limit_flag(p, "samples")
    _add_engine_flags(p)

    p = sub.add_parser("table1", help="regenerate the paper's full Table 1")
    p.add_argument("--model", default="all")
    p.add_argument("--rooflines", type=int, default=240)
    _add_limit_flag(p, "samples")
    p.add_argument("--markdown", action="store_true",
                   help="emit a markdown table instead of ASCII")
    _add_engine_flags(p)

    p = sub.add_parser("matrix",
                       help="hardware scenario matrix: sweep models × "
                            "regimes over several GPUs and report label "
                            "flips")
    _add_grid_flags(p)
    p.add_argument("--flip-limit", type=int, default=20,
                   help="max label-flip rows to print (default 20)")
    p.add_argument("--stats", action="store_true",
                   help="append the statistical significance report "
                        "(paired Wilcoxon, A12, bootstrap CIs)")
    _add_stats_flags(p)
    _add_engine_flags(p)

    p = sub.add_parser("stats",
                       help="statistical significance report over the "
                            "matrix grid (Wilcoxon, A12, bootstrap CIs)")
    _add_grid_flags(p)
    p.add_argument("--out", default=None,
                   help="also write the report as JSON to this file")
    _add_stats_flags(p)
    _add_engine_flags(p)

    p = sub.add_parser("export",
                       help="write a run / matrix / stats result as JSON "
                            "through the shared Reportable writer")
    p.add_argument("kind", choices=("run", "matrix", "stats"),
                   help="which result type to compute and export ('run' "
                        "needs one --model and one regime)")
    p.add_argument("--out", required=True, help="destination JSON file")
    _add_grid_flags(p)
    _add_stats_flags(p)
    _add_engine_flags(p)

    sub.add_parser("variants",
                   help="list the registered prompt variants")

    p = sub.add_parser("sweep",
                       help="matrix sweep, optionally one shard of a "
                            "distributed plan (--shard I/N)")
    _add_grid_flags(p)
    p.add_argument("--shard", default="0/1",
                   help="execute shard I of a deterministic N-shard plan "
                        "(e.g. 1/3); the default 0/1 runs the whole grid "
                        "and prints the matrix report")
    p.add_argument("--flip-limit", type=int, default=20,
                   help="max label-flip rows to print (unsharded runs)")
    p.add_argument("--stats", action="store_true",
                   help="append the statistical report (unsharded runs)")
    _add_stats_flags(p)
    _add_engine_flags(p)

    p = sub.add_parser("merge-caches",
                       help="union shard caches into one store, verifying "
                            "no conflicting entries")
    p.add_argument("sources", nargs="+", help="shard cache directories")
    p.add_argument("--into", required=True, help="destination cache directory")
    p.add_argument("--cache-max-bytes", type=_non_negative_int,
                   default=None,
                   help="size-bound the merged store, evicting oldest "
                        "entries after the union")
    p.add_argument("--report", action="store_true",
                   help="after merging, replay the sweep grid from the "
                        "merged cache and print the matrix report")
    _add_grid_flags(p)
    p.add_argument("--jobs", type=int, default=1)
    _add_store_flags(p)

    p = sub.add_parser("cache", help="inspect, bound, or wipe the response "
                                     "cache, the kernel-profile store, and "
                                     "the text-artifact cache")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--max-bytes", type=_non_negative_int,
                   default=None,
                   help="evict oldest entries until the cache fits this size")
    p.add_argument("--profile-cache", default=None,
                   help="kernel-profile store directory (default: "
                        "$REPRO_PROFILE_CACHE or .repro-profile-cache)")
    p.add_argument("--profile-max-bytes", type=_non_negative_int,
                   default=None,
                   help="evict oldest profile segments until the store "
                        "fits this size")
    p.add_argument("--artifact-cache", default=None,
                   help="text-artifact store directory (default: "
                        "$REPRO_ARTIFACT_CACHE or .repro-artifact-cache)")
    p.add_argument("--artifact-max-bytes", type=_non_negative_int,
                   default=None,
                   help="evict oldest artifact segments until the store "
                        "fits this size")
    p.add_argument("--wipe", action="store_true",
                   help="delete every cached response, stored profile, "
                        "and text artifact")

    p = sub.add_parser("doctor",
                       help="fsck all three stores: detect torn writes, "
                            "forged indexes, version skew, corrupt entries, "
                            "and stale tmp files; quarantine or delete the "
                            "damage unless --dry-run")
    p.add_argument("--dry-run", action="store_true",
                   help="report issues without touching the stores; exits 1 "
                        "when any are found")
    p.add_argument("--cache-dir", default=None,
                   help="response cache directory (default: $REPRO_CACHE_DIR "
                        "or .repro-cache)")
    p.add_argument("--profile-cache", default=None,
                   help="kernel-profile store directory (default: "
                        "$REPRO_PROFILE_CACHE or .repro-profile-cache)")
    p.add_argument("--artifact-cache", default=None,
                   help="text-artifact store directory (default: "
                        "$REPRO_ARTIFACT_CACHE or .repro-artifact-cache)")

    p = sub.add_parser("serve",
                       help="answer classification queries over HTTP from "
                            "the warm response/profile/artifact stores")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=_port, default=8077,
                   help="bind port; 0 picks an ephemeral port (default 8077)")
    p.add_argument("--provider-family", default="emulated",
                   help="completion path, or a comma-separated failover "
                        "chain (first = primary): 'emulated' calls the zoo "
                        "directly; 'wire' routes through each model's "
                        "API-shaped adapter (OpenAI/Gemini/Anthropic "
                        "payloads) backed by the emulated transport. "
                        "'emulated,wire' fails over from the zoo to the "
                        "wire adapters when the primary's breaker opens "
                        "(default emulated)")
    p.add_argument("--retries", type=_positive_int, default=4,
                   help="max attempts per upstream completion (default 4)")
    p.add_argument("--attempt-timeout", type=float, default=None,
                   help="per-attempt deadline in seconds, jittered "
                        "(default: none)")
    p.add_argument("--rate-limit", type=float, default=None,
                   help="max upstream completions/s, token-bucket "
                        "(default: unlimited)")
    p.add_argument("--burst", type=_positive_int, default=8,
                   help="rate-limit burst size (default 8)")
    p.add_argument("--max-concurrency", type=_positive_int, default=64,
                   help="max in-flight completions per batch (default 64)")
    p.add_argument("--breaker-window", type=int, default=16,
                   help="circuit-breaker sliding window of attempt outcomes "
                        "per provider (default 16)")
    p.add_argument("--breaker-threshold", type=float, default=0.5,
                   help="failure fraction that opens a provider's breaker "
                        "(default 0.5)")
    p.add_argument("--breaker-cooldown", type=float, default=5.0,
                   help="seconds an open breaker waits before half-open "
                        "probes (default 5)")
    p.add_argument("--hedge-delay", type=float, default=None,
                   help="seconds before hedging a slow request to the next "
                        "healthy provider (default: derived from observed "
                        "p95 latency)")
    p.add_argument("--no-hedge", action="store_true",
                   help="never issue hedged backup requests")
    p.add_argument("--queue-budget", type=_positive_int, default=64,
                   help="max classifications in flight before shedding "
                        "with 429 + Retry-After (default 64)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds SIGTERM waits for in-flight requests "
                        "before closing (default 10)")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="deterministic fault plan for chaos testing, e.g. "
                        "'seed=7;provider_brownout:attempts=6,after=0,"
                        "provider=emulated:o3-mini-high' "
                        "(default: $REPRO_FAULT_PLAN if set)")
    p.add_argument("--warm", action="store_true",
                   help="build the sample index before accepting requests")
    p.add_argument("--verbose", action="store_true",
                   help="log one line per HTTP request")
    p.add_argument("--jobs", type=int, default=1,
                   help="workers for dataset/profile builds (0 = all cores)")
    _add_cache_flags(p)

    p = sub.add_parser("figures", help="render Figures 1-2 as ASCII")
    p.add_argument("--which", choices=("1", "2", "both"), default="both")
    _add_store_flags(p)

    return parser


def _install_sigterm_handler() -> None:
    """Convert SIGTERM into KeyboardInterrupt so an orchestrator's kill
    gets the same graceful shutdown as Ctrl-C: the pending store buffer
    is discarded (the durability contract), runs spilled before the
    signal stay cached, and ``main`` exits 130 with a re-run hint.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return  # signal handlers are a main-thread privilege

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "models": _cmd_models,
        "dataset": _cmd_dataset,
        "classify": _cmd_classify,
        "rq1": _cmd_rq1,
        "rq2": _cmd_rq23,
        "rq3": _cmd_rq23,
        "rq4": _cmd_rq4,
        "decompose": _cmd_decompose,
        "table1": _cmd_table1,
        "matrix": _cmd_matrix,
        "stats": _cmd_stats,
        "export": _cmd_export,
        "variants": _cmd_variants,
        "sweep": _cmd_sweep,
        "merge-caches": _cmd_merge_caches,
        "cache": _cmd_cache,
        "doctor": _cmd_doctor,
        "serve": _cmd_serve,
        "figures": _cmd_figures,
    }
    _install_sigterm_handler()
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): exit as a SIGPIPE'd
        # tool would, and point stdout at devnull so the interpreter's
        # final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("\ninterrupted — unflushed store buffers were discarded (by "
              "design); runs flushed before the interrupt are cached. "
              "Re-run the same command to replay them.", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
