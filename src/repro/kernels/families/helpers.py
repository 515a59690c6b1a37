"""Shared machinery for family builders.

Every family builder follows the same recipe: draw deterministic variant
parameters (sizes, block shape, host verbosity), construct the kernel IR,
and assemble a :class:`~repro.kernels.program.ProgramSpec` with a consistent
argv → binding chain. :func:`assemble` owns the recipe; the per-family code
only supplies the interesting part (the kernel body).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.kernels.ir import (
    ArrayDecl,
    Cast,
    Const,
    DType,
    Kernel,
    Let,
    ScalarParam,
    Scope,
    Store,
    Var,
    aff,
    mul,
)
from repro.kernels.launch import (
    CommandLine,
    Dim3,
    KernelInstance,
    LaunchConfig,
    plan_launch_1d,
    plan_launch_2d,
    validate_launch,
)
from repro.kernels.program import ProgramSpec
from repro.types import Language
from repro.util.rng import RngStream

#: 1-D problem sizes: a mix of powers of two and "awkward" sizes, spanning
#: roughly 128 Ki to 8 Mi elements.
SIZES_1D = (
    1 << 17,
    200_000,
    1 << 18,
    500_000,
    1 << 19,
    1_000_000,
    1 << 20,
    2_000_000,
    1 << 21,
    1 << 22,
    6_000_000,
    1 << 23,
)

SIDES_2D = (512, 640, 768, 1024, 1280, 1536, 2048, 2560)
SIDES_3D = (48, 64, 96, 128, 160, 192)
ITER_COUNTS = (32, 64, 100, 128, 200, 256, 500)
BLOCKS_1D = (128, 256, 256, 512)


def variant_rng(family: str, variant: int, language: Language) -> RngStream:
    """The deterministic stream for one (family, variant, language)."""
    return RngStream("family", family, variant, language.value)


def draw_size_1d(rng: RngStream) -> int:
    return int(rng.choice(SIZES_1D))


def draw_side_2d(rng: RngStream) -> int:
    return int(rng.choice(SIDES_2D))


def draw_side_3d(rng: RngStream) -> int:
    return int(rng.choice(SIDES_3D))


def draw_iters(rng: RngStream) -> int:
    return int(rng.choice(ITER_COUNTS))


def draw_block_1d(rng: RngStream) -> int:
    return int(rng.choice(BLOCKS_1D))


def _distractor_kernel(shape: int, tag: int, flag: str) -> Kernel:
    """Auxiliary kernels that pad programs with realistic secondary work.

    These appear *after* the main kernel in source order (the paper queries
    only the first kernel of each program), acting as source-level
    distractors the way real benchmarks carry init/cleanup/reporting
    kernels.
    """
    from repro.kernels.ir import BinOp, BinOpKind, load

    f32 = DType.F32
    base = flag.split("*")[0]
    kind = shape % 6
    v = Var("v", f32)

    def rescale(by: float) -> tuple:
        return (
            Let("v", load("aux_buf", aff("gx"), f32), f32),
            Store("aux_buf", aff("gx"), mul(v, Const(by, f32)), f32),
        )

    if kind == 0:  # linear init
        gxf = Cast(Var("gx", DType.I32), f32)
        body = (Store("aux_buf", aff("gx"), mul(gxf, Const(0.001, f32)), f32),)
    elif kind == 1:  # decay rescale
        body = rescale(0.98)
    elif kind == 2:  # clamp pass
        body = (
            Let("v", load("aux_buf", aff("gx"), f32), f32),
            Store(
                "aux_buf", aff("gx"),
                BinOp(BinOpKind.MIN,
                      BinOp(BinOpKind.MAX, v, Const(-10.0, f32), f32),
                      Const(10.0, f32), f32),
                f32,
            ),
        )
    elif kind == 3:  # square accumulate
        body = (
            Let("v", load("aux_buf", aff("gx"), f32), f32),
            Store(
                "aux_buf", aff("gx"),
                mul(v, mul(v, Const(0.5, f32), f32), f32),
                f32,
            ),
        )
    elif kind == 4:  # offset shift
        body = rescale(1.0625)
    else:  # zero fill
        gxf = Cast(Var("gx", DType.I32), f32)
        body = (Store("aux_buf", aff("gx"), mul(gxf, Const(0.0, f32)), f32),)
    names = ("init_aux", "rescale_aux", "clamp_aux",
             "square_aux", "drift_aux", "clear_aux")
    return Kernel(
        name=f"{names[kind]}_{tag}",
        arrays=(ArrayDecl("aux_buf", f32, flag, Scope.GLOBAL, is_output=True),),
        params=(ScalarParam(base, DType.I32),),
        body=body,
        work_items=base,
    )


def assemble(
    *,
    family: str,
    variant: int,
    language: Language,
    rng: RngStream,
    kernel: Kernel,
    flags: Mapping[str, int],
    binding_exprs: Mapping[str, str | int],
    description: str,
    block: int | None = None,
    block2d: tuple[int, int] | None = None,
    extra_instances: Sequence[KernelInstance] = (),
    tags: Sequence[str] = (),
    allow_distractors: bool = True,
) -> ProgramSpec:
    """Build a :class:`ProgramSpec` around one main kernel.

    ``flags`` become the executable's command line (and the host code's
    parsed variables); ``binding_exprs`` maps each kernel scalar parameter
    to a flag name or a literal. Launch geometry is derived from the
    kernel's work-item extents. A deterministic fraction of variants gains
    distractor kernels and higher host verbosity, which widens the source
    token distribution like real benchmark suites do.
    """
    cmdline = CommandLine(prog=family, flags=tuple(flags.items()))
    env = {
        p: (v if isinstance(v, int) else cmdline.bindings()[v])
        for p, v in binding_exprs.items()
    }
    from repro.kernels.ir import eval_scalar

    if kernel.work_items_y is None:
        work = eval_scalar(kernel.work_items, env)
        launch = plan_launch_1d(work, block or draw_block_1d(rng))
    else:
        wx = eval_scalar(kernel.work_items, env)
        wy = eval_scalar(kernel.work_items_y, env)
        bx, by = block2d or (16, 16)
        launch = plan_launch_2d(wx, wy, bx, by)

    main = KernelInstance(
        kernel=kernel, launch=launch, binding_exprs=tuple(binding_exprs.items())
    )
    validate_launch(main, cmdline)

    # Bloat level drives the source-length distribution so the 8e3-token
    # pruning cutoff (paper §2.2) bites: CUDA programs carry more utility
    # machinery than OMP ports, matching the paper's per-language keep rates
    # (297/446 CUDA vs 242/303 OMP surviving the cutoff).
    if language is Language.CUDA:
        bloat = int(rng.choice([0] * 6 + [1] * 7 + [2] * 7))
    else:
        bloat = int(rng.choice([0] * 11 + [1] * 5 + [2] * 4))

    instances: list[KernelInstance] = [main, *extra_instances]

    if bloat >= 2:
        # Alternate implementations of the main kernel (a warmup/v2 copy),
        # as real suites ship for comparison runs.
        import dataclasses

        for suffix in ("warmup", "v2", "v3_unrolled", "v4_vectorized", "reference"):
            alt = dataclasses.replace(kernel, name=f"{kernel.name}_{suffix}")
            instances.append(
                KernelInstance(
                    kernel=alt, launch=launch,
                    binding_exprs=tuple(binding_exprs.items()),
                )
            )

    if allow_distractors:
        base_distract = rng.choice([0, 0, 0, 1, 1, 2])
        n_distract = int(base_distract) + (2 if bloat == 1 else 0) + (9 if bloat == 2 else 0)
        first_flag = next(iter(flags))
        shape0 = rng.randint(0, 6)
        for d in range(n_distract):
            dk = _distractor_kernel(shape0 + d, d, first_flag)
            inst = KernelInstance(
                kernel=dk,
                launch=plan_launch_1d(flags[first_flag], 256),
                binding_exprs=((first_flag, first_flag),),
            )
            validate_launch(inst, cmdline)
            instances.append(inst)

    if bloat == 0:
        verbosity = int(rng.choice([0, 1, 1, 1, 2]))
        split = bool(rng.bernoulli(0.3))
        util = 0
    elif bloat == 1:
        verbosity = 2
        split = bool(rng.bernoulli(0.6))
        util = 1
    else:
        verbosity = 2
        split = True
        util = 2
    return ProgramSpec(
        name=f"{family}-v{variant + 1}",
        family=family,
        variant=variant,
        language=language,
        kernels=tuple(instances),
        cmdline=cmdline,
        description=description,
        host_verbosity=verbosity,
        split_files=split,
        util_header=util,
        tags=tuple(tags),
    )
