"""The kernel profiler: walks kernel IR and produces dynamic counters.

This is the simulator's stand-in for running ``ncu``/``nvprof`` on real
hardware (paper §2.1): it executes the IR *symbolically* — multiplying
per-statement costs by thread counts, loop trip counts, and branch taken
fractions — and passes every global-memory access site through the
coalescing/cache model of :mod:`repro.gpusim.memory`.

Counts depend on runtime facts (argv-derived sizes, taken fractions, cache
footprints) that are invisible to a static reading of the source, which is
exactly the gap the paper's LLMs have to bridge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro import runtime
from repro.gpusim.counters import ProfileCounters
from repro.gpusim.device import DeviceModel, default_device
from repro.gpusim.memory import (
    AccessSite,
    aggregate_traffic,
    batch_site_traffic,
    coalescing_quality,
)
from repro.gpusim.timing import TimingBreakdown, estimate_time
from repro.kernels.ir import (
    AffineIndex,
    Assign,
    AtomicAdd,
    BinOp,
    BinOpKind,
    Call,
    CallFn,
    Cast,
    Comment,
    Const,
    DType,
    DynamicIndex,
    Expr,
    For,
    If,
    Index,
    Kernel,
    Let,
    Load,
    Scope,
    Select,
    Stmt,
    Store,
    SyncThreads,
    Var,
    eval_scalar,
)
from repro.kernels.launch import CommandLine, KernelInstance
from repro.kernels.program import ProgramSpec
from repro.types import OpClass
from repro.util.memo import Memo

# ---------------------------------------------------------------------------
# Operation cost tables (ops per executed instruction)
# ---------------------------------------------------------------------------

_FLOP_BINOP = {
    BinOpKind.ADD: 1.0,
    BinOpKind.SUB: 1.0,
    BinOpKind.MUL: 1.0,
    BinOpKind.DIV: 4.0,
    BinOpKind.MIN: 1.0,
    BinOpKind.MAX: 1.0,
    BinOpKind.LT: 1.0,
    BinOpKind.GT: 1.0,
    BinOpKind.LE: 1.0,
    BinOpKind.GE: 1.0,
    BinOpKind.EQ: 1.0,
}

_INT_BINOP = {
    BinOpKind.ADD: 1.0,
    BinOpKind.SUB: 1.0,
    BinOpKind.MUL: 1.0,
    BinOpKind.DIV: 4.0,
    BinOpKind.MOD: 4.0,
    BinOpKind.MIN: 1.0,
    BinOpKind.MAX: 1.0,
    BinOpKind.AND: 1.0,
    BinOpKind.OR: 1.0,
    BinOpKind.XOR: 1.0,
    BinOpKind.SHL: 1.0,
    BinOpKind.SHR: 1.0,
    BinOpKind.LT: 1.0,
    BinOpKind.GT: 1.0,
    BinOpKind.LE: 1.0,
    BinOpKind.GE: 1.0,
    BinOpKind.EQ: 1.0,
    BinOpKind.LAND: 1.0,
    BinOpKind.LOR: 1.0,
}

#: FLOP-equivalent cost of math intrinsics, and their SFU issue weight.
_CALL_COST: dict[CallFn, tuple[float, float]] = {
    CallFn.SQRT: (4.0, 1.0),
    CallFn.RSQRT: (4.0, 1.0),
    CallFn.EXP: (8.0, 1.0),
    CallFn.LOG: (8.0, 1.0),
    CallFn.SIN: (8.0, 1.0),
    CallFn.COS: (8.0, 1.0),
    CallFn.TANH: (12.0, 2.0),
    CallFn.POW: (16.0, 2.0),
    CallFn.FABS: (1.0, 0.0),
    CallFn.FMA: (2.0, 0.0),
    CallFn.ERF: (16.0, 2.0),
    CallFn.FLOOR: (1.0, 0.0),
}


def _op_class(dtype: DType) -> OpClass:
    if dtype is DType.F32:
        return OpClass.SP
    if dtype is DType.F64:
        return OpClass.DP
    return OpClass.INT


@dataclass
class _Accumulator:
    ops: dict[OpClass, float] = field(
        default_factory=lambda: {OpClass.SP: 0.0, OpClass.DP: 0.0, OpClass.INT: 0.0}
    )
    sfu_ops: float = 0.0
    sites: list[AccessSite] = field(default_factory=list)

    def add_ops(self, op_class: OpClass, count: float) -> None:
        self.ops[op_class] += count


class _Walker:
    """Symbolic executor for one kernel invocation.

    Entirely device-independent: ops, SFU issue weights, trip counts, and
    access-site geometry depend only on the kernel IR and the launch-time
    bindings. The device enters in phase 2 (:func:`finalize_profile`).
    """

    def __init__(
        self,
        kernel: Kernel,
        bindings: Mapping[str, int],
        launched_threads: int,
        block_x: int = 256,
        block_y: int = 1,
    ) -> None:
        self.kernel = kernel
        self.bindings = dict(bindings)
        self.acc = _Accumulator()
        # Extents of the implicit parallel dimensions (global and block-local).
        nx = eval_scalar(kernel.work_items, bindings)
        self.sym_extents: dict[str, int] = {"gx": nx, "lx": block_x, "ly": block_y}
        self.active = nx
        if kernel.work_items_y is not None:
            ny = eval_scalar(kernel.work_items_y, bindings)
            self.sym_extents["gy"] = ny
            self.active = nx * ny
        self.active = min(self.active, launched_threads)
        self._array_elems = {
            a.name: eval_scalar(a.size, bindings) for a in kernel.arrays
        }
        self._array_scope = {a.name: a.scope for a in kernel.arrays}

    # -- entry point --------------------------------------------------------
    def run(self) -> _Accumulator:
        # Bounds-guard compare executed by every launched thread.
        self.acc.add_ops(OpClass.INT, float(self.active))
        self._walk(self.kernel.body, float(self.active))
        return self.acc

    # -- statements ----------------------------------------------------------
    def _walk(self, body: tuple[Stmt, ...], execs: float) -> None:
        for stmt in body:
            if isinstance(stmt, Comment):
                continue
            if isinstance(stmt, (Let, Assign)):
                self._expr_cost(stmt.expr, execs)
            elif isinstance(stmt, Store):
                self._expr_cost(stmt.expr, execs)
                self._access(stmt.array, stmt.index, stmt.dtype, execs, write=True)
            elif isinstance(stmt, AtomicAdd):
                self._expr_cost(stmt.expr, execs)
                self._access(
                    stmt.array, stmt.index, stmt.dtype, execs, write=True, atomic=True
                )
            elif isinstance(stmt, If):
                self._expr_cost(stmt.cond, execs)
                if stmt.then:
                    self._walk(stmt.then, execs * stmt.taken_fraction)
                if stmt.els:
                    self._walk(stmt.els, execs * (1.0 - stmt.taken_fraction))
            elif isinstance(stmt, For):
                trips = self._trip_count(stmt)
                # Loop bookkeeping: increment + compare per iteration.
                self.acc.add_ops(OpClass.INT, 2.0 * trips * execs)
                self.sym_extents[stmt.var] = trips
                self._walk(stmt.body, execs * trips)
                del self.sym_extents[stmt.var]
            elif isinstance(stmt, SyncThreads):
                continue
            else:  # pragma: no cover - exhaustiveness guard
                raise TypeError(f"profiler cannot walk statement {stmt!r}")

    def _trip_count(self, loop: For) -> int:
        extent = eval_scalar(loop.extent, self.bindings)
        span = extent - loop.start
        if span <= 0:
            return 0
        step = abs(loop.step)
        return (span + step - 1) // step

    # -- expressions ---------------------------------------------------------
    def _expr_cost(self, expr: Expr, execs: float) -> None:
        if isinstance(expr, (Const, Var)):
            return
        if isinstance(expr, Load):
            self._access(expr.array, expr.index, expr.dtype, execs, write=False)
            return
        if isinstance(expr, BinOp):
            self._expr_cost(expr.lhs, execs)
            self._expr_cost(expr.rhs, execs)
            if expr.dtype.is_float:
                cost = _FLOP_BINOP.get(expr.op)
                if cost is None:
                    raise ValueError(f"float binop {expr.op} has no cost")
                self.acc.add_ops(_op_class(expr.dtype), cost * execs)
            else:
                cost = _INT_BINOP.get(expr.op)
                if cost is None:
                    raise ValueError(f"int binop {expr.op} has no cost")
                self.acc.add_ops(OpClass.INT, cost * execs)
            return
        if isinstance(expr, Call):
            for a in expr.args:
                self._expr_cost(a, execs)
            flop_cost, sfu_weight = _CALL_COST[expr.fn]
            self.acc.add_ops(_op_class(expr.dtype), flop_cost * execs)
            if expr.dtype.is_float:
                self.acc.sfu_ops += sfu_weight * execs
            return
        if isinstance(expr, Cast):
            self._expr_cost(expr.expr, execs)
            self.acc.add_ops(_op_class(expr.dtype), 1.0 * execs)
            return
        if isinstance(expr, Select):
            self._expr_cost(expr.cond, execs)
            self._expr_cost(expr.if_true, execs)
            self._expr_cost(expr.if_false, execs)
            self.acc.add_ops(_op_class(expr.dtype), 1.0 * execs)
            return
        raise TypeError(f"profiler cannot cost expression {expr!r}")

    # -- memory accesses -----------------------------------------------------
    def _access(
        self,
        array: str,
        index: Index,
        dtype: DType,
        execs: float,
        *,
        write: bool,
        atomic: bool = False,
    ) -> None:
        # Address arithmetic is integer work regardless of scope.
        if isinstance(index, AffineIndex):
            addr_ops = max(1.0, 2.0 * len(index.terms)) if index.terms else 0.0
        else:
            self._expr_cost(index.expr, execs)
            addr_ops = 2.0
        self.acc.add_ops(OpClass.INT, addr_ops * execs)

        scope = self._array_scope.get(array)
        if scope is None:
            raise KeyError(f"kernel {self.kernel.name}: access to undeclared array {array!r}")
        if scope is Scope.SHARED:
            return  # on-chip: no DRAM traffic

        elems = self._array_elems[array]
        if isinstance(index, DynamicIndex):
            footprint = min(elems, eval_scalar(index.range_hint, self.bindings))
            site = AccessSite(
                array=array,
                elem_size=dtype.size,
                is_write=write,
                executions=execs,
                gx_stride=1,
                footprint_elems=float(footprint),
                pattern=index.pattern,
                is_atomic=atomic,
            )
        else:
            combined: dict[str, int] = {}
            for sym, coeff in index.terms:
                combined[sym] = combined.get(sym, 0) + eval_scalar(coeff, self.bindings)
            # Adjacent threads of a warp differ by 1 in both gx and lx, so
            # the inter-thread stride is the sum of those coefficients.
            gx_stride = combined.get("gx", 0) + combined.get("lx", 0)
            prod = 1.0
            span = 1.0
            for sym, coeff in combined.items():
                extent = self.sym_extents.get(sym, 1)
                prod *= max(1, extent)
                span += abs(coeff) * max(0, extent - 1)
            footprint = min(float(elems), prod, span)
            site = AccessSite(
                array=array,
                elem_size=dtype.size,
                is_write=write,
                executions=execs,
                gx_stride=gx_stride,
                footprint_elems=footprint,
                pattern="affine",
                is_atomic=atomic,
            )
        self.acc.sites.append(site)


# ---------------------------------------------------------------------------
# Public API — phase 1 (device-independent symbolic trace)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolicTrace:
    """Phase 1 of a profile: the device-independent result of the IR walk.

    Everything here depends only on (kernel IR, launch geometry, argv
    bindings) — op counts by class, SFU issue weight, and the merged
    global-memory access sites. One trace finalizes against any number of
    devices (:func:`finalize_profile`), so a 6-GPU matrix sweep walks each
    kernel once instead of six times; it also serialises to JSON bit-exactly
    for the persistent profile store (:mod:`repro.gpusim.store`).

    ``sites`` are already :func:`~repro.gpusim.memory.merge_sites`-merged
    (merging is device-independent and idempotent), in first-seen walker
    order, so phase 2 aggregates them in the same float-addition order as
    the seed single-pass profiler.
    """

    kernel_name: str
    sp_ops: float
    dp_ops: float
    int_ops: float
    sfu_ops: float
    sites: tuple[AccessSite, ...]

    def ops(self) -> dict[OpClass, float]:
        """Op counts keyed by class, in the accumulator's SP/DP/INT order."""
        return {
            OpClass.SP: self.sp_ops,
            OpClass.DP: self.dp_ops,
            OpClass.INT: self.int_ops,
        }

    def to_dict(self) -> dict:
        return {
            "kernel_name": self.kernel_name,
            "sp_ops": self.sp_ops,
            "dp_ops": self.dp_ops,
            "int_ops": self.int_ops,
            "sfu_ops": self.sfu_ops,
            "sites": [s.to_dict() for s in self.sites],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SymbolicTrace":
        return cls(
            kernel_name=str(data["kernel_name"]),
            sp_ops=float(data["sp_ops"]),
            dp_ops=float(data["dp_ops"]),
            int_ops=float(data["int_ops"]),
            sfu_ops=float(data["sfu_ops"]),
            sites=tuple(AccessSite.from_dict(s) for s in data["sites"]),
        )


def symbolic_trace(instance: KernelInstance, cmdline: CommandLine) -> SymbolicTrace:
    """Phase 1: walk one kernel invocation symbolically (no device needed)."""
    from repro.gpusim.memory import merge_sites

    bindings = instance.resolve_bindings(cmdline)
    walker = _Walker(
        instance.kernel,
        bindings,
        instance.launch.total_threads,
        block_x=instance.launch.block.x,
        block_y=instance.launch.block.y,
    )
    acc = walker.run()
    return SymbolicTrace(
        kernel_name=instance.kernel.name,
        sp_ops=acc.ops[OpClass.SP],
        dp_ops=acc.ops[OpClass.DP],
        int_ops=acc.ops[OpClass.INT],
        sfu_ops=acc.sfu_ops,
        sites=tuple(merge_sites(acc.sites)),
    )


# ---------------------------------------------------------------------------
# Public API — phase 2 (per-device finalize)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelProfile:
    """Counters plus the timing breakdown for one kernel invocation."""

    counters: ProfileCounters
    timing: TimingBreakdown
    coalescing: float

    def to_dict(self) -> dict:
        return {
            "counters": self.counters.to_dict(),
            "timing": self.timing.to_dict(),
            "coalescing": self.coalescing,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KernelProfile":
        return cls(
            counters=ProfileCounters.from_dict(data["counters"]),
            timing=TimingBreakdown.from_dict(data["timing"]),
            coalescing=float(data["coalescing"]),
        )


def _finalize_from_traffic(
    trace: SymbolicTrace,
    device: DeviceModel,
    uid: str,
    read_b: float,
    write_b: float,
    useful_b: float,
    txn_b: float,
) -> KernelProfile:
    """Shared phase-2 tail: jitter + timing from aggregated traffic."""
    quality = coalescing_quality(useful_b, txn_b)

    rng = device.efficiency_stream(uid or trace.kernel_name)
    noise = rng.child("counter-noise")
    sigma = device.counter_noise_sigma

    def jitter(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return x * noise.lognormal(0.0, sigma)

    ops = {oc: jitter(v) for oc, v in trace.ops().items()}
    dram_read = jitter(read_b)
    dram_write = jitter(write_b)
    # Every real kernel invocation moves at least a few cache lines
    # (arguments, instruction fetch); avoids zero-byte degenerate profiles.
    floor_bytes = 32.0 * device.sector_bytes
    dram_read = max(dram_read, floor_bytes)

    timing = estimate_time(
        ops=ops,
        sfu_ops=trace.sfu_ops,
        dram_bytes=dram_read + dram_write,
        coalescing=quality,
        device=device,
        rng=rng.child("timing"),
    )
    counters = ProfileCounters(
        kernel_name=trace.kernel_name,
        sp_flops=ops[OpClass.SP],
        dp_flops=ops[OpClass.DP],
        int_ops=ops[OpClass.INT],
        dram_read_bytes=dram_read,
        dram_write_bytes=dram_write,
        time_s=timing.total_s,
    )
    return KernelProfile(counters=counters, timing=timing, coalescing=quality)


def finalize_profile(
    trace: SymbolicTrace,
    device: DeviceModel | None = None,
    *,
    uid: str = "",
) -> KernelProfile:
    """Phase 2: turn a symbolic trace into one device's profile.

    Reproduces the seed single-pass profiler bit-for-bit: traffic
    aggregation, counter jitter, and timing draw from the same streams in
    the same order. ``uid`` keys the per-kernel noise/efficiency draws
    (defaults to the kernel name, matching :func:`profile_kernel`).
    """
    device = device or default_device()
    read_b, write_b, useful_b, txn_b = aggregate_traffic(
        trace.sites, device, assume_merged=True
    )
    return _finalize_from_traffic(
        trace, device, uid, read_b, write_b, useful_b, txn_b
    )


def finalize_profiles(
    traces: list[SymbolicTrace],
    device: DeviceModel | None = None,
    *,
    uids: list[str] | None = None,
) -> list[KernelProfile]:
    """Phase 2 over a whole batch: one vectorized traffic pass per device.

    Bit-identical to mapping :func:`finalize_profile` over the batch. The
    per-site coalescing/reuse model runs once over preallocated float64
    columns spanning every trace's sites
    (:func:`~repro.gpusim.memory.batch_site_traffic`, elementwise-exact),
    then each trace reduces its own slice with sequential Python float
    additions — the same order the scalar aggregator uses, so the sums
    match bit for bit. The per-kernel RNG draws (counter jitter, timing)
    are keyed by uid and independent across kernels, so they stay scalar.
    """
    device = device or default_device()
    traces = list(traces)
    if uids is None:
        uids = [""] * len(traces)
    flat: list[AccessSite] = []
    bounds = [0]
    for trace in traces:
        flat.extend(trace.sites)
        bounds.append(len(flat))
    if flat:
        read_a, write_a, useful_a, txn_a = batch_site_traffic(flat, device)
        reads, writes = read_a.tolist(), write_a.tolist()
        usefuls, txns = useful_a.tolist(), txn_a.tolist()
    else:
        reads = writes = usefuls = txns = []
    profiles: list[KernelProfile] = []
    for trace, uid, lo, hi in zip(traces, uids, bounds, bounds[1:]):
        r = w = u = t = 0.0
        for i in range(lo, hi):
            r += reads[i]
            w += writes[i]
            u += usefuls[i]
            t += txns[i]
        profiles.append(
            _finalize_from_traffic(trace, device, uid, r, w, u, t)
        )
    return profiles


def profile_kernel(
    instance: KernelInstance,
    cmdline: CommandLine,
    device: DeviceModel | None = None,
    *,
    uid: str = "",
) -> KernelProfile:
    """Profile one kernel invocation (the paper profiles first invocations).

    ``uid`` keys the deterministic per-kernel efficiency/noise draws; pass
    the program uid so identical kernels in different programs land at
    different (realistic) points under the roofline.

    Composed of the two phases — :func:`symbolic_trace` then
    :func:`finalize_profile` — and byte-identical to the seed single-pass
    profiler.
    """
    return finalize_profile(
        symbolic_trace(instance, cmdline),
        device,
        uid=uid or instance.kernel.name,
    )


def profile_first_kernel(
    spec: ProgramSpec, device: DeviceModel | None = None
) -> KernelProfile:
    """Profile a program's first kernel — the paper's per-program sample."""
    return profile_kernel(
        spec.first_kernel, spec.cmdline, device, uid=spec.uid
    )


# ---------------------------------------------------------------------------
# Batched corpus profiling (digest-keyed, store-backed)
# ---------------------------------------------------------------------------

# Profiling is deterministic in (program, device), so a batch of programs
# needs exactly one pass per device; every experiment that re-derives
# samples shares it. Batches are memoized by the programs' store keys
# (:func:`repro.gpusim.store.program_profile_key`) and the device digest,
# so two builds of one corpus share one pass, the memo layers over the
# persistent profile store (same key discipline), and no id()-reuse
# hazards exist. Each entry is a ~749-profile dict; six scenario devices
# plus the default fit comfortably.
PROFILE_BATCHES = Memo(16)

# Device-independent traces, keyed by program digest, shared across every
# device pass in the process (cheap to rebuild, one walk each).
TRACES = Memo(4096)


def profile_programs(
    programs,
    device: DeviceModel | None = None,
    *,
    jobs: int = 1,
    store=runtime.CURRENT,
) -> dict[str, KernelProfile]:
    """Profile each program's first kernel as one batched two-phase pass.

    Returns uid → :class:`KernelProfile` in input order. The pass

    * serves whole profiles from ``store`` (a
      :class:`~repro.gpusim.store.ProfileStore`; defaults to the
      runtime's profile store, ``None`` disables) — a warm store means a
      cold process walks **zero** kernels;
    * reuses device-independent traces across devices (memory first, then
      the store), so only programs never seen by any device pay the walk;
    * fans phase 1+2 of the misses over ``jobs`` worker threads;
    * is memoized per (program-set digest, device digest, store root), so
      repeated experiment runs in one process profile each batch exactly
      once — and writes every newly computed profile/trace back to the
      store.
    """
    from repro.gpusim.store import device_profile_key, program_profile_key
    from repro.util.hashing import stable_hash_hex
    from repro.util.parallel import parallel_map

    device = device or default_device()
    if store is runtime.CURRENT:
        store = runtime.current().profile_store
    programs = list(programs)
    pkeys = [program_profile_key(p) for p in programs]
    dkey = device_profile_key(device)
    # The store rides in the memo key: a batch first profiled store-less
    # (or against a different root) must not memo-shadow the pass that
    # would have written this store — warmth is part of the contract.
    store_tag = str(store.root) if store is not None else ""
    memo_key = (stable_hash_hex(*pkeys), dkey, store_tag)
    hit = PROFILE_BATCHES.get(memo_key)
    if hit is not None:
        return hit

    stored: dict[str, KernelProfile] = {}
    if store is not None and programs:
        stored = store.get_profiles(device, pkeys)
    missing = [(p, k) for p, k in zip(programs, pkeys) if k not in stored]

    computed: dict[str, KernelProfile] = {}
    if missing:
        traces: dict[str, SymbolicTrace] = {
            k: trace
            for _, k in missing
            if (trace := TRACES.get(k)) is not None
        }
        if store is not None:
            need = [k for _, k in missing if k not in traces]
            if need:
                traces.update(store.get_traces(need))
        walked: dict[str, SymbolicTrace] = {}

        def trace_one(item: tuple[ProgramSpec, str]) -> SymbolicTrace:
            program, key = item
            trace = traces.get(key)
            if trace is None:
                trace = symbolic_trace(program.first_kernel, program.cmdline)
                walked[key] = trace
            return trace

        # Phase 1 (the IR walks) fans out over the workers; phase 2 runs
        # as one vectorized finalize over the whole device batch.
        batch = parallel_map(trace_one, missing, jobs=jobs)
        profiles = finalize_profiles(
            batch, device, uids=[p.uid for p, _ in missing]
        )
        computed = {k: prof for (_, k), prof in zip(missing, profiles)}
        for key, trace in walked.items():
            TRACES.put(key, trace)
        if store is not None:
            store.put_profiles(device, computed)
            if walked:
                store.put_traces(walked)

    result = {
        p.uid: stored[k] if k in stored else computed[k]
        for p, k in zip(programs, pkeys)
    }
    return PROFILE_BATCHES.put(memo_key, result)


def profile_corpus(
    corpus,
    device: DeviceModel | None = None,
    *,
    jobs: int = 1,
    store=runtime.CURRENT,
) -> dict[str, KernelProfile]:
    """Profile every program's first kernel, once, as one batched pass.

    Returns uid → :class:`KernelProfile` in corpus order; see
    :func:`profile_programs` for the store/memo/trace-reuse semantics.
    """
    return profile_programs(corpus.programs, device, jobs=jobs, store=store)
