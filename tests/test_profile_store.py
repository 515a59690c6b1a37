"""Tests for the two-phase profiler and the persistent profile store.

The load-bearing invariant: phase 1 (symbolic trace) + phase 2 (per-device
finalize) must reproduce the seed single-pass profiler **bit-for-bit**, on
every database GPU, whether the profile came from a fresh walk, the
in-process digest memo, or a disk store round trip. A seed-faithful
reference implementation lives in this module and the hypothesis property
pins the equivalence over generated kernels.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.gpusim import (
    PROFILER_VERSION,
    ProfileStore,
    device_for,
    device_profile_key,
    finalize_profile,
    finalize_profiles,
    profile_corpus,
    profile_first_kernel,
    profile_kernel,
    profile_programs,
    program_profile_key,
    symbolic_trace,
)
from repro.gpusim.counters import ProfileCounters
from repro.gpusim.memory import aggregate_traffic, coalescing_quality
from repro.gpusim.profiler import (
    _Walker,
    KernelProfile,
)
from repro.gpusim.timing import estimate_time
from repro.kernels.corpus import build_corpus
from repro.kernels.ir import (
    ArrayDecl,
    Assign,
    Const,
    DType,
    For,
    If,
    Kernel,
    Let,
    ScalarParam,
    Store,
    add,
    aff,
    call,
    CallFn,
    load,
    mul,
    var,
)
from repro.kernels.launch import CommandLine, KernelInstance, plan_launch_1d
from repro.roofline.hardware import GPU_DATABASE
from repro.types import OpClass

ALL_DEVICES = [device_for(g) for g in GPU_DATABASE.values()]

F32 = DType.F32
I32 = DType.I32


def seed_profile(instance, cmdline, device, uid=""):
    """The seed repo's single-pass profiler, replicated verbatim.

    Walks and finalizes in one go — no trace, no pre-merged sites — so the
    two-phase path has an independent reference to be bit-identical to.
    """
    bindings = instance.resolve_bindings(cmdline)
    walker = _Walker(
        instance.kernel,
        bindings,
        instance.launch.total_threads,
        block_x=instance.launch.block.x,
        block_y=instance.launch.block.y,
    )
    acc = walker.run()
    read_b, write_b, useful_b, txn_b = aggregate_traffic(acc.sites, device)
    quality = coalescing_quality(useful_b, txn_b)
    rng = device.efficiency_stream(uid or instance.kernel.name)
    noise = rng.child("counter-noise")
    sigma = device.counter_noise_sigma

    def jitter(x):
        if x <= 0.0:
            return 0.0
        return x * noise.lognormal(0.0, sigma)

    ops = {oc: jitter(v) for oc, v in acc.ops.items()}
    dram_read = jitter(read_b)
    dram_write = jitter(write_b)
    dram_read = max(dram_read, 32.0 * device.sector_bytes)
    timing = estimate_time(
        ops=ops,
        sfu_ops=acc.sfu_ops,
        dram_bytes=dram_read + dram_write,
        coalescing=quality,
        device=device,
        rng=rng.child("timing"),
    )
    counters = ProfileCounters(
        kernel_name=instance.kernel.name,
        sp_flops=ops[OpClass.SP],
        dp_flops=ops[OpClass.DP],
        int_ops=ops[OpClass.INT],
        dram_read_bytes=dram_read,
        dram_write_bytes=dram_write,
        time_s=timing.total_s,
    )
    return KernelProfile(counters=counters, timing=timing, coalescing=quality)


def make_instance(n, iters, taken, use_sfu):
    """A small but representative kernel: loop, branch, stencil-ish loads,
    an SFU call, and a store — every accumulator path exercised."""
    loop_body = (
        Assign("acc", add(var("acc"), load("x", aff("gx", ("k", 1))), F32), F32),
    )
    then_expr = (
        call(CallFn.SQRT, var("acc"), dtype=F32) if use_sfu
        else mul(var("acc"), var("acc"), F32)
    )
    body = (
        Let("acc", Const(0.0, F32), F32),
        For("k", "iters", loop_body),
        If(
            cond=add(var("acc"), Const(1.0, F32), F32),
            then=(Store("y", aff("gx"), then_expr, F32),),
            taken_fraction=taken,
        ),
        Store("z", aff("gx"), var("acc"), F32),
    )
    kernel = Kernel(
        name="propkern",
        arrays=(
            ArrayDecl("x", F32, "n"),
            ArrayDecl("y", F32, "n", is_output=True),
            ArrayDecl("z", F32, "n", is_output=True),
        ),
        params=(ScalarParam("iters", I32), ScalarParam("n", I32)),
        body=body,
        work_items="n",
    )
    cmdline = CommandLine(prog="p", flags=(("n", n), ("iters", iters)))
    instance = KernelInstance(
        kernel=kernel,
        launch=plan_launch_1d(n),
        binding_exprs=(("iters", "iters"), ("n", "n")),
    )
    return instance, cmdline


class TestTwoPhaseEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=32, max_value=1 << 20),
        iters=st.integers(min_value=1, max_value=512),
        taken=st.floats(min_value=0.0, max_value=1.0),
        use_sfu=st.booleans(),
    )
    def test_trace_finalize_matches_seed_on_all_gpus(
        self, n, iters, taken, use_sfu
    ):
        instance, cmdline = make_instance(n, iters, taken, use_sfu)
        trace = symbolic_trace(instance, cmdline)
        for device in ALL_DEVICES:
            expected = seed_profile(instance, cmdline, device, uid="prop-uid")
            assert finalize_profile(trace, device, uid="prop-uid") == expected
            assert profile_kernel(instance, cmdline, device, uid="prop-uid") == expected

    def test_corpus_programs_match_seed_on_all_gpus(self, corpus):
        for program in corpus.programs[::97]:
            for device in ALL_DEVICES:
                assert profile_first_kernel(program, device) == seed_profile(
                    program.first_kernel, program.cmdline, device, uid=program.uid
                )

    def test_default_uid_falls_back_to_kernel_name(self):
        instance, cmdline = make_instance(1024, 4, 0.5, False)
        assert profile_kernel(instance, cmdline) == seed_profile(
            instance, cmdline, ALL_DEVICES[0]
        )

    def test_vectorized_batch_finalize_matches_scalar(self, corpus):
        # The whole-batch numpy path must be indistinguishable from the
        # scalar per-trace path, profile for profile, on every device.
        programs = corpus.programs[::47]
        traces = [
            symbolic_trace(p.first_kernel, p.cmdline) for p in programs
        ]
        uids = [p.uid for p in programs]
        for device in ALL_DEVICES:
            batch = finalize_profiles(traces, device, uids=uids)
            for trace, uid, profile in zip(traces, uids, batch):
                assert profile == finalize_profile(trace, device, uid=uid)

    def test_batch_finalize_of_empty_batch(self):
        assert finalize_profiles([]) == []

    def test_trace_serialization_round_trips_bit_exactly(self):
        instance, cmdline = make_instance(1 << 18, 37, 0.31, True)
        trace = symbolic_trace(instance, cmdline)
        clone = type(trace).from_dict(json.loads(json.dumps(trace.to_dict())))
        assert clone == trace
        for device in ALL_DEVICES:
            assert finalize_profile(clone, device, uid="u") == finalize_profile(
                trace, device, uid="u"
            )


class TestContentKeys:
    def test_uid_distinguishes_identical_ir(self, corpus):
        # The uid keys the noise streams, so IR-identical programs with
        # different uids must never share a store entry.
        import dataclasses

        p = corpus.programs[0]
        q = dataclasses.replace(p, name=p.name + "-clone")
        assert p.first_kernel == q.first_kernel
        assert program_profile_key(p) != program_profile_key(q)

    def test_device_keys_distinct_per_spec(self):
        keys = {device_profile_key(d) for d in ALL_DEVICES}
        assert len(keys) == len(ALL_DEVICES)

    def test_version_in_keys(self, corpus, monkeypatch):
        from repro.gpusim import store as store_mod

        before = store_mod._compute_program_key(corpus.programs[0])
        monkeypatch.setattr(store_mod, "PROFILER_VERSION", "gpusim-profiler-v999")
        assert store_mod._compute_program_key(corpus.programs[0]) != before


@pytest.fixture()
def small_corpus():
    return build_corpus(8, 5)


class TestProfileStore:
    def test_round_trip_bit_exact(self, small_corpus, tmp_path, fresh_memos):
        store = ProfileStore(tmp_path / "ps")
        device = ALL_DEVICES[1]
        first = profile_corpus(small_corpus, device, store=store)
        fresh_memos()
        second = profile_corpus(
            small_corpus, device, store=ProfileStore(tmp_path / "ps")
        )
        assert second == first

    def test_warm_store_walks_zero_kernels(
        self, small_corpus, tmp_path, fresh_memos, monkeypatch
    ):
        store = ProfileStore(tmp_path / "ps")
        profile_corpus(small_corpus, ALL_DEVICES[0], store=store)
        fresh_memos()

        walks = []
        orig = _Walker.run
        monkeypatch.setattr(
            _Walker, "run", lambda self: walks.append(1) or orig(self)
        )
        profile_corpus(small_corpus, ALL_DEVICES[0], store=store)
        assert walks == []

    def test_warm_traces_cover_new_devices(
        self, small_corpus, tmp_path, fresh_memos, monkeypatch
    ):
        # A device never profiled still reuses persisted phase-1 traces.
        store = ProfileStore(tmp_path / "ps")
        profile_corpus(small_corpus, ALL_DEVICES[0], store=store)
        fresh_memos()

        walks = []
        orig = _Walker.run
        monkeypatch.setattr(
            _Walker, "run", lambda self: walks.append(1) or orig(self)
        )
        fresh = profile_corpus(small_corpus, ALL_DEVICES[2], store=store)
        assert walks == []
        assert fresh == profile_corpus(small_corpus, ALL_DEVICES[2], store=None)

    def test_memo_is_digest_keyed_not_identity_keyed(self, fresh_memos):
        # Two structurally equal corpora share one profiling pass.
        a = build_corpus(6, 4)
        b = build_corpus(6, 4)
        assert a is not b
        first = profile_corpus(a, ALL_DEVICES[0], store=None)
        second = profile_corpus(b, ALL_DEVICES[0], store=None)
        assert second is first

    def test_corrupt_segments_read_as_misses(
        self, small_corpus, tmp_path, fresh_memos
    ):
        store = ProfileStore(tmp_path / "ps")
        device = ALL_DEVICES[0]
        expected = profile_corpus(small_corpus, device, store=store)
        segments = sorted((tmp_path / "ps").glob("*.bin"))
        assert segments
        for i, segment in enumerate(segments):
            if i % 3 == 0:
                segment.write_text("{ not json")
            elif i % 3 == 1:
                segment.write_text(json.dumps({"version": "other", "entries": {}}))
            else:
                segment.write_bytes(b"\x00\xff\x00")
        fresh_memos()
        again = profile_corpus(small_corpus, device, store=store)
        assert again == expected
        # ...and the re-put repaired the store for the next cold process.
        fresh_memos()
        assert store.get_profiles(
            device, [program_profile_key(p) for p in small_corpus.programs]
        )

    def test_partial_batches_merge_into_one_segment(
        self, small_corpus, tmp_path, fresh_memos
    ):
        store = ProfileStore(tmp_path / "ps")
        device = ALL_DEVICES[0]
        head = list(small_corpus.programs[:4])
        tail = list(small_corpus.programs[4:])
        profile_programs(head, device, store=store)
        profile_programs(tail, device, store=store)
        assert len(store) == len(small_corpus.programs)

    def test_eviction_is_oldest_first_and_bounded(
        self, small_corpus, tmp_path, fresh_memos, run_holding
    ):
        import os
        import time

        store = ProfileStore(tmp_path / "ps")
        pkey = program_profile_key(small_corpus.programs[0])
        profile_corpus(small_corpus, ALL_DEVICES[0], store=store)
        oldest = run_holding(store, pkey, "profiles-")
        profile_corpus(small_corpus, ALL_DEVICES[1], store=store)
        newest = next(
            p for p in store._segment_files()
            if p.name.startswith("profiles-") and p != oldest
        )
        past = time.time() - 3600
        os.utime(oldest, (past, past))

        bound = store.size_bytes() - 1
        removed = store.evict(bound)
        assert removed >= 1
        assert not oldest.exists()
        assert newest.exists()
        assert store.size_bytes() <= bound

    def test_max_bytes_enforced_on_put(self, small_corpus, tmp_path, fresh_memos):
        store = ProfileStore(tmp_path / "ps", max_bytes=1)
        profile_corpus(small_corpus, ALL_DEVICES[0], store=store)
        # Everything written was immediately evicted down to the bound.
        assert store.size_bytes() <= 1

    def test_manifest_counts(self, small_corpus, tmp_path, fresh_memos):
        store = ProfileStore(tmp_path / "ps")
        profile_corpus(small_corpus, ALL_DEVICES[0], store=store)
        profile_corpus(small_corpus, ALL_DEVICES[1], store=store)
        m = store.manifest()
        n = len(small_corpus.programs)
        assert m.version == PROFILER_VERSION
        assert m.count("profiles") == 2 * n
        assert m.count("traces") == n
        assert m.total_bytes > 0
        assert dict(m.breakdown) == {
            ALL_DEVICES[0].spec.name: n,
            ALL_DEVICES[1].spec.name: n,
        }
        rendered = m.render()
        assert PROFILER_VERSION in rendered
        assert ALL_DEVICES[0].spec.name in rendered

    def test_missing_root_reads_empty(self, tmp_path):
        store = ProfileStore(tmp_path / "never")
        assert len(store) == 0
        assert store.manifest().count("profiles") == 0
        assert store.evict(10) == 0
        store.clear()  # no-op, no crash

    def test_clear_leaves_foreign_files(self, small_corpus, tmp_path, fresh_memos):
        root = tmp_path / "ps"
        store = ProfileStore(root)
        profile_corpus(small_corpus, ALL_DEVICES[0], store=store)
        foreign = root / "README.txt"
        foreign.write_text("not a segment")
        store.clear()
        assert foreign.exists()
        assert len(store) == 0


class TestActiveStore:
    def test_env_var_activates_store(self, small_corpus, tmp_path, monkeypatch, fresh_memos):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "env-store"))
        store = runtime.current().profile_store
        assert store is not None
        profile_corpus(small_corpus, ALL_DEVICES[0])  # default: active store
        assert len(ProfileStore(tmp_path / "env-store")) == len(
            small_corpus.programs
        )

    def test_empty_env_means_no_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", "")
        assert runtime.current().profile_store is None

    def test_set_active_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "ignored"))
        runtime.install(profile_store=None)
        try:
            assert runtime.current().profile_store is None
        finally:
            runtime.reset()
        assert runtime.current().profile_store.root == tmp_path / "ignored"


class TestStoreInvisibleToResults:
    def test_scenario_profiles_identical_with_and_without_store(
        self, small_corpus, tmp_path, fresh_memos
    ):
        device = ALL_DEVICES[3]
        bare = profile_corpus(small_corpus, device, store=None)
        fresh_memos()
        store = ProfileStore(tmp_path / "ps")
        cold = profile_corpus(small_corpus, device, store=store)
        fresh_memos()
        warm = profile_corpus(small_corpus, device, store=store)
        assert cold == bare
        assert warm == bare
