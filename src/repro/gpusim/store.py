"""Persistent, content-addressed profile store.

The response cache (PR 1) made LLM completions replayable across
processes; this module does the same for the other cold-path cost — the
``ncu``-style per-kernel profiles of :mod:`repro.gpusim.profiler`. Every
profile is addressed by SHA-256 over

* the **program digest** — for a program
  :func:`~repro.kernels.corpus.build_corpus` returned, the generator
  digest and the uid (the generator's code and the uid fix the program);
  for any other program, its kernel IR, launch geometry, argv bindings,
  and uid. The uid keys the deterministic noise draws, so two
  IR-identical programs with different uids profile differently and must
  never share an entry,
* the **device digest** — every :class:`~repro.roofline.hardware.GpuSpec`
  field plus every :class:`~repro.gpusim.device.DeviceModel` simulation
  parameter, and
* :data:`PROFILER_VERSION`, bumped whenever walker/finalize semantics
  change.

Any generator or IR edit, recalibration, or profiler change therefore
invalidates the affected entries; a stale entry can only ever read as a
miss, never as a wrong profile.

Storage is segment-per-device rather than file-per-entry: one profile
pass reads and writes whole device batches, and a single packed binary
segment (mmap-backed, decoded lazily per entry) turns a warm 6-device
corpus pass into six index parses instead of ~4500 file reads.
Phase-1 traces (:class:`~repro.gpusim.profiler.SymbolicTrace`) persist in
their own device-independent segment, so even a device never profiled
before skips the IR walk.

The segment/eviction/atomic-write machinery lives in the shared
:class:`~repro.store.base.ArtifactStore` base (also under the artifact
cache of :mod:`repro.store.text`); :class:`ProfileStore` is a thin
subclass, byte-compatible with pre-refactor store directories. The
process-wide store — installed by the CLI, else built from
``$REPRO_PROFILE_CACHE`` — lives in :mod:`repro.runtime`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Mapping, Sequence

from repro import runtime
from repro.kernels.corpus import generated_program_key
from repro.store.base import ArtifactStore, Breakdown, CountRow
from repro.util.hashing import stable_hash_hex
from repro.util.memo import IdentityMemo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (profiler imports us)
    from repro.gpusim.device import DeviceModel
    from repro.gpusim.profiler import KernelProfile, SymbolicTrace
    from repro.kernels.program import ProgramSpec

#: Bump whenever the walker, traffic model, jitter, or timing semantics
#: change: the version is hashed into every key, so old entries become
#: unreachable (misses) instead of replaying stale counters.
PROFILER_VERSION = "gpusim-profiler-v1"

_SEGMENT_PREFIX_PROFILES = "profiles-"
_SEGMENT_PREFIX_TRACES = "traces-"


# ---------------------------------------------------------------------------
# Content digests
# ---------------------------------------------------------------------------

# Device digests are memoized per object identity: the per-spec
# DeviceModels are long-lived shared instances.
DEVICE_KEYS = IdentityMemo()


def program_profile_key(program: "ProgramSpec") -> str:
    """SHA-256 content address of one program's profiling inputs.

    A program :func:`~repro.kernels.corpus.build_corpus` returned is keyed
    by the profiler version, the generator digest and its uid
    (:func:`~repro.kernels.corpus.generated_program_key`): the generator's
    code fixes its IR, launch and command line, so any generator edit
    changes every such key. Any other program is keyed by its first
    kernel's IR, launch geometry and binding expressions (via the
    deterministic ``repr`` of the frozen dataclass tree), the command
    line, the program uid (it keys the noise streams), and the profiler
    version.
    """
    key = generated_program_key(program, PROFILER_VERSION)
    if key is not None:
        return key
    return _compute_program_key(program)


def _compute_program_key(program: "ProgramSpec") -> str:
    return stable_hash_hex(
        PROFILER_VERSION,
        program.uid,
        repr(program.first_kernel),
        repr(program.cmdline),
    )


def device_profile_key(device: "DeviceModel") -> str:
    """SHA-256 content address of one device's simulation parameters."""
    key = DEVICE_KEYS.get(device)
    if key is None:
        key = DEVICE_KEYS.put(device, value=_compute_device_key(device))
    return key


def _compute_device_key(device: "DeviceModel") -> str:
    spec = device.spec
    spec_parts = [getattr(spec, f.name) for f in dataclasses.fields(spec)]
    model_parts = [
        getattr(device, f.name)
        for f in dataclasses.fields(device)
        if f.name != "spec"
    ]
    return stable_hash_hex(PROFILER_VERSION, spec_parts, model_parts)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class ProfileStore(ArtifactStore):
    """Disk-backed profile/trace segments with size-bounded eviction.

    One segment per device (plus one per profiler version for the
    device-independent traces); see :class:`~repro.store.base.ArtifactStore`
    for the write/eviction contract shared with the text-artifact stores.
    """

    version = PROFILER_VERSION
    segment_prefixes = (_SEGMENT_PREFIX_PROFILES, _SEGMENT_PREFIX_TRACES)
    version_row = "profiler"
    count_rows = (
        CountRow("profiles", _SEGMENT_PREFIX_PROFILES),
        CountRow("traces", _SEGMENT_PREFIX_TRACES),
    )
    breakdown = Breakdown(
        _SEGMENT_PREFIX_PROFILES, "device", of="payload",
        unnamed="<unknown device>",
    )

    # -- segment naming ------------------------------------------------------
    def _traces_key(self) -> str:
        return stable_hash_hex(PROFILER_VERSION)

    # -- profiles ------------------------------------------------------------
    def get_profiles(
        self, device: "DeviceModel", program_keys: Sequence[str]
    ) -> dict[str, "KernelProfile"]:
        """program key → profile for every requested key present on disk.

        Lazy: decodes only the requested keys' blobs, not the device's
        whole segment."""
        from repro.gpusim.profiler import KernelProfile

        dkey = device_profile_key(device)
        entries = self._get_entries(
            _SEGMENT_PREFIX_PROFILES, dkey, program_keys
        )
        out: dict[str, KernelProfile] = {}
        for key, raw in entries.items():
            if raw is None:
                continue
            try:
                out[key] = KernelProfile.from_dict(raw)
            except (KeyError, TypeError, ValueError):
                continue  # corrupt entry == miss; the re-put repairs it
        return out

    def put_profiles(
        self, device: "DeviceModel", profiles: Mapping[str, "KernelProfile"]
    ) -> None:
        """Merge ``program key → profile`` into the device's segment."""
        if not profiles:
            return
        dkey = device_profile_key(device)
        self._merge_entries(
            _SEGMENT_PREFIX_PROFILES,
            dkey,
            {"version": PROFILER_VERSION, "device": device.spec.name},
            {key: prof.to_dict() for key, prof in profiles.items()},
        )

    # -- traces --------------------------------------------------------------
    def get_traces(
        self, program_keys: Sequence[str]
    ) -> dict[str, "SymbolicTrace"]:
        """program key → phase-1 trace for every requested key (lazy)."""
        from repro.gpusim.profiler import SymbolicTrace

        entries = self._get_entries(
            _SEGMENT_PREFIX_TRACES,
            self._traces_key(),
            program_keys,
        )
        out: dict[str, SymbolicTrace] = {}
        for key, raw in entries.items():
            if raw is None:
                continue
            try:
                out[key] = SymbolicTrace.from_dict(raw)
            except (KeyError, TypeError, ValueError):
                continue
        return out

    def put_traces(self, traces: Mapping[str, "SymbolicTrace"]) -> None:
        if not traces:
            return
        self._merge_entries(
            _SEGMENT_PREFIX_TRACES,
            self._traces_key(),
            {"version": PROFILER_VERSION},
            {key: tr.to_dict() for key, tr in traces.items()},
        )

    # -- lifecycle -----------------------------------------------------------
    def __len__(self) -> int:
        """Total stored profile entries (traces are not counted)."""
        return sum(
            len(data["entries"])
            for prefix, data in self.iter_segments()
            if prefix == _SEGMENT_PREFIX_PROFILES
        )


def set_active_profile_store(store: ProfileStore | None) -> None:
    """Install (or, with ``None``, disable) the process-wide store; see
    :func:`repro.runtime.install`."""
    runtime.install(profile_store=store)
