"""GPU execution-model simulator: the reproduction's profiling substrate.

Stands in for the paper's empirical RTX 3080 profiling (§2.1): interprets
kernel IR to produce op counts by precision class, DRAM read/write bytes
through a coalescing + cache-reuse model, and a roofline-informed execution
time. Ground-truth BB/CB labels derive from these counters exactly as the
paper derives them from Nsight metrics.
"""

from repro.gpusim.counters import ProfileCounters, merge_counters
from repro.gpusim.device import DeviceModel, default_device, device_for
from repro.gpusim.memory import (
    AccessSite,
    SiteTraffic,
    aggregate_traffic,
    bytes_per_execution,
    coalescing_quality,
    estimate_site_traffic,
)
from repro.gpusim.profiler import (
    KernelProfile,
    SymbolicTrace,
    finalize_profile,
    finalize_profiles,
    profile_corpus,
    profile_first_kernel,
    profile_kernel,
    profile_programs,
    symbolic_trace,
)
from repro.gpusim.store import (
    PROFILER_VERSION,
    ProfileStore,
    device_profile_key,
    program_profile_key,
)
from repro.gpusim.timing import TimingBreakdown, estimate_time

__all__ = [
    "ProfileCounters",
    "merge_counters",
    "DeviceModel",
    "default_device",
    "device_for",
    "AccessSite",
    "SiteTraffic",
    "aggregate_traffic",
    "bytes_per_execution",
    "coalescing_quality",
    "estimate_site_traffic",
    "KernelProfile",
    "SymbolicTrace",
    "symbolic_trace",
    "finalize_profile",
    "finalize_profiles",
    "profile_kernel",
    "profile_first_kernel",
    "profile_corpus",
    "profile_programs",
    "PROFILER_VERSION",
    "ProfileStore",
    "program_profile_key",
    "device_profile_key",
    "TimingBreakdown",
    "estimate_time",
]
