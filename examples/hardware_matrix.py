"""Two-GPU label-flip analysis with ``repro.eval.matrix``.

The paper asks whether LLMs can reason about hardware ceilings, but tests
against a single GPU. This example re-profiles the corpus on a V100 and an
H100, finds the kernels whose compute-/bandwidth-bound ground truth *flips*
between those rooflines, and checks which models track the flip (predict
the device-specific truth on both GPUs) rather than answering from the
code alone. Equivalent CLI::

    repro-paper matrix --gpus v100,h100 --model all --jobs 4 --backend process

Run:  python examples/hardware_matrix.py
"""

from repro.dataset import paper_dataset
from repro.eval.engine import EvalEngine
from repro.eval.matrix import run_matrix, scenario_samples
from repro.llm import get_model
from repro.roofline.hardware import get_gpu, short_gpu_name

MODELS = ("o3-mini-high", "gemini-2.0-flash-001", "gpt-4o-mini")
GPUS = ("V100", "H100")
SLICE = 120  # kernels per device; the full sweep uses all 340


gpus = [get_gpu(n) for n in GPUS]
models = [get_model(n) for n in MODELS]
uids = tuple(s.uid for s in paper_dataset(jobs=0).balanced[:SLICE])

# Where do the rooflines actually differ? H100 has ~3.6x the FP32 peak of
# V100 but only ~2.3x the bandwidth, so its ridge points sit at higher
# arithmetic intensity: kernels near V100's ridge go bandwidth-bound.
for gpu in gpus:
    print(f"{short_gpu_name(gpu.name):6s} "
          f"SP {gpu.sp_peak_gflops:8.0f} GFLOP/s  "
          f"BW {gpu.bandwidth_gbs:6.0f} GB/s")

labels = {
    gpu.name: {s.uid: s.label for s in scenario_samples(gpu, uids=uids)}
    for gpu in gpus
}
v100, h100 = (labels[g.name] for g in gpus)
flipped = [uid for uid in v100 if v100[uid] != h100[uid]]
print(f"\n{len(flipped)} of {SLICE} kernels change class V100 -> H100, e.g.:")
for uid in flipped[:5]:
    print(f"  {uid}: {v100[uid].value} -> {h100[uid].value}")

# Sweep the grid with one shared engine on the process backend. Each cell
# opens a fresh pool whose workers redo the per-kernel analysis, so on a
# small host this is slower than the thread default; `sweep --shard` plus
# `merge-caches` is the multi-process path that pays.
engine = EvalEngine(jobs=0, backend="process")
result = run_matrix(models, gpus, rqs=("rq2",), limit=SLICE, engine=engine)
print()
print(result.render(flip_limit=10))
print(f"\ncache: {engine.stats.summary()}")
