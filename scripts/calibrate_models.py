"""Coordinate-descent calibration of emulator capability knobs.

Tunes, per model, the knobs that control RQ2/RQ3 behaviour so that the
emulator's aggregate metrics land on the paper's Table 1 values. Run
manually; the chosen values are then baked into repro/llm/config.py and
held there by tests/test_calibration.py.

Usage: python scripts/calibrate_models.py
"""

from __future__ import annotations

import dataclasses
import sys

from repro.dataset import paper_dataset
from repro.eval.metrics import MetricReport
from repro.llm.base import LlmModel
from repro.llm.config import ALL_CONFIGS, ModelConfig
from repro.prompts import build_classify_prompt

# Table 1: (RQ2 acc, RQ2 F1, RQ3 acc, RQ3 F1)
PAPER = {
    "o3-mini-high": (64.12, 62.33, 63.53, 60.91),
    "o1": (64.12, 61.67, 61.47, 58.77),
    "o3-mini": (62.06, 60.80, 62.94, 60.88),
    "gpt-4.5-preview": (59.71, 59.45, 60.88, 60.25),
    "o1-mini-2024-09-12": (59.64, 58.91, 56.47, 55.98),
    "gemini-2.0-flash-001": (55.59, 55.45, 53.82, 48.96),
    "gpt-4o-2024-11-20": (52.06, 41.04, 53.24, 44.17),
    "gpt-4o-mini": (50.59, 50.03, 52.35, 50.92),
    "gpt-4o-mini-2024-07-18": (50.29, 49.88, 52.06, 50.46),
}

GRIDS = {
    "base_fail": [0.1, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65,
                  0.7, 0.75, 0.8, 0.85, 0.9, 0.95],
    "response_bias": [-0.6, -0.5, -0.4, -0.3, -0.2, -0.12, -0.08, -0.04,
                      0.0, 0.04, 0.08, 0.12, 0.2],
    "heuristic_skill": [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    "attention_tokens": [15_000.0, 25_000.0, 40_000.0, 60_000.0, 90_000.0, 150_000.0],
    "fewshot_skill_bonus": [0.0, 0.04, 0.08, 0.12],
    "fewshot_bias_shift": [-0.2, -0.12, -0.06, 0.0, 0.06, 0.12],
    "deep_noise": [0.7, 0.9, 1.1, 1.4, 1.8, 2.2],
}

#: Which knobs each model is allowed to move during calibration.
TUNABLE = {
    "o3-mini-high": ("base_fail", "deep_noise", "attention_tokens"),
    "o1": ("base_fail", "deep_noise", "attention_tokens"),
    "o3-mini": ("base_fail", "deep_noise", "attention_tokens"),
    "gpt-4.5-preview": ("base_fail", "attention_tokens", "fewshot_skill_bonus", "fewshot_bias_shift"),
    "o1-mini-2024-09-12": ("base_fail", "deep_noise", "attention_tokens"),
    "gemini-2.0-flash-001": ("heuristic_skill", "base_fail", "response_bias", "fewshot_bias_shift"),
    "gpt-4o-2024-11-20": ("response_bias", "base_fail", "fewshot_bias_shift"),
    "gpt-4o-mini": ("response_bias", "heuristic_skill", "fewshot_skill_bonus"),
    "gpt-4o-mini-2024-07-18": ("response_bias", "heuristic_skill", "fewshot_skill_bonus"),
}


def objective(cfg: ModelConfig, prompts0, prompts3, truths) -> tuple[float, MetricReport, MetricReport]:
    model = LlmModel(cfg)
    r2 = MetricReport.from_predictions(
        truths, [model.complete(p.text).boundedness() for p in prompts0]
    )
    r3 = MetricReport.from_predictions(
        truths, [model.complete(p.text).boundedness() for p in prompts3]
    )
    t2a, t2f, t3a, t3f = PAPER[cfg.name]
    loss = (
        abs(r2.accuracy - t2a)
        + abs(r3.accuracy - t3a)
        + 0.5 * abs(r2.macro_f1 - t2f)
        + 0.5 * abs(r3.macro_f1 - t3f)
    )
    return loss, r2, r3


def calibrate(cfg: ModelConfig, prompts0, prompts3, truths, rounds: int = 2) -> ModelConfig:
    best_cfg = cfg
    best_loss, _, _ = objective(cfg, prompts0, prompts3, truths)
    for _ in range(rounds):
        improved = False
        for knob in TUNABLE[cfg.name]:
            for value in GRIDS[knob]:
                trial = dataclasses.replace(best_cfg, **{knob: value})
                loss, _, _ = objective(trial, prompts0, prompts3, truths)
                if loss < best_loss - 1e-9:
                    best_loss, best_cfg = loss, trial
                    improved = True
        if not improved:
            break
    return best_cfg


def main() -> int:
    ds = paper_dataset()
    truths = [s.label for s in ds.balanced]
    prompts0 = [build_classify_prompt(s) for s in ds.balanced]
    prompts3 = [
        build_classify_prompt(s, variant="few-shot-2") for s in ds.balanced
    ]

    for cfg in ALL_CONFIGS:
        tuned = calibrate(cfg, prompts0, prompts3, truths)
        loss, r2, r3 = objective(tuned, prompts0, prompts3, truths)
        changes = {
            k: getattr(tuned, k)
            for k in TUNABLE[cfg.name]
            if getattr(tuned, k) != getattr(cfg, k)
        }
        t = PAPER[cfg.name]
        print(
            f"{cfg.name:26s} loss={loss:6.2f} "
            f"RQ2 {r2.accuracy:5.2f}/{t[0]:5.2f} f1 {r2.macro_f1:5.2f}/{t[1]:5.2f} | "
            f"RQ3 {r3.accuracy:5.2f}/{t[2]:5.2f} f1 {r3.macro_f1:5.2f}/{t[3]:5.2f} | {changes}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
