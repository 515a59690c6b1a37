"""E9 — Table 1 columns 1-3: model metadata and query-cost accounting.

Verifies the pricing table against the paper and measures what one full RQ2
pass over the 340-sample dataset would cost per model — the economics behind
the paper's RQ3 recommendation to "save money on input token costs by
prompting in zero-shot style with reasoning models".
"""

from __future__ import annotations

from repro.eval.rq23 import classification_items
from repro.eval.runner import run_queries
from repro.llm import all_models
from repro.util.tables import format_table

#: Table 1 column 3 (April 2025 pricing).
PAPER_PRICING = {
    "o3-mini-high": (1.1, 4.4),
    "o1": (15.0, 60.0),
    "o3-mini": (1.1, 4.4),
    "gpt-4.5-preview": (75.0, 150.0),
    "o1-mini-2024-09-12": (1.1, 4.4),
    "gemini-2.0-flash-001": (0.1, 0.4),
    "gpt-4o-2024-11-20": (2.5, 10.0),
    "gpt-4o-mini": (0.15, 0.6),
    "gpt-4o-mini-2024-07-18": (0.15, 0.6),
}


def _run(balanced):
    items0 = classification_items(balanced, variant="zero-shot")
    items3 = classification_items(balanced, variant="few-shot-2")
    out = {}
    for model in all_models():
        zero = run_queries(model, items0)
        few = run_queries(model, items3)
        out[model.name] = (zero.usage, few.usage)
    return out


def test_table1_costs(benchmark, balanced):
    usage = benchmark.pedantic(_run, args=(balanced,), rounds=1, iterations=1)

    rows = []
    for model in all_models():
        cfg = model.config
        zero, few = usage[model.name]
        rows.append([
            cfg.name,
            "yes" if cfg.reasoning else "",
            f"${cfg.input_cost_per_m:g} / ${cfg.output_cost_per_m:g}",
            zero["cost_usd"],
            few["cost_usd"],
        ])
    print()
    print(format_table(
        ["Model", "Reasoning", "$/1M in/out", "RQ2 sweep $", "RQ3 sweep $"],
        rows, float_fmt=".3f",
        title="E9 — Table 1 cols 1-3 + measured sweep costs",
    ))

    for model in all_models():
        cfg = model.config
        paper_in, paper_out = PAPER_PRICING[cfg.name]
        assert cfg.input_cost_per_m == paper_in, cfg.name
        assert cfg.output_cost_per_m == paper_out, cfg.name
        zero, few = usage[model.name]
        # Few-shot prompts carry the example code: they must cost more.
        assert few["input_tokens"] > zero["input_tokens"], cfg.name
        assert few["cost_usd"] > zero["cost_usd"], cfg.name

    # The paper's RQ3 takeaway: zero-shot reasoning beats paying for shots.
    o3_zero = usage["o3-mini-high"][0]["cost_usd"]
    o3_few = usage["o3-mini-high"][1]["cost_usd"]
    assert o3_few / o3_zero > 1.5
