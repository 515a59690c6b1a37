"""Quickstart: classify one GPU kernel's roofline boundedness with an
emulated LLM, exactly the way the paper queries a real one.

Run:  python examples/quickstart.py
"""

from repro.dataset import paper_dataset
from repro.llm import get_model, query_cost_usd
from repro.prompts import build_classify_prompt

# 1. Get the paper's dataset (built on first use: corpus generation,
#    simulated profiling, labeling, token pruning, balancing).
dataset = paper_dataset()
sample = dataset.balanced[0]
print(f"program:   {sample.uid}")
print(f"kernel:    {sample.kernel_name}")
print(f"language:  {sample.language.display}")
print(f"argv:      {sample.argv}")
print(f"truth:     {sample.label.word}-bound (from simulated profiling)")
print()

# 2. Build the paper's Figure 4 prompt: hardware specs, launch geometry,
#    command line, and the program's concatenated source code.
prompt = build_classify_prompt(sample, variant="zero-shot")
print(f"prompt:    {len(prompt.text)} characters")
print("--- prompt head ---")
print("\n".join(prompt.text.split("\n")[:12]))
print("--- (truncated) ---")
print()

# 3. Query a model. The emulator has the same integration shape as a real
#    API client: prompt string in, one-word completion out.
model = get_model("o3-mini-high")
response = model.complete(prompt.text)
prediction = response.boundedness()

print(f"model:      {model.name}")
print(f"prediction: {prediction.word}")
print(f"correct:    {prediction == sample.label}")
print(f"usage:      {response.usage.input_tokens} in / "
      f"{response.usage.billed_output_tokens} out tokens")
print(f"cost:       ${query_cost_usd(response.usage, model.config):.5f}")
