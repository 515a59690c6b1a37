"""The emulated LLM: a prompt-in, text-out model facade.

The pipeline code path matches a real API integration: build prompt string →
``model.complete(prompt)`` → parse the one-word response → score. The
emulator consumes only the prompt text — ground-truth labels never reach it
— so accuracy differences between models emerge from the quality of their
analysis paths (deep static analysis vs surface cues vs arithmetic slips),
shaped by the capability profiles in :mod:`repro.llm.config`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.arithmetic import solve_roofline
from repro.llm.config import ModelConfig
from repro.llm.heuristic import lexical_logit
from repro.llm.pricing import Usage
from repro.llm.promptio import (
    estimate_prompt_tokens,
    parse_classify_query,
    parse_roofline_query,
)
from repro.llm.reasoner import MemoStream, deep_logit
from repro.llm.sampling import DEFAULT_TEMPERATURE, DEFAULT_TOP_P, SamplingParams, sample_response
from repro.types import Boundedness
from repro.util.hashing import stable_hash_hex
from repro.util.rng import RngStream


@dataclass(frozen=True)
class LlmResponse:
    """One completion."""

    text: str
    usage: Usage
    model_name: str

    def boundedness(self) -> Boundedness:
        """Parse the response word (raises ValueError on off-vocabulary)."""
        return Boundedness.from_word(self.text)


class _PromptStream(RngStream):
    """The deterministic per-(model, prompt) stream
    ``RngStream("llm", model, stable_hash_hex(prompt), *subkey)``: repeated
    queries at fixed settings return identical answers (temperature 0.1 in
    the paper made responses 'less diverse and consistent').

    The prompt is hashed only when a draw seeds the generator. At the
    paper's ``top_p`` a classify completion never draws, so it never hashes
    its prompt; a draw that does happen sees the same key as ever.
    """

    def __init__(self, model: str, prompt: str, *subkey: object):
        self._parts = (model, prompt, subkey)
        self._lazy_gen = None

    @property
    def _key(self) -> tuple:
        model, prompt, subkey = self._parts
        return ("llm", model, stable_hash_hex(prompt), *subkey)

    def child(self, *subkey: object) -> "_PromptStream":
        model, prompt, own = self._parts
        return _PromptStream(model, prompt, *own, *subkey)


class SamplingNotSupported(ValueError):
    """Raised when sampling params are passed to a reasoning model, matching
    the OpenAI API behaviour the paper notes (§3.2)."""


class LlmModel:
    """One emulated model instance."""

    def __init__(self, config: ModelConfig):
        self.config = config

    @property
    def name(self) -> str:
        return self.config.name

    # -- public API ----------------------------------------------------------
    def complete(
        self,
        prompt: str,
        *,
        temperature: float | None = None,
        top_p: float | None = None,
    ) -> LlmResponse:
        """Answer one prompt.

        Reasoning models reject explicit sampling parameters (as their real
        APIs do); non-reasoning models default to the paper's settings
        (temperature 0.1, top_p 0.2).
        """
        if not self.config.supports_sampling_params and (
            temperature is not None or top_p is not None
        ):
            raise SamplingNotSupported(
                f"{self.name} does not accept temperature/top_p overrides"
            )
        params = SamplingParams(
            temperature=DEFAULT_TEMPERATURE if temperature is None else temperature,
            top_p=DEFAULT_TOP_P if top_p is None else top_p,
        )
        rng = _PromptStream(self.name, prompt)
        in_tokens = estimate_prompt_tokens(prompt)

        from repro.llm import decompose_handler

        if decompose_handler.handles(prompt):
            return self._respond(
                decompose_handler.answer(prompt, self.config), in_tokens
            )

        query = parse_classify_query(prompt)
        if query is not None:
            answer = self._classify(query, prompt, params, rng)
            return self._respond(answer.word, in_tokens)

        rq1 = parse_roofline_query(prompt)
        if rq1 is not None:
            answer = solve_roofline(rq1, self.config, rng.child("rq1"))
            return self._respond(answer.word, in_tokens)

        # Off-task prompt: behave like an obliging but unhelpful assistant.
        return self._respond("Bandwidth", in_tokens)

    # -- internals -------------------------------------------------------------
    def _respond(self, word: str, in_tokens: int) -> LlmResponse:
        usage = Usage(
            input_tokens=in_tokens,
            output_tokens=1,
            reasoning_tokens=self.config.reasoning_output_tokens,
        )
        return LlmResponse(text=word, usage=usage, model_name=self.name)

    def _classify(self, query, prompt: str, params: SamplingParams, rng: RngStream) -> Boundedness:
        cfg = self.config
        tokens = estimate_prompt_tokens(prompt)

        # Analysis randomness is keyed by the *code being read*, not the
        # full prompt: the model's reading of the same kernel is stable
        # across prompt variants (zero-shot vs few-shot), so RQ2→RQ3 deltas
        # come from the systematic terms (context length, example shots),
        # as in the paper. Those draws are therefore the same in every GPU ×
        # regime cell, so each is drawn once per process (MemoStream); the
        # code digest, hashed once per query, also keys the analysis memo.
        code_rng = MemoStream("llm", self.name, "analysis", query.code_digest)

        lex = lexical_logit(query, cfg, code_rng.child("lex"))

        # Does the deep analysis survive this prompt? Longer prompts bury
        # the kernel deeper ("lost in the middle"), raising the derail
        # probability. The draw is shared across prompt variants so a
        # longer prompt can only derail a superset of the shorter one's
        # failures.
        p_fail = cfg.fail_probability(tokens)
        derailed = code_rng.child("attention").uniform() < p_fail

        depth = cfg.analysis_depth
        if depth > 0.0 and not derailed:
            deep = deep_logit(query, cfg, code_rng.child("deep"))
            if deep.succeeded:
                logit = depth * deep.logit + (1.0 - depth) * lex
            else:
                logit = lex
        else:
            logit = lex
        logit += cfg.response_bias
        if query.has_real_examples:
            logit += cfg.fewshot_bias_shift
        return sample_response(logit, params, rng.child("sample"))
