"""Per-provider client adapters behind one async ``ProviderClient`` face.

The serving layer talks to every completion source — the in-repo emulated
zoo and real OpenAI/Gemini/Anthropic-shaped APIs — through a single async
interface, the multi-provider client pattern of evaluation harnesses that
sweep several vendors' models. An adapter owns exactly the wire-shape
translation:

* request side: prompt + sampling params → the provider's payload dict
  (OpenAI ``messages``, Gemini ``contents``/``generationConfig``,
  Anthropic ``messages`` + ``max_tokens``);
* response side: the provider's response dict → one :class:`LlmResponse`
  (text + token usage, reasoning tokens included where the API reports
  them).

Transports are injected: a wire adapter calls an async
``transport(payload) -> payload`` callable and never imports a vendor SDK,
so the container needs no API keys or client packages. With no transport
configured, a wire adapter raises :class:`ProviderNotConfigured` at call
time — and :func:`emulated_transport` plugs the emulated zoo into any wire
shape, which is how the adapters are exercised (and tested round-trip)
offline.

Error taxonomy: :class:`RateLimitError` (429-shaped, carries an optional
``retry_after``), :class:`ProviderTimeout`, and
:class:`TransientProviderError` are the retryable failures
(:data:`RETRYABLE_ERRORS`) that the serving engine backs off on;
anything else propagates immediately.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Protocol, Sequence, runtime_checkable

from repro.llm.base import LlmModel, LlmResponse
from repro.llm.config import ModelConfig
from repro.llm.pricing import Usage
from repro.llm.registry import get_model
from repro.util.retry import AttemptTimeout, TransientError


class ProviderError(RuntimeError):
    """Base class for completion-provider failures."""


class ProviderNotConfigured(ProviderError):
    """A wire adapter was called with no transport installed."""


class RateLimitError(ProviderError, TransientError):
    """A 429-shaped rejection; ``retry_after`` is the server's hint (s)."""

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ProviderTimeout(ProviderError, AttemptTimeout):
    """An attempt exceeded its (jittered) deadline."""


class TransientProviderError(ProviderError, TransientError):
    """A retryable upstream hiccup (5xx-shaped, dropped connection)."""


#: The failures worth retrying with backoff; everything else is a bug or a
#: permanent rejection and propagates to the caller on the first attempt.
RETRYABLE_ERRORS = (RateLimitError, ProviderTimeout, TransientProviderError)

#: An async wire call: provider-shaped request dict in, response dict out.
Transport = Callable[[dict], Awaitable[dict]]


@runtime_checkable
class ProviderClient(Protocol):
    """One completion source behind the async serving interface.

    ``config`` is the model's capability profile — the serving engine
    keys its content-addressed cache on it via
    :func:`repro.eval.engine.cache_key`, exactly like the sync engine, so
    served and batch-swept completions share entries.
    """

    config: ModelConfig

    @property
    def name(self) -> str: ...

    async def complete(
        self,
        prompt: str,
        *,
        temperature: float | None = None,
        top_p: float | None = None,
    ) -> LlmResponse: ...


class EmulatedProvider:
    """The in-repo emulated zoo behind the provider interface.

    Completions run in a worker thread (:func:`asyncio.to_thread`) so a
    batch of concurrent requests never parks the event loop behind one
    pure-Python analysis pass.
    """

    family = "emulated"

    def __init__(self, model: LlmModel):
        self.model = model
        self.config = model.config

    @property
    def name(self) -> str:
        return self.model.name

    async def complete(
        self,
        prompt: str,
        *,
        temperature: float | None = None,
        top_p: float | None = None,
    ) -> LlmResponse:
        return await asyncio.to_thread(
            self.model.complete, prompt, temperature=temperature, top_p=top_p
        )


class WireProvider:
    """Base of the API-shaped adapters: payload codec + injected transport.

    Subclasses implement the four codec hooks; ``complete`` is the shared
    encode → transport → decode pipeline. ``decode_request`` /
    ``encode_response`` are the *server-side* halves, used by
    :func:`emulated_transport` to stand in for the real API (and by the
    tests to prove each codec round-trips).
    """

    #: Human name of the wire protocol, for error messages.
    family: str = ""

    def __init__(self, config: ModelConfig, transport: Transport | None = None):
        self.config = config
        self.transport = transport

    @property
    def name(self) -> str:
        return self.config.name

    # -- codec hooks (subclass responsibility) -------------------------------
    def encode_request(
        self, prompt: str, temperature: float | None, top_p: float | None
    ) -> dict:
        raise NotImplementedError

    @classmethod
    def decode_request(cls, payload: dict) -> tuple[str, float | None, float | None]:
        raise NotImplementedError

    @classmethod
    def encode_response(cls, response: LlmResponse) -> dict:
        raise NotImplementedError

    def decode_response(self, data: dict) -> LlmResponse:
        raise NotImplementedError

    # -- the ProviderClient face --------------------------------------------
    async def complete(
        self,
        prompt: str,
        *,
        temperature: float | None = None,
        top_p: float | None = None,
    ) -> LlmResponse:
        if self.transport is None:
            raise ProviderNotConfigured(
                f"no transport configured for {self.family} provider "
                f"{self.name!r}; install one (e.g. "
                "repro.serve.providers.emulated_transport) or use the "
                "emulated provider family"
            )
        payload = self.encode_request(prompt, temperature, top_p)
        data = await self.transport(payload)
        try:
            return self.decode_response(data)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransientProviderError(
                f"malformed {self.family} response for {self.name!r}: {exc}"
            ) from exc


class OpenAiProvider(WireProvider):
    """OpenAI chat-completions wire shape."""

    family = "openai"

    def encode_request(self, prompt, temperature, top_p):
        payload = {
            "model": self.config.name,
            "messages": [{"role": "user", "content": prompt}],
        }
        if temperature is not None:
            payload["temperature"] = temperature
        if top_p is not None:
            payload["top_p"] = top_p
        return payload

    @classmethod
    def decode_request(cls, payload):
        prompt = "".join(
            m["content"] for m in payload["messages"] if m["role"] == "user"
        )
        return prompt, payload.get("temperature"), payload.get("top_p")

    @classmethod
    def encode_response(cls, response):
        u = response.usage
        return {
            "model": response.model_name,
            "choices": [
                {
                    "index": 0,
                    "message": {"role": "assistant", "content": response.text},
                    "finish_reason": "stop",
                }
            ],
            "usage": {
                "prompt_tokens": u.input_tokens,
                "completion_tokens": u.output_tokens + u.reasoning_tokens,
                "completion_tokens_details": {
                    "reasoning_tokens": u.reasoning_tokens
                },
            },
        }

    def decode_response(self, data):
        usage = data.get("usage", {})
        details = usage.get("completion_tokens_details", {})
        reasoning = int(details.get("reasoning_tokens", 0))
        return LlmResponse(
            text=data["choices"][0]["message"]["content"],
            usage=Usage(
                input_tokens=int(usage.get("prompt_tokens", 0)),
                output_tokens=int(usage.get("completion_tokens", 0)) - reasoning,
                reasoning_tokens=reasoning,
            ),
            model_name=self.config.name,
        )


class GeminiProvider(WireProvider):
    """Gemini ``generateContent`` wire shape."""

    family = "gemini"

    def encode_request(self, prompt, temperature, top_p):
        payload = {
            "model": self.config.name,
            "contents": [{"role": "user", "parts": [{"text": prompt}]}],
        }
        generation: dict = {}
        if temperature is not None:
            generation["temperature"] = temperature
        if top_p is not None:
            generation["topP"] = top_p
        if generation:
            payload["generationConfig"] = generation
        return payload

    @classmethod
    def decode_request(cls, payload):
        prompt = "".join(
            part["text"]
            for content in payload["contents"]
            for part in content["parts"]
        )
        generation = payload.get("generationConfig", {})
        return prompt, generation.get("temperature"), generation.get("topP")

    @classmethod
    def encode_response(cls, response):
        u = response.usage
        return {
            "candidates": [
                {
                    "content": {
                        "role": "model",
                        "parts": [{"text": response.text}],
                    },
                    "finishReason": "STOP",
                }
            ],
            "usageMetadata": {
                "promptTokenCount": u.input_tokens,
                "candidatesTokenCount": u.output_tokens,
                "thoughtsTokenCount": u.reasoning_tokens,
            },
        }

    def decode_response(self, data):
        meta = data.get("usageMetadata", {})
        parts = data["candidates"][0]["content"]["parts"]
        return LlmResponse(
            text="".join(p["text"] for p in parts),
            usage=Usage(
                input_tokens=int(meta.get("promptTokenCount", 0)),
                output_tokens=int(meta.get("candidatesTokenCount", 0)),
                reasoning_tokens=int(meta.get("thoughtsTokenCount", 0)),
            ),
            model_name=self.config.name,
        )


class AnthropicProvider(WireProvider):
    """Anthropic messages wire shape."""

    family = "anthropic"

    #: The classification vocabulary is one word; real calls would cap
    #: output there, and the emulated transport ignores it.
    MAX_TOKENS = 16

    def encode_request(self, prompt, temperature, top_p):
        payload = {
            "model": self.config.name,
            "max_tokens": self.MAX_TOKENS,
            "messages": [{"role": "user", "content": prompt}],
        }
        if temperature is not None:
            payload["temperature"] = temperature
        if top_p is not None:
            payload["top_p"] = top_p
        return payload

    @classmethod
    def decode_request(cls, payload):
        prompt = "".join(
            m["content"] for m in payload["messages"] if m["role"] == "user"
        )
        return prompt, payload.get("temperature"), payload.get("top_p")

    @classmethod
    def encode_response(cls, response):
        u = response.usage
        return {
            "content": [{"type": "text", "text": response.text}],
            "stop_reason": "end_turn",
            "usage": {
                "input_tokens": u.input_tokens,
                "output_tokens": u.output_tokens,
                "reasoning_tokens": u.reasoning_tokens,
            },
        }

    def decode_response(self, data):
        usage = data.get("usage", {})
        return LlmResponse(
            text="".join(
                block["text"]
                for block in data["content"]
                if block.get("type") == "text"
            ),
            usage=Usage(
                input_tokens=int(usage.get("input_tokens", 0)),
                output_tokens=int(usage.get("output_tokens", 0)),
                reasoning_tokens=int(usage.get("reasoning_tokens", 0)),
            ),
            model_name=self.config.name,
        )


#: Wire adapter class per provider family name.
WIRE_FAMILIES: dict[str, type[WireProvider]] = {
    "openai": OpenAiProvider,
    "gemini": GeminiProvider,
    "anthropic": AnthropicProvider,
}


def provider_family(model_name: str) -> str:
    """The wire family a model name belongs to, by its vendor prefix."""
    lowered = model_name.lower()
    if lowered.startswith("gemini"):
        return "gemini"
    if lowered.startswith("claude"):
        return "anthropic"
    # The rest of the registry (gpt-*, o1*, o3*) speaks the OpenAI shape.
    return "openai"


def emulated_transport(
    model: LlmModel, provider_cls: type[WireProvider]
) -> Transport:
    """A transport that answers a wire payload from the emulated zoo.

    Decodes the provider-shaped request, completes it with ``model``, and
    re-encodes the response in the same wire shape — the offline stand-in
    for the real HTTP client, exercising both codec halves per call.
    """

    async def transport(payload: dict) -> dict:
        prompt, temperature, top_p = provider_cls.decode_request(payload)
        response = await asyncio.to_thread(
            model.complete, prompt, temperature=temperature, top_p=top_p
        )
        return provider_cls.encode_response(response)

    return transport


def provider_label(client: ProviderClient) -> str:
    """The provider's stable identity: ``family:model``.

    Distinct from ``client.name`` (the model name), which every member of
    a failover chain shares — breakers, fault plans, and the
    ``served_by`` response tag need to tell the chain members apart while
    cache keys (keyed on the shared :class:`ModelConfig`) stay identical
    across them.
    """
    family = getattr(client, "family", "") or "emulated"
    return f"{family}:{client.name}"


def resolve_provider(
    model_name: str,
    *,
    family: str = "emulated",
    transport: Transport | None = None,
    fallbacks: Sequence[str] = (),
) -> ProviderClient | tuple[ProviderClient, ...]:
    """Build one provider client — or a failover chain — for a registry
    model.

    ``family`` picks the adapter: ``"emulated"`` (default) talks to the
    in-process zoo directly; ``"wire"`` picks the model's API-shaped
    adapter (:func:`provider_family`) backed by the emulated transport —
    the full codec path with no network; an explicit family name
    (``"openai"``/``"gemini"``/``"anthropic"``) builds that adapter with
    ``transport`` (a real HTTP client plugs in here), unconfigured if
    ``None``.

    ``fallbacks`` is an ordered list of further family names; when
    non-empty the result is a tuple — the primary first, fallbacks after
    — which the serving engine treats as a failover chain: a request
    whose primary breaker is open or whose retries exhaust moves down
    the chain. Every member serves the same :class:`ModelConfig`, so
    cache keys (and therefore warm-store bytes) are identical whichever
    member answers.
    """
    model = get_model(model_name)
    if family == "emulated":
        primary: ProviderClient = EmulatedProvider(model)
    elif family == "wire":
        cls = WIRE_FAMILIES[provider_family(model_name)]
        primary = cls(model.config, emulated_transport(model, cls))
    else:
        try:
            cls = WIRE_FAMILIES[family]
        except KeyError:
            raise ValueError(
                f"unknown provider family {family!r}; choose from "
                f"{('emulated', 'wire', *sorted(WIRE_FAMILIES))}"
            ) from None
        primary = cls(model.config, transport)
    if not fallbacks:
        return primary
    chain = [primary]
    for fallback in fallbacks:
        client = resolve_provider(
            model_name, family=fallback, transport=transport
        )
        assert not isinstance(client, tuple)  # fallbacks don't nest
        chain.append(client)
    labels = [provider_label(c) for c in chain]
    if len(set(labels)) != len(labels):
        raise ValueError(
            f"failover chain repeats a provider: {', '.join(labels)}"
        )
    return tuple(chain)
