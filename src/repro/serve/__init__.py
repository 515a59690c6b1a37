"""Async prediction serving: provider adapters, retrying engine, HTTP API.

The bridge from batch reproduction to a traffic-serving system. The
pieces compose bottom-up:

* :mod:`repro.serve.providers` — one async :class:`ProviderClient` face
  over the emulated zoo and OpenAI/Gemini/Anthropic wire shapes, with
  injectable transports (no SDKs, no network required).
* :mod:`repro.serve.resilience` — per-provider circuit breakers, the
  latency-tracking hedge trigger, the load-shedding error taxonomy, and
  the async token-bucket rate limiter. Retry and backoff come from
  :mod:`repro.util.retry`, shared with the batch engine.
* :mod:`repro.serve.engine` — :class:`AsyncEvalEngine`, the asyncio twin
  of the sync engine: same cache keys, byte-identical results, plus
  in-flight request coalescing, provider failover chains, and hedged
  requests.
* :mod:`repro.serve.http` — the asyncio HTTP front end behind
  ``repro-paper serve``: admission control, request deadlines, graceful
  drain.
"""

from repro.serve.engine import AsyncEvalEngine, ServeStats
from repro.serve.resilience import (
    AllProvidersUnavailable,
    BreakerPolicy,
    CircuitBreaker,
    HedgePolicy,
    LatencyTracker,
    LoadShedError,
    RateLimiter,
)
from repro.serve.http import (
    DEFAULT_MODEL,
    PredictionServer,
    PredictionService,
    ServiceError,
)
from repro.serve.providers import (
    RETRYABLE_ERRORS,
    AnthropicProvider,
    EmulatedProvider,
    GeminiProvider,
    OpenAiProvider,
    ProviderClient,
    ProviderError,
    ProviderNotConfigured,
    ProviderTimeout,
    RateLimitError,
    TransientProviderError,
    emulated_transport,
    provider_family,
    provider_label,
    resolve_provider,
)
from repro.util.retry import DeadlineExceeded, RetryPolicy

__all__ = [
    "AsyncEvalEngine",
    "ServeStats",
    "AllProvidersUnavailable",
    "BreakerPolicy",
    "CircuitBreaker",
    "HedgePolicy",
    "LatencyTracker",
    "LoadShedError",
    "DeadlineExceeded",
    "DEFAULT_MODEL",
    "PredictionServer",
    "PredictionService",
    "ServiceError",
    "RETRYABLE_ERRORS",
    "AnthropicProvider",
    "EmulatedProvider",
    "GeminiProvider",
    "OpenAiProvider",
    "ProviderClient",
    "ProviderError",
    "ProviderNotConfigured",
    "ProviderTimeout",
    "RateLimitError",
    "TransientProviderError",
    "emulated_transport",
    "provider_family",
    "provider_label",
    "resolve_provider",
    "RateLimiter",
    "RetryPolicy",
]
