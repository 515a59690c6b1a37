"""Deterministic, seeded fault injection for chaos-testing sweeps.

A :class:`FaultPlan` is a seed plus a list of :class:`FaultSpec` rules,
parsed from a compact spec string (``$REPRO_FAULT_PLAN`` or
``--inject-faults``)::

    seed=7;provider_error:rate=0.25,attempts=2;torn_write:rate=0.5
    seed=1;worker_death:after=5
    rate_limit:rate=0.1,attempts=1,retry_after=0.01;enospc:rate=0.2

Fault kinds:

* completion faults, raised by the one hook both engines call before
  every attempt, :meth:`FaultPlan.completion_fault` — ``provider_error`` (a 5xx-shaped :class:`InjectedFault`),
  ``provider_timeout`` (:class:`InjectedTimeout`), and ``rate_limit``
  (:class:`InjectedRateLimit`, optional ``retry_after`` hint). A selected
  unit fails its first ``attempts`` attempts and then succeeds, so
  ``attempts < max_attempts`` exercises recovery-by-retry while
  ``attempts >= max_attempts`` exhausts the policy into a
  ``FailedUnit``;
* segment-write faults, applied in ``ArtifactStore._write_segment`` —
  ``torn_write`` (truncated file), ``forged_index`` (a span pointing
  outside the body), ``version_skew`` (payload version mangled),
  ``enospc`` (the write raises ``OSError(ENOSPC)``), and ``stale_tmp``
  (a dead-pid ``*.tmp.*`` file appears beside the segment). Each fires
  **once** per (kind, file name) so a later rewrite can heal the store —
  corruption is an event, not a curse;
* ``worker_death:after=N`` — the process SIGKILLs itself on its N-th
  batch completion attempt: the crash drill for re-running a sweep over
  the runs its store spilled;
* serving faults, injected only on the serving engine's path —
  ``provider_brownout:provider=L,after=K,attempts=N`` (a sustained
  window: matching attempts K+1..K+N against provider label ``L`` all
  fail, exercising breakers and failover) and
  ``slow_tail:rate=R,ms=M`` (hash-selected calls answer ``M`` ms late,
  exercising hedged requests). Any completion fault may also carry
  ``provider=L`` to target one provider; targeted specs never fire on
  the batch path.

Determinism: whether a fault fires for a given token is a pure function
of ``(seed, kind, token)`` via :func:`repro.util.hashing.stable_hash_u64`
— never of execution order — so thread scheduling cannot change which
units fail, and two runs under the same plan fail identically (the
``failure_mode="collect"`` digest test pins this). ``rate`` is the
per-token selection probability.
"""

from __future__ import annotations

import errno
import os
import signal
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.util.hashing import stable_hash_u64
from repro.util.retry import AttemptTimeout, TransientError

#: Environment variable holding a fault-plan spec string.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

COMPLETION_FAULT_KINDS = ("provider_error", "provider_timeout", "rate_limit")
#: Serve-path faults (see the module docstring); both honour an optional
#: ``provider=<label>`` filter.
PROVIDER_FAULT_KINDS = ("provider_brownout", "slow_tail")
SEGMENT_FAULT_KINDS = (
    "torn_write",
    "forged_index",
    "version_skew",
    "enospc",
    "stale_tmp",
)
PROCESS_FAULT_KINDS = ("worker_death",)
FAULT_KINDS = (
    COMPLETION_FAULT_KINDS
    + PROVIDER_FAULT_KINDS
    + SEGMENT_FAULT_KINDS
    + PROCESS_FAULT_KINDS
)

#: A pid no live process can hold on stock Linux (pid_max caps at 2^22),
#: so injected tmp files always read as leaked by a dead writer.
_DEAD_PID = 3999999


class InjectedFault(TransientError):
    """A 5xx-shaped transient failure injected by the active fault plan."""


class InjectedTimeout(AttemptTimeout):
    """An injected attempt-deadline overrun."""


class InjectedRateLimit(InjectedFault):
    """An injected 429; ``retry_after`` floors the backoff like the real one."""

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: fire ``kind`` on ``rate`` of tokens.

    ``attempts`` is how many leading attempts of a selected completion
    fail before it succeeds; ``after`` arms ``worker_death`` on the N-th
    attempt process-wide; ``retry_after`` rides on injected 429s.
    """

    kind: str
    rate: float = 1.0
    attempts: int = 1
    after: int = 0
    retry_after: float | None = None
    provider: str = ""
    ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(valid: {', '.join(FAULT_KINDS)})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.attempts < 1:
            raise ValueError(f"fault attempts must be >= 1, got {self.attempts}")
        if self.kind == "worker_death" and self.after < 1:
            raise ValueError("worker_death requires after=N with N >= 1")
        if self.kind == "slow_tail" and self.ms <= 0:
            raise ValueError("slow_tail requires ms=M with M > 0")


_SPEC_FIELDS = {
    "rate": float,
    "attempts": int,
    "after": int,
    "retry_after": float,
    "provider": str,
    "ms": float,
}


@dataclass
class FaultPlan:
    """A seeded set of fault rules, shared process-wide once activated.

    One-shot bookkeeping (which segment faults already fired, how many
    completion attempts the death counter has seen) is mutable state under
    a lock; the *selection* of what fails is stateless and order-free.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()
    _fired: set = field(default_factory=set, repr=False)
    _attempts_seen: int = field(default=0, repr=False)
    # Per-spec call counters driving provider_brownout windows.
    _window_seen: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- parsing -------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a spec string (see module docstring for the grammar)."""
        seed = 0
        specs: list[FaultSpec] = []
        for part in filter(None, (p.strip() for p in text.split(";"))):
            if part.startswith("seed="):
                try:
                    seed = int(part[len("seed="):])
                except ValueError:
                    raise ValueError(f"bad fault-plan seed: {part!r}") from None
                continue
            kind, _, params = part.partition(":")
            kwargs: dict = {}
            for param in filter(None, (p.strip() for p in params.split(","))):
                name, eq, value = param.partition("=")
                if not eq or name not in _SPEC_FIELDS:
                    raise ValueError(
                        f"bad fault param {param!r} for {kind!r} "
                        f"(valid: {', '.join(_SPEC_FIELDS)})"
                    )
                try:
                    kwargs[name] = _SPEC_FIELDS[name](value)
                except ValueError:
                    raise ValueError(
                        f"bad value for fault param {param!r}"
                    ) from None
            specs.append(FaultSpec(kind.strip(), **kwargs))
        return cls(seed=seed, specs=tuple(specs))

    def describe(self) -> str:
        """A round-trippable spec string (``parse(describe())`` == plan)."""
        parts = [f"seed={self.seed}"]
        for s in self.specs:
            params = [f"rate={s.rate:g}"]
            if s.attempts != 1:
                params.append(f"attempts={s.attempts}")
            if s.after:
                params.append(f"after={s.after}")
            if s.retry_after is not None:
                params.append(f"retry_after={s.retry_after:g}")
            if s.provider:
                params.append(f"provider={s.provider}")
            if s.ms:
                params.append(f"ms={s.ms:g}")
            parts.append(f"{s.kind}:{','.join(params)}")
        return ";".join(parts)

    # -- selection -----------------------------------------------------------
    def _selected(self, spec: FaultSpec, token: str) -> bool:
        """Order-independent per-token coin flip at ``spec.rate``."""
        if spec.rate >= 1.0:
            return True
        if spec.rate <= 0.0:
            return False
        draw = stable_hash_u64("fault", self.seed, spec.kind, token) / 2.0**64
        return draw < spec.rate

    def _fire_once(self, spec: FaultSpec, token: str) -> bool:
        """Selection gated to a single firing per (kind, token)."""
        if not self._selected(spec, token):
            return False
        with self._lock:
            mark = (spec.kind, token)
            if mark in self._fired:
                return False
            self._fired.add(mark)
        return True

    # -- completion-path hooks -----------------------------------------------
    @staticmethod
    def _raise_completion(spec: FaultSpec, where: str) -> None:
        if spec.kind == "provider_timeout":
            raise InjectedTimeout(f"injected timeout: {where}")
        if spec.kind == "rate_limit":
            raise InjectedRateLimit(
                f"injected rate limit: {where}",
                retry_after=spec.retry_after,
            )
        raise InjectedFault(f"injected provider error: {where}")

    def completion_fault(
        self, token: str, attempt: int, provider: str | None = None
    ) -> None:
        """Raise this unit's injected fault for ``attempt`` (0-based), if
        any: the one hook both engines call before every attempt.

        On the batch path (``provider=None``) the attempt first drives the
        ``worker_death`` counter; provider-targeted specs and
        ``provider_brownout`` never fire. Serve passes the candidate's
        label: ``provider=...`` specs fire only against it, nothing ever
        SIGKILLs, and a ``provider_brownout`` fails every matching attempt
        numbered ``(after, after + attempts]`` of its per-spec counter — an
        outage that opens breakers, then lifts so probes can close them.
        """
        if provider is None:
            for spec in self.specs:
                if spec.kind != "worker_death":
                    continue
                with self._lock:
                    self._attempts_seen += 1
                    fatal = self._attempts_seen == spec.after
                if fatal:
                    os.kill(os.getpid(), signal.SIGKILL)
        for index, spec in enumerate(self.specs):
            if spec.provider and spec.provider != provider:
                continue
            if spec.kind == "provider_brownout" and provider is not None:
                with self._lock:
                    seen = self._window_seen.get(index, 0) + 1
                    self._window_seen[index] = seen
                if spec.after < seen <= spec.after + spec.attempts:
                    raise InjectedFault(
                        f"injected brownout: {provider} attempt {seen} "
                        f"of window ({spec.after}, "
                        f"{spec.after + spec.attempts}]"
                    )
            elif (
                spec.kind in COMPLETION_FAULT_KINDS
                and attempt < spec.attempts
                and self._selected(spec, token)
            ):
                where = f"unit {token[:12]} attempt {attempt + 1}"
                self._raise_completion(
                    spec, f"{provider} {where}" if provider else where
                )

    def slow_tail_delay(self, provider: str, token: str) -> float | None:
        """Seconds of injected tail latency for this call, or ``None``.

        Selection is the same pure ``(seed, kind, token)`` hash as every
        other fault — which calls land in the slow tail never depends on
        execution order, so hedge-winner tests replay exactly.
        """
        for spec in self.specs:
            if spec.kind != "slow_tail":
                continue
            if spec.provider and spec.provider != provider:
                continue
            if self._selected(spec, token):
                return spec.ms / 1000.0
        return None

    # -- store-path hook -----------------------------------------------------
    def mangle_segment(
        self, path: Path, payload: dict, entries: dict, data: bytes
    ) -> bytes:
        """Corrupt (or veto) one segment write.

        ``data`` is the encoded segment about to be written; the return
        value is written in its place via the normal tmp+replace dance, so
        torn bytes still arrive atomically — modelling corruption that
        happened *before* this process attached, which is what the doctor
        fscks for. May raise ``OSError(ENOSPC)`` instead.
        """
        from repro.store.base import encode_segment  # late: avoid cycle

        token = path.name
        for spec in self.specs:
            if spec.kind not in SEGMENT_FAULT_KINDS:
                continue
            if not self._fire_once(spec, token):
                continue
            if spec.kind == "enospc":
                raise OSError(errno.ENOSPC, f"injected ENOSPC writing {token}")
            if spec.kind == "stale_tmp":
                side = path.with_suffix(f".tmp.{_DEAD_PID}.0")
                try:
                    side.write_bytes(data[: max(1, len(data) // 2)])
                except OSError:
                    pass
                continue  # the real write proceeds untouched
            if spec.kind == "torn_write":
                cut = stable_hash_u64("cut", self.seed, token) % max(1, len(data))
                data = data[:cut]
            elif spec.kind == "version_skew":
                skewed = dict(payload)
                skewed["version"] = f"{payload.get('version', '')}+fault-skew"
                data = encode_segment(skewed, entries)
            elif spec.kind == "forged_index":
                data = _forge_index(data)
        return data


def _forge_index(data: bytes) -> bytes:
    """Rewrite the last index span to point far outside the body — the
    header still parses, the entry reads as a per-entry miss."""
    from repro.store.base import _KEY_BLOB_PREFIX, _SEGMENT_HEADER, _SPAN

    if len(data) < _SEGMENT_HEADER.size:
        return data[: len(data) // 2]  # too small to forge: tear instead
    _, _, meta_len, index_len = _SEGMENT_HEADER.unpack_from(data, 0)
    index_start = _SEGMENT_HEADER.size + meta_len
    body_start = index_start + index_len
    spans_len = index_len - _KEY_BLOB_PREFIX.size
    if body_start > len(data) or spans_len < _SPAN.size:
        return data[: len(data) // 2]  # empty index: tear instead
    forged = _SPAN.pack(1 << 40, 7)
    return data[: body_start - _SPAN.size] + forged + data[body_start:]
