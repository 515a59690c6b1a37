"""The process-wide runtime: profile store, artifact cache and fault plan.

The profile pass and the text pass sit under deep call chains
(``paper_dataset`` → ``build_samples`` → ``profile_corpus`` /
``program_texts``), and the fault hooks sit inside the store write path
and the engines' retry loops, so these three values are process-wide
rather than threaded through every signature. This module is the one
place that holds them:

* :func:`install` sets fields explicitly — the CLI installs what its flags
  select, and ``None`` turns a field off even when its env var is set;
  :func:`reset` forgets every installed field;
* ``current().<field>`` returns that field's installed value, else the
  value built from that field's environment variables, else ``None``.
  Each field is resolved when it is read, so a field's env vars are
  parsed only when that field is used.

The stores' env vars come from their rows in
:mod:`repro.store.families`, the one place a store is declared.

An env-built value is memoized per field on that field's own env text:
every caller in a process shares one store instance (so a ``deferred()``
block on it batches every put), and changing one field's env vars never
rebuilds another — the fault plan keeps its one-shot state.

The response store is not part of the runtime; engines take it
explicitly.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.store.families import ARTIFACTS, PROFILES, StoreFamily
from repro.util.faults import FAULT_PLAN_ENV, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - the stores import this module
    from repro.gpusim.store import ProfileStore
    from repro.store.text import ArtifactCache

#: Default for ``store=`` / ``cache=`` parameters: "use the runtime's
#: current value". Pass ``None`` to run without a store.
CURRENT = object()

_FIELDS = frozenset(
    (PROFILES.runtime_field, ARTIFACTS.runtime_field, "fault_plan")
)
_LOCK = threading.Lock()
_INSTALLED: dict[str, object] = {}
#: field → (the env text it was built from, the value built).
_ENV_BUILT: dict[str, tuple[tuple[str | None, ...], object]] = {}


def env_text(env: str) -> str | None:
    """``$env``, or ``None`` when it is unset or blank."""
    text = os.environ.get(env)
    return text if text and text.strip() else None


def env_root(env: str, default: str | None = None) -> Path | None:
    """The directory ``$env`` names; unset or blank reads as ``default``
    (``None``: no directory)."""
    text = env_text(env) or default
    return None if text is None else Path(text)


def env_max_bytes(env: str) -> int | None:
    """``$env`` as a store size bound (``None`` = unbounded; ``0`` = keep
    nothing; junk warns and stays unbounded)."""
    from repro.store.base import parse_max_bytes

    return parse_max_bytes(os.environ.get(env), source=env)


def _env_store(family: StoreFamily):
    """``family``'s store rooted at ``$root_env`` and bounded by
    ``$bound_env``; ``None`` while ``$root_env`` is unset or blank."""
    root = env_root(family.root_env)
    if root is None:
        return None
    return family.open(root, max_bytes=env_max_bytes(family.bound_env))


def _env_fault_plan() -> FaultPlan | None:
    """The plan ``$REPRO_FAULT_PLAN`` spells; ``None`` while it is unset
    or blank."""
    text = env_text(FAULT_PLAN_ENV)
    return None if text is None else FaultPlan.parse(text)


def _resolve(field: str, envs: tuple[str, ...], build: Callable[[], object]):
    """``field``'s installed value, else ``build()``'s value, rebuilt only
    when the text of ``envs`` changes."""
    with _LOCK:
        if field in _INSTALLED:
            return _INSTALLED[field]
        text = tuple(map(os.environ.get, envs))
        built = _ENV_BUILT.get(field)
        if built is None or built[0] != text:
            built = _ENV_BUILT[field] = (text, build())
        return built[1]


def _resolve_store(family: StoreFamily):
    """``family``'s runtime field, resolved from its row's env vars."""
    return _resolve(
        family.runtime_field, (family.root_env, family.bound_env),
        lambda: _env_store(family),
    )


class Runtime:
    """The process-wide values; each attribute is resolved when read."""

    __slots__ = ()

    @property
    def profile_store(self) -> "ProfileStore | None":
        return _resolve_store(PROFILES)

    @property
    def artifact_cache(self) -> "ArtifactCache | None":
        return _resolve_store(ARTIFACTS)

    @property
    def fault_plan(self) -> FaultPlan | None:
        return _resolve("fault_plan", (FAULT_PLAN_ENV,), _env_fault_plan)


_CURRENT = Runtime()


def install(**fields) -> None:
    """Install values for the named fields (``None`` turns one off);
    fields not named keep what they had."""
    unknown = set(fields) - _FIELDS
    if unknown:
        raise TypeError(f"unknown runtime fields: {', '.join(sorted(unknown))}")
    with _LOCK:
        _INSTALLED.update(fields)


def reset() -> None:
    """Forget every installed field; the env vars apply again."""
    with _LOCK:
        _INSTALLED.clear()


def current() -> Runtime:
    """The runtime; read one field from it, e.g.
    ``current().profile_store``."""
    return _CURRENT
