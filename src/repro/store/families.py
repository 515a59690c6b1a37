"""The three on-disk stores, each declared once.

:data:`FAMILIES` holds one :class:`StoreFamily` row per store (the
response cache, the kernel-profile store and the text-artifact cache):
its names, env vars, default directory, CLI flags and store class. This
is the only place any of these is spelled. :mod:`repro.cli` declares its
store flags, opens its stores and runs ``cache``/``doctor`` from the
rows, and :mod:`repro.runtime` builds its env-backed stores from them.

The module imports only the standard library. A row names its store
class by import path, resolved on first :meth:`StoreFamily.open`,
because the store modules import :mod:`repro.runtime`, which imports
this table.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class StoreFamily:
    """One on-disk store's identity."""

    #: Name in ``doctor`` reports: ``responses``, ``profiles``, ``artifacts``.
    label: str
    #: What ``repro-paper cache`` prints before the store's root.
    heading: str
    #: What the store holds, in flag help.
    what: str
    #: Qualifies counted entries and segments ("3 profile segments");
    #: empty for the response cache.
    kind: str
    root_env: str
    bound_env: str
    #: Root the CLI uses when neither flag nor ``$root_env`` names one.
    dirname: str
    root_flag: str
    bound_flag: str
    off_flag: str
    #: The ``cache`` command's evict-to-this-size flag.
    evict_flag: str
    #: ``module:Class`` of the store.
    store_path: str
    #: The :mod:`repro.runtime` field holding the process-wide store;
    #: ``None`` for the response cache, which engines take explicitly.
    runtime_field: str | None = None

    def open(self, root: str | Path, *, max_bytes: int | None = None):
        """This family's store at ``root``, bounded by ``max_bytes``."""
        module, _, name = self.store_path.partition(":")
        cls = getattr(importlib.import_module(module), name)
        return cls(root, max_bytes=max_bytes)

    def count(self, n: int, unit: str) -> str:
        """``n`` of the singular ``unit`` in this store, e.g. ``3 profile
        segments`` or ``1 entry``."""
        return plural(n, " ".join(filter(None, (self.kind, unit))))


def plural(n: int, noun: str) -> str:
    """``n noun``, the noun in the plural unless ``n`` is 1."""
    if n != 1:
        noun = noun[:-1] + "ies" if noun.endswith("y") else noun + "s"
    return f"{n} {noun}"


def dest(flag: str) -> str:
    """The argparse attribute ``flag`` sets (``--no-cache`` → ``no_cache``)."""
    return flag.lstrip("-").replace("-", "_")


RESPONSES = StoreFamily(
    label="responses",
    heading="cache dir",
    what="response cache",
    kind="",
    root_env="REPRO_CACHE_DIR",
    bound_env="REPRO_CACHE_MAX_BYTES",
    dirname=".repro-cache",
    root_flag="--cache-dir",
    bound_flag="--cache-max-bytes",
    off_flag="--no-cache",
    evict_flag="--max-bytes",
    store_path="repro.eval.engine:DiskResponseStore",
)

PROFILES = StoreFamily(
    label="profiles",
    heading="profile store",
    what="kernel-profile store",
    kind="profile",
    root_env="REPRO_PROFILE_CACHE",
    bound_env="REPRO_PROFILE_CACHE_MAX_BYTES",
    dirname=".repro-profile-cache",
    root_flag="--profile-cache",
    bound_flag="--profile-cache-max-bytes",
    off_flag="--no-profile-cache",
    evict_flag="--profile-max-bytes",
    store_path="repro.gpusim.store:ProfileStore",
    runtime_field="profile_store",
)

ARTIFACTS = StoreFamily(
    label="artifacts",
    heading="artifact cache",
    what="text-artifact store",
    kind="artifact",
    root_env="REPRO_ARTIFACT_CACHE",
    bound_env="REPRO_ARTIFACT_CACHE_MAX_BYTES",
    dirname=".repro-artifact-cache",
    root_flag="--artifact-cache",
    bound_flag="--artifact-cache-max-bytes",
    off_flag="--no-artifact-cache",
    evict_flag="--artifact-max-bytes",
    store_path="repro.store.text:ArtifactCache",
    runtime_field="artifact_cache",
)

#: Every store, in the order commands open and print them.
FAMILIES = (RESPONSES, PROFILES, ARTIFACTS)
