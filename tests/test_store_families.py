"""The store table (``repro.store.families``): one row per on-disk store
drives the CLI's store flags, its one opener and the runtime."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro import runtime
from repro.cli import _open_store, build_parser
from repro.store.families import FAMILIES, dest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_the_table_loads_no_store_code():
    code = (
        "import sys, repro.store, repro.store.families, repro.runtime\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(("
        "'repro.store.', 'repro.gpusim', 'repro.eval', 'numpy')))\n"
        "print(loaded)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": SRC}, check=True, timeout=120,
    ).stdout
    assert out.strip() == "['repro.store.families']"


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
def test_each_row_declares_its_flags(family):
    parser = build_parser()
    run = parser.parse_args(
        ["rq2", family.root_flag, "r", family.bound_flag, "7", family.off_flag]
    )
    assert getattr(run, dest(family.root_flag)) == "r"
    assert getattr(run, dest(family.bound_flag)) == 7
    assert getattr(run, dest(family.off_flag)) is True
    cache = parser.parse_args(
        ["cache", family.root_flag, "r", family.evict_flag, "0"]
    )
    assert getattr(cache, dest(family.evict_flag)) == 0
    doctor = parser.parse_args(["doctor", family.root_flag, "r"])
    assert getattr(doctor, dest(family.root_flag)) == "r"


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
def test_flag_beats_env_beats_default(family, tmp_path, monkeypatch):
    parse = build_parser().parse_args
    monkeypatch.setenv(family.root_env, str(tmp_path / "env"))
    monkeypatch.setenv(family.bound_env, "5")
    store = _open_store(parse(["rq2"]), family)
    assert (store.root, store.max_bytes) == (tmp_path / "env", 5)
    store = _open_store(parse([
        "rq2", family.root_flag, str(tmp_path / "flag"), family.bound_flag, "0",
    ]), family)
    assert (store.root, store.max_bytes) == (tmp_path / "flag", 0)
    monkeypatch.delenv(family.root_env)
    monkeypatch.delenv(family.bound_env)
    store = _open_store(parse(["rq2"]), family)
    assert (store.root, store.max_bytes) == (Path(family.dirname), None)
    assert _open_store(parse(["rq2", family.off_flag]), family) is None


@pytest.mark.parametrize(
    "family", [f for f in FAMILIES if f.runtime_field], ids=lambda f: f.label
)
def test_runtime_builds_its_stores_from_the_rows(family, tmp_path, monkeypatch):
    monkeypatch.setenv(family.root_env, str(tmp_path / "env"))
    monkeypatch.setenv(family.bound_env, "9")
    store = getattr(runtime.current(), family.runtime_field)
    assert type(store) is type(family.open(tmp_path / "other"))
    assert (store.root, store.max_bytes) == (tmp_path / "env", 9)

