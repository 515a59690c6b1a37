"""The process-wide memo tables: one eviction rule, one weakref rule.

* :class:`Memo` drops the oldest half once a write takes it past its cap,
  and concurrent writers lose no entry under the cap.
* :class:`IdentityMemo` entries live exactly as long as their object, so
  a new object at a reused ``id()`` misses; extra key parts keep entries
  for one object apart; and an entry whose object dies during interpreter
  shutdown is dropped without an error.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from pathlib import Path

from repro.util.memo import IdentityMemo, Memo

SRC = Path(__file__).resolve().parents[1] / "src"


class Anchor:
    pass


class TestMemo:
    def test_overflow_drops_oldest_half(self):
        memo = Memo(8)
        for i in range(8):
            memo.put(i, str(i))
        assert list(memo) == list(range(8))
        memo.put(8, "8")
        assert list(memo) == list(range(4, 9))
        assert memo.get(3) is None and memo.get(8) == "8"
        assert memo.setdefault(8, "other") == "8"
        for i in range(9, 13):
            memo.setdefault(i, str(i))
        assert list(memo) == list(range(8, 13))

    def test_no_cap_never_drops(self):
        memo = Memo()
        for i in range(10_000):
            memo.put(i, i)
        assert len(memo) == 10_000

    def test_get_pop_and_clear(self):
        memo = Memo(4)
        missing = object()
        assert memo.get("k") is None
        assert memo.get("k", missing) is missing
        assert memo.put("k", 1) == 1
        assert memo.pop("k") == 1
        assert memo.pop("k") is None
        memo.put("a", 1)
        memo.clear()
        assert len(memo) == 0 and list(memo) == []

    def test_concurrent_puts_lose_nothing_under_the_cap(self):
        memo = Memo(8 * 500)
        errors: list = []

        def writer(t):
            try:
                for i in range(500):
                    memo.put((t, i), t * i)
                    memo.setdefault((t, i), -1)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(t,)) for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) == 8 * 500
        assert all(
            memo.get((t, i)) == t * i for t in range(8) for i in range(500)
        )


class TestIdentityMemo:
    def test_entry_dies_with_its_object(self):
        memo = IdentityMemo()
        anchor = Anchor()
        assert memo.put(anchor, value="v") == "v"
        assert memo.get(anchor) == "v" and len(memo) == 1
        del anchor
        assert len(memo) == 0

    def test_new_object_at_a_reused_id_misses(self):
        memo = IdentityMemo()
        anchor = Anchor()
        ident = id(anchor)
        memo.put(anchor, "root", value="old")
        del anchor
        for _ in range(1000):
            other = Anchor()
            if id(other) == ident:
                break
        assert id(other) == ident, "the allocator never reused the id"
        assert memo.get(other, "root") is None

    def test_key_parts_keep_entries_apart(self):
        memo = IdentityMemo()
        anchor, other = Anchor(), Anchor()
        memo.put(anchor, "root-a", value="a")
        memo.put(anchor, "root-b", value="b")
        memo.put(anchor, "root-a", "tokenizer-1", value=1)
        memo.put(anchor, "root-a", "tokenizer-2", value=2)
        assert memo.get(anchor, "root-a") == "a"
        assert memo.get(anchor, "root-b") == "b"
        assert memo.get(anchor, "root-a", "tokenizer-1") == 1
        assert memo.get(anchor, "root-a", "tokenizer-2") == 2
        assert memo.get(anchor) is None
        assert memo.get(other, "root-a") is None
        memo.clear()
        assert memo.get(anchor, "root-a") is None
        del anchor  # the cleared entries' callbacks find nothing to drop
        assert len(memo) == 0

    def test_shutdown_with_live_entries_is_silent(self):
        # A daemon thread keeps both modules alive until the interpreter
        # clears their globals, memo.py's first; the anchors then die
        # while their entries' callbacks can still fire.
        code = "\n".join([
            "import sys",
            "import threading",
            "import repro.util.memo as memo",
            "class Anchor:",
            "    pass",
            "TABLE = memo.IdentityMemo()",
            "ANCHORS = [Anchor() for _ in range(3)]",
            "for i, anchor in enumerate(ANCHORS):",
            "    TABLE.put(anchor, 'part', value=i)",
            "def hold(modules=(sys.modules[__name__], memo)):",
            "    threading.Event().wait()",
            "threading.Thread(target=hold, daemon=True).start()",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
