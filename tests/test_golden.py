"""Golden digests: every pinned seeded output must be byte-identical to the
stored SHA-256 (see tests/golden/regen.py for what is pinned and how to
re-pin on purpose)."""

import importlib.util
import os

_spec = importlib.util.spec_from_file_location(
    "golden_regen", os.path.join(os.path.dirname(__file__), "golden", "regen.py")
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_golden_digests_unchanged():
    stored = golden.load()
    now = golden.compute()
    assert len(stored) == 101
    assert golden.differences(stored, now) == []
