"""The traced benchmark wraps named attributes of the package; a refactor
that drops one of them breaks `perfbench/run.py --trace 1`.  The benchmark's
self-test runs here too, so a changed signature it calls fails tier-1."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from uqsl import affine, bulk, currents, finite, grassmann, ring

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# every attribute spans.instrument swaps for a timing wrapper, by owner
HOOKED = {
    ring.RingElem: {"__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                    "__rsub__", "__neg__", "subst_numeric", "__str__"},
    ring: {"verify_bracket_identity"},
    affine: {"apply_oscillator", "numeric_check"},
    currents.VertexEngine: {"extract", "extract_sum", "fuse"},
    bulk.BulkEngine: {"combo_residual"},
    affine.AffineContext: {"mode_vec", "h_vec", "combo_zero", "combo_vec"},
    grassmann.SuperPoly: {"__mul__", "qshift", "dx"},
    finite: {"numeric_check", "basis_upto"},
    finite.QDiffOp: {"apply"},
}


def _name(owner) -> str:
    return getattr(owner, "__qualname__", owner.__name__)


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        yield spans
    finally:
        sys.path.remove(str(PERFBENCH))


def test_instrument_and_restore(spans):
    before = {owner: dict(owner.__dict__) for owner in HOOKED}
    for owner, attrs in HOOKED.items():
        for attr in sorted(attrs):
            assert attr in before[owner], f"{_name(owner)}.{attr} is gone"
    restore = spans.instrument(spans.Tracer(), with_finite=True)
    try:
        for owner, attrs in HOOKED.items():
            changed = {a for a, v in owner.__dict__.items() if before[owner].get(a) is not v}
            assert changed == attrs, _name(owner)
            for attr in sorted(changed):
                assert hasattr(owner.__dict__[attr], "__wrapped__"), f"{_name(owner)}.{attr}"
    finally:
        restore()
    for owner in HOOKED:
        after = dict(owner.__dict__)
        for attr, value in before[owner].items():
            assert after.get(attr) is value, f"{_name(owner)}.{attr} not restored"
        assert after.keys() == before[owner].keys(), _name(owner)


def test_bulk_reasons_known(spans):
    # perfbench counts fallbacks by message; an unlisted message would
    # land in bulk.fallback.other.  The constructor's check cannot fire
    # inside combo_residual.
    text = (ROOT / "src" / "uqsl" / "bulk.py").read_text(encoding="utf-8")
    raised = set(re.findall(r'BulkError\("([^"]*)"\)', text))
    assert raised - {"Gamma must sit in slot 1"} <= set(spans.BULK_FALLBACK_REASONS)
    assert "BulkError(f" not in text


def test_selftest_passes():
    # every workload at its smallest size, untraced and traced
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=ROOT,
                          text=True, capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
