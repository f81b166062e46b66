"""The traced benchmark wraps named attributes of the package; a refactor
that drops one of them breaks `perfbench/run.py --trace 1`."""

import re
import sys
from pathlib import Path

import pytest

from uqsl import affine, currents, finite

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        yield spans
    finally:
        sys.path.remove(str(PERFBENCH))


def test_instrument_and_restore(spans):
    hooked = [
        (currents.VertexEngine, "extract"),
        (currents.VertexEngine, "extract_sum"),
        (affine.AffineContext, "combo_zero"),
        (affine.AffineContext, "combo_vec"),
        (affine, "numeric_check"),
        (finite, "numeric_check"),
    ]
    before = [owner.__dict__[attr] for owner, attr in hooked]
    restore = spans.instrument(spans.Tracer(), with_finite=True)
    try:
        for owner, attr in hooked:
            assert hasattr(owner.__dict__[attr], "__wrapped__"), attr
    finally:
        restore()
    assert [owner.__dict__[attr] for owner, attr in hooked] == before


def test_bulk_reasons_known(spans):
    # perfbench counts fallbacks by message; an unlisted message would
    # land in bulk.fallback.other.  The constructor's check cannot fire
    # inside combo_residual.
    text = (ROOT / "src" / "uqsl" / "bulk.py").read_text(encoding="utf-8")
    raised = set(re.findall(r'BulkError\("([^"]*)"\)', text))
    assert raised - {"Gamma must sit in slot 1"} <= set(spans.BULK_FALLBACK_REASONS)
    assert "BulkError(f" not in text
