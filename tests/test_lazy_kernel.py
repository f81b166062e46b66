"""The packed kernel and numpy load on the first kernel call, not at import.

Each check runs in a fresh interpreter: the test process has numpy loaded
already (hypothesis, the kernel tests), so sys.modules here says nothing."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return sorted(m for m in ("numpy", "uqsl.bulk") if m in sys.modules)

out = {}
import uqsl.cli
out["import"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = uqsl.cli.main(["check-finite", "--M", "2", "--N", "1", "--max-degree", "1"])
out["check-finite"] = [code, loaded()]

from uqsl.affine import FAMILIES, AffineContext
from uqsl.oscillators import enumerate_basis
from uqsl.report import run_family
ctx = AffineContext()
opts = {"ctx": ctx, "basis": enumerate_basis(0), "window": 1, "psi_nmax": 1}
ran = []
for fam in ("eq6", "eq7", "eq8", "eq9", "eq10", "eq12", "eq14", "eq15"):
    ran += run_family(FAMILIES[fam], opts)
out["exact families"] = [sorted({r.status for r in ran}), loaded(), "bulk" in vars(ctx)]

calls = []
def count(frame, event, arg):
    if (event == "call" and frame.f_code.co_name == "combo_residual"
            and frame.f_code.co_filename.endswith("bulk.py")):
        calls.append(1)
sys.setprofile(count)
ran = run_family(FAMILIES["eq11"], opts)
sys.setprofile(None)
out["eq11"] = [sorted({r.status for r in ran}), loaded(), len(calls)]
print(json.dumps(out))
"""


def test_numpy_and_kernel_load_on_first_kernel_call():
    proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC)],
                          text=True, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert out["import"] == []
    assert out["check-finite"] == [0, []]
    # eq14 is not-applicable at (2|1); every other family passes
    assert out["exact families"] == [["not-applicable", "pass"], [], False]
    statuses, modules, calls = out["eq11"]
    assert statuses == ["pass"]
    assert modules == ["numpy", "uqsl.bulk"]
    assert calls > 0
