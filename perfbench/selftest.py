"""Fast self-test of the benchmark at the smallest sizes (E_cut = 0, window 1).

Runs every workload's code path untraced and traced, each in a fresh
process, and checks that every metric named in BENCHMARK.json is emitted with
its unit, that call counts repeat exactly between two traced runs, that the
bulk counters read zero where bulk.py is never entered, and that the
benchmark refuses to run without the uqsl sources.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from run import END_TO_END, OUT, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FINITE_ATTEMPTED = WORKLOADS["finite_m2n2_d4"].expect_count


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args, "--tiny"],
                          cwd=cwd, text=True, capture_output=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def finite_imports() -> bool:
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import uqsl.finite"
    return subprocess.run([sys.executable, "-c", code], capture_output=True).returncode == 0


def check_metrics(name, res, spec):
    check(set(res["metrics"]) == {n for n, _ in spec},
          f"{name}: metric names differ from the benchmark's list")
    for metric, unit in spec:
        m = res["metrics"][metric]
        check(m["unit"] == unit and isinstance(m["value"], (int, float)),
              f"{name}: {metric} lacks a numeric value with unit {unit}")


def check_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END),
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check([(m["name"], m["unit"]) for m in declared["per_layer"]] == list(PER_LAYER),
          "BENCHMARK.json per_layer differs from run.PER_LAYER")
    check({w["name"] for w in declared["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names an unknown workload")


def check_workload(name, finite_ok):
    seeds = ("1", "2")
    base = ["--workload", name, "--seconds", "0"]
    plain = bench(*base, "--seed", seeds[0], "--trace", "0")
    if name.startswith("finite") and not finite_ok:
        res = result_of(plain)
        check(res["attempted"] == res["failed"] == FINITE_ATTEMPTED
              and res["metrics"] == {} and not res["correct"],
              f"{name}: import failure not reported as {FINITE_ATTEMPTED} failed")
        check("\nproblem " in plain.stdout,
              f"{name}: no reason printed for the import failure")
        return "import fails; reported as failed"
    res = result_of(plain)
    check(res["correct"] and res["failed"] == 0, f"{name}: untraced run not correct")
    check_metrics(name, res, END_TO_END)
    traced = [result_of(bench(*base, "--seed", s, "--trace", "1")) for s in seeds]
    for t in traced:
        check(t["correct"], f"{name}: traced run not correct")
        check_metrics(name, t, PER_LAYER)
    calls = [{k: v["value"] for k, v in t["metrics"].items()
              if k.endswith(".calls") or k.endswith(".states")} for t in traced]
    check(calls[0] == calls[1], f"{name}: call counts differ between traced runs")
    m = {k: v["value"] for k, v in traced[0]["metrics"].items()}
    if name == "affine_exact_e0w2" or name.startswith("finite"):
        bulk = [k for k in m if k.startswith("bulk.") and m[k]]
        check(not bulk, f"{name}: bulk counters not zero: {bulk}")
    else:
        check(m["bulk.combo_residual.calls"] > 0, f"{name}: bulk never entered")
    check((m["ring.str.calls"] > 0) == (name == "affine_override_k2"),
          f"{name}: witness rendering count unexpected")
    return "ok"


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the benchmark must refuse."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = bench("--workload", "affine_full_e1w1", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip().endswith("}"),
          "benchmark ran without the uqsl sources")


def main() -> int:
    check_declared()
    finite_ok = finite_imports()
    for name in WORKLOADS:
        print(f"{name}: {check_workload(name, finite_ok)}", flush=True)
    check_bare_directory()
    print("bare directory: refused")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
