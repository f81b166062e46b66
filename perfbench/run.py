"""The uqsl benchmark: time to a verdict, memory, and verdict correctness.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, one process each

One process, one client, no threads: each timed repetition builds a cold
context (so the per-instance caches in affine, currents and bulk start empty,
as for a CLI user), runs the workload's relation families, serializes the
report, and checks every verdict against the pinned expectation.
Repetitions continue until --seconds have passed (at least two, so report
bytes can be compared); timings are medians over repetitions.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and one
traced repetition and prints the per-layer metrics, including the tracing
overhead.  The last line of stdout is the JSON result; spans and per-run
details go to .perfbench/ at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_REPS = 2

from spans import BULK_FALLBACK_REASONS, Tracer, instrument, slug  # noqa: E402
from workloads import TINY, WORKLOADS, make_run, verdict_failures  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("cases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_TIMED = ("ring.mul", "ring.add", "ring.subst_numeric",
          "oscillators.apply_oscillator", "currents.extract",
          "currents.extract_sum", "bulk.combo_residual", "affine.mode_vec",
          "affine.h_vec", "report.numeric_check", "grassmann.mul",
          "finite.qdiff_apply")
_FAMILIES = tuple(f"affine.eq{n}" for n in range(6, 16)) + (
    "finite.chevalley", "finite.intermediate", "finite.remarks")

PER_LAYER = (
    *[(f"{n}.{k}", u) for n in _TIMED for k, u in (("calls", "count"), ("self_s", "s"))],
    ("ring.str.calls", "count"),
    ("ring.verify_bracket_identity.self_s", "s"),
    ("oscillators.enumerate_basis.states", "count"),
    ("currents.fuse.calls", "count"),
    ("bulk.fallbacks", "count"),
    *[(f"bulk.fallback.{slug(m)}", "count") for m in BULK_FALLBACK_REASONS],
    ("bulk.fallback.other", "count"),
    ("bulk.accept_ratio", "ratio"),
    ("bulk.fallback_wasted_s", "s"),
    *[(f"{n}.s", "s") for n in _FAMILIES],
    ("affine.combo_zero.self_s", "s"),
    ("affine.combo_vec.self_s", "s"),
    ("report.numeric_check.pairs", "count"),
    ("report.serialize_s", "s"),
    ("grassmann.qshift.calls", "count"),
    ("grassmann.dx.calls", "count"),
    ("grassmann.basis_upto.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def environment(seed: int) -> dict:
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except OSError:
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_implementation() + " " + platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha or None,
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def setup_time(cmd):
    """Seconds one fresh process takes to set up, or None when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                          timeout=120)
    return float(proc.stdout.split()[-1]) if proc.returncode == 0 else None


class Repetitions:
    """Timed repetitions of one workload with the verdict gate applied."""

    def __init__(self, spec, seed: int):
        self.spec, self.seed = spec, seed
        self.times, self.digests = [], []
        self.attempted = self.failed = 0
        self.checked = self.states = 0
        self.problems = []

    def once(self, tracer=None) -> bool:
        """One cold repetition; False when it raised."""
        self.attempted += self.spec.expect_count
        restore = None
        try:
            run = make_run(self.spec, self.seed)
            if tracer is not None:
                restore = instrument(tracer, self.spec.kind == "finite")
            t0 = time.perf_counter()
            results, data = run.verify(tracer.region if tracer else None)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a relation that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.failed += self.spec.expect_count
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return False
        finally:
            if restore is not None:
                restore()
        bad = verdict_failures(self.spec, results)
        self.failed += len(bad)
        self.problems += bad
        self.checked = sum(r.checked for r in results)
        self.times.append(dt)
        self.digests.append(hashlib.sha256(data).hexdigest())
        self.states = len(run.basis) if self.spec.kind == "affine" else 0
        return True

    @property
    def bytes_stable(self) -> bool:
        return len(set(self.digests)) <= 1


def run_workload(args) -> dict:
    spec = (TINY if args.tiny else WORKLOADS)[args.workload]
    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}"
          + (" tiny" if args.tiny else ""))
    print("env " + json.dumps(env, sort_keys=True))
    reps = Repetitions(spec, args.seed)
    metrics, detail = {}, {}

    if args.trace:
        tracer = Tracer()
        ok = reps.once() and reps.once(tracer)
        if ok:
            metrics = layer_metrics(tracer, reps)
            detail["trace"] = tracer.dump()
    else:
        # One set-up probe before each repetition, so setup_s samples the
        # same stretch of machine time as verify_s; the warm-up probe may
        # compile bytecode and is not counted.
        probe = [sys.executable, str(HERE / "setup_probe.py"), args.workload]
        probe += ["--tiny"] if args.tiny else []
        setup_times = []
        setup_ok = setup_time(probe) is not None
        start = time.perf_counter()
        ok = True
        while ok and (len(reps.times) < MIN_REPS
                      or time.perf_counter() - start < args.seconds):
            if setup_ok:
                t = setup_time(probe)
                setup_ok = t is not None
                setup_times.append(t)
            ok = reps.once()
        if ok and setup_ok:
            verify = statistics.median(reps.times)
            values = {
                "setup_s": statistics.median(setup_times),
                "verify_s": verify,
                "cases_per_s": reps.checked / verify,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        detail["setup_probes_s"] = setup_times

    failed_ratio = reps.failed / reps.attempted
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_ratio {failed_ratio!r} ({reps.failed}/{reps.attempted})")
    if reps.times:
        print(f"repetitions {len(reps.times)}: "
              + " ".join(f"{t:.4f}" for t in reps.times) + " s")
        print(f"report_sha256 {reps.digests[0]} "
              f"({'identical' if reps.bytes_stable else 'DIFFERING'} across "
              f"{len(reps.digests)} repetitions)")
    for line in reps.problems[:20]:
        print(f"problem {line}")

    result = {
        "correct": reps.failed == 0 and reps.bytes_stable and bool(metrics),
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "env": env, "workload": args.workload, "tiny": args.tiny,
        "result": result, "failed_ratio": failed_ratio,
        "problems": reps.problems, "verify_times_s": reps.times,
        "report_sha256": reps.digests, **detail,
    }) + "\n")
    return result


def layer_metrics(tracer: Tracer, reps: Repetitions) -> dict:
    totals, counters = tracer.totals, tracer.counters

    def get(name, i):
        return totals.get(name, (0, 0.0, 0.0))[i]

    values = {}
    for name in _TIMED:
        values[f"{name}.calls"] = get(name, 0)
        values[f"{name}.self_s"] = get(name, 2)
    for name in _FAMILIES:
        values[f"{name}.s"] = get(name, 1)
    calls = get("bulk.combo_residual", 0)
    values.update({
        "ring.str.calls": get("ring.str", 0),
        "ring.verify_bracket_identity.self_s": get("ring.verify_bracket_identity", 2),
        "oscillators.enumerate_basis.states": reps.states,
        "currents.fuse.calls": get("currents.fuse", 0),
        "bulk.accept_ratio": counters["bulk.accepts"] / calls if calls else 0.0,
        "affine.combo_zero.self_s": get("affine.combo_zero", 2),
        "affine.combo_vec.self_s": get("affine.combo_vec", 2),
        "report.serialize_s": get("report.serialize", 1),
        "grassmann.qshift.calls": get("grassmann.qshift", 0),
        "grassmann.dx.calls": get("grassmann.dx", 0),
        "grassmann.basis_upto.self_s": get("grassmann.basis_upto", 2),
        "trace.overhead_s": reps.times[1] - reps.times[0],
    })
    for name, unit in PER_LAYER:
        if name not in values:
            values[name] = counters[name]
    return {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}


def run_all(args) -> dict:
    """Every workload in a fresh process, one after another, as a table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, res))
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    names = [n for n, _ in END_TO_END] + ["failed_ratio"]
    units = dict(END_TO_END, failed_ratio="ratio")
    print(f"{'workload':<22}" + "".join(f"{n + ' [' + units[n] + ']':>22}" for n in names))
    for name, res in rows:
        cells = [res["metrics"].get(n, {}).get("value") for n in names[:-1]]
        cells.append(res["failed"] / res["attempted"])
        print(f"{name:<22}" + "".join(
            f"{'n/a':>22}" if v is None else f"{v:>22.4f}" for v in cells))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes of the same code paths (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "uqsl" / "__init__.py").is_file():
        print(f"error: no uqsl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uqsl
    if Path(uqsl.__file__).resolve().parent != (SRC / "uqsl").resolve():
        print(f"error: uqsl imported from {uqsl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
