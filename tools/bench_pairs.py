"""Paired parent/change runs of the benchmark, summarized into BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent <rev> --tag <tag> [--pairs 10] [--seed 0]

The change is HEAD as committed: the script refuses to run while the
checkout has uncommitted or untracked files, and records both commit shas.
Each side is extracted with `git archive <rev> | tar -x` into its own
temporary directory (no worktree; .git is only read).  For every workload
in BENCHMARK.json, pair i runs `perfbench/run.py --workload W --seed
<seed + i> --seconds <run_seconds> --trace 0` once on each side,
alternating which side runs first, and reads each run's last-line JSON and
its report digest.

The output file holds the environment, every run's values, each side's
median and quartiles per end-to-end metric, the number of pairs the change
won, and whether that is a gain by the rule: the change wins at least nine
tenths of the pairs (ties count for neither) and the medians differ, in the
better direction, by more than the parent's interquartile range.  A metric
with a bound also records whether the change's median is within it, and is
marked unresolved when the parent's interquartile range is wider than the
bound (as a share of the parent's median) and the change does not beat
every parent run in every run: such a spread cannot tell "no change" from
a regression.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method: the
    quartiles of the sample itself, interpolated between its points."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent, change, better: str, bound: float | None = None) -> dict:
    """Side statistics and the gain rule for one metric over paired runs;
    parent[i] and change[i] are pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (cmed - pmed)  # > 0 when the change's median is better
    out = {
        "better": better,
        "parent": {"median": pmed, "q1": pq1, "q3": pq3},
        "change": {"median": cmed, "q1": cq1, "q3": cq3},
        "pairs": len(parent),
        "change_wins": wins,
        "change_losses": losses,
        "parent_iqr": pq3 - pq1,
        "gain": wins >= math.ceil(WIN_SHARE * len(parent)) and gap > pq3 - pq1,
    }
    if bound is not None:
        # worse by more than the bound, as a share of the parent's median
        out["bound"] = bound
        out["within_bound"] = -gap <= bound * abs(pmed)
        # a parent spread wider than the bound cannot tell "no change" from
        # a regression inside it, unless the change beats every parent run
        # in every run
        beats_all = (min(sign * c for c in change) > max(sign * p for p in parent))
        out["unresolved"] = pq3 - pq1 > bound * abs(pmed) and not beats_all
    return out


def _run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side, text=True, capture_output=True,
                          timeout=max(600, 10 * seconds))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {side} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    env = digest = None
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("report_sha256 "):
            digest = line.split()[1]
    return {
        "values": {n: m["value"] for n, m in res["metrics"].items()},
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"], "report_sha256": digest, "env": env,
    }


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, text=True, check=True,
                          capture_output=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The tree of rev, as committed, under dest."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--tag", required=True, help="output name: BENCH_<tag>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="pair i uses seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    dirty = _git("status", "--porcelain", "--untracked-files=all")
    if dirty:
        parser.error("the checkout has uncommitted or untracked files; commit or "
                     "remove them, so that HEAD is what gets measured:\n" + dirty)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    out_path = ROOT / f"BENCH_{args.tag}.json"
    shas = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", "HEAD")}
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        sides = {}
        for side, sha in shas.items():
            sides[side] = tmp / side
            sides[side].mkdir()
            extract(sha, sides[side])
        result = {
            "tag": args.tag,
            **shas,
            "command": "perfbench/run.py --workload W --seed S --seconds "
                       f"{seconds:g} --trace 0",
            "pairs": args.pairs,
            "first_seed": args.seed,
            "environment": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpus": os.cpu_count(),
                "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            },
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(sides[side], workload, seed, seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"verify_s {pair[side]['values'].get('verify_s')}", flush=True)
                result["environment"].setdefault("perfbench_env", pair["change"].pop("env"))
                pair["parent"].pop("env", None)
                pair["change"].pop("env", None)
                runs.append(pair)
            summary = {
                m["name"]: summarize([r["parent"]["values"][m["name"]] for r in runs],
                                     [r["change"]["values"][m["name"]] for r in runs],
                                     m["better"], m.get("bound"))
                for m in metrics
            }
            result["workloads"][workload] = {
                "runs": runs,
                "summary": summary,
                "failed": {s: sum(r[s]["failed"] for r in runs) for s in sides},
                "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in sides},
                "report_sha256_equal_per_seed": all(
                    r["parent"]["report_sha256"] == r["change"]["report_sha256"]
                    for r in runs),
            }
            out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for workload, w in result["workloads"].items():
        for name, s in w["summary"].items():
            print(f"{workload:<20} {name:<12} parent {s['parent']['median']:.4g} "
                  f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]  change "
                  f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
                  f"{s['change']['q3']:.4g}]  wins {s['change_wins']}/{s['pairs']}"
                  f"  gain {s['gain']}  within_bound {s.get('within_bound')}"
                  f"  unresolved {s.get('unresolved')}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
