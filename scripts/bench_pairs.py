"""Paired benchmark runs of a base revision against the working tree.

Run from the root of a source checkout:

    python3 scripts/bench_pairs.py --pr 20 --base HEAD --seeds 101-110

The base revision's committed files are extracted with ``git archive``
into a temporary directory.  For each seed and each workload that
BENCHMARK.json declares, ``perfbench/run.py`` then runs once in each tree
for BENCHMARK.json's ``run_seconds``, each in its own process; the side
that runs first alternates between one workload's pairs.
``BENCH_<pr>.json`` gets, per workload and end-to-end metric, each side's
median and quartiles (numpy's linear percentiles), the ratio of the
medians (change / base), the pairs the change won (ties count for
neither), and whether that is a gain by the pair rule: every change run's
checks passed, no larger share of operations failed than in the base,
at least nine tenths of the pairs won and the medians further apart than
the base's quartiles.  Against each metric's ``bound`` in BENCHMARK.json
it also records whether the change stayed within the bound (its median no
worse than the base's by more than that share of it) and whether the
metric is unresolved (the base's quartile spread, over its median, wider
than the bound, while not every change run beats every base run).  A run
that exits non-zero or prints no result is recorded as crashed: incorrect,
with no metrics, so its pair is left out of the quartiles but still counts
against the pairs won.  Every run's metrics are kept in the file as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("base", "change")


def parse_seeds(text: str) -> list[int]:
    """'101-110' or '3,5,8' -> a list of seeds."""
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def pair_order(seed_index: int, workload_index: int) -> tuple[str, str]:
    """Which side runs first: it alternates between one workload's
    consecutive pairs, and between the workloads of one seed."""
    return SIDES if (seed_index + workload_index) % 2 == 0 else SIDES[::-1]


def crashed(run: dict) -> bool:
    # records written before crashes were recorded have no such key
    return run.get("crashed", False)


def summarize(runs: list[dict], metrics: dict) -> dict:
    """Per workload and metric, both sides' quartiles, the ratio of the
    medians, the pairs won and the verdicts against the metric's bound.

    ``runs`` holds one record per run: ``workload``, ``seed``, ``side``
    ("base" or "change"), ``attempted``, ``failed``, ``correct`` (whether
    every check passed), ``crashed`` and ``metrics`` (name -> value, empty
    for a crashed run).  A pair is the two sides' runs of one workload and
    seed.  ``metrics`` maps each metric to its BENCHMARK.json entry:
    ``better`` ("lower" or "higher") and ``bound``, the share of the base's
    median by which it may worsen.
    """
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(by_seed.items()) if set(p) == set(SIDES)]
        summary = {"pairs": len(pairs)}
        for side in SIDES:
            summary[f"{side}_failed"] = sum(p[side]["failed"] for p in pairs)
            summary[f"{side}_attempted"] = sum(p[side]["attempted"] for p in pairs)
            summary[f"{side}_incorrect"] = sum(not p[side]["correct"] for p in pairs)
            summary[f"{side}_crashed"] = sum(crashed(p[side]) for p in pairs)
        whole = [p for p in pairs if not any(crashed(p[side]) for side in SIDES)]
        # a change that fails a larger share of operations, or any check,
        # gains nothing
        sound = (summary["change_incorrect"] == 0
                 and summary["change_failed"] * summary["base_attempted"]
                 <= summary["base_failed"] * summary["change_attempted"])
        for name, declared in metrics.items():
            better, bound = declared["better"], declared["bound"]
            sign = 1.0 if better == "lower" else -1.0
            if not whole:
                summary[name] = {"better": better, "pairs_won": 0,
                                 "gain_by_pair_rule": False}
                continue
            values = {side: [p[side]["metrics"][name] for p in whole]
                      for side in SIDES}
            base, change = quartiles(values["base"]), quartiles(values["change"])
            won = sum(sign * (c - b) < 0.0
                      for b, c in zip(values["base"], values["change"]))
            gain = sign * (base["median"] - change["median"])
            spread = base["q3"] - base["q1"]
            # every change run better than every base run
            apart = max(sign * c for c in values["change"]) \
                < min(sign * b for b in values["base"])
            summary[name] = {
                "better": better, "base": base, "change": change,
                "ratio": change["median"] / base["median"],
                "pairs_won": int(won),
                "gain_by_pair_rule": bool(
                    sound and won >= 0.9 * len(pairs) and gain > spread),
                "within_bound": bool(-gain <= bound * abs(base["median"])),
                "unresolved": bool(spread > bound * abs(base["median"])
                                   and not apart),
            }
        out[workload] = summary
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: its last output line, or a
    crashed record when it exits non-zero or that line is no result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        tail = done.stderr.strip().splitlines()[-1:]
        return {"attempted": 0, "failed": 0, "correct": False, "crashed": True,
                "exit": done.returncode, "error": tail[0] if tail else "",
                "metrics": {}}
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "crashed": False,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True,
                   help="names the output file, BENCH_<pr>.json")
    p.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    p.add_argument("--seeds", type=parse_seeds, required=True,
                   help="'101-110' or '3,5,8'")
    args = p.parse_args(argv)

    declared = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    base_rev = git("rev-parse", args.base)
    trees = {"change": Path.cwd()}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        trees["base"] = Path(tmp)
        archive = subprocess.run(["git", "archive", base_rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for i, seed in enumerate(args.seeds):
            for j, workload in enumerate(workloads):
                order = pair_order(i, j)
                for side in order:
                    r = run_once(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed,
                                 "side": side, "first": side == order[0], **r})
                    print(f"{workload} seed={seed} {side}: " + (
                        f"crashed (exit {r['exit']}): {r['error']}"
                        if r["crashed"] else ", ".join(
                            f"{m}={r['metrics'][m]:.4g}" for m in metrics)),
                        flush=True)

    record = {
        "pr": args.pr, "base": base_rev,
        "change": git("rev-parse", "HEAD") + ("+uncommitted" if git(
            "status", "--porcelain", "--untracked-files=no") else ""),
        "seconds": seconds, "seeds": args.seeds,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "summary": summarize(runs, metrics), "runs": runs,
    }
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    for workload, summary in record["summary"].items():
        for name in metrics:
            s = summary[name]
            if "base" not in s:
                print(f"{workload} {name}: no pair without a crash")
                continue
            verdict = ("unresolved" if s["unresolved"] else "within bound"
                       if s["within_bound"] else "WORSE than its bound")
            print(f"{workload} {name}: {s['base']['median']:.4g} -> "
                  f"{s['change']['median']:.4g} ({s['ratio']:.3f}x), "
                  f"{s['pairs_won']}/{summary['pairs']} pairs won, {verdict}"
                  + (", gain by the pair rule" if s["gain_by_pair_rule"] else ""))
    print(f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
