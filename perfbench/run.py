"""Benchmark of flowcond's commands, run in-process through flowcond.cli.main.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mixture2d --seed 1 --seconds 45 --trace 0

One client issues the workload's commands in a closed loop, a round at a
time, until ``--seconds`` have passed (a round is never cut).  BLAS is
pinned to one thread, and each command is timed in CPU seconds of this
process (its wall time on an unloaded core; wall times are recorded too).
Every command's outputs are checked outside the timed sections.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record of the run (versions, per-command times, every check) goes to
``.perfbench_out/``, with the spans of a traced run.  See README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
TRACED_MIN_ROUNDS = 4

# end-to-end metric -> unit, in the order printed
END_TO_END = {
    "setup_s": "s", "train_base_s": "s", "infer_s": "s", "lmc_s": "s",
    "amortize_s": "s", "zero_shot_ms": "ms", "zero_shot_p90_ms": "ms",
    "eval_s": "s", "sat_corpus_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    from plan import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes (used by selftest.py)")
    return p.parse_args(argv)


def setup_seconds(args, work: Path) -> float:
    """One set-up in a fresh interpreter, in CPU seconds from its first
    statement: importing the package and the benchmark, then writing the
    workload's configs, DIMACS corpus and output directories."""
    code = (
        "import time; t = time.process_time(); import sys; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        "import flowcond.cli, checks, plan, tracing; from pathlib import Path; "
        f"plan.make_plan({args.workload!r}, {args.seed}, Path({str(work)!r}), "
        f"{args.quick}); print(repr(time.process_time() - t))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    shutil.rmtree(work)
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    """The closed loop: rounds of CLI calls, timings and check results."""

    def __init__(self, plan, checker, tracer=None):
        self.plan, self.checker, self.tracer = plan, checker, tracer
        self.times = {}           # metric -> CPU seconds per command
        self.wall = {}            # metric -> wall seconds per command
        self.round_seconds = []   # (traced, command CPU seconds of the round)
        self.checks = []          # (round, argv, name, ok, detail)
        self.attempted = self.failed = 0

    def round(self, index: int, traced: bool) -> None:
        from flowcond.cli import main
        spent, sat = 0.0, 0.0
        if traced:
            self.tracer.install()
            self.tracer.measure_memory = index == 1
        try:
            previous = None
            for inv in self.plan.round:
                # each kind of command starts from a collected heap: the
                # tape's graphs are reference cycles, and the garbage of the
                # previous command would otherwise be collected, or not,
                # inside the next one, which moves its time and peak memory
                if inv.command != previous:
                    gc.collect()
                previous = inv.command
                span = self.tracer.command(inv.command) if traced \
                    else contextlib.nullcontext()
                w0, t0 = time.perf_counter(), time.process_time()
                with span, contextlib.redirect_stdout(io.StringIO()):
                    code = main(inv.argv)
                dt = time.process_time() - t0
                self.wall.setdefault(inv.metric, []).append(
                    time.perf_counter() - w0)
                spent += dt
                if inv.metric == "sat_corpus_s":
                    sat += dt
                else:
                    self.times.setdefault(inv.metric, []).append(dt)
                results = [(inv.command + ".exit", False, f"exit code {code}")] \
                    if code else self._checks(self.checker.check, inv)
                self._count(self._record(index, inv.argv, results))
        finally:
            if traced:
                self.tracer.uninstall()
        self.times.setdefault("sat_corpus_s", []).append(sat)
        self.round_seconds.append((traced, spent))

    def deep_checks(self, index: int) -> None:
        """The slower checks, once per run, on the first invocation of each
        command in the last round's outputs: every round repeats the same
        inputs, so it writes the same outputs."""
        seen = set()
        for inv in self.plan.round:
            if inv.command not in seen:
                seen.add(inv.command)
                results = self._checks(self.checker.deep_check, inv)
                if not self._record(index, inv.argv, results):
                    self.failed += 1

    @staticmethod
    def _checks(check, inv):
        try:
            return check(inv)
        except Exception as e:     # a missing or malformed file
            return [(inv.command + ".outputs", False, repr(e))]

    def _record(self, index, argv, results) -> bool:
        for name, ok, detail in results:
            self.checks.append((index, " ".join(map(str, argv)), name,
                                bool(ok), detail))
        return all(ok for _, ok, _ in results)

    def _count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def end_to_end(run: Run, setups) -> dict:
    t = run.times
    zs = sorted(1e3 * v for v in t["zero_shot_ms"])
    values = {
        "setup_s": statistics.median(setups),
        "train_base_s": statistics.median(t["train_base_s"]),
        "infer_s": statistics.median(t["infer_s"]),
        "lmc_s": statistics.median(t["lmc_s"]),
        "amortize_s": statistics.median(t["amortize_s"]),
        "zero_shot_ms": statistics.median(zs),
        "zero_shot_p90_ms": statistics.quantiles(zs, n=10)[-1],
        "eval_s": statistics.median(t["eval_s"]),
        "sat_corpus_s": statistics.median(t["sat_corpus_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    if not (SRC / "flowcond" / "cli.py").is_file():
        print(f"perfbench: no flowcond source under {SRC}; run from the root "
              "of a flowcond checkout", file=sys.stderr)
        return 2
    args = parse_args(argv)
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    setups = [setup_seconds(args, out / f"setup{k}") for k in range(SETUP_REPEATS)]

    sys.path.insert(0, str(SRC))
    import numpy as np
    from checks import Checker
    from plan import make_plan
    from tracing import Tracer, layer_metrics
    plan = make_plan(args.workload, args.seed, out / "work", args.quick)
    run = Run(plan, Checker(plan), Tracer() if args.trace else None)

    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        # a traced run alternates: even rounds untraced, odd rounds traced
        run.round(index, traced=bool(args.trace) and index % 2 == 1)
        index += 1
        last = time.perf_counter() - t0
        if args.trace and index < TRACED_MIN_ROUNDS:
            continue
        if time.perf_counter() - start + last > args.seconds:
            break
    run.deep_checks(index - 1)

    if args.trace:
        metrics = {k: {"value": float(v), "unit": u}
                   for k, (v, u) in layer_metrics(run.tracer).items()}
        plain = [s for traced, s in run.round_seconds[2:] if not traced]
        traced = [s for traced, s in run.round_seconds[3:] if traced]
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (statistics.median(traced)
                              / statistics.median(plain) - 1.0),
            "unit": "%"}
        run.tracer.write(out / "spans.csv.gz")
    else:
        metrics = end_to_end(run, setups)
    correct = all(ok for *_, ok, _ in run.checks)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": index,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "setup_s": setups, "command_cpu_seconds": run.times,
        "command_wall_seconds": run.wall,
        "round_seconds": run.round_seconds,
        "checks": [dict(zip(("round", "argv", "name", "ok", "detail"), c))
                   for c in run.checks],
        "metrics": metrics,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1, default=str))
    shutil.rmtree(out / "work")
    bad = [c for c in run.checks if not c[3]]
    for c in bad[:10]:
        print(f"check failed: round {c[0]} {c[2]}: {c[4]}")
    print(f"perfbench {args.workload} seed={args.seed} rounds={index} "
          f"python={record['python']} numpy={record['numpy']} "
          f"nproc={record['nproc']} blas_threads={record['blas_threads']} "
          f"checks={len(run.checks) - len(bad)}/{len(run.checks)} passed "
          f"-> {out / 'record.json'}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
