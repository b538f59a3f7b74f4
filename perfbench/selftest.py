"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For each workload it

1. runs ``run.py`` to its end at reduced size (``--quick``), untraced and
   traced, and requires exit code 0, every check passed, no failed command
   and every metric of the mode reported;
2. runs one reduced round in-process, then shows that every output check
   passes on the intact outputs and fails on a deliberately corrupted
   artifact or program result: a trace row changed, a sample set shifted,
   log q shifted by 1e-3, one gradient entry negated, the Langevin noise
   scaled, one gadget corner value off by 1e-6, and so on.

Prints one line per case and exits 1 if any case goes the wrong way.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from plan import WORKLOADS, make_plan  # noqa: E402
from tracing import COMMANDS  # noqa: E402

OUT = ROOT / ".perfbench_out" / "selftest"
FAILURES = []


def report(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


# ---------------------------------------------------------------------------
# 1. whole runs at reduced size
# ---------------------------------------------------------------------------

def declared(kind):
    """{name: unit} of the metrics BENCHMARK.json lists under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def whole_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=900)
    try:
        last = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        report(False, f"{workload} trace={trace}: no result line "
                      f"(exit {done.returncode}) {done.stderr[-500:]}")
        return
    want = declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    ok = (done.returncode == 0 and last["correct"] and last["failed"] == 0
          and last["attempted"] > 0 and got == want
          and all(isinstance(v["value"], float) for v in last["metrics"].values()))
    report(ok, f"{workload} trace={trace}: exit {done.returncode}, "
               f"correct={last['correct']}, {last['failed']}/{last['attempted']} "
               f"failed, {len(last['metrics'])} metrics"
               + ("" if got == want else
                  f", mismatch {sorted(set(got.items()) ^ set(want.items()))}"))


def bare_directory():
    """In a directory holding only the benchmark, run.py must fail fast."""
    bare = OUT / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        capture_output=True, text=True, timeout=180)
    report(done.returncode != 0 and not done.stdout.strip(),
           f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    shutil.rmtree(bare)


# ---------------------------------------------------------------------------
# 2. every check fails on a corrupted artifact
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def edited(path, edit):
    """Apply ``edit(text) -> text`` to a file for the duration."""
    path = Path(path)
    keep = path.read_bytes()
    try:
        path.write_text(edit(keep.decode("ascii")), encoding="ascii")
        yield
    finally:
        path.write_bytes(keep)


@contextlib.contextmanager
def truncated(path):
    path = Path(path)
    keep = path.read_bytes()
    try:
        path.write_bytes(b"")
        yield
    finally:
        path.write_bytes(keep)


@contextlib.contextmanager
def edited_array(path, edit):
    path = Path(path)
    keep = path.read_bytes()
    try:
        arr = checks.read_flwa(path)
        checks.write_flwa(path, edit(arr))
        yield
    finally:
        path.write_bytes(keep)


@contextlib.contextmanager
def patched(obj, attr, make):
    """Replace ``obj.attr`` by ``make(original)`` for the duration."""
    original = getattr(obj, attr)
    setattr(obj, attr, make(original))
    try:
        yield
    finally:
        setattr(obj, attr, original)


def trace_rows(fn):
    def edit(text):
        lines = text.splitlines()
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        fn(rows)
        return "\n".join([lines[0]] + [",".join(repr(v) for v in r)
                                       for r in rows]) + "\n"
    return edit


def csv_metric(name, fn):
    def edit(text):
        out = []
        for ln in text.splitlines():
            key, _, value = ln.partition(",")
            out.append(f"{key},{fn(float(value))!r}" if key == name else ln)
        return "\n".join(out) + "\n"
    return edit


def shift_logq(original):
    def sample_with_logq(self, n, rng):
        x, logq = original(self, n, rng)
        return x, logq + 1e-3
    return sample_with_logq


def shift_log_prob(original):
    def log_prob(self, x):
        return original(self, x) + 1e-3
    return log_prob


def negate_one_gradient(original):
    def gradients(self, grad_map, params):
        grads = original(self, grad_map, params)
        i = int(np.argmax([np.max(np.abs(g)) for g in grads]))
        k = np.unravel_index(int(np.argmax(np.abs(grads[i]))), grads[i].shape)
        grads[i] = grads[i].copy()
        grads[i][k] = -grads[i][k]
        return grads
    return gradients


def louder_lmc_noise(original):
    class Louder:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, shape):
            return 1.1 * self.rng.standard_normal(shape)

    def stream_rng(seed, purpose, step=0):
        rng = original(seed, purpose, step)
        return Louder(rng) if purpose == "lmc-noise" else rng
    return stream_rng


def one_corner_off(original):
    def eval_(self, x):
        out = original(self, x)
        if np.ndim(out) == 1 and len(out) == 2 ** self.formula.num_vars:
            out = out.copy()
            out[0] += 1e-6
        return out
    return eval_


def lower_off_corner(original):
    def eval_(self, x):
        out = original(self, x)
        arr = np.asarray(x, dtype=np.float64)
        off = np.any(np.abs(np.abs(arr) - 1.0) > 0, axis=-1)
        return out - 0.01 * self.big_m * off
    return eval_


def corruption_cases(workload, plan):
    """(command, check name, context manager factory) per check."""
    from flowcond import baselines, flows, satgadget
    out = plan.root / "out"
    cases = [
        ("train-base", "train-base.trace_decreases",
         lambda: edited(out / "base" / "trace.csv",
                        trace_rows(lambda rs: [r.__setitem__(3, rs[0][3])
                                               for r in rs]))),
        ("infer", "infer.identity_start_kl",
         lambda: edited(out / "infer_0" / "trace.csv",
                        trace_rows(lambda rs: rs[0].__setitem__(1, 1e-12)))),
        ("infer", "infer.trace_decreases",
         lambda: edited(out / "infer_0" / "trace.csv",
                        trace_rows(lambda rs: [r.__setitem__(3, rs[0][3] + 1)
                                               for r in rs[1:]]))),
        ("infer", "infer.samples",
         lambda: edited_array(out / "infer_0" / "samples.flwa",
                              lambda a: np.where(np.arange(a.size).reshape(a.shape) == 7,
                                                 np.nan, a))),
        ("infer", "infer.residual",
         lambda: edited_array(out / "infer_0" / "samples.flwa",
                              lambda a: a + 3.0)),
        ("infer", "pregen.logq_matches_log_prob",
         lambda: patched(flows.ComposedSampler, "sample_with_logq", shift_logq)),
        ("infer", "pregen.logq_matches_fd_jacobian",
         lambda: patched(flows.ComposedSampler, "log_prob", shift_log_prob)),
        ("infer", "infer.gradient_matches_fd",
         lambda: patched(flows.ParamBinder, "gradients", negate_one_gradient)),
        ("lmc", "lmc.chain_files",
         lambda: edited(out / "lmc" / "chain_0.csv",
                        lambda t: "\n".join(t.splitlines()[:-1]) + "\n")),
        ("lmc", "lmc.samples_are_base_of_states",
         lambda: edited_array(out / "lmc" / "samples.flwa",
                              lambda a: a + np.eye(*a.shape) * 1e-9)),
        ("lmc", "lmc.stationary_law",
         lambda: patched(baselines, "stream_rng", louder_lmc_noise)),
        ("amortize", "amortize.checkpoint",
         lambda: truncated(out / "amortize" / "conditional.ckpt")),
        ("amortized-infer", "amortized-infer.samples",
         lambda: edited_array(out / "zero_shot_0" / "samples.flwa",
                              lambda a: a * np.inf)),
        ("amortized-infer", "conditional.logq_matches_log_prob",
         lambda: patched(flows.ComposedSampler, "sample_with_logq", shift_logq)),
        ("amortized-infer", "conditional.logq_matches_fd_jacobian",
         lambda: patched(flows.ComposedSampler, "log_prob", shift_log_prob)),
        ("eval", "eval.mse_decomposition",
         lambda: edited(out / "eval" / "metrics.csv",
                        csv_metric("mean_mse_single", lambda v: v + 1e-6))),
        ("eval", "eval.diversity",
         lambda: edited(out / "eval" / "metrics.csv",
                        csv_metric("diversity", lambda v: v * (1 + 1e-6)))),
        ("eval", "eval.marginals",
         lambda: edited(out / "eval" / "marginal_1.txt",
                        lambda t: t.replace(" variance=", " variance=1"))),
        ("sat-demo", "sat-demo.report",
         lambda: edited(out / "sat_0" / "report.txt",
                        lambda t: t.replace("status=ok", "status=inconclusive"))),
        ("sat-demo", "sat-demo.corners_exact",
         lambda: patched(satgadget.SatGadget, "eval", one_corner_off)),
        ("sat-demo", "sat-demo.half_output_region",
         lambda: patched(satgadget.SatGadget, "eval", lower_off_corner)),
    ]
    if workload == "mixture2d":
        cases += [
            ("train-base", "train-base.gibbs_bound",
             lambda: edited(out / "base" / "trace.csv",
                            trace_rows(lambda rs: [r.__setitem__(3, 1.0)
                                                   for r in rs[1:]]))),
        ]
    return cases


def run_checks(checker, plan, command):
    """{name: ok} of all checks of ``command``'s first invocation."""
    inv = next(i for i in plan.round if i.command == command)
    try:
        results = checker.check(inv) + checker.deep_check(inv)
    except Exception as e:
        results = [(command + ".outputs", False, repr(e))]
    return {name: bool(ok) for name, ok, _ in results}


def corruptions(workload):
    from flowcond.cli import main
    plan = make_plan(workload, 3, OUT / workload, quick=True)
    for inv in plan.round:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(inv.argv)
        if code != 0:
            report(False, f"{workload}: {' '.join(inv.argv)} exited {code}")
            return
    checker = checks.Checker(plan)
    covered = set()
    for command, name, corrupt in corruption_cases(workload, plan):
        intact = run_checks(checker, plan, command)
        with corrupt(), np.errstate(invalid="ignore"):
            broken = run_checks(checker, plan, command)
        ok = intact.get(name) is True and broken.get(name, False) is False
        covered.add(name)
        report(ok, f"{workload}: {name} passes intact "
                   f"({intact.get(name)}), fails corrupted ({broken.get(name)})")
    every = set()
    for command in COMMANDS:
        every |= set(run_checks(checker, plan, command))
    report(every <= covered,
           f"{workload}: every check has a corruption case "
           f"(uncovered: {sorted(every - covered)})")
    shutil.rmtree(plan.root)


def main():
    if OUT.exists():
        shutil.rmtree(OUT)
    OUT.mkdir(parents=True)
    bare_directory()
    for workload in WORKLOADS:
        for trace in (0, 1):
            whole_run(workload, trace)
        corruptions(workload)
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
