"""The inputs of one benchmark run, generated from the workload seed.

A workload is a list of CLI invocations (one *round*) that the benchmark
repeats in a closed loop.  This module writes the run-config files, the
DIMACS corpus and the output directories the round needs, and nothing
else: the program sees only these files.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("mixture2d", "blobs64")

# Sizes of one round.  Layer counts and batch sizes are those of the
# acceptance suite; step counts are cut so that a round takes ~7 s on one
# core, and learning rates raised so that the short fits still pass the
# output checks.  The SAT corpus has fixed sizes (clauses = 2 x variables)
# so that its cost does not depend on the seed.
SIZES = {
    "mixture2d": dict(
        data_n=24000, base_layers=10, base_batch=384, base_steps=30,
        base_lr=5e-3, n_obs=1, svi_steps=80, svi_batch=128, svi_lr=1e-2,
        sigma=0.1, n_samples=5000, lmc_chains=4, lmc_length=60,
        amortize_steps=100, amortize_batch=64, amortize_lr=3e-3,
        n_held_out=40, zero_shot_n=32, sat_vars=(6, 8, 10, 12),
        sat_budget=30000),
    "blobs64": dict(
        data_n=4000, base_layers=6, base_batch=128, base_steps=60,
        base_lr=5e-3, n_obs=1, svi_steps=80, svi_batch=32, svi_lr=1e-2,
        sigma=0.05, n_samples=2000, lmc_chains=4, lmc_length=60,
        amortize_steps=40, amortize_batch=64, amortize_lr=1e-2,
        n_held_out=40, zero_shot_n=32, sat_vars=(6, 8, 10, 12),
        sat_budget=30000, measure_m=16, mask_k=32),
}

# What a reduced round (the self-test) cuts; the fits keep their step
# counts, which the output checks need.
QUICK = dict(n_samples=1000, lmc_length=30, n_held_out=12, sat_vars=(5, 6),
             sat_budget=5000)


@dataclass
class Invocation:
    """One CLI call: the argv given to ``flowcond.cli.main``, the
    end-to-end metric its time feeds, and what the checks need."""

    command: str
    argv: list[str]
    out: Path
    metric: str
    info: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    seed: int
    root: Path
    sizes: dict
    round: list[Invocation]
    problem: dict          # the operators, which the checks rebuild


def _ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _write(path: Path, sections: dict) -> Path:
    path.write_text(_ini(sections), encoding="ascii")
    return path


def planted_3cnf(d: int, m: int, rng: np.random.Generator):
    """Random 3-CNF over d variables with a planted model; clauses are
    lists of signed 1-based DIMACS literals on distinct variables."""
    plant = rng.integers(0, 2, size=d) * 2 - 1
    clauses = []
    for _ in range(m):
        vars_ = rng.choice(d, size=3, replace=False)
        signs = rng.integers(0, 2, size=3) * 2 - 1
        if not np.any(signs == plant[vars_]):
            k = int(rng.integers(0, 3))
            signs[k] = plant[vars_[k]]
        clauses.append([int(s * (v + 1)) for v, s in zip(vars_, signs)])
    return clauses


def dimacs_text(d: int, clauses) -> str:
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return f"p cnf {d} {len(clauses)}\n{body}"


def make_plan(workload: str, seed: int, root: Path, quick: bool = False) -> Plan:
    """Write every input of ``workload`` under ``root`` (emptied first) and
    return the round of invocations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = dict(SIZES[workload])
    if quick:
        sizes.update(QUICK)
    if root.exists():
        shutil.rmtree(root)
    cfg_dir, out = root / "cfg", root / "out"
    cfg_dir.mkdir(parents=True)
    out.mkdir()
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    run_seed, obs_seed, held_seed, gauss_seed = (
        int(v) for v in rng.integers(1, 2**31, size=4))
    s = sizes
    image = workload == "blobs64"
    task = "cs" if image else "toy2d"
    data = ({"kind": "blobs", "n": s["data_n"], "height": 8, "width": 8}
            if image else {"kind": "gaussian-mixture", "n": s["data_n"]})
    d = 64 if image else 2
    base_ckpt = out / "base" / "base.ckpt"
    if image:
        infer_measure = {"kind": "gaussian", "m": s["measure_m"],
                         "gauss_seed": gauss_seed}
        mask = np.sort(rng.choice(d, size=s["mask_k"], replace=False))
    else:
        infer_measure = {"kind": "mask", "indices": "0"}
        mask = np.array([0])
    mask_measure = {"kind": "mask", "indices": ",".join(map(str, mask))}
    observe = {"source": "synthetic", "index": 0, "seed": obs_seed}
    train = {"sigma": s["sigma"]}

    def run(name):
        return {"task": task, "output_dir": out / name, "seed": run_seed}

    base = _write(cfg_dir / "base.cfg", {
        "run": run("base"), "data": data,
        "model": {"num_layers": s["base_layers"], "hidden_width": 64},
        "train": {**train, "learning_rate": s["base_lr"],
                  "num_steps": s["base_steps"],
                  "batch_size": s["base_batch"]}})
    infer = _write(cfg_dir / "infer.cfg", {
        "run": run("infer_0"), "data": data,
        "model": {"base_checkpoint": base_ckpt},
        "measure": infer_measure, "observe": observe,
        "train": {**train, "learning_rate": s["svi_lr"],
                  "num_steps": s["svi_steps"], "batch_size": s["svi_batch"]},
        "sample": {"n": s["n_samples"]}})
    lmc = _write(cfg_dir / "lmc.cfg", {
        "run": run("lmc"), "data": data,
        "model": {"base_checkpoint": base_ckpt},
        "measure": infer_measure, "observe": observe, "train": train,
        "lmc": {"n_chains": s["lmc_chains"],
                "chain_length": s["lmc_length"]}})
    amortize = _write(cfg_dir / "amortize.cfg", {
        "run": run("amortize"), "data": data,
        "model": {"base_checkpoint": base_ckpt},
        "measure": mask_measure,
        "train": {**train, "learning_rate": s["amortize_lr"],
                  "num_steps": s["amortize_steps"],
                  "batch_size": s["amortize_batch"]}})
    zero_shot = _write(cfg_dir / "zero_shot.cfg", {
        "run": run("zero_shot_0"), "data": data,
        "model": {"base_checkpoint": base_ckpt,
                  "conditional_checkpoint":
                      out / "amortize" / "conditional.ckpt"},
        "measure": mask_measure,
        "observe": {"source": "synthetic", "index": 0, "seed": held_seed},
        "train": train, "sample": {"n": s["zero_shot_n"]}})
    infer0 = out / "infer_0"
    marginals = ",".join(str(c) for c in range(d))
    evaluate = _write(cfg_dir / "eval.cfg", {
        "run": run("eval"), "data": data,
        "measure": infer_measure,
        "eval": {"samples_path": infer0 / "samples.flwa",
                 "gt_path": infer0 / "ground_truth.flwa",
                 "y_path": infer0 / "y_star.flwa",
                 "marginals": marginals}})

    corpus = root / "corpus"
    corpus.mkdir()
    formulas = []
    for k, nv in enumerate(s["sat_vars"]):
        clauses = planted_3cnf(nv, 2 * nv, rng)
        path = corpus / f"f{k}.cnf"
        path.write_text(dimacs_text(nv, clauses), encoding="ascii")
        formulas.append((path, nv, clauses))
    sat = _write(cfg_dir / "sat.cfg", {
        "run": {"task": "sat", "output_dir": out / "sat_0",
                "seed": run_seed},
        "sat": {"cnf_path": formulas[0][0], "budget": s["sat_budget"]}})

    def call(command, cfg, metric, name, sets=(), **info):
        argv = [command, "--config", str(cfg),
                "--set", f"run.output_dir={out / name}"]
        for key, value in sets:
            argv += ["--set", f"{key}={value}"]
        return Invocation(command, argv, out / name, metric, info)

    rnd = [call("train-base", base, "train_base_s", "base")]
    rnd += [call("infer", infer, "infer_s", f"infer_{i}",
                 [("observe.index", i)])
            for i in range(s["n_obs"])]
    rnd.append(call("lmc", lmc, "lmc_s", "lmc"))
    rnd.append(call("amortize", amortize, "amortize_s", "amortize"))
    rnd += [call("amortized-infer", zero_shot, "zero_shot_ms",
                 f"zero_shot_{i}", [("observe.index", i)])
            for i in range(s["n_held_out"])]
    rnd.append(call("eval", evaluate, "eval_s", "eval"))
    rnd += [call("sat-demo", sat, "sat_corpus_s", f"sat_{k}",
                 [("sat.cnf_path", path)], num_vars=nv, clauses=clauses)
            for k, (path, nv, clauses) in enumerate(formulas)]

    problem = {"dim": d, "image": image, "mask": mask,
               "infer_measure": infer_measure}
    return Plan(workload, seed, root, sizes, rnd, problem)
