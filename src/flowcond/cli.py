"""Command-line front end.

Every subcommand reads one run-config file (``--config``) plus optional
``--set section.key=value`` overrides, takes an exclusive lock on the output
directory, writes a manifest and its artifacts there, and prints a one-line
summary.  Exit codes: 0 success, 2 config validation failure, 1 runtime
failure (with a traceback file under the output directory when possible).

Importing this module loads what every command needs; a command imports
``baselines``, ``estimators`` or ``satgadget`` when it runs, so a call
pays only for the modules it uses.  The argument parser is built once per
process.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from pathlib import Path

import numpy as np

from . import persist
from .flows import ComposedSampler, make_flow
from .measurement import (Downsample2xOp, GaussianOp, GrayscaleOp, MaskOp,
                          Observation, load_mask_file, make_observation)
from .objective import SmoothingSpec
from .persist import ConfigError, RunConfig
from .training import (TrainConfig, TrainingDiverged, observation_context,
                       stream_rng, train_amortized, train_base_mle, train_svi)


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def _generated_dataset(cfg: RunConfig, n: int,
                       seed: int) -> persist.Dataset | None:
    """``n`` rows of a synthetic or blob ``[data]`` kind, drawn at ``seed``;
    None for an image-grid file."""
    kind = cfg.read("data", "kind")
    if kind == "image-grid":
        return None
    if kind == "blobs":
        return persist.make_blob_images(n, seed=seed, **cfg.args("data"))
    return persist.synth_dataset(kind, n, seed)


def _dataset(cfg: RunConfig) -> persist.Dataset:
    """The ``[data]`` training set: ``n`` generated rows, or an image-grid
    file."""
    seed = cfg.read("data", "seed") if cfg.has("data", "seed") else cfg.seed
    ds = _generated_dataset(cfg, cfg.read("data", "n"), seed)
    return persist.load_image_dataset(cfg.read("data", "path")) \
        if ds is None else ds


def _train_config(cfg: RunConfig, **overrides) -> TrainConfig:
    return TrainConfig(**{**cfg.args("train"), "seed": cfg.seed, **overrides})


def _operator(cfg: RunConfig, dim: int):
    """The ``[measure]`` operator on signals of length ``dim``."""
    kind = cfg.read("measure", "kind")
    if kind == "mask":
        if cfg.has("measure", "mask_path"):
            idx = load_mask_file(cfg.read("measure", "mask_path"))
        else:
            idx = np.asarray(cfg.read("measure", "indices"), dtype=np.intp)
        return MaskOp(idx, dim)
    if kind == "gaussian":
        return GaussianOp(cfg.read("measure", "gauss_seed"),
                          cfg.read("measure", "m"), dim)
    # downsample2x or grayscale, on the shape of the [data] rows: one
    # generated row, or the file's
    ds = _generated_dataset(cfg, 1, cfg.seed)
    image_shape = (_dataset(cfg) if ds is None else ds).image_shape
    if image_shape is None:
        raise ConfigError("measure.kind", f"{kind} needs image data")
    op_class = Downsample2xOp if kind == "downsample2x" else GrayscaleOp
    return op_class(*image_shape)


def _ground_truth(cfg: RunConfig) -> np.ndarray:
    """Row ``[observe] index`` of index + 1 rows generated at the observe
    seed, or of the image-grid file."""
    index = cfg.read("observe", "index")
    # checked before index + 1 rows are drawn, which a huge index makes slow
    n = cfg.read("data", "n")
    if cfg.read("data", "kind") != "image-grid" and index >= n:
        raise ConfigError("observe.index", f"must be below [data] n = {n}")
    seed = cfg.read("observe", "seed") if cfg.has("observe", "seed") \
        else cfg.seed + 1000
    ds = _generated_dataset(cfg, index + 1, seed)
    if ds is None:
        ds = _dataset(cfg)
    if index >= len(ds.samples):
        raise ConfigError("observe.index", "out of dataset range")
    return ds.samples[index]


def _problem(cfg: RunConfig, dim: int):
    """The operator and the observation: every inference command builds
    its problem here, so one config means one problem in all of them."""
    op = _operator(cfg, dim)
    if cfg.read("observe", "source") == "file":
        y = persist.load_array(cfg.read("observe", "y_path"))[0]
        gt = None
        if cfg.has("observe", "gt_path"):
            gt = persist.load_array(cfg.read("observe", "gt_path"))[0]
        return op, Observation(y_star=y, op=op, ground_truth=gt)
    gt = _ground_truth(cfg)
    return op, make_observation(op, gt, rng=stream_rng(cfg.seed, "obs-noise"),
                                **cfg.args("observe"))


def _load_base(cfg: RunConfig):
    return persist.load_checkpoint(cfg.read("model", "base_checkpoint"), "base")


def _require_mask(op, command: str) -> None:
    if not isinstance(op, MaskOp):
        raise ConfigError("measure.kind", f"{command} needs a mask operator")


def _fit_traced(out: Path, fit, *args):
    """``fit(*args)``, writing ``trace.csv`` whether it returns or diverges:
    a diverged fit leaves the rows before its failing step."""
    try:
        model, trace = fit(*args)
    except TrainingDiverged as e:
        (out / "trace.csv").write_text(e.trace.to_csv(), encoding="ascii")
        raise
    (out / "trace.csv").write_text(trace.to_csv(), encoding="ascii")
    return model, trace


def _save_observation(out: Path, obs: Observation) -> None:
    persist.save_array(out / "y_star.flwa", obs.y_star[None, :])
    if obs.ground_truth is not None:
        persist.save_array(out / "ground_truth.flwa", obs.ground_truth[None, :])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train_base(cfg: RunConfig, out: Path) -> str:
    arch = cfg.args("model")
    ds = _dataset(cfg)
    flow = make_flow(ds.dim, rng=stream_rng(cfg.seed, "base-init"), **arch)
    flow, trace = _fit_traced(out, train_base_mle, flow, ds, _train_config(cfg))
    persist.save_checkpoint(flow, out / "base.ckpt", "base")
    final = trace.rows[-1][3] if trace.rows else float("nan")
    return (f"train-base: {len(trace)} steps on {ds.kind} (d={ds.dim}), "
            f"final nll/dim={final:.4f} -> {out / 'base.ckpt'}")


def cmd_infer(cfg: RunConfig, out: Path) -> str:
    n = cfg.read("sample", "n")
    base = _load_base(cfg)
    _, obs = _problem(cfg, base.dim)
    pre, trace = _fit_traced(out, train_svi, base, obs, _train_config(cfg))
    persist.save_checkpoint(pre, out / "pregen.ckpt", "pregen")
    samples = ComposedSampler(pre, base).sample(n, stream_rng(cfg.seed, "sample"))
    persist.save_array(out / "samples.flwa", samples)
    _save_observation(out, obs)
    final = trace.rows[-1] if trace.rows else (0, 0.0, 0.0, float("nan"), 0.0)
    return (f"infer: {len(trace)} steps, final total={final[3]:.4f} "
            f"(kl={final[1]:.4f}, penalty={final[2]:.4f}), "
            f"{n} samples -> {out / 'samples.flwa'}")


def cmd_lmc(cfg: RunConfig, out: Path) -> str:
    from . import baselines
    config = baselines.LmcConfig(seed=cfg.seed, **cfg.args(
        "lmc", "step_size", "chain_length", "burn_in", "thinning"))
    base = _load_base(cfg)
    _, obs = _problem(cfg, base.dim)
    smoothing = SmoothingSpec(TrainConfig(**cfg.args("train", "sigma")).sigma)
    chains = baselines.lmc_sample(base, obs, smoothing, config,
                                  **cfg.args("lmc", "n_chains"))
    for c, chain in enumerate(chains):
        baselines.save_chain(chain, out / f"chain_{c}.csv")
    samples = base.forward(np.concatenate([ch.states for ch in chains]))[0]
    persist.save_array(out / "samples.flwa", samples)
    _save_observation(out, obs)
    acceptance = [ch.acceptance for ch in chains]
    return (f"lmc: {len(chains)} chain(s), {samples.shape[0]} retained states, "
            f"mean residual={float(np.mean(obs.residual(samples))):.4f}, acceptance "
            f"min={np.min(acceptance):.4f} mean={np.mean(acceptance):.4f} "
            f"-> {out / 'samples.flwa'}")


def _point_command(cfg: RunConfig, out: Path, name: str) -> str:
    from . import baselines, estimators
    base = _load_base(cfg)
    _, obs = _problem(cfg, base.dim)
    if name == "ivom":
        est = baselines.ivom_estimate(base, obs, seed=cfg.seed,
                                      **cfg.args("point", "lr", "steps"))
    else:
        est = baselines.csgm_estimate(base, obs, seed=cfg.seed,
                                      **cfg.args("point"))
    persist.save_array(out / "xhat.flwa", est.x_hat[None, :])
    _save_observation(out, obs)
    extra = ""
    if obs.ground_truth is not None:
        extra = f", mse to truth={estimators.mse(est.x_hat, obs.ground_truth):.5f}"
    return f"{name}: objective={est.objective:.6f}{extra} -> {out / 'xhat.flwa'}"


def cmd_ivom(cfg, out):
    return _point_command(cfg, out, "ivom")


def cmd_csgm(cfg, out):
    return _point_command(cfg, out, "csgm")


def cmd_amortize(cfg: RunConfig, out: Path) -> str:
    arch = cfg.args("model")
    noise = cfg.args("observe")
    base = _load_base(cfg)
    op = _operator(cfg, base.dim)
    _require_mask(op, "amortize")
    ds = _dataset(cfg)

    def obs_sampler(rng: np.random.Generator) -> Observation:
        gt = ds.samples[rng.integers(0, len(ds.samples))]
        return make_observation(op, gt, rng=rng, **noise)

    cond = make_flow(base.dim, context_width=2 * base.dim,
                     rng=stream_rng(cfg.seed, "cond-init"), **arch)
    cond = train_amortized(base, cond, obs_sampler, _train_config(cfg))
    persist.save_checkpoint(cond, out / "conditional.ckpt", "conditional")
    return (f"amortize: trained conditional pre-generator on {ds.kind} "
            f"-> {out / 'conditional.ckpt'}")


def cmd_amortized_infer(cfg: RunConfig, out: Path) -> str:
    n = cfg.read("sample", "n")
    base = _load_base(cfg)
    op, obs = _problem(cfg, base.dim)
    _require_mask(op, "amortized-infer")
    cond = persist.load_checkpoint(
        cfg.read("model", "conditional_checkpoint"), "conditional")
    cs = ComposedSampler(cond, base, context=observation_context(obs))
    samples = cs.sample(n, stream_rng(cfg.seed, "sample"))
    persist.save_array(out / "samples.flwa", samples)
    _save_observation(out, obs)
    return (f"amortized-infer: {n} zero-shot samples, mean residual="
            f"{float(np.mean(obs.residual(samples))):.4f} -> {out / 'samples.flwa'}")


def cmd_eval(cfg: RunConfig, out: Path) -> str:
    from . import estimators
    samples = persist.load_array(cfg.read("eval", "samples_path"))
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if len(bad):
        raise ConfigError("eval.samples_path",
                          f"row {bad[0]} holds a non-finite value")
    center = estimators.mmse_estimate(samples)
    n, dim = samples.shape
    coords = cfg.read("eval", "marginals")
    for coord in coords:
        if not 0 <= coord < dim:
            raise ConfigError("eval.marginals",
                              f"coordinate {coord} out of range for d = {dim}")
    rows = [("n_samples", float(n)), ("dim", float(dim))]
    if cfg.has("eval", "gt_path"):
        gt = persist.load_array(cfg.read("eval", "gt_path"))[0]
        per_sample, center_mse, spread = estimators.mse_decomposition(samples, gt)
        rows += [("mse_mmse", center_mse), ("mean_mse_single", per_sample),
                 ("mean_sample_variance", spread),
                 ("psnr_mmse", estimators.psnr(center, gt))]
    if n >= 2:
        rows.append(("diversity", estimators.diversity(samples)))
    if cfg.has("eval", "y_path"):
        op = _operator(cfg, dim)
        y = persist.load_array(cfg.read("eval", "y_path"))[0]
        obs = Observation(y_star=y, op=op)
        rows.append(("mean_residual", float(np.mean(obs.residual(samples)))))
    marginals = [estimators.pixel_marginal(samples, coord) for coord in coords]
    # grids whose spacing exceeds the kernel width do not resolve their KDE
    rows.append(("coarse_marginals", float(sum(
        pm.grid[1] - pm.grid[0] > pm.bandwidth for pm in marginals))))
    lines = ["metric,value"] + [f"{k},{v!r}" for k, v in rows]
    (out / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    for pm in marginals:
        estimators.export_pixel_marginal(pm, out / f"marginal_{pm.coordinate}.txt")
    shown = ", ".join(f"{k}={v:.5g}" for k, v in rows[2:6])
    return f"eval: {shown} -> {out / 'metrics.csv'}"


def cmd_sigma_sweep(cfg: RunConfig, out: Path) -> str:
    base = _load_base(cfg)
    _, obs = _problem(cfg, base.dim)
    sigmas = cfg.read("sweep", "sigmas")
    configs = [_train_config(cfg, sigma=sigma) for sigma in sigmas]
    n_eval = cfg.read("sweep", "eval_samples")
    residuals = []
    for config in configs:
        pre, _ = train_svi(base, obs, config)
        samples = ComposedSampler(pre, base).sample(
            n_eval, stream_rng(cfg.seed, "sweep-eval"))
        residuals.append(float(np.mean(obs.residual(samples))))
    lines = ["sigma,mean_residual"]
    for s, r in zip(sigmas, residuals):
        lines.append(f"{s!r},{r!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    plateau = ""
    if len(sigmas) >= 5:
        big_gain = residuals[0] - residuals[1]
        small_gain = residuals[-2] - residuals[-1]
        flat = small_gain < 0.1 * big_gain
        plateau = f", plateau_at_small_sigma={str(flat).lower()}"
    pairs = ", ".join(f"{s:g}:{r:.4g}" for s, r in zip(sigmas, residuals))
    return f"sigma-sweep: residuals {{{pairs}}}{plateau} -> {out / 'sweep.csv'}"


def cmd_sat_demo(cfg: RunConfig, out: Path) -> str:
    from importlib import resources

    from . import satgadget
    settings = cfg.args("sat", "budget", "eps", "m_scale", "tau")
    if cfg.has("sat", "cnf_path"):
        formula = satgadget.load_dimacs(cfg.read("sat", "cnf_path"))
    else:
        text = resources.files("flowcond").joinpath("data/example5.cnf").read_text()
        formula = satgadget.parse_dimacs(text)
    report = satgadget.conditional_sat_demo(
        formula, rng=stream_rng(cfg.seed, "sat-demo"), **settings)
    (out / "report.txt").write_text(report.to_text(), encoding="ascii")
    exact = str(report.corner_check_exact).lower()
    return (f"sat-demo: d={formula.num_vars} m={formula.num_clauses} "
            f"status={report.status} success_fraction={report.success_fraction:.4f} "
            f"corner_check_exact={exact} -> {out / 'report.txt'}")


COMMANDS = {
    "train-base": cmd_train_base,
    "infer": cmd_infer,
    "lmc": cmd_lmc,
    "ivom": cmd_ivom,
    "csgm": cmd_csgm,
    "amortize": cmd_amortize,
    "amortized-infer": cmd_amortized_infer,
    "eval": cmd_eval,
    "sigma-sweep": cmd_sigma_sweep,
    "sat-demo": cmd_sat_demo,
}


def _config_key(command: str, cfg: RunConfig, error: Exception) -> str | None:
    """The config key behind a library error that names its argument in
    ``field``: the first key in the table that feeds that argument, save
    where the command or the file picks another."""
    field = getattr(error, "field", None)
    if field == "indices" and cfg.has("measure", "mask_path"):
        return "measure.mask_path"
    if field == "learning_rate" and command in ("ivom", "csgm"):
        return "point.lr"
    if field == "sigma" and command == "sigma-sweep":
        return "sweep.sigmas"
    return next((f"{section}.{key}" for (section, key), spec
                 in persist.KEYS.items() if field and spec.arg == field), None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the command line, built on the first call; parsing
    leaves it unchanged, so every later call returns the same one."""
    parser = argparse.ArgumentParser(
        prog="flowcond",
        description="conditional inference experiments on flow priors")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="run config file")
    parser.add_argument("--set", action="append", default=[], metavar="S.K=V",
                        help="override a config value (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = persist.load_run_config(args.config, tuple(args.set))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        with persist.output_lock(cfg.output_dir) as out:
            persist.write_manifest(out, cfg, args.command)
            summary = COMMANDS[args.command](cfg, out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        key = _config_key(args.command, cfg, e)
        if key is not None:
            print(f"config error: {key}: {e}", file=sys.stderr)
            return 2
        trace_path = Path(cfg.output_dir) / "error-trace.txt"
        try:
            trace_path.write_text(traceback.format_exc(), encoding="utf-8")
            where = str(trace_path)
        except OSError:
            where = "stderr"
            traceback.print_exc()
        print(f"{args.command}: failed: {e}; trace at {where}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
