"""Command-line front end.

Every subcommand reads one run-config file (``--config``) plus optional
``--set section.key=value`` overrides, takes an exclusive lock on the output
directory, writes a manifest and its artifacts there, and prints a one-line
summary.  Exit codes: 0 success, 2 config validation failure, 1 runtime
failure (with a traceback file under the output directory when possible).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from importlib import resources
from pathlib import Path

import numpy as np

from . import baselines, estimators, persist, satgadget
from .flows import ComposedSampler, make_flow
from .measurement import (Downsample2xOp, GaussianOp, GrayscaleOp, MaskOp,
                          Observation, load_mask_file, make_observation)
from .objective import SmoothingSpec
from .persist import ConfigError, RunConfig
from .training import (TrainConfig, TrainingDiverged, observation_context,
                       stream_rng, train_amortized, train_base_mle, train_svi)

SIGMA_SWEEP_DEFAULT = "1,0.1,0.01,1e-3,1e-4"


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

# the [data] kinds drawn from a seed rather than read from a file
_GENERATED_KINDS = ("two-moons", "gaussian-mixture", "checkerboard", "blobs")


def _generated_dataset(cfg: RunConfig, n: int,
                       seed: int) -> persist.Dataset | None:
    """``n`` rows of a synthetic or blob ``[data]`` kind, drawn at ``seed``;
    None for any other kind."""
    kind = cfg.get("data", "kind", "gaussian-mixture")
    if kind not in _GENERATED_KINDS:
        return None
    if n < 1:
        raise ConfigError("data.n", "must be >= 1")
    if kind == "blobs":
        return persist.make_blob_images(n, cfg.getint("data", "height", 8),
                                        cfg.getint("data", "width", 8), seed)
    return persist.synth_dataset(kind, n, seed)


def _dataset(cfg: RunConfig) -> persist.Dataset:
    """The ``[data]`` training set: ``n`` generated rows, or an image-grid
    file."""
    ds = _generated_dataset(cfg, cfg.getint("data", "n", 4000),
                            cfg.getint("data", "seed", cfg.seed))
    if ds is not None:
        return ds
    kind = cfg.get("data", "kind", "gaussian-mixture")
    if kind != "image-grid":
        raise ConfigError("data.kind", f"unknown dataset kind {kind!r}")
    return persist.load_image_dataset(cfg.get("data", "path"))


def _arch(cfg: RunConfig) -> dict:
    """The ``[model]`` architecture, which commands check before they
    build any data."""
    arch = {
        "num_layers": cfg.getint("model", "num_layers", 6),
        "hidden_width": cfg.getint("model", "hidden_width", 64),
        "hidden_layers": cfg.getint("model", "hidden_layers", 2),
        "kind": cfg.get("model", "kind", "affine"),
    }
    for key, least in (("num_layers", 1), ("hidden_width", 1),
                       ("hidden_layers", 0)):
        if arch[key] < least:
            raise ConfigError(f"model.{key}", f"must be >= {least}")
    if arch["kind"] not in ("additive", "affine"):
        raise ConfigError("model.kind",
                          f"expected additive or affine, got {arch['kind']!r}")
    return arch


def _train_config(cfg: RunConfig, **overrides) -> TrainConfig:
    clip = cfg.get("train", "gradient_clip_norm", "100")
    fields = {
        "learning_rate": cfg.getfloat("train", "learning_rate", 1e-3),
        "num_steps": cfg.getint("train", "num_steps", 1000),
        "batch_size": cfg.getint("train", "batch_size", 64),
        "sigma": cfg.getfloat("train", "sigma", 0.1),
        "seed": cfg.seed,
        "gradient_clip_norm": None if clip.lower() in ("", "none")
        else cfg.getfloat("train", "gradient_clip_norm", 100.0),
    }
    fields.update(overrides)
    return TrainConfig(**fields)


def _noise_sigma(cfg: RunConfig) -> float:
    noise = cfg.getfloat("observe", "noise_sigma", 0.0)
    if not 0.0 <= noise < np.inf:
        raise ConfigError("observe.noise_sigma", "must be a finite number >= 0")
    return noise


def _sample_n(cfg: RunConfig) -> int:
    n = cfg.getint("sample", "n", 1000)
    if n < 1:
        raise ConfigError("sample.n", "must be >= 1")
    return n


def _operator(cfg: RunConfig, dim: int):
    """The ``[measure]`` operator on signals of length ``dim``."""
    kind = cfg.get("measure", "kind")
    if kind == "mask":
        if cfg.has("measure", "mask_path"):
            idx = load_mask_file(cfg.get("measure", "mask_path"))
        else:
            idx = np.asarray(cfg.getints("measure", "indices"), dtype=np.intp)
        return MaskOp(idx, dim)
    if kind == "gaussian":
        return GaussianOp(cfg.getint("measure", "gauss_seed", 1),
                          cfg.getint("measure", "m"), dim)
    if kind in ("downsample2x", "grayscale"):
        # the shape of the [data] rows: one generated row, or the file's
        ds = _generated_dataset(cfg, 1, cfg.seed)
        image_shape = (_dataset(cfg) if ds is None else ds).image_shape
        if image_shape is None:
            raise ConfigError("measure.kind", f"{kind} needs image data")
        op_class = Downsample2xOp if kind == "downsample2x" else GrayscaleOp
        return op_class(*image_shape)
    raise ConfigError("measure.kind", f"unknown measurement kind {kind!r}")


def _ground_truth(cfg: RunConfig) -> np.ndarray:
    """Row ``[observe] index`` of index + 1 rows generated at the observe
    seed, or of the image-grid file."""
    index = cfg.getint("observe", "index", 0)
    if index < 0:
        raise ConfigError("observe.index", "must be >= 0")
    # checked before index + 1 rows are drawn, which a huge index makes slow
    n = cfg.getint("data", "n", 4000)
    if cfg.get("data", "kind", "gaussian-mixture") in _GENERATED_KINDS \
            and index >= n:
        raise ConfigError("observe.index", f"must be below [data] n = {n}")
    ds = _generated_dataset(cfg, index + 1,
                            cfg.getint("observe", "seed", cfg.seed + 1000))
    if ds is None:
        ds = _dataset(cfg)
    if index >= len(ds.samples):
        raise ConfigError("observe.index", "out of dataset range")
    return ds.samples[index]


def _problem(cfg: RunConfig, dim: int):
    """The operator and the observation: every inference command builds
    its problem here, so one config means one problem in all of them."""
    op = _operator(cfg, dim)
    source = cfg.get("observe", "source", "synthetic")
    if source == "file":
        y = persist.load_array(cfg.get("observe", "y_path"))[0]
        gt = None
        if cfg.has("observe", "gt_path"):
            gt = persist.load_array(cfg.get("observe", "gt_path"))[0]
        return op, Observation(y_star=y, op=op, ground_truth=gt)
    if source != "synthetic":
        raise ConfigError("observe.source", f"unknown source {source!r}")
    gt = _ground_truth(cfg)
    return op, make_observation(op, gt, _noise_sigma(cfg),
                                stream_rng(cfg.seed, "obs-noise"))


def _load_base(cfg: RunConfig):
    return persist.load_checkpoint(cfg.get("model", "base_checkpoint"), "base")


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
    arch = _arch(cfg)
    ds = _dataset(cfg)
    flow = make_flow(ds.dim, rng=stream_rng(cfg.seed, "base-init"), **arch)
    flow, trace = _fit_traced(out, train_base_mle, flow, ds, _train_config(cfg))
    persist.save_checkpoint(flow, out / "base.ckpt", "base")
    final = trace.rows[-1][3] if trace.rows else float("nan")
    return (f"train-base: {len(trace)} steps on {ds.kind} (d={ds.dim}), "
            f"final nll/dim={final:.4f} -> {out / 'base.ckpt'}")


def cmd_infer(cfg: RunConfig, out: Path) -> str:
    n = _sample_n(cfg)
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


def _lmc_config(cfg: RunConfig) -> baselines.LmcConfig:
    burn_in = cfg.getint("lmc", "burn_in") if cfg.has("lmc", "burn_in") else None
    return baselines.LmcConfig(
        step_size=cfg.getfloat("lmc", "step_size", 5e-4),
        chain_length=cfg.getint("lmc", "chain_length", 4000),
        burn_in=burn_in, thinning=cfg.getint("lmc", "thinning", 1),
        seed=cfg.seed)


def cmd_lmc(cfg: RunConfig, out: Path) -> str:
    n_chains = cfg.getint("lmc", "n_chains", 1)
    config = _lmc_config(cfg)
    base = _load_base(cfg)
    _, obs = _problem(cfg, base.dim)
    smoothing = SmoothingSpec(cfg.getfloat("train", "sigma", 0.1))
    chains = baselines.lmc_sample(base, obs, smoothing, config, n_chains)
    for c, chain in enumerate(chains):
        baselines.save_chain(chain, out / f"chain_{c}.csv")
    samples = base.forward(np.concatenate([ch.states for ch in chains]))[0]
    persist.save_array(out / "samples.flwa", samples)
    _save_observation(out, obs)
    acceptance = [ch.acceptance for ch in chains]
    return (f"lmc: {n_chains} chain(s), {samples.shape[0]} retained states, "
            f"mean residual={float(np.mean(obs.residual(samples))):.4f}, acceptance "
            f"min={np.min(acceptance):.4f} mean={np.mean(acceptance):.4f} "
            f"-> {out / 'samples.flwa'}")


def _point_command(cfg: RunConfig, out: Path, name: str) -> str:
    base = _load_base(cfg)
    _, obs = _problem(cfg, base.dim)
    if name == "ivom":
        est = baselines.ivom_estimate(
            base, obs, lr=cfg.getfloat("point", "lr", 5e-4),
            steps=cfg.getint("point", "steps", 4000), seed=cfg.seed)
    else:
        est = baselines.csgm_estimate(
            base, obs, lr=cfg.getfloat("point", "lr", 0.02),
            steps=cfg.getint("point", "steps", 4000),
            lam=cfg.getfloat("point", "lambda", 0.1),
            restarts=cfg.getint("point", "restarts", 3), seed=cfg.seed)
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
    arch = _arch(cfg)
    noise = _noise_sigma(cfg)
    base = _load_base(cfg)
    op = _operator(cfg, base.dim)
    _require_mask(op, "amortize")
    ds = _dataset(cfg)

    def obs_sampler(rng: np.random.Generator) -> Observation:
        gt = ds.samples[rng.integers(0, len(ds.samples))]
        return make_observation(op, gt, noise, rng)

    cond = make_flow(base.dim, context_width=2 * base.dim,
                     rng=stream_rng(cfg.seed, "cond-init"), **arch)
    cond = train_amortized(base, cond, obs_sampler, _train_config(cfg))
    persist.save_checkpoint(cond, out / "conditional.ckpt", "conditional")
    return (f"amortize: trained conditional pre-generator on {ds.kind} "
            f"-> {out / 'conditional.ckpt'}")


def cmd_amortized_infer(cfg: RunConfig, out: Path) -> str:
    n = _sample_n(cfg)
    base = _load_base(cfg)
    op, obs = _problem(cfg, base.dim)
    _require_mask(op, "amortized-infer")
    cond = persist.load_checkpoint(
        cfg.get("model", "conditional_checkpoint"), "conditional")
    cs = ComposedSampler(cond, base, context=observation_context(obs))
    samples = cs.sample(n, stream_rng(cfg.seed, "sample"))
    persist.save_array(out / "samples.flwa", samples)
    _save_observation(out, obs)
    return (f"amortized-infer: {n} zero-shot samples, mean residual="
            f"{float(np.mean(obs.residual(samples))):.4f} -> {out / 'samples.flwa'}")


def cmd_eval(cfg: RunConfig, out: Path) -> str:
    samples = persist.load_array(cfg.get("eval", "samples_path"))
    center = estimators.mmse_estimate(samples)
    n, dim = samples.shape
    coords = cfg.getints("eval", "marginals", "")
    for coord in coords:
        if not 0 <= coord < dim:
            raise ConfigError("eval.marginals",
                              f"coordinate {coord} out of range for d = {dim}")
    rows = [("n_samples", float(n)), ("dim", float(dim))]
    if cfg.has("eval", "gt_path"):
        gt = persist.load_array(cfg.get("eval", "gt_path"))[0]
        per_sample, center_mse, spread = estimators.mse_decomposition(samples, gt)
        rows += [("mse_mmse", center_mse), ("mean_mse_single", per_sample),
                 ("mean_sample_variance", spread),
                 ("psnr_mmse", estimators.psnr(center, gt))]
    if n >= 2:
        rows.append(("diversity", estimators.diversity(samples)))
    if cfg.has("eval", "y_path"):
        op = _operator(cfg, dim)
        y = persist.load_array(cfg.get("eval", "y_path"))[0]
        obs = Observation(y_star=y, op=op)
        rows.append(("mean_residual", float(np.mean(obs.residual(samples)))))
    lines = ["metric,value"] + [f"{k},{v!r}" for k, v in rows]
    (out / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    for coord in coords:
        pm = estimators.pixel_marginal(samples, coord)
        estimators.export_pixel_marginal(pm, out / f"marginal_{coord}.txt")
    shown = ", ".join(f"{k}={v:.5g}" for k, v in rows[2:6])
    return f"eval: {shown} -> {out / 'metrics.csv'}"


def cmd_sigma_sweep(cfg: RunConfig, out: Path) -> str:
    base = _load_base(cfg)
    _, obs = _problem(cfg, base.dim)
    sigmas = cfg.getfloats("sweep", "sigmas", SIGMA_SWEEP_DEFAULT)
    configs = [_train_config(cfg, sigma=sigma) for sigma in sigmas]
    n_eval = cfg.getint("sweep", "eval_samples", 2000)
    if n_eval < 1:
        raise ConfigError("sweep.eval_samples", "must be >= 1")
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
    budget = cfg.getint("sat", "budget", 100_000)
    if budget < 1:
        raise ConfigError("sat.budget", "must be >= 1")
    if cfg.has("sat", "cnf_path"):
        formula = satgadget.load_dimacs(cfg.get("sat", "cnf_path"))
    else:
        text = resources.files("flowcond").joinpath("data/example5.cnf").read_text()
        formula = satgadget.parse_dimacs(text)
    report = satgadget.conditional_sat_demo(
        formula, eps=cfg.getfloat("sat", "eps", 0.25),
        big_m=cfg.getfloat("sat", "m_scale") if cfg.has("sat", "m_scale")
        else None,
        tau=cfg.getfloat("sat", "tau", 0.5), sampler_budget=budget,
        rng=stream_rng(cfg.seed, "sat-demo"))
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


# the config key of each library argument that an error names in its
# ``field`` (BaselineError, GadgetError, MeasurementError, TrainingError)
_FIELD_KEYS = {
    "learning_rate": "train.learning_rate", "num_steps": "train.num_steps",
    "batch_size": "train.batch_size", "sigma": "train.sigma",
    "gradient_clip_norm": "train.gradient_clip_norm",
    "indices": "measure.indices", "m": "measure.m",
    "step_size": "lmc.step_size", "chain_length": "lmc.chain_length",
    "burn_in": "lmc.burn_in", "thinning": "lmc.thinning",
    "n_chains": "lmc.n_chains",
    "steps": "point.steps", "restarts": "point.restarts",
    "lam": "point.lambda",
    "formula": "sat.cnf_path", "eps": "sat.eps", "big_m": "sat.m_scale",
    "tau": "sat.tau",
}
# the arguments that a command reads from another key
_COMMAND_FIELD_KEYS = {
    "ivom": {"learning_rate": "point.lr"},
    "csgm": {"learning_rate": "point.lr"},
    "sigma-sweep": {"sigma": "sweep.sigmas"},
}


def _config_key(command: str, cfg: RunConfig, error: Exception) -> str | None:
    """The config key behind a library error that names its argument."""
    field = getattr(error, "field", None)
    if field == "indices" and cfg.has("measure", "mask_path"):
        return "measure.mask_path"
    return _COMMAND_FIELD_KEYS.get(command, {}).get(field, _FIELD_KEYS.get(field))


def build_parser() -> argparse.ArgumentParser:
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
