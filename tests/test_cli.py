"""End-to-end CLI tests with tiny budgets: every subcommand runs, writes
its artifacts and manifest, honors exit-code conventions, and reproduces
its outputs bit-for-bit under a fixed seed; every inference command
accepts the same problem configs, and README's config-key list and its
examples match the table of keys a run file may set."""

import configparser
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from flowcond.cli import main
from flowcond.flows import CouplingLayer
from flowcond.persist import KEYS, load_array, load_checkpoint, save_array


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def base_config(tmp_path, out_name="base"):
    return write_cfg(tmp_path / "base.cfg", f"""
[run]
output_dir = {tmp_path / out_name}
seed = 1

[data]
kind = gaussian-mixture
n = 400

[model]
num_layers = 4
hidden_width = 16

[train]
learning_rate = 2e-3
num_steps = 30
batch_size = 64
sigma = 0.1
""")


@pytest.fixture
def trained_base(tmp_path):
    cfg = base_config(tmp_path)
    assert main(["train-base", "--config", cfg]) == 0
    return tmp_path / "base" / "base.ckpt"


def infer_config(tmp_path, ckpt, out_name="infer", steps=10):
    return write_cfg(tmp_path / f"infer-{out_name}.cfg", f"""
[run]
output_dir = {tmp_path / out_name}
seed = 2

[data]
kind = gaussian-mixture
n = 100

[model]
num_layers = 4
hidden_width = 16
base_checkpoint = {ckpt}

[measure]
kind = mask
indices = 0

[observe]
source = synthetic
index = 0

[train]
learning_rate = 1e-3
num_steps = {steps}
batch_size = 16
sigma = 0.1

[sample]
n = 50
""")


class TestTrainBase:
    def test_writes_checkpoint_trace_manifest(self, tmp_path, trained_base, capsys):
        out = trained_base.parent
        assert trained_base.exists()
        assert (out / "trace.csv").exists()
        assert (out / "manifest.txt").exists()
        assert not (out / ".lock").exists()
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "step,kl,penalty,total,grad_norm"
        model = load_checkpoint(trained_base, "base")
        assert model.dim == 2

    def test_model_kind_and_hidden_layers_shape_the_base(self, tmp_path):
        cfg = base_config(tmp_path)
        assert main(["train-base", "--config", cfg, "--set", "train.num_steps=2",
                     "--set", "model.kind=additive",
                     "--set", "model.hidden_layers=1"]) == 0
        model = load_checkpoint(tmp_path / "base" / "base.ckpt", "base")
        couplings = [layer for layer in model.layers
                     if isinstance(layer, CouplingLayer)]
        assert len(couplings) == 4
        for layer in couplings:
            assert layer.kind == "additive"
            assert layer.conditioner.widths == [1, 16, 1]

    def test_data_seed_draws_the_training_set(self, tmp_path):
        cfg = base_config(tmp_path)                     # [run] seed = 1

        def checkpoint(name, *sets):
            argv = ["train-base", "--config", cfg, "--set", "train.num_steps=3",
                    "--set", f"run.output_dir={tmp_path / name}"]
            for s in sets:
                argv += ["--set", s]
            assert main(argv) == 0
            return (tmp_path / name / "base.ckpt").read_bytes()

        default = checkpoint("default")
        assert checkpoint("run-seed", "data.seed=1") == default
        assert checkpoint("other-seed", "data.seed=2") != default


class TestInfer:
    def test_writes_samples_and_observation(self, tmp_path, trained_base, capsys):
        cfg = infer_config(tmp_path, trained_base)
        assert main(["infer", "--config", cfg]) == 0
        out = tmp_path / "infer"
        samples = load_array(out / "samples.flwa")
        assert samples.shape == (50, 2)
        assert load_array(out / "y_star.flwa").shape == (1, 1)
        assert load_array(out / "ground_truth.flwa").shape == (1, 2)
        load_checkpoint(out / "pregen.ckpt", "pregen")
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary.startswith("infer:")

    def test_mask_path_matches_inline_indices(self, tmp_path, trained_base):
        (tmp_path / "mask.txt").write_text("1\n", encoding="ascii")
        cfg = infer_config(tmp_path, trained_base, steps=0)   # indices = 0

        def y_star(name, *sets):
            argv = ["infer", "--config", cfg,
                    "--set", f"run.output_dir={tmp_path / name}"]
            for s in sets:
                argv += ["--set", s]
            assert main(argv) == 0
            return (tmp_path / name / "y_star.flwa").read_bytes()

        from_file = y_star("file", f"measure.mask_path={tmp_path / 'mask.txt'}")
        assert from_file == y_star("inline", "measure.indices=1")
        assert from_file != y_star("config")

    def test_zero_steps_gives_identity_start_sampler(self, tmp_path, trained_base):
        cfg = infer_config(tmp_path, trained_base, out_name="infer0", steps=0)
        assert main(["infer", "--config", cfg]) == 0
        samples = load_array(tmp_path / "infer0" / "samples.flwa")
        # identity-start pregen: samples are plain base-model samples
        from flowcond.training import stream_rng
        base = load_checkpoint(trained_base, "base")
        expected = base.sample(50, stream_rng(2, "sample"))
        np.testing.assert_array_equal(samples, expected)

    def test_deterministic_across_output_dirs(self, tmp_path, trained_base):
        cfg_a = infer_config(tmp_path, trained_base, out_name="a")
        cfg_b = infer_config(tmp_path, trained_base, out_name="b")
        assert main(["infer", "--config", cfg_a]) == 0
        assert main(["infer", "--config", cfg_b]) == 0
        s_a = (tmp_path / "a" / "samples.flwa").read_bytes()
        s_b = (tmp_path / "b" / "samples.flwa").read_bytes()
        assert s_a == s_b
        c_a = (tmp_path / "a" / "pregen.ckpt").read_bytes()
        c_b = (tmp_path / "b" / "pregen.ckpt").read_bytes()
        assert c_a == c_b


class TestEval:
    def test_metrics_and_marginals(self, tmp_path, trained_base):
        cfg = infer_config(tmp_path, trained_base)
        assert main(["infer", "--config", cfg]) == 0
        out = tmp_path / "infer"
        eval_cfg = write_cfg(tmp_path / "eval.cfg", f"""
[run]
output_dir = {tmp_path / "metrics"}
seed = 2

[measure]
kind = mask
indices = 0

[eval]
samples_path = {out / "samples.flwa"}
gt_path = {out / "ground_truth.flwa"}
y_path = {out / "y_star.flwa"}
marginals = 0,1
""")
        assert main(["eval", "--config", eval_cfg]) == 0
        metrics = (tmp_path / "metrics" / "metrics.csv").read_text()
        for key in ("mse_mmse", "mean_mse_single", "diversity",
                    "mean_residual", "psnr_mmse"):
            assert key in metrics
        assert (tmp_path / "metrics" / "marginal_0.txt").exists()
        assert (tmp_path / "metrics" / "marginal_1.txt").exists()
        # dominance of the mean holds on any sample set
        rows = dict(line.split(",") for line in metrics.splitlines()[1:])
        assert float(rows["mse_mmse"]) <= float(rows["mean_mse_single"])

    @pytest.mark.parametrize("marginals", ["0,5", "-1", "2"])
    def test_out_of_range_marginal_is_exit_2_before_any_output(
            self, tmp_path, marginals, capsys):
        save_array(tmp_path / "s.flwa",
                   np.random.default_rng(0).standard_normal((20, 2)))
        cfg = write_cfg(tmp_path / "eval.cfg", f"""
[run]
output_dir = {tmp_path / "metrics"}

[eval]
samples_path = {tmp_path / "s.flwa"}
marginals = {marginals}
""")
        assert main(["eval", "--config", cfg]) == 2
        assert "config error: eval.marginals" in capsys.readouterr().err
        written = sorted(p.name for p in (tmp_path / "metrics").iterdir())
        assert written == ["manifest.txt"]


def lmc_config(tmp_path, ckpt):
    return write_cfg(tmp_path / "lmc.cfg", f"""
[run]
output_dir = {tmp_path / "lmc"}
seed = 3

[model]
base_checkpoint = {ckpt}

[measure]
kind = mask
indices = 0

[data]
kind = gaussian-mixture

[train]
sigma = 0.1

[lmc]
step_size = 1e-3
chain_length = 40
thinning = 2
n_chains = 2
""")


class TestBaselineCommands:
    def test_lmc(self, tmp_path, trained_base, capsys):
        cfg = lmc_config(tmp_path, trained_base)
        assert main(["lmc", "--config", cfg]) == 0
        out = tmp_path / "lmc"
        assert (out / "chain_0.csv").exists()
        assert (out / "chain_1.csv").exists()
        samples = load_array(out / "samples.flwa")
        assert samples.shape == (2 * 16, 2)   # ceil((40-8)/2) per chain
        # each chain's header carries its seed and acceptance rate, and the
        # summary their minimum and mean
        rates = []
        for c in range(2):
            header = (out / f"chain_{c}.csv").read_text().splitlines()[0]
            assert f" seed={3 + c} " in header
            rates.append(float(header.split("acceptance=")[1]))
        assert all(0.0 <= r <= 1.0 for r in rates)
        summary = capsys.readouterr().out
        assert f"acceptance min={min(rates):.4f} mean={np.mean(rates):.4f}" in summary

    @pytest.mark.parametrize("key,value", [
        ("n_chains", "0"), ("n_chains", "-1"), ("burn_in", "1.5"),
        ("step_size", "-1e-3"), ("step_size", "nan"), ("burn_in", "40"),
        ("thinning", "0"), ("chain_length", "0"), ("chain_length", "-5")])
    def test_bad_lmc_setting_is_exit_2(self, tmp_path, trained_base, key,
                                       value, capsys):
        cfg = lmc_config(tmp_path, trained_base)
        assert main(["lmc", "--config", cfg, "--set", f"lmc.{key}={value}"]) == 2
        assert f"config error: lmc.{key}" in capsys.readouterr().err
        assert not (tmp_path / "lmc" / "chain_0.csv").exists()

    @pytest.mark.parametrize("command", ["ivom", "csgm"])
    def test_point_estimates(self, tmp_path, trained_base, command, capsys):
        cfg = write_cfg(tmp_path / f"{command}.cfg", f"""
[run]
output_dir = {tmp_path / command}
seed = 4

[model]
base_checkpoint = {trained_base}

[measure]
kind = mask
indices = 0

[data]
kind = gaussian-mixture

[point]
steps = 20
""")
        assert main([command, "--config", cfg]) == 0
        xhat = load_array(tmp_path / command / "xhat.flwa")
        assert xhat.shape == (1, 2)
        assert command in capsys.readouterr().out


class TestAmortize:
    def test_amortize_then_zero_shot(self, tmp_path, trained_base):
        cfg = write_cfg(tmp_path / "amort.cfg", f"""
[run]
output_dir = {tmp_path / "amort"}
seed = 5

[data]
kind = gaussian-mixture
n = 200

[model]
num_layers = 4
hidden_width = 16
base_checkpoint = {trained_base}

[measure]
kind = mask
indices = 0

[train]
num_steps = 8
batch_size = 8
sigma = 0.1
""")
        assert main(["amortize", "--config", cfg]) == 0
        cond = tmp_path / "amort" / "conditional.ckpt"
        assert cond.exists()
        infer_cfg = write_cfg(tmp_path / "ainfer.cfg", f"""
[run]
output_dir = {tmp_path / "ainfer"}
seed = 6

[data]
kind = gaussian-mixture

[model]
base_checkpoint = {trained_base}
conditional_checkpoint = {cond}

[measure]
kind = mask
indices = 0

[observe]
source = synthetic
index = 1

[train]
sigma = 0.1

[sample]
n = 25
""")
        assert main(["amortized-infer", "--config", infer_cfg]) == 0
        samples = load_array(tmp_path / "ainfer" / "samples.flwa")
        assert samples.shape == (25, 2)


class TestSigmaSweep:
    def test_two_point_sweep(self, tmp_path, trained_base):
        cfg = write_cfg(tmp_path / "sweep.cfg", f"""
[run]
output_dir = {tmp_path / "sweep"}
seed = 7

[model]
base_checkpoint = {trained_base}

[measure]
kind = mask
indices = 0

[data]
kind = gaussian-mixture

[train]
num_steps = 10
batch_size = 16

[sweep]
sigmas = 1,0.1
eval_samples = 100
""")
        assert main(["sigma-sweep", "--config", cfg]) == 0
        text = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert text[0] == "sigma,mean_residual"
        assert len(text) == 3


class TestSatDemo:
    def test_bundled_formula(self, tmp_path, capsys):
        # nothing reads [run] task, but configs that set it still load
        cfg = write_cfg(tmp_path / "sat.cfg", f"""
[run]
task = sat
output_dir = {tmp_path / "sat"}
seed = 8

[sat]
budget = 20000
""")
        assert main(["sat-demo", "--config", cfg]) == 0
        report = (tmp_path / "sat" / "report.txt").read_text()
        assert "success_fraction=" in report
        assert "corner_check_exact=true" in report
        out = capsys.readouterr().out
        assert "status=ok" in out
        assert "task=" not in (tmp_path / "sat" / "manifest.txt").read_text()

    @pytest.mark.parametrize("cnf, setting, key, message", [
        pytest.param("p cnf 3 2\n1 2 x 0\n-1 2 3 0\n", None, "cnf_path",
                     "non-integer", id="non-integer-token"),
        pytest.param("p cnf 3 2\n1 2 0\n-1 2 3 0\n", None, "cnf_path",
                     "3 literals", id="two-literal-clause"),
        pytest.param("p cnf 13 2\n1 2 13 0\n-1 2 3 0\n", None, "cnf_path",
                     "12 variables", id="13-variables"),
        pytest.param("p cnf 2 1\n1 1 2 0\n", None, "cnf_path",
                     "repeats a variable", id="repeated-variable"),
        pytest.param(None, "eps=0.34", "eps", "(0, 1/3)", id="eps-above"),
        pytest.param(None, "eps=0", "eps", "(0, 1/3)", id="eps-zero"),
        pytest.param(None, "m_scale=0", "m_scale", "> 0", id="m-scale-zero"),
        pytest.param(None, "m_scale=-2", "m_scale", "> 0", id="m-scale-negative"),
        pytest.param(None, "budget=-3", "budget", ">= 1", id="budget-negative"),
        pytest.param(None, "tau=-1", "tau", "> 0", id="tau-negative"),
    ])
    def test_bad_sat_input_is_exit_2(self, tmp_path, capsys, cnf, setting,
                                     key, message):
        cfg = write_cfg(tmp_path / "sat.cfg", f"""
[run]
output_dir = {tmp_path / "sat"}

[sat]
budget = 500
""")
        argv = ["sat-demo", "--config", cfg]
        if cnf is not None:
            (tmp_path / "bad.cnf").write_text(cnf, encoding="ascii")
            argv += ["--set", f"sat.cnf_path={tmp_path / 'bad.cnf'}"]
        if setting is not None:
            argv += ["--set", f"sat.{setting}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: sat.{key}" in err and message in err
        assert not (tmp_path / "sat" / "report.txt").exists()
        assert not (tmp_path / "sat" / "error-trace.txt").exists()

    def test_sigma_checked_for_every_command(self, tmp_path, capsys):
        # task = sat must not exempt a config from the sigma check
        cfg = write_cfg(tmp_path / "sat.cfg", f"""
[run]
task = sat
output_dir = {tmp_path / "sat"}

[train]
sigma = 0
""")
        assert main(["sat-demo", "--config", cfg]) == 2
        assert "config error: train.sigma" in capsys.readouterr().err


# (command, config, overrides, the key the error names): inputs that
# must exit 2 before any output but the manifest
BAD_INPUTS = [
    # [train]: a rate or a clip <= 0 froze or reversed every step
    ("train-base", "base", ["train.learning_rate=0"], "train.learning_rate"),
    ("train-base", "base", ["train.learning_rate=-1e-3"],
     "train.learning_rate"),
    ("train-base", "base", ["train.learning_rate=inf"], "train.learning_rate"),
    ("infer", "infer", ["train.learning_rate=nan"], "train.learning_rate"),
    ("train-base", "base", ["train.gradient_clip_norm=-1"],
     "train.gradient_clip_norm"),
    ("infer", "infer", ["train.gradient_clip_norm=0"],
     "train.gradient_clip_norm"),
    ("train-base", "base", ["train.gradient_clip_norm=inf"],
     "train.gradient_clip_norm"),
    ("train-base", "base", ["train.gradient_clip_norm=big"],
     "train.gradient_clip_norm"),
    ("train-base", "base", ["train.batch_size=0"], "train.batch_size"),
    ("infer", "infer", ["train.num_steps=-1"], "train.num_steps"),
    ("sigma-sweep", "infer", ["sweep.sigmas=0.1,-1"], "sweep.sigmas"),
    ("ivom", "infer", ["point.lr=0", "point.steps=5"], "point.lr"),
    ("csgm", "infer", ["point.lr=-0.02", "point.steps=5"], "point.lr"),
    # [model]
    ("train-base", "base", ["model.kind=spline"], "model.kind"),
    ("amortize", "infer", ["model.kind=spline"], "model.kind"),
    ("train-base", "base", ["model.hidden_width=0"], "model.hidden_width"),
    ("train-base", "base", ["model.num_layers=0"], "model.num_layers"),
    ("train-base", "base", ["model.hidden_layers=-1"], "model.hidden_layers"),
    # the problem (d = 2)
    ("infer", "infer", ["measure.indices=0,0"], "measure.indices"),
    ("infer", "infer", ["measure.indices=2"], "measure.indices"),
    ("lmc", "lmc", ["measure.indices=-1"], "measure.indices"),
    ("infer", "infer", ["measure.mask_path={mask}"], "measure.mask_path"),
    ("infer", "infer", ["measure.kind=gaussian", "measure.m=0"], "measure.m"),
    ("ivom", "infer", ["point.steps=-1"], "point.steps"),
    ("csgm", "infer", ["point.restarts=0", "point.steps=5"],
     "point.restarts"),
    ("csgm", "infer", ["point.lambda=-5", "point.steps=5"], "point.lambda"),
    ("sigma-sweep", "infer", ["sweep.eval_samples=0"], "sweep.eval_samples"),
    ("infer", "infer", ["sample.n=0"], "sample.n"),
    ("infer", "infer", ["observe.noise_sigma=-0.1"], "observe.noise_sigma"),
]


class TestExitCodes:
    def test_config_error_is_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.cfg", f"""
[run]
output_dir = {tmp_path / "x"}
seed = bogus
""")
        assert main(["train-base", "--config", cfg]) == 2
        assert "config error: run.seed" in capsys.readouterr().err

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert main(["train-base", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_runtime_error_is_exit_1_with_trace(self, tmp_path, trained_base,
                                                capsys):
        # corrupt the checkpoint after validation passes
        bad = tmp_path / "bad.ckpt"
        raw = bytearray(trained_base.read_bytes())
        raw[-10] ^= 0xFF
        bad.write_bytes(bytes(raw))
        cfg = infer_config(tmp_path, bad, out_name="broken")
        assert main(["infer", "--config", cfg]) == 1
        assert (tmp_path / "broken" / "error-trace.txt").exists()
        assert "trace at" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-base", "infer"])
    def test_divergence_writes_partial_trace(self, tmp_path, trained_base,
                                             command, capsys):
        # an absurd learning rate blows the weights past float range
        cfg = (base_config(tmp_path, out_name="diverged") if command == "train-base"
               else infer_config(tmp_path, trained_base, out_name="diverged"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, "--config", cfg,
                         "--set", "train.learning_rate=1e200",
                         "--set", "train.gradient_clip_norm=none",
                         "--set", "train.sigma=1e-3"]) == 1
        step = int(re.search(r"non-finite loss at step (\d+)",
                             capsys.readouterr().err).group(1))
        lines = (tmp_path / "diverged" / "trace.csv").read_text().splitlines()
        assert lines[0] == "step,kl,penalty,total,grad_norm"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(step))
        assert np.all(np.isfinite(rows))

    def test_lock_contention_is_runtime_failure(self, tmp_path, trained_base):
        out = tmp_path / "busy"
        out.mkdir()
        (out / ".lock").write_text(f"{os.getpid()}\n")
        cfg = infer_config(tmp_path, trained_base, out_name="busy")
        assert main(["infer", "--config", cfg]) == 1

    @pytest.mark.parametrize("index", [-1, -3])
    def test_negative_observe_index_is_exit_2(self, tmp_path, trained_base,
                                              index, capsys):
        cfg = infer_config(tmp_path, trained_base)
        assert main(["infer", "--config", cfg,
                     "--set", f"observe.index={index}"]) == 2
        assert "config error: observe.index" in capsys.readouterr().err

    @pytest.mark.parametrize("index", [100, 1_000_000])
    def test_observe_index_past_data_n_is_exit_2(self, tmp_path, trained_base,
                                                 index, capsys):
        cfg = infer_config(tmp_path, trained_base)      # [data] n = 100
        start = time.perf_counter()
        assert main(["infer", "--config", cfg,
                     "--set", f"observe.index={index}"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "config error: observe.index" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -5])
    def test_empty_dataset_is_exit_2(self, tmp_path, n, capsys):
        cfg = base_config(tmp_path)
        assert main(["train-base", "--config", cfg, "--set", f"data.n={n}"]) == 2
        assert "config error: data.n" in capsys.readouterr().err

    @pytest.mark.parametrize("target, field", [
        ("DEFAULT.x=1", "override"), (".x=1", "override"),
        ("train.=1", "override"), ("train.sigma", "override"),
        # surrounding spaces are stripped: this sets train.sigma
        ("train .sigma=0", "train.sigma"),
        # a misspelled key or section would run with the default
        ("train.sigmaa=0", "train.sigmaa: unknown key"),
        ("Train.sigma=0", "Train.sigma: unknown key"),
        # an empty value is no way to take a default or turn the clip off
        ("train.gradient_clip_norm=", "train.gradient_clip_norm: empty value"),
        ("eval.gt_path=", "eval.gt_path: empty value"),
    ])
    def test_malformed_override_is_exit_2(self, tmp_path, capsys, target,
                                          field):
        # a config without a [train] section
        cfg = write_cfg(tmp_path / "sat.cfg", f"""
[run]
output_dir = {tmp_path / "sat"}

[sat]
budget = 500
""")
        assert main(["sat-demo", "--config", cfg, "--set", target]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "sat").exists()

    def test_unknown_section_in_config_file_is_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "sat.cfg", f"""
[run]
output_dir = {tmp_path / "sat"}

[sta]
budget = 500
""")
        assert main(["sat-demo", "--config", cfg]) == 2
        assert "config error: sta.budget: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "sat").exists()

    @pytest.mark.parametrize("command, config, sets, key", BAD_INPUTS, ids=[
        f"{command}:{','.join(sets)}" for command, _, sets, _ in BAD_INPUTS])
    def test_bad_input_is_exit_2_naming_its_key(self, tmp_path, request,
                                                capsys, command, config,
                                                sets, key):
        if config == "base":
            cfg = base_config(tmp_path)
        else:
            ckpt = request.getfixturevalue("trained_base")
            cfg = (infer_config if config == "infer" else lmc_config)(
                tmp_path, ckpt)
        mask = tmp_path / "mask.txt"
        mask.write_text("0\n0\n")
        out = tmp_path / "bad"
        argv = [command, "--config", cfg, "--set", f"run.output_dir={out}"]
        for setting in sets:
            argv += ["--set", setting.format(mask=mask)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt"]

    @pytest.mark.parametrize("argv", [["bogus", "--config", "run.cfg"],
                                      ["infer"]],
                             ids=["unknown-command", "missing-config"])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: flowcond" in capsys.readouterr().err


class TestImageTasks:
    def blob_base(self, tmp_path):
        cfg = write_cfg(tmp_path / "blobbase.cfg", f"""
[run]
output_dir = {tmp_path / "blobbase"}
seed = 11

[data]
kind = blobs
n = 120
height = 4
width = 4

[model]
num_layers = 4
hidden_width = 16

[train]
learning_rate = 2e-3
num_steps = 25
batch_size = 32
sigma = 0.05
""")
        assert main(["train-base", "--config", cfg]) == 0
        return tmp_path / "blobbase" / "base.ckpt"

    def test_compressed_sensing_task(self, tmp_path):
        ckpt = self.blob_base(tmp_path)
        cfg = write_cfg(tmp_path / "cs.cfg", f"""
[run]
output_dir = {tmp_path / "cs"}
seed = 12

[data]
kind = blobs
height = 4
width = 4

[model]
base_checkpoint = {ckpt}

[measure]
kind = gaussian
m = 5
gauss_seed = 2

[observe]
source = synthetic
index = 0

[train]
num_steps = 6
batch_size = 8
sigma = 0.05

[sample]
n = 12
""")
        assert main(["infer", "--config", cfg]) == 0
        samples = load_array(tmp_path / "cs" / "samples.flwa")
        assert samples.shape == (12, 16)
        assert load_array(tmp_path / "cs" / "y_star.flwa").shape == (1, 5)

    def test_super_resolution_task(self, tmp_path):
        ckpt = self.blob_base(tmp_path)
        cfg = write_cfg(tmp_path / "sr.cfg", f"""
[run]
output_dir = {tmp_path / "sr"}
seed = 13

[data]
kind = blobs
height = 4
width = 4

[model]
base_checkpoint = {ckpt}

[measure]
kind = downsample2x

[observe]
source = synthetic
index = 1

[train]
num_steps = 5
batch_size = 8
sigma = 0.05

[sample]
n = 6
""")
        assert main(["infer", "--config", cfg]) == 0
        assert load_array(tmp_path / "sr" / "y_star.flwa").shape == (1, 4)


# ---------------------------------------------------------------------------
# every inference command accepts the problem configs infer accepts
# ---------------------------------------------------------------------------

PROBLEM_COMMANDS = ["infer", "lmc", "ivom", "csgm", "sigma-sweep", "eval"]


@pytest.fixture(scope="module")
def image_problems(tmp_path_factory):
    """A 4x4 blob base plus, per problem, the [data] and [measure] lines and
    the files eval reads; the image-grid file holds 4x4x1 images, so the
    same base serves both problems."""
    from flowcond.persist import make_blob_images, save_array, save_image_dataset
    root = tmp_path_factory.mktemp("problems")
    cfg = write_cfg(root / "base.cfg", f"""
[run]
output_dir = {root / "base"}
seed = 21

[data]
kind = blobs
n = 40
height = 4
width = 4

[model]
num_layers = 2
hidden_width = 8

[train]
num_steps = 5
batch_size = 16
""")
    assert main(["train-base", "--config", cfg]) == 0
    grid = root / "grid.flwi"
    save_image_dataset(grid, make_blob_images(6, 4, 4, seed=22))
    samples = root / "samples.flwa"
    save_array(samples, np.random.default_rng(23).uniform(0, 1, (8, 16)))
    problems = {
        "blobs-downsample2x": ("kind = blobs\nheight = 4\nwidth = 4",
                               "kind = downsample2x", 4),
        "image-grid-mask": (f"kind = image-grid\npath = {grid}",
                            "kind = mask\nindices = 0,5", 2),
    }
    out = {}
    for name, (data, measure, m) in problems.items():
        y = root / f"y-{name}.flwa"
        save_array(y, np.zeros(m))
        out[name] = (data, measure, y)
    return root / "base" / "base.ckpt", samples, out


def problem_config(tmp_path, ckpt, data, measure, extra=""):
    return write_cfg(tmp_path / "problem.cfg", f"""
[run]
output_dir = {tmp_path / "out"}
seed = 24

[data]
{data}

[model]
base_checkpoint = {ckpt}

[measure]
{measure}

[observe]
source = synthetic
index = 1

[train]
num_steps = 3
batch_size = 4
sigma = 0.05

[sample]
n = 5

[lmc]
chain_length = 10

[point]
steps = 3
restarts = 1

[sweep]
sigmas = 1,0.1
eval_samples = 10
{extra}""")


class TestProblemConfigs:
    @pytest.mark.parametrize("problem", ["blobs-downsample2x", "image-grid-mask"])
    @pytest.mark.parametrize("command", PROBLEM_COMMANDS)
    def test_command_accepts_problem(self, tmp_path, image_problems, command,
                                     problem, capsys):
        ckpt, samples, problems = image_problems
        data, measure, y = problems[problem]
        extra = f"\n[eval]\nsamples_path = {samples}\ny_path = {y}\n"
        cfg = problem_config(tmp_path, ckpt, data, measure,
                             extra if command == "eval" else "")
        assert main([command, "--config", cfg]) == 0, capsys.readouterr().err
        if command == "eval":
            metrics = (tmp_path / "out" / "metrics.csv").read_text()
            assert "mean_residual" in metrics
        elif command != "sigma-sweep":
            assert (tmp_path / "out" / "y_star.flwa").exists()
            assert (tmp_path / "out" / "ground_truth.flwa").exists()

    @pytest.mark.parametrize("measure", ["kind = gaussian\nm = 3",
                                         "kind = downsample2x"])
    @pytest.mark.parametrize("command", ["amortize", "amortized-infer"])
    def test_amortization_needs_mask(self, tmp_path, image_problems, command,
                                     measure, capsys):
        from flowcond.flows import make_flow
        from flowcond.persist import save_checkpoint
        ckpt, _, problems = image_problems
        cond = tmp_path / "cond.ckpt"
        save_checkpoint(make_flow(16, num_layers=2, hidden_width=8,
                                  context_width=32,
                                  rng=np.random.default_rng(25)),
                        cond, "conditional")
        cfg = problem_config(tmp_path, ckpt, problems["blobs-downsample2x"][0],
                             measure)
        assert main([command, "--config", cfg,
                     "--set", f"model.conditional_checkpoint={cond}"]) == 2
        err = capsys.readouterr().err
        assert "config error: measure.kind" in err
        assert f"{command} needs a mask operator" in err


# ---------------------------------------------------------------------------
# the README's config-key list matches the table of keys
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_keys():
    """(section, key) pairs of README's "Config keys" list: per bullet, the
    backticked names outside parentheses (those hold defaults)."""
    text = README.read_text()
    block = text.split("### Config keys", 1)[1].split("\n## ", 1)[0]
    pairs = set()
    for bullet in re.split(r"\n\* ", block)[1:]:
        section, rest = re.match(r"`\[(\w+)\]`(.*)", bullet, re.S).groups()
        rest = re.sub(r"\([^()]*(\([^()]*\)[^()]*)*\)", "", rest)
        pairs |= {(section, key) for key in re.findall(r"`(\w+)`", rest)}
    return pairs


def readme_example_keys():
    """(section, key) pairs that README's ```ini examples set."""
    pairs = set()
    for block in re.findall(r"```ini\n(.*?)```", README.read_text(), re.S):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(block)
        pairs |= {(s, k) for s in parser.sections() for k in parser.options(s)}
    return pairs


class TestConfigKeysDocumented:
    def test_scanners_see_known_keys(self):
        for pairs in (set(KEYS), readme_config_keys()):
            assert {("run", "output_dir"), ("run", "task"),
                    ("train", "gradient_clip_norm"), ("data", "height"),
                    ("sat", "m_scale")} <= pairs

    def test_every_read_key_is_documented(self):
        assert set(KEYS) - readme_config_keys() == set()

    def test_every_documented_key_is_read(self):
        assert readme_config_keys() - set(KEYS) == set()

    def test_readme_examples_use_read_keys(self):
        example = readme_example_keys()
        assert {("run", "output_dir"), ("train", "sigma")} <= example
        assert example - set(KEYS) == set()
