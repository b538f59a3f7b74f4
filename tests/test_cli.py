"""End-to-end CLI tests with tiny budgets: every subcommand runs, writes
its artifacts and manifest, honors exit-code conventions, and reproduces
its outputs bit-for-bit under a fixed seed; every inference command
accepts the same problem configs, and README's config-key list matches the
keys the code reads, and so do its examples."""

import configparser
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from flowcond.cli import main
from flowcond.persist import load_array, load_checkpoint, save_array


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
# the README's config-key list matches the keys the code reads
# ---------------------------------------------------------------------------

def code_config_keys():
    """(section, key) pairs read through RunConfig getters in cli and persist."""
    from flowcond import cli, persist
    getter = re.compile(r'\.(?:get|getint|getfloat|getfloats|getints|has)\(\s*'
                        r'"(\w+)",\s*"(\w+)"')
    pairs = set()
    for module in (cli, persist):
        pairs |= set(getter.findall(Path(module.__file__).read_text()))
    return pairs


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
        for pairs in (code_config_keys(), readme_config_keys()):
            assert {("run", "output_dir"), ("train", "gradient_clip_norm"),
                    ("data", "height"), ("sat", "m_scale")} <= pairs

    def test_every_read_key_is_documented(self):
        assert code_config_keys() - readme_config_keys() == set()

    def test_every_documented_key_is_read(self):
        assert readme_config_keys() - code_config_keys() == set()

    def test_readme_examples_use_read_keys(self):
        example = readme_example_keys()
        assert {("run", "output_dir"), ("train", "sigma")} <= example
        assert example - code_config_keys() == set()
