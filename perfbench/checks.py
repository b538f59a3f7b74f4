"""Output checks of the benchmark's commands.

Every check compares a command's files with a computation made here, apart
from the program (closed-form densities, finite differences, brute-force
sums, the benchmark's own DIMACS clause evaluation and file readers), or
with a property the method must have.  None compares with stored output.

A check returns ``(name, ok, detail)``.  :meth:`Checker.check` runs after
every command; the slower :meth:`Checker.deep_check` runs once per run.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
import zlib
from pathlib import Path

import numpy as np

MIXTURE_CENTERS = np.array([[2.0, 2.0], [2.0, -2.0], [-2.0, 2.0], [-2.0, -2.0]])
MIXTURE_STD = 0.5
SAT_EPS = 0.25     # the CLI default the corpus runs at


# ---------------------------------------------------------------------------
# readers and reference computations
# ---------------------------------------------------------------------------

def read_flwa(path) -> np.ndarray:
    """Array file: b"FLWA" | u32 version | u32 rows | u32 cols | f64 data |
    u32 crc32 of the data."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"FLWA":
        raise ValueError(f"{path}: not an array file")
    _, rows, cols = struct.unpack("<III", raw[4:16])
    blob = raw[16:16 + 8 * rows * cols]
    (crc,) = struct.unpack("<I", raw[16 + 8 * rows * cols:])
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise ValueError(f"{path}: checksum mismatch")
    return np.frombuffer(blob, dtype="<f8").reshape(rows, cols).copy()


def write_flwa(path, arr) -> None:
    blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    Path(path).write_bytes(b"FLWA" + struct.pack("<III", 1, *arr.shape) + blob
                           + struct.pack("<I", zlib.crc32(blob)))


def read_trace(path) -> np.ndarray:
    """trace.csv as an (steps, 5) array: step, kl, penalty, total, grad_norm."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if lines[0] != "step,kl,penalty,total,grad_norm":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def read_kv(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="ascii").splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            out[key] = value
    return out


def read_kv_csv(path) -> dict:
    """metrics.csv: a 'metric,value' header, then one metric per line."""
    lines = Path(path).read_text(encoding="ascii").splitlines()[1:]
    return {k: float(v) for k, v in (ln.split(",") for ln in lines)}


def mixture_logpdf(x: np.ndarray) -> np.ndarray:
    """Log density of the four-component mixture, in closed form."""
    d2 = ((x[:, None, :] - MIXTURE_CENTERS[None]) ** 2).sum(axis=2)
    comp = -d2 / (2 * MIXTURE_STD ** 2) - math.log(2 * math.pi * MIXTURE_STD ** 2)
    top = comp.max(axis=1)
    return top + np.log(np.exp(comp - top[:, None]).mean(axis=1))


def mixture_draws(n: int, rng: np.random.Generator) -> np.ndarray:
    comp = rng.integers(0, 4, size=n)
    return MIXTURE_CENTERS[comp] + MIXTURE_STD * rng.standard_normal((n, 2))


def blob_draws(n: int, rng: np.random.Generator, h: int = 8, w: int = 8):
    """8x8 images of one or two Gaussian bumps on a 0.05 background,
    clipped to [0, 1]: the blob data distribution, drawn independently."""
    yy, xx = np.mgrid[0:h, 0:w]
    out = np.zeros((n, h * w))
    for i in range(n):
        img = np.full((h, w), 0.05)
        for _ in range(int(rng.integers(1, 3))):
            cy, cx = rng.uniform(1.0, h - 2.0), rng.uniform(1.0, w - 2.0)
            rad, amp = rng.uniform(1.0, 2.5), rng.uniform(0.5, 0.9)
            img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * rad * rad))
        out[i] = np.clip(img, 0.0, 1.0).reshape(-1)
    return out


def gaussian_matrix(seed: int, m: int, d: int) -> np.ndarray:
    """The CS operator: N(0, 1/m) entries drawn from default_rng(seed)."""
    return np.random.default_rng(seed).normal(0.0, 1.0 / math.sqrt(m), size=(m, d))


def clause_truth(num_vars: int, clauses, corners: np.ndarray) -> np.ndarray:
    """Truth of a DIMACS clause list at rows of +-1 assignments."""
    ok = np.ones(len(corners), dtype=bool)
    for clause in clauses:
        hit = np.zeros(len(corners), dtype=bool)
        for lit in clause:
            hit |= corners[:, abs(lit) - 1] == (1 if lit > 0 else -1)
        ok &= hit
    return ok


def sign_corners(d: int) -> np.ndarray:
    return np.array([[1.0 if (i >> k) & 1 else -1.0 for k in range(d)]
                     for i in range(2 ** d)])


def silverman(v: np.ndarray) -> float:
    """0.9 min(std, IQR / 1.34) n^(-1/5), floored at 1e-4."""
    q75, q25 = np.percentile(v, [75.0, 25.0])
    std = float(v.std(ddof=1))
    scale = min(std, float(q75 - q25) / 1.34) if q75 > q25 else std
    return max(0.9 * scale * len(v) ** -0.2, 1e-4)


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2.0)


def read_marginal(path):
    """Marginal export: a '#' header, histogram rows, then (grid, kde) rows."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    header = dict(tok.split("=", 1) for tok in lines[0][1:].split())
    split = lines.index("grid,kde")
    counts = np.array([int(ln.split(",")[2]) for ln in lines[2:split]])
    kde = np.array([[float(v) for v in ln.split(",")] for ln in lines[split + 1:]])
    return header, counts, kde[:, 0], kde[:, 1]


def sq_residuals(x, matrix, y) -> np.ndarray:
    """||A x_i - y||^2 per row.  The checks compare the median of a sample
    set's residuals, so that the rare far-out draws of a briefly trained
    flow do not decide them, with the data distribution's mean."""
    r = x @ matrix.T - y[None, :]
    return np.sum(r * r, axis=1)


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _last_window(col: np.ndarray) -> float:
    return float(np.mean(col[-max(3, len(col) // 5):]))


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------

class Checker:
    """Holds the references one run's checks share (data draws, operator
    matrices) and checks each invocation's outputs."""

    def __init__(self, plan):
        self.plan = plan
        self.p, self.s = plan.problem, plan.sizes
        rng = np.random.default_rng([plan.seed, 77])
        d = self.p["dim"]
        self.data = blob_draws(2000, rng) if self.p["image"] \
            else mixture_draws(20000, rng)
        if self.p["image"]:
            meas = self.p["infer_measure"]
            self.infer_matrix = gaussian_matrix(meas["gauss_seed"], meas["m"], d)
        else:
            self.infer_matrix = np.eye(d)[self.p["mask"]]

    def data_residual(self, matrix, y) -> float:
        """Mean squared residual of draws from the data distribution."""
        return float(np.mean(sq_residuals(self.data, matrix, y)))

    # -- per command -------------------------------------------------------

    def check(self, inv):
        return getattr(self, "_" + inv.command.replace("-", "_"))(inv)

    def deep_check(self, inv):
        """The slower checks of one command's outputs: finite differences,
        the Langevin stationary law, brute-force diversity, the gadget."""
        y = None
        if inv.command in ("infer", "amortized-infer"):
            y = read_flwa(inv.out / "y_star.flwa")[0]
        if inv.command == "infer":
            return self._density(inv.out / "pregen.ckpt", "pregen", None) \
                + [self._gradient(inv.out, y)]
        if inv.command == "lmc":
            return [stationary_law_check(self.plan.root / "lmc_law")]
        if inv.command == "amortized-infer":
            ctx = np.zeros(2 * self.p["dim"])
            ctx[self.p["mask"]] = y
            ctx[self.p["dim"] + self.p["mask"]] = 1.0
            return self._density(
                self.plan.root / "out" / "amortize" / "conditional.ckpt",
                "conditional", ctx)
        if inv.command == "eval":
            x = read_flwa(self.plan.root / "out" / "infer_0" / "samples.flwa")
            got = read_kv_csv(inv.out / "metrics.csv")["diversity"]
            brute = pairwise_mean_distance(x) / math.sqrt(x.shape[1])
            return [("eval.diversity", _rel(got, brute) < 1e-9,
                     f"{got!r} vs brute force {brute!r}")]
        if inv.command == "sat-demo":
            big_m = float(read_kv(inv.out / "report.txt")["M"])
            return gadget_checks(inv.info["num_vars"], inv.info["clauses"], big_m)
        return []

    def _train_base(self, inv):
        tr = read_trace(inv.out / "trace.csv")
        nll = tr[:, 3]
        last = _last_window(nll)
        out = [("train-base.trace_decreases", len(tr) == self.s["base_steps"]
                and last < nll[0],
                f"{len(tr)} rows, nll/dim {nll[0]:.4f} -> {last:.4f}")]
        if not self.p["image"]:
            # Gibbs: the model's cross-entropy on data cannot fall below the
            # data entropy, up to the Monte Carlo error of the window
            lp = mixture_logpdf(self.data)
            h = float(-lp.mean()) / 2
            window = max(3, len(nll) // 5) * self.s["base_batch"]
            tol = 5 * float(lp.std()) / 2 / math.sqrt(window) + 5e-3
            out.append(("train-base.gibbs_bound", last >= h - tol,
                        f"window nll/dim {last:.4f} vs entropy/dim {h:.4f} "
                        f"- {tol:.4f}"))
        return out

    def _infer(self, inv):
        tr = read_trace(inv.out / "trace.csv")
        x = read_flwa(inv.out / "samples.flwa")
        y = read_flwa(inv.out / "y_star.flwa")[0]
        res = float(np.median(sq_residuals(x, self.infer_matrix, y)))
        ref = self.data_residual(self.infer_matrix, y)
        out = [
            ("infer.identity_start_kl", tr[0, 1] == 0.0, f"row-0 kl {float(tr[0, 1])!r}"),
            ("infer.trace_decreases", len(tr) == self.s["svi_steps"]
             and _last_window(tr[:, 3]) < tr[0, 3],
             f"total {tr[0, 3]:.4g} -> {_last_window(tr[:, 3]):.4g}"),
            ("infer.samples", x.shape == (self.s["n_samples"], self.p["dim"])
             and bool(np.all(np.isfinite(x))), f"shape {x.shape}"),
            ("infer.residual", res < 0.1 * ref,
             f"median residual {res:.4g} vs data mean {ref:.4g}"),
        ]
        return out

    def _lmc(self, inv):
        from flowcond.persist import load_checkpoint
        n_chains, length = self.s["lmc_chains"], self.s["lmc_length"]
        keep = length - length // 5
        states = []
        ok = True
        for c in range(n_chains):
            lines = (inv.out / f"chain_{c}.csv").read_text().splitlines()
            rows = np.array([[float(v) for v in ln.split(",")]
                             for ln in lines[1:]])
            ok &= lines[0].startswith("#") and rows.shape == (keep, self.p["dim"]) \
                and bool(np.all(np.isfinite(rows)))
            states.append(rows)
        out = [("lmc.chain_files", ok, f"{n_chains} chains x {keep} states")]
        x = read_flwa(inv.out / "samples.flwa")
        base = load_checkpoint(self.plan.root / "out" / "base" / "base.ckpt")
        fx = base.forward(np.concatenate(states))[0]
        out.append(("lmc.samples_are_base_of_states", x.shape == fx.shape
                    and float(np.max(np.abs(x - fx))) <= 1e-12,
                    f"shape {x.shape}"))
        return out

    def _amortize(self, inv):
        ok = (inv.out / "conditional.ckpt").stat().st_size > 0
        return [("amortize.checkpoint", ok, "conditional.ckpt written")]

    def _amortized_infer(self, inv):
        x = read_flwa(inv.out / "samples.flwa")
        ok = x.shape == (self.s["zero_shot_n"], self.p["dim"]) \
            and bool(np.all(np.isfinite(x)))
        return [("amortized-infer.samples", ok, f"shape {x.shape}")]

    def _eval(self, inv):
        m = read_kv_csv(inv.out / "metrics.csv")
        src = self.plan.root / "out" / "infer_0" / "samples.flwa"
        x = read_flwa(src)
        n, d = x.shape
        gap = abs(m["mean_mse_single"] - (m["mse_mmse"] + m["mean_sample_variance"]))
        out = [("eval.mse_decomposition", gap <= 1e-9, f"identity gap {gap:.1e}")]
        ok, worst_int, unresolved = True, 0.0, 0
        for c in range(d):
            header, counts, grid, kde = read_marginal(inv.out / f"marginal_{c}.txt")
            v = x[:, c]
            bw = float(header["bandwidth"])
            z = (grid[:, None] - v[None, :]) / bw
            ref = np.exp(-0.5 * z * z).mean(axis=1) / (bw * math.sqrt(2 * math.pi))
            ok &= int(counts.sum()) == n and _rel(bw, silverman(v)) < 1e-12 \
                and float(np.max(np.abs(kde - ref))) <= 1e-9 * float(ref.max()) \
                and _rel(float(header["mean"]), float(v.mean())) < 1e-12 \
                and _rel(float(header["variance"]), float(v.var())) < 1e-12
            # the trapezoid rule integrates the KDE only where the grid
            # resolves its kernel
            if grid[1] - grid[0] <= bw:
                worst_int = max(worst_int, abs(trapezoid(kde, grid) - 1.0))
            else:
                unresolved += 1
        ok &= worst_int < 1e-3
        out.append(("eval.marginals", ok,
                    f"{d} files, worst |KDE integral - 1| {worst_int:.1e}, "
                    f"{unresolved} with grid spacing above the bandwidth"))
        return out

    def _sat_demo(self, inv):
        rep = read_kv(inv.out / "report.txt")
        frac = float(rep.get("success_fraction", "nan"))
        return [("sat-demo.report", rep.get("status") == "ok"
                 and rep.get("corner_check_exact") == "true" and frac >= 0.99,
                 f"status={rep.get('status')} success_fraction={frac}")]

    # -- deep checks of the flows -------------------------------------------

    def _density(self, pre_path, kind, context):
        """log q from sample_with_logq against log_prob, and against a
        finite-difference log-Jacobian of eps -> base(pre(eps))."""
        from flowcond.flows import ComposedSampler, gaussian_logpdf
        from flowcond.persist import load_checkpoint
        base = load_checkpoint(self.plan.root / "out" / "base" / "base.ckpt")
        pre = load_checkpoint(pre_path, kind)
        cs = ComposedSampler(pre, base, context=context)
        rng = np.random.default_rng([self.plan.seed, 5])
        x, logq = cs.sample_with_logq(64, rng)
        lp = cs.log_prob(x)
        gap = float(np.max(np.abs(logq - lp) / (1.0 + np.abs(lp))))
        out = [(f"{kind}.logq_matches_log_prob", gap <= 1e-8,
                f"max relative gap {gap:.1e}")]
        d, h = cs.dim, 1e-5
        worst = 0.0
        for eps in rng.standard_normal((3, d)):
            pts = np.concatenate([eps + h * np.eye(d), eps - h * np.eye(d),
                                  eps[None, :]])
            fx = base.forward(pre.forward(pts, context)[0])[0]
            jac = (fx[:d] - fx[d:2 * d]).T / (2 * h)
            _, logdet = np.linalg.slogdet(jac)
            fd = float(gaussian_logpdf(eps[None, :])[0]) - logdet
            worst = max(worst, abs(fd - float(cs.log_prob(fx[-1]))))
        out.append((f"{kind}.logq_matches_fd_jacobian", worst < 1e-4,
                    f"max gap {worst:.1e} nats"))
        return out

    def _gradient(self, out_dir, y):
        """Tape gradient of svi_loss against central differences, for the
        largest-gradient entry of three pre-generator arrays."""
        from flowcond import diffengine as de
        from flowcond.flows import ComposedSampler, ParamBinder
        from flowcond.measurement import GaussianOp, MaskOp, Observation
        from flowcond.objective import SmoothingSpec, svi_loss, svi_loss_nodes
        from flowcond.persist import load_checkpoint
        base = load_checkpoint(self.plan.root / "out" / "base" / "base.ckpt")
        pre = load_checkpoint(out_dir / "pregen.ckpt", "pregen")
        meas = self.p["infer_measure"]
        op = GaussianOp(meas["gauss_seed"], meas["m"], self.p["dim"]) \
            if self.p["image"] else MaskOp(self.p["mask"], self.p["dim"])
        obs = Observation(y_star=y, op=op)
        cs = ComposedSampler(pre, base)
        smoothing = SmoothingSpec(self.s["sigma"])
        eps = np.random.default_rng([self.plan.seed, 6]).standard_normal(
            (16, self.p["dim"]))
        g = de.Graph()
        bind = ParamBinder(g)
        _, _, total = svi_loss_nodes(bind, cs, obs, smoothing, eps)
        params = pre.parameters()
        grads = bind.gradients(de.backward(g, total), params)
        worst = 0.0
        picks = [i for i in np.argsort([-np.max(np.abs(gr)) for gr in grads])[:3]]
        for i in picks:
            k = np.unravel_index(int(np.argmax(np.abs(grads[i]))), grads[i].shape)
            p = params[i]
            keep = p[k]
            step = 1e-6 * max(1.0, abs(keep))
            p[k] = keep + step
            hi = svi_loss(cs, obs, smoothing, eps).total
            p[k] = keep - step
            lo = svi_loss(cs, obs, smoothing, eps).total
            p[k] = keep
            worst = max(worst, _rel(float(grads[i][k]), (hi - lo) / (2 * step)))
        return ("infer.gradient_matches_fd", worst < 1e-5,
                f"max relative gap {worst:.1e} over {len(picks)} parameters")


def pairwise_mean_distance(x: np.ndarray) -> float:
    """Mean Euclidean distance over all unordered pairs of rows, from the
    full distance matrix built a block of rows at a time."""
    n, d = x.shape
    block = max(1, 1_000_000 // (n * d))
    total = 0.0
    for i in range(0, n, block):
        diff = x[i:i + block, None, :] - x[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        total += float(dist.sum())
    return total / (n * (n - 1))


def gadget_checks(num_vars: int, clauses, big_m: float):
    """The program's compiled gadget at every corner against this module's
    clause evaluation, and f/M >= 1/2 at the eps^2/(2m) box corners around
    up to four satisfying corners."""
    from flowcond.satgadget import compile_gadget, parse_dimacs
    from plan import dimacs_text
    gadget = compile_gadget(parse_dimacs(dimacs_text(num_vars, clauses)),
                            SAT_EPS, big_m)
    corners = sign_corners(num_vars)
    truth = clause_truth(num_vars, clauses, corners)
    err = float(np.max(np.abs(gadget.eval(corners) - np.where(truth, big_m, 0.0))))
    w = SAT_EPS ** 2 / (2 * len(clauses))
    worst = math.inf
    for corner in corners[truth][:4]:
        probes = corner[None, :] + w * corners[:256]
        worst = min(worst, float(np.min(gadget.eval(probes)) / big_m))
    return [("sat-demo.corners_exact", err <= 1e-9 * big_m and truth.any(),
             f"worst corner error {err:.1e}, {int(truth.sum())} satisfying"),
            ("sat-demo.half_output_region", worst >= 0.5 - 1e-9,
             f"min f/M {worst!r} at half-width eps^2/(2m)")]


# ---------------------------------------------------------------------------
# the Langevin chain's stationary law on a Gaussian target
# ---------------------------------------------------------------------------

LAW_SCALE, LAW_SHIFT = np.array([0.5, 2.0]), np.array([0.3, -1.0])
LAW_Y, LAW_SIGMA, LAW_ETA = 0.9, 0.5 * math.sqrt(2.0), 1.0
LAW_CHAINS, LAW_LENGTH = 4, 600


def stationary_law_check(root: Path):
    """Run ``lmc`` on a one-layer DiagonalAffine base observing x0, whose
    latent target is Gaussian with diagonal precision p, and compare the
    chain's mean and variance with the closed-form law of the unadjusted
    chain z' = (1 - eta p/2) z + (eta p/2) mu + sqrt(eta) xi: mean mu and
    variance eta / (1 - a^2), a = 1 - eta p/2 (not the target's 1/p)."""
    from flowcond.cli import main
    from flowcond.flows import DiagonalAffine, FlowModel
    from flowcond.persist import save_checkpoint
    root.mkdir(parents=True, exist_ok=True)
    ckpt = root / "diag.ckpt"
    save_checkpoint(FlowModel(2, [DiagonalAffine(LAW_SCALE, LAW_SHIFT)]), ckpt,
                    "base")
    cfg = root / "law.cfg"
    cfg.write_text(
        f"[run]\ntask = toy2d\noutput_dir = {root / 'out'}\nseed = 3\n"
        f"[model]\nbase_checkpoint = {ckpt}\n"
        f"[measure]\nkind = mask\nindices = 0\n"
        f"[observe]\nsource = file\ny_path = {root / 'y.flwa'}\n"
        f"[train]\nsigma = {LAW_SIGMA!r}\n"
        f"[lmc]\nstep_size = {LAW_ETA!r}\nchain_length = {LAW_LENGTH}\n"
        f"n_chains = {LAW_CHAINS}\n", encoding="ascii")
    write_flwa(root / "y.flwa", np.array([[LAW_Y]]))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["lmc", "--config", str(cfg)])
    if code != 0:
        return ("lmc.stationary_law", False, f"lmc exited {code}")
    z = np.concatenate([
        np.array([[float(v) for v in ln.split(",")] for ln in
                  (root / "out" / f"chain_{c}.csv").read_text().splitlines()[1:]])
        for c in range(LAW_CHAINS)])
    two_beta = 1.0 / LAW_SIGMA ** 2
    s, t = LAW_SCALE[0], LAW_SHIFT[0]
    p = np.array([1.0 + two_beta * s * s, 1.0])
    mu = np.array([two_beta * s * (LAW_Y - t) / p[0], 0.0])
    a = 1.0 - LAW_ETA * p / 2.0
    var = LAW_ETA / (1.0 - a * a)
    n = len(z)
    # standard errors from the AR(1) integrated autocorrelation times
    se_mean = np.sqrt(var * (1 + a) / (1 - a) / n)
    se_var = var * np.sqrt(2.0 * (1 + a * a) / (1 - a * a) / n)
    dm = np.abs(z.mean(axis=0) - mu) / se_mean
    dv = np.abs(z.var(axis=0) - var) / se_var
    ok = bool(np.all(dm < 4.5) and np.all(dv < 4.5))
    return ("lmc.stationary_law", ok,
            f"mean {z.mean(axis=0).round(3)} vs {mu.round(3)}, var "
            f"{z.var(axis=0).round(3)} vs {var.round(3)} "
            f"(max {max(dm.max(), dv.max()):.1f} standard errors)")
