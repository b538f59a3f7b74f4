"""Compile a 3-CNF formula with m clauses into a piecewise-linear network
whose output is exactly M at every satisfying corner of {-1, 1}^d, at least
M/2 on the box of half-width eps^2/(2m) around each of them, and 0 unless
every coordinate lies within eps of the same satisfying corner.  Wrap that
network into a one-layer additive flow y = z + net(x), and demonstrate by
importance sampling that conditioning on y near M concentrates on
satisfying assignments.

The scalar bump used throughout is the four-ReLU hat

    bump(x) = relu(a) - relu(a - 1) - relu(b) + relu(b - 1),
    a = (x - (1 - eps)) / eps,   b = (x - 1) / eps,

which is 1 at x = 1, 0 wherever |x - 1| >= eps, and linear in between.

Why the half-M box has half-width eps^2/(2m), not 1/(2m): the hat is used
twice in series.  Offset a satisfying corner by at most w < eps on every
coordinate.  Each reshaped variable then has |t| >= 1 - w/eps.  The clause
neuron whose pattern matches the corner sees (sum of pattern * t)/3
>= 1 - w/eps, so its bump is >= 1 - w/eps^2; every other neuron of the
clause sees at most 1/3 and gives 0.  Summed over the m clauses the head is

    f = M * max(0, 1 - m w / eps^2)       (at the corners of the box),

so f >= M/2 exactly when w <= eps^2/(2m), with equality at the box
corners.  At w = 1/(2m) the deficit is m w / eps^2 = 1/(2 eps^2) = 8 for
eps = 1/4, so f is 0 there.  DECISIONS.md records the measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GadgetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# CNF formulas and DIMACS
# ---------------------------------------------------------------------------

Literal = tuple[int, int]   # (0-based variable index, polarity +1 / -1)


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 3:
                raise GadgetError("every clause needs exactly 3 literals")
            seen = {}
            for var, pol in clause:
                if not 0 <= var < self.num_vars:
                    raise GadgetError(f"variable {var} out of range")
                if pol not in (1, -1):
                    raise GadgetError(f"polarity must be +-1, got {pol}")
                if seen.get(var, pol) != pol:
                    raise GadgetError(
                        f"clause contains a literal and its negation (var {var})")
                seen[var] = pol

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def satisfies(self, assignments) -> np.ndarray:
        """Truth value at each row of +-1 assignments."""
        a = np.asarray(assignments)
        ok = np.ones(len(a), dtype=bool)
        for clause in self.clauses:
            hit = np.zeros(len(a), dtype=bool)
            for var, pol in clause:
                hit |= a[:, var] == pol
            ok &= hit
        return ok

    def satisfying_corners(self) -> np.ndarray:
        """All satisfying +-1 corners, by brute force (d <= 20 guard)."""
        if self.num_vars > 20:
            raise GadgetError("brute-force enumeration capped at 20 variables")
        corners = all_corners(self.num_vars)
        return corners[self.satisfies(corners)]


def all_corners(d: int) -> np.ndarray:
    """The 2^d sign vectors, row i encoding the bits of i (+1 for bit set)."""
    ints = np.arange(2 ** d, dtype=np.int64)
    bits = (ints[:, None] >> np.arange(d)[None, :]) & 1
    return (2 * bits - 1).astype(np.float64)


def parse_dimacs(text: str) -> CnfFormula:
    num_vars = 0
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise GadgetError(f"bad problem line: {line!r}")
            num_vars = int(parts[2])
            continue
        lits = [int(tok) for tok in line.split()]
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if not lits:
            continue
        clause = tuple((abs(l) - 1, 1 if l > 0 else -1) for l in lits)
        clauses.append(clause)
        num_vars = max(num_vars, max(abs(l) for l in lits))
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def to_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(pol * (var + 1)) for var, pol in clause) + " 0")
    return "\n".join(lines) + "\n"


def load_dimacs(path) -> CnfFormula:
    with open(path, "r", encoding="ascii") as f:
        return parse_dimacs(f.read())


def save_dimacs(formula: CnfFormula, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(to_dimacs(formula))


# ---------------------------------------------------------------------------
# The compiled network
# ---------------------------------------------------------------------------

def delta_eps(x, eps: float):
    """Unit bump at 1 with support (1 - eps, 1 + eps); exact four-ReLU form."""
    x = np.asarray(x, dtype=np.float64)
    a = (x - (1.0 - eps)) / eps
    b = (x - 1.0) / eps
    relu = lambda v: np.maximum(v, 0.0)
    out = relu(a) - relu(a - 1.0) - relu(b) + relu(b - 1.0)
    return float(out) if out.ndim == 0 else out


def transformed_var(x, eps: float):
    """Odd reshaping delta(x) - delta(-x): -1 at -1, +1 at +1, 0 away from both."""
    x = np.asarray(x, dtype=np.float64)
    out = delta_eps(x, eps) - delta_eps(-x, eps)
    return float(out) if np.ndim(out) == 0 else out


@dataclass
class SatGadget:
    """Compiled network for one formula.

    Per clause, one neuron per satisfying local sign pattern (7 of the 8
    patterns of a 3-literal clause): scale the three reshaped variables by
    pattern/3, sum, bump.  Clause scores c_j sum the clause's neurons; the
    head is M * relu(min(sum_j c_j, m) - (m - 1)).  The inner clamp only
    matters off-corner, where overlapping bumps could push a clause score
    above 1; it keeps the output in [0, M] globally and changes nothing at
    corners.

    Guarantee: the output is M at each satisfying corner, 0 at each
    falsifying one, and >= M/2 on the box of half-width eps^2/(2m) around
    each satisfying corner (m clauses; the bound is tight at the box
    corners, see the module docstring for the derivation).
    """

    formula: CnfFormula
    eps: float
    big_m: float
    clause_vars: list[np.ndarray]
    clause_patterns: list[np.ndarray]

    def eval(self, x):
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.shape[1] != self.formula.num_vars:
            raise GadgetError(f"input width {arr.shape[1]} != {self.formula.num_vars}")
        xt = transformed_var(arr, self.eps)
        m = self.formula.num_clauses
        total = np.zeros(arr.shape[0])
        for vars_, patterns in zip(self.clause_vars, self.clause_patterns):
            pre = xt[:, vars_] @ (patterns.T / 3.0)
            total += delta_eps(pre, self.eps).sum(axis=1)
        out = self.big_m * np.maximum(np.minimum(total, m) - (m - 1.0), 0.0)
        return float(out[0]) if single else out


def compile_gadget(formula: CnfFormula, eps: float, big_m: float) -> SatGadget:
    if not 0.0 < eps < 1.0 / 3.0:
        raise GadgetError(f"eps must lie in (0, 1/3), got {eps}")
    if not big_m > 0.0:
        raise GadgetError("M must be positive")
    clause_vars, clause_patterns = [], []
    for clause in formula.clauses:
        vars_ = np.asarray([var for var, _ in clause], dtype=np.intp)
        if len(set(vars_.tolist())) != 3:
            raise GadgetError("clause repeats a variable; construction needs "
                              "3 distinct variables per clause")
        pols = np.asarray([pol for _, pol in clause], dtype=np.float64)
        patterns = []
        for bits in range(8):
            signs = np.asarray([1.0 if bits >> k & 1 else -1.0 for k in range(3)])
            if np.any(signs == pols):      # satisfies the clause locally
                patterns.append(signs)
        clause_vars.append(vars_)
        clause_patterns.append(np.asarray(patterns))
    return SatGadget(formula=formula, eps=eps, big_m=big_m,
                     clause_vars=clause_vars, clause_patterns=clause_patterns)


def decode_assignment(x, eps: float):
    """The unique +-1 corner within eps of x per coordinate, or None."""
    arr = np.asarray(x, dtype=np.float64)
    corner = np.where(arr > 0.0, 1.0, -1.0)
    if np.all(np.abs(arr - corner) < eps):
        return corner
    return None


# ---------------------------------------------------------------------------
# The wrapping flow and the conditional demo
# ---------------------------------------------------------------------------

class GadgetFlow:
    """Additive one-coupling flow on (x, z): x passes through, y = z + net(x).

    The Jacobian is unit triangular, so the log-determinant is exactly 0 and
    the joint density of (x, y) is N(x) * N(y - net(x)).
    """

    def __init__(self, gadget: SatGadget):
        self.gadget = gadget
        self.dim = gadget.formula.num_vars + 1

    def forward(self, xz):
        arr = np.asarray(xz, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.shape[1] != self.dim:
            raise GadgetError(f"expected width {self.dim}")
        out = arr.copy()
        out[:, -1] += self.gadget.eval(arr[:, :-1])
        return out[0] if single else out

    def inverse(self, xy):
        arr = np.asarray(xy, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        out = arr.copy()
        out[:, -1] -= self.gadget.eval(arr[:, :-1])
        return out[0] if single else out

    @staticmethod
    def log_det() -> float:
        return 0.0


def default_output_scale(formula: CnfFormula) -> float:
    """Concrete choice M = 4 sqrt(d ln m) for the conditioning demo."""
    if formula.num_clauses < 2:
        raise GadgetError("default M needs >= 2 clauses; pass M explicitly")
    return 4.0 * math.sqrt(formula.num_vars * math.log(formula.num_clauses))


def _std_normal_tail(a) -> np.ndarray:
    """P(Z >= a) for standard normal, accurate far into the tail."""
    erfc = np.vectorize(math.erfc, otypes=[np.float64])
    return 0.5 * erfc(np.asarray(a, dtype=np.float64) / math.sqrt(2.0))


@dataclass
class DemoReport:
    status: str                      # "ok" | "inconclusive"
    accept_rate: float               # estimated p(y in [M - tau, M + tau])
    success_fraction: float          # nan when nothing landed in the window
    n_window_draws: int              # draws with nonzero window weight
    n_sat_corners: int
    big_m: float
    tau: float
    eps: float
    budget: int

    def to_text(self) -> str:
        lines = [
            "conditional sampling demo",
            f"  {self.budget} draws, {self.n_window_draws} carrying weight in "
            f"|y - M| <= {self.tau}",
            f"  {self.n_sat_corners} satisfying corner(s) exist by brute force",
            f"  estimated p(y in window) = {self.accept_rate:.3e}",
        ]
        if self.status == "ok":
            lines.append(
                f"  conditional mass decoding to a satisfying assignment: "
                f"{self.success_fraction:.6f}")
        else:
            lines.append("  nothing landed in the window: inconclusive")
        lines.append("")
        lines.append(f"status={self.status}")
        lines.append(f"accept_rate={self.accept_rate!r}")
        lines.append(f"success_fraction={self.success_fraction!r}")
        lines.append(f"n_sat_corners={self.n_sat_corners}")
        lines.append(f"M={self.big_m!r}")
        lines.append(f"tau={self.tau!r}")
        return "\n".join(lines) + "\n"


def conditional_sat_demo(formula: CnfFormula, eps: float = 0.25,
                         big_m: float | None = None, tau: float = 0.5,
                         sampler_budget: int = 100_000,
                         rng: np.random.Generator | None = None) -> DemoReport:
    """Estimate p(x decodes to a satisfying assignment | y in [M-tau, M+tau])
    for the wrapped flow by importance sampling.

    The z coordinate is integrated out analytically: given x, the window
    probability is Phi-bar(M - tau - net(x)) - Phi-bar(M + tau - net(x)).
    Draws of x come half from the prior and half from uniform boxes around
    the brute-force satisfying corners (where the conditional mass lives);
    self-normalized importance weights make the estimate exact in
    expectation.  With no satisfying corners the proposal degenerates to the
    prior and the acceptance rate reduces to the plain Gaussian tail mass.

    Satisfiability is reported, not required, so the vacuous case can be
    demonstrated.  Needs d <= 12 for the corner enumeration.
    """
    d = formula.num_vars
    if d > 12:
        raise GadgetError("demo caps at 12 variables (corner enumeration)")
    if big_m is None:
        big_m = default_output_scale(formula)
    gadget = compile_gadget(formula, eps, big_m)
    sat_corners = formula.satisfying_corners()
    n_sat = len(sat_corners)
    if rng is None:
        rng = np.random.default_rng(0)
    budget = int(sampler_budget)
    if budget <= 0:
        return DemoReport(status="inconclusive", accept_rate=0.0,
                          success_fraction=float("nan"), n_window_draws=0,
                          n_sat_corners=n_sat, big_m=big_m, tau=tau, eps=eps,
                          budget=budget)

    m = formula.num_clauses
    # two box scales around satisfying corners: the inner one covers the
    # net >= M/2 core, the outer one the whole region where the net is
    # nonzero (per-coordinate within eps of the corner)
    w_inner = eps * eps / (2.0 * m)
    w_outer = eps
    n_inner = budget // 4 if n_sat else 0
    n_outer = budget // 4 if n_sat else 0
    n_prior = budget - n_inner - n_outer

    x = rng.standard_normal((budget, d))
    if n_sat:
        centers = sat_corners[rng.integers(0, n_sat, size=n_inner)]
        x[n_prior:n_prior + n_inner] = centers + rng.uniform(
            -w_inner, w_inner, size=(n_inner, d))
        centers = sat_corners[rng.integers(0, n_sat, size=n_outer)]
        x[n_prior + n_inner:] = centers + rng.uniform(
            -w_outer, w_outer, size=(n_outer, d))

    # importance weights: prior density over the stratified mixture
    log_prior = -0.5 * np.sum(x * x, axis=1) - 0.5 * d * math.log(2.0 * math.pi)
    mix = (n_prior / budget) * np.exp(log_prior)
    candidate = np.where(x > 0.0, 1.0, -1.0)
    if n_sat:
        dist = np.max(np.abs(x - candidate), axis=1)
        sat_here = np.zeros(budget, dtype=bool)
        near = dist <= w_outer
        sat_here[near] = formula.satisfies(candidate[near])
        for frac, width in ((n_inner / budget, w_inner),
                            (n_outer / budget, w_outer)):
            density = 1.0 / (n_sat * (2.0 * width) ** d)
            mix = mix + np.where(sat_here & (dist <= width), frac * density, 0.0)
    weights = np.exp(log_prior) / mix

    net = gadget.eval(x)
    window = _std_normal_tail(big_m - tau - net) - _std_normal_tail(big_m + tau - net)
    mass = weights * window

    good = np.all(np.abs(x - candidate) < eps, axis=1)
    good[good] = formula.satisfies(candidate[good])

    denom = float(mass.mean())
    n_window = int(np.count_nonzero(mass))
    if denom <= 0.0 or n_window == 0:
        return DemoReport(status="inconclusive", accept_rate=0.0,
                          success_fraction=float("nan"), n_window_draws=0,
                          n_sat_corners=n_sat, big_m=big_m, tau=tau, eps=eps,
                          budget=budget)
    numer = float(mass[good].sum()) / budget
    return DemoReport(status="ok", accept_rate=denom,
                      success_fraction=numer / denom,
                      n_window_draws=n_window, n_sat_corners=n_sat,
                      big_m=big_m, tau=tau, eps=eps, budget=budget)


def random_satisfiable_formula(d: int, m: int, rng: np.random.Generator) -> CnfFormula:
    """Random 3-CNF with a planted satisfying assignment (distinct variables
    per clause, at least one literal of each clause agreeing with the plant)."""
    if d < 3:
        raise GadgetError("need at least 3 variables")
    plant = rng.integers(0, 2, size=d) * 2 - 1
    clauses = []
    for _ in range(m):
        vars_ = rng.choice(d, size=3, replace=False)
        pols = rng.integers(0, 2, size=3) * 2 - 1
        if not any(pols[k] == plant[vars_[k]] for k in range(3)):
            flip = rng.integers(0, 3)
            pols[flip] = plant[vars_[flip]]
        clauses.append(tuple((int(v), int(p)) for v, p in zip(vars_, pols)))
    return CnfFormula(num_vars=d, clauses=tuple(clauses))
