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

At most one neuron of a clause is nonzero, for any eps < 1/3.  A neuron
with sign pattern p is nonzero only if p.t > 3(1 - eps) > 2.  Two distinct
patterns differ in some coordinate i, where p_i t_i + q_i t_i = 0, so
p.t + q.t <= 4 < 6(1 - eps) and not both can be nonzero.  Since every
|t_i| <= 1, the live neuron has p_i t_i > 1 - 3 eps > 0 on all three
coordinates, so p = sign(t): the clause score is bump((|t_a| + |t_b| +
|t_c|)/3) when sign(t) satisfies the clause and 0 otherwise, never above
1.  The head is then nonzero only where every clause score is, which needs
|t| > 1 - 3 eps, that is ||x| - 1| < 3 eps^2, on every variable that occurs
in a clause.  SatGadget.eval computes only those rows, one score per
clause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GadgetError(ValueError):
    """A formula or gadget setting that cannot be used; ``field`` names the
    argument at fault (``formula``, ``eps``, ``big_m`` or ``tau``), when one
    is."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


# the demo enumerates all 2^d corners of its formula
DEMO_MAX_VARS = 12


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
                raise GadgetError("every clause needs exactly 3 literals",
                                  "formula")
            seen = {}
            for var, pol in clause:
                if not 0 <= var < self.num_vars:
                    raise GadgetError(f"variable {var} out of range", "formula")
                if pol not in (1, -1):
                    raise GadgetError(f"polarity must be +-1, got {pol}",
                                      "formula")
                if seen.get(var, pol) != pol:
                    raise GadgetError(
                        f"clause contains a literal and its negation (var {var})",
                        "formula")
                seen[var] = pol

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @cached_property
    def literal_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The (m, 3) variable indices and the (m, 3) polarities (+-1.0) of
        the clauses' literals."""
        table = np.asarray(self.clauses, dtype=np.intp).reshape(-1, 3, 2)
        return table[:, :, 0], table[:, :, 1].astype(np.float64)

    def satisfies(self, assignments) -> np.ndarray:
        """Truth value at each row of +-1 assignments."""
        vars_, pols = self.literal_table
        a = np.asarray(assignments)
        return np.all(np.any(a[:, vars_] == pols, axis=2), axis=1)

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


def _dimacs_ints(tokens, line: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise GadgetError(f"non-integer token in line {line!r}",
                          "formula") from None


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
                raise GadgetError(f"bad problem line: {line!r}", "formula")
            num_vars = _dimacs_ints(parts[2:], line)[0]
            continue
        lits = _dimacs_ints(line.split(), line)
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
    head is M * relu(min(sum_j c_j, m) - (m - 1)).  By the lemma in the
    module docstring a clause has at most one live neuron, so ``eval``
    computes that one and only on rows where the head can be nonzero; the
    clamp at m only absorbs rounding.  The lemma needs eps < 1/3, which
    :func:`compile_gadget` checks.

    Guarantee: the output is M at each satisfying corner, 0 at each
    falsifying one, and >= M/2 on the box of half-width eps^2/(2m) around
    each satisfying corner (m clauses; the bound is tight at the box
    corners, see the module docstring for the derivation).
    """

    formula: CnfFormula
    eps: float
    big_m: float

    def eval(self, x):
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.shape[1] != self.formula.num_vars:
            raise GadgetError(f"input width {arr.shape[1]} != {self.formula.num_vars}")
        eps, m = self.eps, self.formula.num_clauses
        vars_, pols = self.formula.literal_table
        zone = np.abs(np.abs(arr[:, np.unique(vars_)]) - 1.0) < 3.0 * eps * eps
        live = np.flatnonzero(np.all(zone, axis=1))
        t = transformed_var(arr[live], eps)[:, vars_]          # (live, m, 3)
        satisfied = np.any(t * pols > 0.0, axis=2)
        score = np.where(satisfied, delta_eps(np.abs(t).sum(axis=2) / 3.0, eps),
                         0.0)
        out = np.zeros(arr.shape[0])
        out[live] = self.big_m * np.maximum(
            np.minimum(score.sum(axis=1), m) - (m - 1.0), 0.0)
        return float(out[0]) if single else out


def compile_gadget(formula: CnfFormula, eps: float,
                   big_m: float | None = None) -> SatGadget:
    """The gadget of ``formula``; ``big_m`` defaults to
    :func:`default_output_scale`."""
    if not 0.0 < eps < 1.0 / 3.0:
        raise GadgetError(f"eps must lie in (0, 1/3), got {eps}", "eps")
    for k, clause in enumerate(formula.clauses):
        if len({var for var, _ in clause}) != 3:
            raise GadgetError(f"clause {k + 1} repeats a variable; construction "
                              "needs 3 distinct variables per clause", "formula")
    if big_m is None:
        big_m = default_output_scale(formula)
    if not 0.0 < big_m < math.inf:
        raise GadgetError(f"M must be a finite number > 0, got {big_m}", "big_m")
    return SatGadget(formula=formula, eps=eps, big_m=big_m)


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
        raise GadgetError("default M needs >= 2 clauses; pass M explicitly",
                          "big_m")
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
    corner_check_exact: bool         # net = M * truth at every corner

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
        lines.append(f"corner_check_exact={str(self.corner_check_exact).lower()}")
        return "\n".join(lines) + "\n"


def _corner_check(gadget: SatGadget, sat_corners: np.ndarray) -> bool:
    """Whether the gadget is M at the satisfying corners and 0 at every
    other corner of {-1, 1}^d, within 1e-9.  Row i of ``all_corners``
    encodes the bits of i, so each satisfying corner's bits give its row."""
    d = gadget.formula.num_vars
    expected = np.zeros(2 ** d)
    expected[(sat_corners > 0.0) @ (1 << np.arange(d))] = gadget.big_m
    return bool(np.all(np.abs(gadget.eval(all_corners(d)) - expected) < 1e-9))


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
    demonstrated.  The report also says whether the gadget matches the
    formula at every corner.  Needs d <= 12 for the corner enumeration.
    """
    d = formula.num_vars
    if d > DEMO_MAX_VARS:
        raise GadgetError(f"demo caps at {DEMO_MAX_VARS} variables (corner "
                          f"enumeration), got {d}", "formula")
    if not 0.0 < tau < math.inf:
        raise GadgetError(f"tau must be a finite number > 0, got {tau}", "tau")
    gadget = compile_gadget(formula, eps, big_m)
    big_m = gadget.big_m
    sat_corners = formula.satisfying_corners()
    n_sat = len(sat_corners)
    exact = _corner_check(gadget, sat_corners)
    if rng is None:
        rng = np.random.default_rng(0)
    budget = int(sampler_budget)
    inconclusive = DemoReport(
        status="inconclusive", accept_rate=0.0, success_fraction=float("nan"),
        n_window_draws=0, n_sat_corners=n_sat, big_m=big_m, tau=tau, eps=eps,
        budget=budget, corner_check_exact=exact)
    if budget <= 0:
        return inconclusive

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
    prior = np.exp(log_prior)
    mix = (n_prior / budget) * prior
    candidate = np.where(x > 0.0, 1.0, -1.0)
    dist = np.max(np.abs(x - candidate), axis=1)
    # draws within eps of their sign corner where that corner satisfies the
    # formula: only these can lie in a box of the proposal
    sat_here = np.zeros(budget, dtype=bool)
    if n_sat:
        near = dist <= w_outer
        sat_here[near] = formula.satisfies(candidate[near])
        for frac, width in ((n_inner / budget, w_inner),
                            (n_outer / budget, w_outer)):
            density = 1.0 / (n_sat * (2.0 * width) ** d)
            mix = mix + np.where(sat_here & (dist <= width), frac * density, 0.0)
    weights = prior / mix

    # where the net is 0 the window is one number; the tails run elsewhere
    net = gadget.eval(x)
    live = net != 0.0
    window = np.full(budget, float(_std_normal_tail(big_m - tau)
                                   - _std_normal_tail(big_m + tau)))
    window[live] = (_std_normal_tail(big_m - tau - net[live])
                    - _std_normal_tail(big_m + tau - net[live]))
    mass = weights * window
    good = sat_here & (dist < eps)

    denom = float(mass.mean())
    n_window = int(np.count_nonzero(mass))
    if denom <= 0.0 or n_window == 0:
        return inconclusive
    # both sums run over the same array in the same order, and rounding is
    # monotone: the fraction is at most 1, and exactly 1 when every draw
    # with mass is good
    success = float(np.where(good, mass, 0.0).sum()) / float(mass.sum())
    return DemoReport(status="ok", accept_rate=denom,
                      success_fraction=success,
                      n_window_draws=n_window, n_sat_corners=n_sat,
                      big_m=big_m, tau=tau, eps=eps, budget=budget,
                      corner_check_exact=exact)


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
