"""Gadget tests: the bump function's exact values, corner correctness
against brute-force CNF evaluation, the wrapping flow, DIMACS,
the sparse evaluation against the dense network, and the conditioning demo
against independent oracles."""

import math

import numpy as np
import pytest

from flowcond.satgadget import (CnfFormula, GadgetError, GadgetFlow,
                                SatGadget, all_corners, compile_gadget,
                                conditional_sat_demo, default_output_scale,
                                delta_eps, load_dimacs, parse_dimacs,
                                random_satisfiable_formula, save_dimacs,
                                to_dimacs, transformed_var, _std_normal_tail)
from tests.flow_reference import dense_gadget_eval, gadget_neurons

SINGLE = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
TWO = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n")


class TestBumpFunction:
    @pytest.mark.parametrize("eps", [0.25, 0.3, 0.1])
    def test_exact_values(self, eps):
        assert delta_eps(1.0, eps) == pytest.approx(1.0, abs=1e-12)
        assert delta_eps(1.0 - eps, eps) == 0.0
        assert delta_eps(1.0 + eps, eps) == 0.0
        assert delta_eps(1.0 - eps / 2.0, eps) == pytest.approx(0.5, abs=1e-12)
        assert delta_eps(0.0, eps) == 0.0
        assert delta_eps(5.0, eps) == 0.0

    def test_linear_interpolation_on_support(self):
        eps = 0.25
        xs = np.linspace(1.0 - eps, 1.0 + eps, 11)
        expected = 1.0 - np.abs(xs - 1.0) / eps
        np.testing.assert_allclose(delta_eps(xs, eps), expected, atol=1e-12)

    def test_transformed_variable_endpoints(self):
        eps = 0.25
        assert transformed_var(1.0, eps) == pytest.approx(1.0, abs=1e-12)
        assert transformed_var(-1.0, eps) == pytest.approx(-1.0, abs=1e-12)
        assert transformed_var(0.0, eps) == 0.0

    def test_transformed_variable_dead_zone(self):
        eps = 0.2
        for x in (0.5, -0.5, 1.3, -1.3, 0.0):
            assert transformed_var(x, eps) == 0.0

    def test_transformed_variable_odd(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-2.0, 2.0, size=20)
        np.testing.assert_allclose(transformed_var(-a, 0.25),
                                   -transformed_var(a, 0.25), atol=1e-12)


class TestCompileAndEval:
    def test_single_clause_satisfying_corner(self):
        g = compile_gadget(SINGLE, 0.25, 7.0)
        assert g.eval(np.array([1.0, 1.0, 1.0])) == pytest.approx(7.0, abs=1e-12)

    def test_single_clause_falsifying_corner(self):
        g = compile_gadget(SINGLE, 0.25, 7.0)
        assert g.eval(np.array([-1.0, -1.0, -1.0])) == 0.0

    def test_dead_interior_is_zero(self):
        g = compile_gadget(SINGLE, 0.25, 7.0)
        assert g.eval(np.array([0.5, 0.5, 0.5])) == 0.0

    def test_interior_band_zero_everywhere(self):
        g = compile_gadget(TWO, 0.25, 5.0)
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.75, 0.75, size=(200, 3))
        np.testing.assert_array_equal(g.eval(x), np.zeros(200))

    @pytest.mark.parametrize("seed", range(5))
    def test_exhaustive_corners_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 11))
        formula = random_satisfiable_formula(d, int(rng.integers(2, 2 * d)), rng)
        big_m = 4.0 + float(rng.uniform(0, 8))
        gadget = compile_gadget(formula, 0.25, big_m)
        corners = all_corners(d)
        values = gadget.eval(corners)
        truth = formula.satisfies(corners)
        np.testing.assert_allclose(
            values, np.where(truth, big_m, 0.0), atol=1e-9)

    def test_output_bounded_by_m(self):
        g = compile_gadget(TWO, 0.3, 5.0)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.5, 1.5, size=(5000, 3))
        v = g.eval(x)
        assert np.all(v >= 0.0) and np.all(v <= 5.0 + 1e-12)

    def test_half_output_region_at_corrected_width(self):
        # at per-coordinate offset eps^2/(2m) from a satisfying corner the
        # output is still at least M/2 (box corners are the worst case)
        for formula in (SINGLE, TWO):
            eps, big_m = 0.25, 5.0
            m = formula.num_clauses
            w = eps * eps / (2.0 * m)
            gadget = compile_gadget(formula, eps, big_m)
            for a in formula.satisfying_corners():
                probes = a[None, :] + w * all_corners(formula.num_vars)
                rng = np.random.default_rng(3)
                probes = np.vstack([probes,
                                    a + rng.uniform(-w, w, (200, formula.num_vars))])
                assert np.min(gadget.eval(probes)) >= big_m / 2.0 - 1e-9

    def test_repeated_variable_rejected(self):
        formula = CnfFormula(num_vars=3,
                             clauses=(((0, 1), (0, 1), (2, -1)),))
        with pytest.raises(GadgetError, match="repeat"):
            compile_gadget(formula, 0.25, 5.0)

    def test_eps_range_enforced(self):
        with pytest.raises(GadgetError):
            compile_gadget(SINGLE, 1.0 / 3.0, 5.0)
        with pytest.raises(GadgetError):
            compile_gadget(SINGLE, 0.0, 5.0)

    def test_eval_gadget_function_form(self):
        g = compile_gadget(SINGLE, 0.25, 2.0)
        assert g.eval(np.ones(3)) == pytest.approx(2.0)


def draw_sets(formula, eps, rng, n=3000):
    """Corners, boxes around satisfying corners, the zone where every
    coordinate is within 3 eps^2 of +-1, satisfying corners moved along one
    coordinate across that zone, and a wide uniform box."""
    d, m = formula.num_vars, formula.num_clauses
    sat = formula.satisfying_corners()

    def boxes(w):
        return sat[rng.integers(0, len(sat), n)] + rng.uniform(-w, w, (n, d))

    signs = rng.choice([-1.0, 1.0], size=(n, d))
    zone = 3.0 * eps * eps
    edge = sat[rng.integers(0, len(sat), n)]
    edge[np.arange(n), rng.integers(0, d, n)] += rng.uniform(-zone, zone, n)
    return {"corners": all_corners(d),
            "inner_box": boxes(eps * eps / (2.0 * m)),
            "outer_box": boxes(eps),
            "bump_zone": signs * (1.0 + rng.uniform(-zone, zone, (n, d))),
            "zone_edge": edge,
            "wide": rng.uniform(-2.0, 2.0, (n, d))}


class TestEvalAgainstDenseNetwork:
    # x2..x5 occur in one clause each, so the head stays nonzero when one of
    # them moves across the whole 3 eps^2 zone
    FORMULAS = (TWO, random_satisfiable_formula(8, 14, np.random.default_rng(12)),
                parse_dimacs("p cnf 5 2\n1 2 3 0\n-1 4 -5 0\n"))

    @pytest.mark.parametrize("eps", [0.05, 0.25, 0.33])
    @pytest.mark.parametrize("which", range(3))
    def test_matches_dense_network(self, eps, which):
        formula = self.FORMULAS[which]
        gadget = compile_gadget(formula, eps, 6.5)
        for name, x in draw_sets(formula, eps, np.random.default_rng(13)).items():
            got, ref = gadget.eval(x), dense_gadget_eval(gadget, x)
            err = float(np.max(np.abs(got - ref)))
            assert err <= 1e-12 * gadget.big_m, (name, err)
            if name in ("corners", "inner_box", "zone_edge"):
                assert np.count_nonzero(ref) > 0, name

    @pytest.mark.parametrize("eps", [0.05, 0.25, 0.33])
    def test_one_live_neuron_per_clause(self, eps):
        formula = self.FORMULAS[1]
        gadget = compile_gadget(formula, eps, 6.5)
        for name, x in draw_sets(formula, eps, np.random.default_rng(14)).items():
            neurons = gadget_neurons(gadget, x)
            assert np.max(np.count_nonzero(neurons, axis=2)) <= 1, name
            assert np.max(neurons.sum(axis=2)) <= 1.0, name

    def test_single_row_and_width_check(self):
        g = compile_gadget(TWO, 0.25, 5.0)
        x = np.array([1.0, 1.0, -1.0])
        assert g.eval(x) == dense_gadget_eval(g, x[None, :])[0] == 5.0
        with pytest.raises(GadgetError, match="width"):
            g.eval(np.ones((2, 4)))


class TestGadgetFlow:
    def test_roundtrip_and_logdet(self):
        flow = GadgetFlow(compile_gadget(TWO, 0.25, 5.0))
        rng = np.random.default_rng(4)
        xz = rng.standard_normal((100, 4))
        back = flow.inverse(flow.forward(xz))
        assert np.max(np.abs(back - xz)) < 1e-12
        assert flow.log_det() == 0.0

    def test_passthrough_coordinates(self):
        flow = GadgetFlow(compile_gadget(TWO, 0.25, 5.0))
        xz = np.random.default_rng(5).standard_normal(4)
        out = flow.forward(xz)
        np.testing.assert_array_equal(out[:3], xz[:3])

    def test_output_shift_is_gadget_value(self):
        gadget = compile_gadget(SINGLE, 0.25, 5.0)
        flow = GadgetFlow(gadget)
        xz = np.array([1.0, 1.0, 1.0, 0.25])
        assert flow.forward(xz)[3] == pytest.approx(0.25 + 5.0, abs=1e-12)


class TestDimacs:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(6)
        formula = random_satisfiable_formula(7, 9, rng)
        again = parse_dimacs(to_dimacs(formula))
        assert again == formula
        third = parse_dimacs(to_dimacs(again))
        assert third == again

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "f.cnf"
        save_dimacs(TWO, path)
        assert load_dimacs(path) == TWO

    def test_comments_and_blank_lines(self):
        f = parse_dimacs("c hi\n\np cnf 3 1\nc mid\n1 -2 3 0\n")
        assert f.num_vars == 3 and f.num_clauses == 1

    def test_bad_problem_line(self):
        with pytest.raises(GadgetError):
            parse_dimacs("p wcnf 3 1\n1 2 3 0\n")

    def test_complementary_literals_rejected(self):
        with pytest.raises(GadgetError, match="negation"):
            parse_dimacs("p cnf 3 1\n1 -1 2 0\n")

    def test_clause_size_enforced(self):
        with pytest.raises(GadgetError):
            parse_dimacs("p cnf 3 1\n1 2 0\n")


class TestConditionalDemo:
    def test_zero_budget_inconclusive(self):
        report = conditional_sat_demo(TWO, sampler_budget=0)
        assert report.status == "inconclusive"
        assert math.isnan(report.success_fraction)

    def test_small_formula_against_quadrature_oracle(self):
        # independent oracle: integrate prior * window over the nonzero
        # region (boxes around satisfying corners); the far region
        # contributes the plain Gaussian window tail
        eps, tau = 0.25, 0.5
        big_m = default_output_scale(TWO)
        gadget = compile_gadget(TWO, eps, big_m)

        def window(f):
            return (_std_normal_tail(big_m - tau - f)
                    - _std_normal_tail(big_m + tau - f))

        n_grid = 61
        good = 0.0
        for a in TWO.satisfying_corners():
            axes = [np.linspace(ai - eps, ai + eps, n_grid) for ai in a]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
            phi = np.exp(-0.5 * np.sum(grid * grid, 1)) / (2 * np.pi) ** 1.5
            cell = (2 * eps / (n_grid - 1)) ** 3
            good += float(np.sum(phi * window(gadget.eval(grid))) * cell)
        bad = float(window(0.0))
        oracle = good / (good + bad)

        report = conditional_sat_demo(TWO, eps=eps, tau=tau,
                                      sampler_budget=200_000,
                                      rng=np.random.default_rng(0))
        assert report.status == "ok"
        assert report.n_sat_corners == 6
        assert report.success_fraction == pytest.approx(oracle, abs=0.05)
        assert report.accept_rate == pytest.approx(good + bad, rel=0.3)

    def test_larger_formula_concentrates(self):
        rng = np.random.default_rng(7)
        formula = random_satisfiable_formula(8, 12, rng)
        report = conditional_sat_demo(formula, sampler_budget=40_000,
                                      rng=np.random.default_rng(1))
        assert report.status == "ok"
        assert report.success_fraction >= 0.99

    def test_unsatisfiable_formula_matches_gaussian_tail(self):
        # all eight sign patterns over three variables: unsatisfiable
        clauses = []
        for bits in range(8):
            clauses.append(tuple(
                (k, 1 if bits >> k & 1 else -1) for k in range(3)))
        formula = CnfFormula(num_vars=3, clauses=tuple(clauses))
        assert len(formula.satisfying_corners()) == 0

        big_m, tau = 2.5, 0.5
        gadget = compile_gadget(formula, 0.25, big_m)
        rng = np.random.default_rng(8)
        assert np.all(gadget.eval(rng.uniform(-2, 2, (20000, 3))) == 0.0)

        report = conditional_sat_demo(formula, big_m=big_m, tau=tau,
                                      sampler_budget=50_000,
                                      rng=np.random.default_rng(2))
        tail = float(_std_normal_tail(big_m - tau) - _std_normal_tail(big_m + tau))
        assert report.accept_rate == pytest.approx(tail, rel=1e-9)
        assert report.success_fraction == 0.0
        assert report.n_sat_corners == 0

    @pytest.mark.parametrize("big_m", [40.0, 60.0])
    def test_success_fraction_is_one_when_all_mass_is_good(self, big_m):
        # at this M the window's tail underflows to 0 off the satisfying
        # boxes, so every draw with mass decodes to a satisfying corner;
        # summing the mass of good draws apart from the mean read
        # 1.0000000000000002 (M = 60, rng 0) and 0.9999999999999996
        for seed in range(6):
            report = conditional_sat_demo(TWO, big_m=big_m, sampler_budget=5000,
                                          rng=np.random.default_rng(seed))
            assert report.status == "ok"
            assert report.success_fraction == 1.0

    def test_default_scale_formula(self):
        assert default_output_scale(TWO) == pytest.approx(
            4.0 * math.sqrt(3 * math.log(2)))
        with pytest.raises(GadgetError):
            default_output_scale(SINGLE)

    def test_too_many_variables_rejected(self):
        rng = np.random.default_rng(9)
        formula = random_satisfiable_formula(13, 5, rng)
        with pytest.raises(GadgetError, match="12"):
            conditional_sat_demo(formula)

    # (formula, demo arguments, then the report at the dense-network
    # commit: status, n_window_draws, n_sat_corners, M, tau, accept_rate,
    # success_fraction)
    PINNED = [
        (TWO, dict(sampler_budget=20_000, rng=3),
         ("ok", 20_000, 6, 5.768107546403532, 0.5,
          1.4306720730666974e-06, 0.9525368249722249)),
        ((8, 12, 7), dict(big_m=3.0, eps=0.2, sampler_budget=30_000, rng=1),
         ("ok", 30_000, 64, 3.0, 0.5,
          0.005977039193235418, 4.92968961269584e-07)),
        ((10, 20, 11), dict(eps=0.1, tau=0.3, sampler_budget=30_000, rng=2),
         ("ok", 30_000, 115, 21.893313220447894, 0.3,
          8.873869188929224e-42, 1.0)),
        ((12, 24, 5), dict(eps=0.3, sampler_budget=30_000, rng=4),
         ("ok", 30_000, 145, 24.701950032878084, 0.5,
          1.3192871200006796e-39, 1.0)),
    ]

    @pytest.mark.parametrize("case", range(len(PINNED)))
    def test_report_pinned(self, case):
        formula, kwargs, expected = self.PINNED[case]
        if isinstance(formula, tuple):
            d, m, seed = formula
            formula = random_satisfiable_formula(d, m, np.random.default_rng(seed))
        kwargs = dict(kwargs, rng=np.random.default_rng(kwargs["rng"]))
        r = conditional_sat_demo(formula, **kwargs)
        assert (r.status, r.n_window_draws, r.n_sat_corners, r.big_m,
                r.tau) == expected[:5]
        assert r.corner_check_exact
        np.testing.assert_allclose([r.accept_rate, r.success_fraction],
                                   expected[5:], rtol=1e-9, atol=0.0)

    def test_corner_check_sees_a_wrong_corner(self, monkeypatch):
        original = SatGadget.eval

        def one_corner_off(self, x):
            out = np.array(original(self, x), dtype=np.float64)
            out.flat[-1] += 1e-6
            return out

        monkeypatch.setattr(SatGadget, "eval", one_corner_off)
        report = conditional_sat_demo(TWO, sampler_budget=0)
        assert not report.corner_check_exact
        assert "corner_check_exact=false" in report.to_text()

    def test_bad_tau_rejected(self):
        for tau in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(GadgetError, match="tau") as info:
                conditional_sat_demo(TWO, tau=tau, sampler_budget=10)
            assert info.value.field == "tau"

    def test_report_text_has_machine_keys(self):
        report = conditional_sat_demo(TWO, sampler_budget=5000,
                                      rng=np.random.default_rng(3))
        text = report.to_text()
        for key in ("status=", "accept_rate=", "success_fraction=",
                    "n_sat_corners=", "M=", "tau=", "corner_check_exact="):
            assert key in text


class TestFormulaValidation:
    def test_variable_out_of_range(self):
        with pytest.raises(GadgetError):
            CnfFormula(num_vars=2, clauses=(((0, 1), (1, 1), (2, 1)),))

    def test_planted_formulas_are_satisfiable(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            f = random_satisfiable_formula(int(rng.integers(3, 12)),
                                           int(rng.integers(2, 20)), rng)
            assert len(f.satisfying_corners()) >= 1
