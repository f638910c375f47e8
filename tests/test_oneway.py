"""One-way sensitivity: local extraction, two-point fitting, one-parameter sweeps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import (DegenerateParameterError, Evidence, QueryRef, all_outputs_one_param,
                     build_junction_tree, derivative, evaluate, load_network,
                     one_output_all_params_m1, one_output_all_params_m2,
                     relevant_parameters)
from bnsense.network import enumerate_parameters
from bnsense.oracle import fit_linear_sf, random_network
from tests.conftest import possible_evidence

FIXTURE_TOLERANCE = 1e-12
AGREEMENT_TOLERANCE = 1e-9

# p(A=yes | B=yes) on the two-node fixture, one line pair per CPT entry.
R1_COEFFS = {
    (0, 0, ()): (0.9, 0.0, 0.6, 0.3),
    (0, 1, ()): (-0.9, 0.9, -0.6, 0.9),
    (1, 0, (0,)): (0.2, 0.0, 0.2, 0.24),
    (1, 1, (0,)): (-0.2, 0.2, -0.2, 0.44),
    (1, 0, (1,)): (0.0, 0.18, 0.8, 0.18),
    (1, 1, (1,)): (0.0, 0.18, -0.8, 0.98),
}
# p(A=yes | C=yes) on the chain fixture as a function of p(B=yes | A=yes).
R2_COEFFS = (0.12, 0.02, 0.12, 0.244)


def _analyze(method, net, query, evidence):
    tree = build_junction_tree(net)
    return tree, method(tree, query, evidence)


class TestOneOutputAllParams:
    @pytest.mark.parametrize("method", [one_output_all_params_m1,
                                        one_output_all_params_m2])
    def test_r1_fixture_coefficients(self, r1, method):
        _, analysis = _analyze(method, r1, QueryRef(0, 0),
                               Evidence(r1).set_hard("B", "yes"))
        assert len(analysis.functions) == 6
        for (var, state, config), expected in R1_COEFFS.items():
            sf = analysis.functions[r1.parameter(var, state, config)]
            assert_allclose(sf.coefficients(), expected, atol=FIXTURE_TOLERANCE)

    @pytest.mark.parametrize("method", [one_output_all_params_m1,
                                        one_output_all_params_m2])
    def test_r2_fixture_coefficients(self, r2, method):
        _, analysis = _analyze(method, r2, QueryRef(0, 0),
                               Evidence(r2).set_hard("C", "yes"))
        sf = analysis.functions[r2.parameter(1, 0, (0,))]
        assert_allclose(sf.coefficients(), R2_COEFFS, atol=FIXTURE_TOLERANCE)

    @pytest.mark.parametrize("method", [one_output_all_params_m1,
                                        one_output_all_params_m2])
    def test_costs_one_inward_two_outward(self, r2, method):
        tree, _ = _analyze(method, r2, QueryRef(0, 0),
                           Evidence(r2).set_hard("C", "yes"))
        assert tree.stats.snapshot()[:2] == (1, 2)

    def test_value_and_derivative_at_current_value(self, r1):
        _, analysis = _analyze(one_output_all_params_m1, r1, QueryRef(0, 0),
                               Evidence(r1).set_hard("B", "yes"))
        sf = analysis.functions[r1.parameter(1, 0, (0,))]
        assert evaluate(sf, 0.9) == pytest.approx(0.18 / 0.42, abs=1e-12)
        assert derivative(sf, 0.9) == pytest.approx(0.048 / 0.1764, abs=1e-12)

    def test_degenerate_parameter_reported_not_dropped(self):
        net = load_network({
            "variables": [{"name": "A", "states": ["y", "n"]},
                          {"name": "B", "states": ["y", "n"]}],
            "cpts": [{"variable": "A", "parents": [], "rows": [[1.0, 0.0]]},
                     {"variable": "B", "parents": ["A"],
                      "rows": [[0.6, 0.4], [0.5, 0.5]]}]})
        _, analysis = _analyze(one_output_all_params_m1, net, QueryRef(1, 0), None)
        skipped = {ref for ref, _ in analysis.skipped}
        assert skipped == {net.parameter(0, 0, ())}
        assert "value is 1" in analysis.skipped[0][1]
        assert net.parameter(0, 1, ()) in analysis.functions


    @pytest.mark.parametrize("method", [one_output_all_params_m1, one_output_all_params_m2])
    def test_functions_match_the_coefficient_rows(self, method):
        rng = np.random.default_rng(31)
        for _ in range(5):
            net = random_network(rng)
            query = QueryRef(int(rng.integers(net.n_variables)), 0)
            _, analysis = _analyze(method, net, query, possible_evidence(rng, net))
            assert len(analysis.refs) == len(analysis.coefficients) == len(analysis.x0)
            assert list(analysis.functions) == analysis.refs
            for ref, row, x0 in zip(analysis.refs, analysis.coefficients, analysis.x0):
                assert analysis.functions[ref].coefficients() == tuple(row.tolist())
                assert x0 == net.parameter_value(ref)


class TestAllOutputsOneParam:
    def test_r2_matches_per_output_analysis(self, r2):
        tree = build_junction_tree(r2)
        sweep = all_outputs_one_param(tree, r2.parameter(1, 0, (0,)),
                                      Evidence(r2).set_hard("C", "yes"))
        assert_allclose(sweep.functions[0][0].coefficients(), R2_COEFFS,
                        atol=FIXTURE_TOLERANCE)
        assert tree.stats.snapshot()[:2] == (1, 2)

    def test_parameter_at_value_one_is_degenerate(self):
        net = load_network({
            "variables": [{"name": "A", "states": ["y", "n"]}],
            "cpts": [{"variable": "A", "parents": [], "rows": [[1.0, 0.0]]}]})
        with pytest.raises(DegenerateParameterError, match="value is 1"):
            all_outputs_one_param(build_junction_tree(net), net.parameter(0, 0, ()))

    def test_no_evidence_denominator_is_unit(self, r1):
        tree = build_junction_tree(r1)
        sweep = all_outputs_one_param(tree, r1.parameter(1, 0, (0,)))
        assert_allclose(sweep.functions[1][0].coefficients(), (0.2, 0.24, 0.0, 1.0),
                        atol=FIXTURE_TOLERANCE)

    def test_denominator_shared_by_every_function(self, r2):
        tree = build_junction_tree(r2)
        sweep = all_outputs_one_param(tree, r2.parameter(1, 0, (0,)),
                                      Evidence(r2).set_hard("C", "yes"))
        for per_state in sweep.functions.values():
            for sf in per_state:
                assert sf.denominator == sweep.denominator

    def test_states_of_each_target_sum_to_denominator(self, r2):
        tree = build_junction_tree(r2)
        sweep = all_outputs_one_param(tree, r2.parameter(1, 0, (0,)),
                                      Evidence(r2).set_hard("C", "yes"))
        for per_state in sweep.functions.values():
            slope = sum(sf.numerator.slope for sf in per_state)
            intercept = sum(sf.numerator.intercept for sf in per_state)
            assert slope == pytest.approx(sweep.denominator.slope, abs=1e-12)
            assert intercept == pytest.approx(sweep.denominator.intercept, abs=1e-12)


class TestRelevance:
    def test_fixture_counts(self, r1, r2):
        assert len(relevant_parameters(r1, QueryRef(0, 0))) == 2
        assert len(relevant_parameters(
            r1, QueryRef(0, 0), Evidence(r1).set_hard("B", "yes"))) == 6
        assert len(relevant_parameters(r2, QueryRef(2, 0))) == 10

    def test_never_empty_and_sound(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            net = random_network(rng)
            ev = possible_evidence(rng, net)
            query = QueryRef(int(rng.integers(net.n_variables)), 0)
            kept = relevant_parameters(net, query, ev)
            assert kept, "the query's own parameters are always candidates"
            assert any(ref.variable == query.variable for ref in kept)

    def test_excluded_parameters_leave_the_posterior_flat(self, r2):
        # Unobserved descendants of the target are barren: C's entries go.
        kept = set(relevant_parameters(r2, QueryRef(1, 0)))
        excluded = [r for r in enumerate_parameters(r2) if r not in kept]
        assert {r.variable for r in excluded} == {2}
        for ref in excluded:
            sf = fit_linear_sf(r2, ref, 1, 0)
            y0 = evaluate(sf, 0.25)
            assert evaluate(sf, 0.75) == pytest.approx(y0, abs=1e-12)


class TestAgreementWithEnumeration:
    def test_both_methods_match_oracle_on_random_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            net = random_network(rng)
            ev = possible_evidence(rng, net)
            var = int(rng.integers(net.n_variables))
            query = QueryRef(var, int(rng.integers(net.arity(var))))
            params = relevant_parameters(net, query, ev)
            _, m1 = _analyze(one_output_all_params_m1, net, query, ev)
            _, m2 = _analyze(one_output_all_params_m2, net, query, ev)
            rng.shuffle(params)
            for ref in params[:12]:
                expected = fit_linear_sf(net, ref, query.variable, query.state, ev)
                assert_allclose(m1.functions[ref].coefficients(),
                                expected.coefficients(), atol=AGREEMENT_TOLERANCE)
                assert_allclose(m2.functions[ref].coefficients(),
                                expected.coefficients(), atol=AGREEMENT_TOLERANCE)

    def test_sweep_matches_oracle_on_random_corpus(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            net = random_network(rng)
            ev = possible_evidence(rng, net)
            refs = enumerate_parameters(net)
            ref = refs[int(rng.integers(len(refs)))]
            if net.parameter_value(ref) >= 1.0:
                continue
            tree = build_junction_tree(net)
            sweep = all_outputs_one_param(tree, ref, ev)
            for var in range(net.n_variables):
                for state in range(net.arity(var)):
                    expected = fit_linear_sf(net, ref, var, state, ev)
                    got = sweep.functions[var][state]
                    for x in (0.2, 0.55, 0.85):
                        assert evaluate(got, x) == pytest.approx(
                            evaluate(expected, x), abs=AGREEMENT_TOLERANCE)
