"""Message passing: full propagation, marginals, finding retraction, counters."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import (BnsenseError, Evidence, ImpossibleEvidenceError, QueryRef,
                     all_outputs_one_param, build_junction_tree, evidence_probability,
                     general_nway, load_network, marginal, one_output_all_params_m1,
                     one_output_all_params_m2, propagate_full, retract_finding)
from bnsense.network import enumerate_parameters
from bnsense.oracle import (brute_evidence_probability, brute_query, fit_linear_sf,
                            fit_multilinear, random_network)
from tests.conftest import possible_evidence
from tests.oracle_helpers import random_independent_parameters

P_BY = 0.42
P_CY = 0.352


def assert_retraction_matches_fresh(net, ev):
    """Retracting each finding leaves the tree a fresh propagation would give."""
    for var in ev.variables():
        tree = build_junction_tree(net)
        propagate_full(tree, ev)
        retract_finding(tree, var)
        fresh = build_junction_tree(net)
        propagate_full(fresh, ev.copy().remove(var))
        assert evidence_probability(tree) == pytest.approx(
            evidence_probability(fresh), abs=1e-9)
        for v in range(net.n_variables):
            assert_allclose(marginal(tree, v), marginal(fresh, v), atol=1e-9)


class TestFullPropagation:
    def test_no_evidence_mass_is_one(self, r2):
        tree = build_junction_tree(r2)
        assert propagate_full(tree) == pytest.approx(1.0, abs=1e-12)

    def test_evidence_probability(self, r1, r2):
        tree = build_junction_tree(r1)
        assert propagate_full(tree, Evidence(r1).set_hard("B", "yes")) \
            == pytest.approx(P_BY, abs=1e-12)
        tree = build_junction_tree(r2)
        assert propagate_full(tree, Evidence(r2).set_hard("C", "yes")) \
            == pytest.approx(P_CY, abs=1e-12)

    def test_clique_potentials_carry_joint_with_evidence(self, r2):
        tree = build_junction_tree(r2)
        propagate_full(tree, Evidence(r2).set_hard("C", "yes"))
        ab = tree.clique_potential(0)
        assert ab.value({0: 0, 1: 0}) == pytest.approx(0.126, abs=1e-12)
        assert ab.total() == pytest.approx(P_CY, abs=1e-12)
        bc = tree.clique_potential(1)
        assert bc.value({1: 0, 2: 0}) == pytest.approx(0.294, abs=1e-12)
        assert bc.total() == pytest.approx(P_CY, abs=1e-12)

    def test_sepset_agrees_with_both_cliques(self, r2):
        tree = build_junction_tree(r2)
        propagate_full(tree, Evidence(r2).set_hard("C", "yes"))
        sep = tree.sepset_potential(0)
        assert_allclose(sep.table,
                        tree.clique_potential(0).marginalize((1,)).table, atol=1e-12)
        assert_allclose(sep.table,
                        tree.clique_potential(1).marginalize((1,)).table, atol=1e-12)

    def test_marginals(self, r1, r2):
        tree = build_junction_tree(r1)
        propagate_full(tree, Evidence(r1).set_hard("B", "yes"))
        assert_allclose(marginal(tree, 0), [0.18, 0.24], atol=1e-12)
        tree = build_junction_tree(r2)
        propagate_full(tree, Evidence(r2).set_hard("C", "yes"))
        assert_allclose(marginal(tree, 0), [0.128, 0.224], atol=1e-12)

    def test_negative_finding_on_binary_equals_hard(self, r2):
        hard = build_junction_tree(r2)
        propagate_full(hard, Evidence(r2).set_hard("C", "yes"))
        negative = build_junction_tree(r2)
        propagate_full(negative, Evidence(r2).set_negative("C", "no"))
        assert_allclose(marginal(hard, 0), marginal(negative, 0), atol=1e-12)

    def test_likelihood_finding_scales_states(self, r1):
        tree = build_junction_tree(r1)
        pe = propagate_full(tree, Evidence(r1).set_likelihood("B", [0.5, 0.25]))
        # p(B=yes)*0.5 + p(B=no)*0.25
        assert pe == pytest.approx(0.42 * 0.5 + 0.58 * 0.25, abs=1e-12)

    def test_impossible_evidence_raises(self, r1):
        doc = {"variables": [{"name": "A", "states": ["y", "n"]},
                             {"name": "B", "states": ["y", "n"]}],
               "cpts": [{"variable": "A", "parents": [], "rows": [[1.0, 0.0]]},
                        {"variable": "B", "parents": ["A"],
                         "rows": [[1.0, 0.0], [0.5, 0.5]]}]}
        net = load_network(doc)
        tree = build_junction_tree(net)
        with pytest.raises(ImpossibleEvidenceError):
            propagate_full(tree, Evidence(net).set_hard("B", "n"))

    def test_marginals_match_enumeration_on_random_corpus(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            net = random_network(rng)
            ev = possible_evidence(rng, net)
            tree = build_junction_tree(net)
            propagate_full(tree, ev)
            for var in range(net.n_variables):
                expected = np.array([brute_query(net, var, s, ev)[0]
                                     for s in range(net.arity(var))])
                assert_allclose(marginal(tree, var), expected, atol=1e-9)


class TestDisconnectedNetworks:
    NET = {"variables": [{"name": "A", "states": ["y", "n"]},
                         {"name": "B", "states": ["y", "n"]}],
           "cpts": [{"variable": "A", "parents": [], "rows": [[0.2, 0.8]]},
                    {"variable": "B", "parents": [], "rows": [[0.6, 0.4]]}]}

    def test_mass_is_product_of_components(self):
        net = load_network(self.NET)
        tree = build_junction_tree(net)
        ev = Evidence(net).set_hard("A", "y").set_likelihood("B", [0.5, 0.25])
        pe = propagate_full(tree, ev)
        assert pe == pytest.approx(0.2 * (0.6 * 0.5 + 0.4 * 0.25), abs=1e-12)
        assert evidence_probability(tree) == pytest.approx(pe, abs=1e-15)

    def test_marginal_scaled_by_other_components(self):
        net = load_network(self.NET)
        tree = build_junction_tree(net)
        propagate_full(tree, Evidence(net).set_hard("A", "y"))
        # p(B, e) = p(B) * p(A=y)
        assert_allclose(marginal(tree, 1), [0.6 * 0.2, 0.4 * 0.2], atol=1e-12)

    def test_parts_joined_by_an_empty_sepset(self):
        net = load_network(self.NET)
        tree = build_junction_tree(net)
        assert tree.to_dict() == {
            "cliques": [
                {"id": 0, "members": ["A"], "families": ["A"]},
                {"id": 1, "members": ["B"], "families": ["B"]},
            ],
            "sepsets": [{"cliques": [0, 1], "members": []}],
            "edges": [[0, 1]],
        }
        propagate_full(tree, Evidence(net).set_hard("B", "n"))
        inward, outward, messages = tree.stats.snapshot()
        assert (inward, outward) == (1, 1)
        assert messages == 2 * len(tree.sepsets)

    @staticmethod
    def _disconnected_draws(seed: int, count: int):
        """Seeded disconnected random networks with possible evidence, plus how
        many of them compiled to a tree with at least one empty sepset."""
        rng = np.random.default_rng(seed)
        draws, joined = [], 0
        for _ in range(count):
            net = random_network(rng, connected=False)
            draws.append((net, possible_evidence(rng, net)))
            joined += any(not s.members for s in build_junction_tree(net).sepsets)
        return rng, draws, joined

    def test_random_draws_match_oracle(self):
        rng, draws, joined = self._disconnected_draws(33, 20)
        assert joined >= 5
        for net, ev in draws:
            tree = build_junction_tree(net)
            assert propagate_full(tree, ev) == pytest.approx(
                brute_evidence_probability(net, ev), abs=1e-9)
            for var in range(net.n_variables):
                expected = [brute_query(net, var, s, ev)[0] for s in range(net.arity(var))]
                assert_allclose(marginal(tree, var), expected, atol=1e-9)

            var = int(rng.integers(net.n_variables))
            query = QueryRef(var, int(rng.integers(net.arity(var))))
            params = enumerate_parameters(net)
            for analyze in (one_output_all_params_m1, one_output_all_params_m2):
                analysis = analyze(build_junction_tree(net), query, ev, params)
                assert len(analysis.functions) == len(params)
                for ref, sf in analysis.functions.items():
                    expected = fit_linear_sf(net, ref, query.variable, query.state, ev)
                    assert_allclose(sf.coefficients(), expected.coefficients(), atol=1e-9)

            ref = params[int(rng.integers(len(params)))]
            sweep = all_outputs_one_param(build_junction_tree(net), ref, ev)
            for target, functions in sweep.functions.items():
                for state, sf in enumerate(functions):
                    expected = fit_linear_sf(net, ref, target, state, ev)
                    assert_allclose(sf.coefficients(), expected.coefficients(), atol=1e-9)

            refs = random_independent_parameters(rng, net, 2)
            if refs is not None:
                got = general_nway(build_junction_tree(net), refs, ev).function.coefficients
                want = fit_multilinear(net, refs, ev).coefficients
                assert_allclose([got[m] for m in range(4)], [want[m] for m in range(4)],
                                atol=1e-9)

    def test_retraction_matches_fresh_propagation(self):
        _, draws, joined = self._disconnected_draws(34, 20)
        assert joined >= 5
        for net, ev in draws:
            assert_retraction_matches_fresh(net, ev)


class TestRetraction:
    def test_matches_fresh_propagation(self):
        rng = np.random.default_rng(32)
        cases = 0
        while cases < 15:
            net = random_network(rng)
            ev = possible_evidence(rng, net)
            if len(ev) < 2:
                continue
            cases += 1
            assert_retraction_matches_fresh(net, ev)

    def test_costs_one_outward_pass(self, r2):
        tree = build_junction_tree(r2)
        ev = Evidence(r2).set_hard("B", "yes").set_hard("C", "yes")
        propagate_full(tree, ev)
        before = tree.stats.snapshot()
        retract_finding(tree, r2.variable_id("C"))
        after = tree.stats.snapshot()
        assert after[0] == before[0]          # no new inward pass
        assert after[1] == before[1] + 1      # exactly one outward pass
        assert evidence_probability(tree) == pytest.approx(P_BY, abs=1e-12)

    def test_unknown_finding_rejected(self, r2):
        tree = build_junction_tree(r2)
        propagate_full(tree, Evidence(r2).set_hard("C", "yes"))
        with pytest.raises(BnsenseError):
            retract_finding(tree, r2.variable_id("A"))


class TestCounters:
    def test_full_propagation_counts(self, r2):
        tree = build_junction_tree(r2)
        propagate_full(tree, Evidence(r2).set_hard("C", "yes"))
        inward, outward, messages = tree.stats.snapshot()
        assert (inward, outward) == (1, 1)
        assert messages == 2 * len(tree.sepsets)

    def test_counts_accumulate_across_runs(self, r2):
        tree = build_junction_tree(r2)
        propagate_full(tree)
        propagate_full(tree, Evidence(r2).set_hard("C", "yes"))
        assert tree.stats.snapshot()[:2] == (2, 2)
