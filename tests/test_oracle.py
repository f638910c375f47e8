"""Brute-force enumeration oracle: the ground truth everything else is held to.

The frozen numbers in this module were computed from the enumeration
definitions by hand-checkable arithmetic on the two reference chains before
the propagation engine existed; the engine is tested against them, never the
other way around.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import Evidence, enumerate_parameters
from bnsense.nway import check_independent
from bnsense.oracle import (brute_evidence_probability, brute_query, fit_linear_sf,
                            fit_multilinear, random_evidence, random_network)
from tests.oracle_helpers import brute_joint, random_independent_parameters

# Chain A -> B: p(A=yes)=0.2, p(B=yes|A=yes)=0.9, p(B=yes|A=no)=0.3.
# Chain A -> B -> C adds p(C=yes|B=yes)=0.7, p(C=yes|B=no)=0.1.
P_AY_BY = 0.2 * 0.9                      # 0.18
P_BY = 0.2 * 0.9 + 0.8 * 0.3             # 0.42
P_CY = P_BY * 0.7 + (1 - P_BY) * 0.1     # 0.352


class TestEnumeration:
    def test_joint_entry(self, r1):
        assert brute_joint(r1, (0, 0)) == pytest.approx(P_AY_BY, abs=1e-15)

    def test_joint_sums_to_one(self, r2):
        assert brute_evidence_probability(r2, None) == pytest.approx(1.0, abs=1e-12)

    def test_evidence_probability(self, r1, r2):
        assert brute_evidence_probability(
            r1, Evidence(r1).set_hard("B", "yes")) == pytest.approx(P_BY, abs=1e-15)
        assert brute_evidence_probability(
            r2, Evidence(r2).set_hard("C", "yes")) == pytest.approx(P_CY, abs=1e-15)

    def test_query_returns_joint_and_total(self, r1):
        joint, total = brute_query(r1, 0, 0, Evidence(r1).set_hard("B", "yes"))
        assert joint == pytest.approx(0.18, abs=1e-15)
        assert total == pytest.approx(0.42, abs=1e-15)


class TestLinearFits:
    def test_numerator_through_known_points(self, r2):
        # p(A=yes, C=yes) as a function of x = p(B=yes|A=yes):
        # 0.2*(0.1 + 0.6x), so the endpoints are 0.02 and 0.14.
        ref = r2.parameter(1, 0, (0,))
        sf = fit_linear_sf(r2, ref, 0, 0, Evidence(r2).set_hard("C", "yes"))
        assert sf.numerator.at(0.0) == pytest.approx(0.02, abs=1e-12)
        assert sf.numerator.at(1.0) == pytest.approx(0.14, abs=1e-12)
        alpha, beta, gamma, delta = sf.coefficients()
        assert_allclose([alpha, beta, gamma, delta], [0.12, 0.02, 0.12, 0.244],
                        atol=1e-12)

    def test_prior_parameter_fit(self, r1):
        # p(A=yes | B=yes) in x = p(A=yes): numerator 0.9x, denominator 0.6x+0.3.
        sf = fit_linear_sf(r1, r1.parameter(0, 0, ()), 0, 0,
                           Evidence(r1).set_hard("B", "yes"))
        assert_allclose(sf.coefficients(), (0.9, 0.0, 0.6, 0.3), atol=1e-12)

    def test_two_way_grid_fit(self, r2):
        params = [r2.parameter(0, 0, ()), r2.parameter(2, 0, (0,))]
        mf = fit_multilinear(r2, params, Evidence(r2).set_hard("C", "yes"))
        assert_allclose([mf.coefficients[m] for m in (0, 1, 2, 3)],
                        [0.07, -0.06, 0.3, 0.6], atol=1e-12)

    def test_two_way_same_variable_rows(self, r1):
        params = [r1.parameter(1, 0, (0,)), r1.parameter(1, 0, (1,))]
        mf = fit_multilinear(r1, params, Evidence(r1).set_hard("B", "yes"))
        assert_allclose([mf.coefficients[m] for m in (0, 1, 2, 3)],
                        [0.0, 0.2, 0.8, 0.0], atol=1e-12)


class TestRandomCases:
    def test_random_network_is_valid_and_connected(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = random_network(rng)
            assert 3 <= net.n_variables <= 8
            for v in range(net.n_variables):
                assert net.arity(v) <= 3
                assert len(net.parents[v]) <= 3
                assert_allclose(net.cpts[v].sum(axis=-1), 1.0, atol=1e-9)
                if v > 0:
                    assert len(net.parents[v]) >= 1

    def test_random_network_deterministic_given_seed(self):
        a = random_network(np.random.default_rng(5))
        b = random_network(np.random.default_rng(5))
        assert a.n_variables == b.n_variables
        for v in range(a.n_variables):
            assert_allclose(a.cpts[v], b.cpts[v])

    def test_random_evidence_is_well_formed(self):
        rng = np.random.default_rng(12)
        net = random_network(rng)
        for _ in range(20):
            ev = random_evidence(rng, net)
            for var, vec in ev.items():
                assert vec.shape == (net.arity(var),)
                assert np.all(vec >= 0) and np.any(vec > 0)

    def test_random_independent_parameters_are_independent(self):
        rng = np.random.default_rng(13)
        hits = 0
        for _ in range(20):
            net = random_network(rng, n_vars=6)
            params = random_independent_parameters(rng, net, 3)
            if params is None:
                continue
            hits += 1
            assert check_independent(net, params)
            assert len({(p.variable, p.parent_config) for p in params}) == 3
        assert hits >= 10

    def test_parameter_enumeration_matches_cpt_size(self):
        rng = np.random.default_rng(14)
        net = random_network(rng)
        expected = sum(net.cpts[v].size for v in range(net.n_variables))
        assert len(enumerate_parameters(net)) == expected
