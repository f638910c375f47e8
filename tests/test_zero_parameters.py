"""CPTs with exact zeros: every route against the enumeration oracle.

At a CPT entry of value 0 the family's mass p(family, e) vanishes whatever
the line's slope, so the slope has to be read as the derivative of p(e) in
the entry; likewise the same-clique n-way read cannot divide a zero
parameter's value out of its table.  Two hand-sized fixtures pin the known
answers, and a seeded corpus of new random draws with about a quarter of
their entries set to zero holds every route to the oracle: one-way methods 1
and 2 against `fit_linear_sf`, method 1 against `all_outputs_one_param` on
every parameter, and both n-way routes against `fit_multilinear`.
"""

import csv
import io
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import (Evidence, QueryRef, all_outputs_one_param, build_junction_tree,
                     general_nway, one_output_all_params_m1, one_output_all_params_m2,
                     relevant_parameters, same_clique_nway)
from bnsense.cli import main
from bnsense.network import enumerate_parameters, network_from_dict
from bnsense.oracle import fit_linear_sf, fit_multilinear, random_network
from tests.conftest import possible_evidence
from tests.oracle_helpers import random_independent_parameters
from tests.test_acceptance import FIXTURE_TOLERANCE, NWAY_TOLERANCE, ONEWAY_TOLERANCE

ZERO_CORPUS_SIZE = 60
ZERO_CORPUS_SEED = 7311
ZERO_SHARE = 0.25

# A -> B with p(A=y) = 0 and evidence B=y.
CHAIN = {"variables": [{"name": "A", "states": ["y", "n"]},
                       {"name": "B", "states": ["y", "n"]}],
         "cpts": [{"variable": "A", "parents": [], "rows": [[0.0, 1.0]]},
                  {"variable": "B", "parents": ["A"], "rows": [[0.9, 0.1], [0.2, 0.8]]}]}
# p(A=y | B=y) in p(A=y): alpha, beta, gamma, delta.
CHAIN_A_Y = (0.9, 0.0, 0.7, 0.2)

# Roots A and B with a common child C, p(A=y) = 0 and evidence C=y.
COLLIDER = {"variables": [{"name": n, "states": ["y", "n"]} for n in "ABC"],
            "cpts": [{"variable": "A", "parents": [], "rows": [[0.0, 1.0]]},
                     {"variable": "B", "parents": [], "rows": [[0.3, 0.7]]},
                     {"variable": "C", "parents": ["A", "B"],
                      "rows": [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8], [0.6, 0.4]]}]}


def _with_zeros(rng, net):
    """The network with about ZERO_SHARE of its entries set to 0, one positive per row."""
    for var in range(net.n_variables):
        table = np.array(net.cpts[var])
        zero = rng.random(table.shape) < ZERO_SHARE
        zero[np.arange(len(table)), rng.integers(table.shape[1], size=len(table))] = False
        table[zero] = 0.0
        net = net.with_cpt(var, table / table.sum(axis=1, keepdims=True))
    return net


@pytest.fixture(scope="module")
def zero_corpus():
    rng = np.random.default_rng(ZERO_CORPUS_SEED)
    cases = []
    for _ in range(ZERO_CORPUS_SIZE):
        net = _with_zeros(rng, random_network(rng))
        ev = possible_evidence(rng, net)
        var = int(rng.integers(net.n_variables))
        cases.append((net, ev, QueryRef(var, int(rng.integers(net.arity(var))))))
    return cases


def _zero_valued(params):
    return sum(1 for ref in params if ref.initial_value == 0.0)


# ---------------------------------------------------------------------------
# fixtures


class TestChainFixture:
    @pytest.mark.parametrize("method", [one_output_all_params_m1,
                                        one_output_all_params_m2])
    def test_every_line_matches_the_oracle(self, method):
        net = network_from_dict(CHAIN)
        ev = Evidence(net).set_hard("B", "y")
        analysis = method(build_junction_tree(net), QueryRef(0, 0), ev)
        assert_allclose(analysis.functions[net.parameter(0, 0, ())].coefficients(),
                        CHAIN_A_Y, atol=FIXTURE_TOLERANCE)
        assert [ref for ref, _ in analysis.skipped] == [net.parameter(0, 1, ())]
        for ref, sf in analysis.functions.items():
            assert_allclose(sf.coefficients(),
                            fit_linear_sf(net, ref, 0, 0, ev).coefficients(),
                            atol=FIXTURE_TOLERANCE)

    def test_cli_both_methods(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(CHAIN))
        rc = main(["sens-out", "--net", str(path), "--evidence", "B=y",
                   "--target", "A=y", "--method", "both"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = {row["parameter"]: row for row in csv.DictReader(io.StringIO(out))}
        got = [float(rows["A:y"][k]) for k in
               ("alpha", "beta", "gamma", "delta", "y_at_x0", "dy_dx_at_x0")]
        assert_allclose(got, CHAIN_A_Y + (0.0, 4.5), atol=FIXTURE_TOLERANCE)


class TestColliderFixture:
    def _case(self):
        net = network_from_dict(COLLIDER)
        params = [net.parameter(0, 0, ()), net.parameter(1, 0, ())]
        ev = Evidence(net).set_hard("C", "y")
        return net, params, ev, fit_multilinear(net, params, ev)

    def test_same_clique_route(self):
        net, params, ev, expected = self._case()
        tree = build_junction_tree(net)
        mf = same_clique_nway(tree, params, ev)
        for mask, coeff in expected.coefficients.items():
            assert mf.coefficients[mask] == pytest.approx(coeff, abs=FIXTURE_TOLERANCE)
        # one propagation with the rows cleared, no replay at the zero
        # parameter; the network comes back
        assert tree.stats.snapshot()[:2] == (1, 1)
        assert tree.net is net

    def test_general_route(self):
        net, params, ev, expected = self._case()
        tree = build_junction_tree(net)
        result = general_nway(tree, params, ev)
        for mask, coeff in expected.coefficients.items():
            assert result.function.coefficients[mask] == pytest.approx(
                coeff, abs=NWAY_TOLERANCE)
        assert tree.net is net


# ---------------------------------------------------------------------------
# the seeded corpus


class TestZeroCorpus:
    def test_corpus_has_zeros(self, zero_corpus):
        zeros = sum(_zero_valued(enumerate_parameters(net)) for net, _, _ in zero_corpus)
        entries = sum(len(enumerate_parameters(net)) for net, _, _ in zero_corpus)
        assert 0.15 * entries < zeros < 0.35 * entries

    def test_oneway_methods_match_the_oracle(self, zero_corpus):
        worst = 0.0
        zero_lines = 0
        for net, ev, query in zero_corpus:
            params = relevant_parameters(net, query, ev)
            m1 = one_output_all_params_m1(build_junction_tree(net), query, ev, params)
            m2 = one_output_all_params_m2(build_junction_tree(net), query, ev, params)
            assert m1.functions.keys() == m2.functions.keys()
            assert m1.skipped == m2.skipped
            for ref, sf in m1.functions.items():
                expected = np.array(fit_linear_sf(
                    net, ref, query.variable, query.state, ev).coefficients())
                for got in (sf, m2.functions[ref]):
                    worst = max(worst, float(np.abs(got.coefficients() - expected).max()))
            zero_lines += _zero_valued(m1.functions)
        assert zero_lines >= 200
        assert worst <= ONEWAY_TOLERANCE

    def test_local_extraction_matches_the_sweep_on_every_parameter(self, zero_corpus):
        worst = 0.0
        for net, ev, query in zero_corpus:
            m1 = one_output_all_params_m1(build_junction_tree(net), query, ev)
            for ref, sf in m1.functions.items():
                # a fresh tree each time, as the CLI builds one per call
                swept = all_outputs_one_param(build_junction_tree(net), ref,
                                              ev).functions[query.variable]
                gap = np.subtract(sf.coefficients(), swept[query.state].coefficients())
                worst = max(worst, float(np.abs(gap).max()))
        assert worst <= ONEWAY_TOLERANCE

    @pytest.mark.parametrize("route", ["same-clique", "general"])
    def test_nway_routes_match_the_oracle(self, zero_corpus, route):
        rng = np.random.default_rng(ZERO_CORPUS_SEED + 1)
        worst = 0.0
        cases = 0
        with_zero = 0
        for net, ev, _ in zero_corpus:
            tree = build_junction_tree(net)
            clique = tree.cliques[int(rng.integers(len(tree.cliques)))]
            hosted = tuple(v for v in clique.members
                           if set(net.family(v)) <= set(clique.members))
            params = random_independent_parameters(
                rng, net, 2 + cases % 2, within_vars=hosted)
            if params is None or any(ref.initial_value >= 1.0 for ref in params):
                continue
            cases += 1
            with_zero += _zero_valued(params) > 0
            if route == "same-clique":
                mf = same_clique_nway(tree, params, ev)
            else:
                mf = general_nway(tree, params, ev).function
            expected = fit_multilinear(net, params, ev)
            for mask, coeff in mf.coefficients.items():
                worst = max(worst, abs(coeff - expected.coefficients[mask]))
        assert cases >= 20 and with_zero >= 10
        assert worst <= NWAY_TOLERANCE
