"""Joint sensitivity in several parameters: screening, extraction, solving."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import (CliqueMembershipError, DegenerateParameterError,
                     DependentParametersError, Evidence, ImpossibleEvidenceError,
                     RankDeficiencyError, build_junction_tree, check_independent,
                     evaluate_multilinear, extra_propagation_budget, general_nway,
                     load_network, same_clique_nway)
from bnsense import nway
from bnsense.cli import main
from bnsense.network import apply_parameter
from bnsense.nway import _eliminate
from bnsense.oracle import brute_evidence_probability, fit_multilinear, random_network
from bnsense.propagation import collect, distribute, propagate_full
from tests.conftest import possible_evidence
from tests.oracle_helpers import random_independent_parameters
from tests.test_acceptance import NWAY_TOLERANCE

FIXTURE_TOLERANCE = 1e-12
AGREEMENT_TOLERANCE = 1e-9


class TestIndependenceScreening:
    def test_same_row_is_dependent(self, r1):
        assert not check_independent(
            r1, [r1.parameter(1, 0, (0,)), r1.parameter(1, 1, (0,))])

    def test_parent_child_is_dependent(self, r1):
        assert not check_independent(
            r1, [r1.parameter(0, 0, ()), r1.parameter(1, 0, (0,))])

    def test_distinct_rows_of_one_variable_are_independent(self, r1):
        assert check_independent(
            r1, [r1.parameter(1, 0, (0,)), r1.parameter(1, 0, (1,))])

    def test_nonadjacent_variables_are_independent(self, r2):
        assert check_independent(
            r2, [r2.parameter(0, 0, ()), r2.parameter(2, 0, (0,))])

    def test_dependent_set_is_rejected_by_both_routes(self, r1, r2):
        bad = [r1.parameter(0, 0, ()), r1.parameter(1, 0, (0,))]
        with pytest.raises(DependentParametersError):
            same_clique_nway(build_junction_tree(r1), bad)
        with pytest.raises(DependentParametersError):
            general_nway(build_junction_tree(r1), bad)

    def test_value_one_parameter_is_rejected(self):
        net = load_network({
            "variables": [{"name": "A", "states": ["y", "n"]},
                          {"name": "B", "states": ["y", "n"]}],
            "cpts": [{"variable": "A", "parents": [], "rows": [[1.0, 0.0]]},
                     {"variable": "B", "parents": [],
                      "rows": [[0.6, 0.4]]}]})
        params = [net.parameter(0, 0, ()), net.parameter(1, 0, ())]
        with pytest.raises(DegenerateParameterError):
            general_nway(build_junction_tree(net), params)


class TestSameCliqueRoute:
    def test_two_rows_of_one_cpt(self, r1):
        tree = build_junction_tree(r1)
        params = [r1.parameter(1, 0, (0,)), r1.parameter(1, 0, (1,))]
        mf = same_clique_nway(tree, params, Evidence(r1).set_hard("B", "yes"))
        assert_allclose([mf.coefficients[m] for m in (0, 1, 2, 3)],
                        [0.0, 0.2, 0.8, 0.0], atol=FIXTURE_TOLERANCE)
        assert tree.stats.snapshot()[:2] == (1, 1)

    def test_families_spanning_cliques_rejected(self, r2):
        tree = build_junction_tree(r2)
        params = [r2.parameter(0, 0, ()), r2.parameter(2, 0, (0,))]
        with pytest.raises(CliqueMembershipError):
            same_clique_nway(tree, params)

    def test_matches_grid_fit_on_random_corpus(self):
        rng = np.random.default_rng(51)
        cases = 0
        while cases < 30:
            net = random_network(rng)
            tree = build_junction_tree(net)
            clique = tree.cliques[int(rng.integers(len(tree.cliques)))]
            hosted = tuple(v for v in clique.members
                           if set(net.family(v)) <= set(clique.members))
            n = int(rng.integers(2, 4))
            params = random_independent_parameters(rng, net, n, within_vars=hosted)
            if params is None:
                continue
            cases += 1
            ev = possible_evidence(rng, net)
            mf = same_clique_nway(tree, params, ev)
            expected = fit_multilinear(net, params, ev)
            for mask in range(1 << n):
                assert mf.coefficients[mask] == pytest.approx(
                    expected.coefficients[mask], abs=AGREEMENT_TOLERANCE)

    def test_a_cpt_assigned_outside_the_home_clique(self):
        """A cleared row reaches the home clique through a message; with the
        parameter at 0 the read is the same single propagation."""
        rng = np.random.default_rng(20)
        outside = []
        while not outside:
            net = random_network(rng)
            tree = build_junction_tree(net)
            clique = tree.cliques[int(rng.integers(len(tree.cliques)))]
            hosted = tuple(v for v in clique.members
                           if set(net.family(v)) <= set(clique.members))
            params = random_independent_parameters(rng, net, 2, within_vars=hosted)
            if params is None:
                continue
            needed = tuple(sorted({v for ref in params for v in net.family(ref.variable)}))
            home = tree.clique_containing(needed)
            outside = [ref for ref in params if tree.family_clique[ref.variable] != home]
        zeroed = apply_parameter(net, outside[0], 0.0)
        assert zeroed.parameter_value(outside[0]) == 0.0
        ev = Evidence(zeroed)
        while not ev.variables():
            ev = possible_evidence(rng, zeroed)
        for case in (net, zeroed):
            refs = [case.parameter(ref.variable, ref.state, ref.parent_config)
                    for ref in params]
            tree = build_junction_tree(case)
            mf = same_clique_nway(tree, refs, ev)
            assert tree.stats.snapshot()[:2] == (1, 1)
            assert tree.net is case
            expected = fit_multilinear(case, refs, ev)
            for mask in range(4):
                assert mf.coefficients[mask] == pytest.approx(
                    expected.coefficients[mask], abs=AGREEMENT_TOLERANCE)

    def test_evidence_impossible_only_through_the_parameter_rows(self, capsys, tmp_path):
        """p(B=yes) = 0 at the operating point, but not with the rows cleared."""
        doc = {"variables": [{"name": n, "states": ["yes", "no"]} for n in "AB"],
               "cpts": [{"variable": "A", "parents": [], "rows": [[0.3, 0.7]]},
                        {"variable": "B", "parents": ["A"], "rows": [[0.0, 1.0], [0.0, 1.0]]}]}
        net = load_network(doc)
        params = [net.parameter(1, 0, (0,)), net.parameter(1, 0, (1,))]
        ev = Evidence(net).set_hard("B", "yes")
        expected = fit_multilinear(net, params, ev)
        assert [expected.coefficients[m] for m in range(4)] == pytest.approx(
            [0.0, 0.3, 0.7, 0.0], abs=AGREEMENT_TOLERANCE)
        tree = build_junction_tree(net)
        with pytest.raises(ImpossibleEvidenceError):
            same_clique_nway(tree, params, ev)
        assert tree.stats.snapshot()[:2] == (1, 1)
        assert tree.net is net

        path = tmp_path / "never_yes.json"
        path.write_text(json.dumps(doc))
        rc = main(["sens-n", "--net", str(path), "--evidence", "B=yes",
                   "--params", "B|A=yes:yes,B|A=no:yes"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (3, "")
        assert captured.err == "impossible evidence: the entered evidence has probability zero\n"


class TestGeneralRoute:
    def test_two_way_fixture(self, r2):
        params = [r2.parameter(0, 0, ()), r2.parameter(2, 0, (0,))]
        result = general_nway(build_junction_tree(r2), params,
                              Evidence(r2).set_hard("C", "yes"))
        assert_allclose([result.function.coefficients[m] for m in (0, 1, 2, 3)],
                        [0.07, -0.06, 0.3, 0.6], atol=FIXTURE_TOLERANCE)
        assert evaluate_multilinear(result.function, (0.2, 0.7)) == pytest.approx(
            0.352, abs=FIXTURE_TOLERANCE)

    def test_two_way_costs_one_extra_setting(self, r2):
        # One setting contributes value + slope + intercept rows of rank at
        # most n+1 = 3, so the 4-coefficient system needs a second setting;
        # the a-priori budget counts raw equations and allocates none.
        params = [r2.parameter(0, 0, ()), r2.parameter(2, 0, (0,))]
        result = general_nway(build_junction_tree(r2), params,
                              Evidence(r2).set_hard("C", "yes"))
        assert result.budget == extra_propagation_budget(2, 1) == 0
        assert result.extra_propagations == 1
        assert result.stats[0] == 2  # one propagation per setting

    def test_single_parameter_reduces_to_line(self, r2):
        ref = r2.parameter(1, 0, (0,))
        result = general_nway(build_junction_tree(r2), [ref],
                              Evidence(r2).set_hard("C", "yes"))
        expected = fit_multilinear(r2, [ref], Evidence(r2).set_hard("C", "yes"))
        for mask in (0, 1):
            assert result.function.coefficients[mask] == pytest.approx(
                expected.coefficients[mask], abs=FIXTURE_TOLERANCE)

    def test_matches_grid_fit_on_random_corpus(self):
        rng = np.random.default_rng(52)
        cases = 0
        while cases < 25:
            net = random_network(rng)
            n = int(rng.integers(2, 4))
            params = random_independent_parameters(rng, net, n)
            if params is None:
                continue
            cases += 1
            ev = possible_evidence(rng, net)
            result = general_nway(build_junction_tree(net), params, ev)
            expected = fit_multilinear(net, params, ev)
            for mask in range(1 << n):
                assert result.function.coefficients[mask] == pytest.approx(
                    expected.coefficients[mask], abs=AGREEMENT_TOLERANCE)

    @pytest.mark.parametrize("connected", [True, False])
    def test_replay_matches_full_propagation(self, connected, monkeypatch):
        """Extra settings re-send only the messages the co-varied rows reach.

        The coefficients agree with the oracle and with the same solver run
        on full propagations.  Each extra setting sends, inward, the edges
        whose two sides both hold a parameter's family clique (the subtree
        joining them) and, outward, the edges on the paths from the lowest
        family clique to the cliques the line reads use: the parameters'
        family cliques.
        """
        rng = np.random.default_rng(54 if connected else 55)
        cases = 0
        while cases < 15:
            net = random_network(rng, n_vars=int(rng.integers(4, 12)), connected=connected)
            params = random_independent_parameters(rng, net, int(rng.integers(2, 4)))
            if params is None:
                continue
            tree = build_junction_tree(net)
            homes = {tree.family_clique[ref.variable] for ref in params}
            if len(homes) < 2:
                continue
            cases += 1
            ev = possible_evidence(rng, net)
            result = general_nway(tree, params, ev)
            assert tree.net is net
            assert propagate_full(tree, ev) == pytest.approx(
                brute_evidence_probability(net, ev), abs=1e-12)

            expected = fit_multilinear(net, params, ev)
            for mask in range(1 << len(params)):
                assert result.function.coefficients[mask] == pytest.approx(
                    expected.coefficients[mask], abs=AGREEMENT_TOLERANCE)

            with monkeypatch.context() as m:
                m.setattr(nway, "replay",
                          lambda t, changed, reads: (collect(t), distribute(t)))
                full = general_nway(build_junction_tree(net), params, ev)
            assert full.extra_propagations == result.extra_propagations >= 1
            assert_allclose([result.function.coefficients[k] for k in range(1 << len(params))],
                            [full.function.coefficients[k] for k in range(1 << len(params))],
                            rtol=0, atol=FIXTURE_TOLERANCE)

            edges = len(tree.sepsets)
            joining = sum(1 for sep in tree.sepsets if all(
                homes & _side(tree, sep.cliques[k], sep.cliques[1 - k]) for k in (0, 1)))
            root = min(homes)
            directed = 0
            for sep in tree.sepsets:
                a, b = sep.cliques
                near = _side(tree, a, b)
                far = _side(tree, b, a) if root in near else near
                directed += bool(far & homes)
            extra = result.extra_propagations
            assert joining >= 1
            assert result.stats == (1 + extra, 1 + extra,
                                    edges + directed + extra * (joining + directed))

    def test_lower_order_input_shrinks_the_budget(self):
        rng = np.random.default_rng(53)
        while True:
            net = random_network(rng, n_vars=6)
            params = random_independent_parameters(rng, net, 3)
            if params is not None:
                break
        ev = possible_evidence(rng, net)
        pairs = [fit_multilinear(net, [params[i], params[j]], ev)
                 for i, j in ((0, 1), (0, 2), (1, 2))]
        result = general_nway(build_junction_tree(net), params, ev, lower_order=pairs)
        assert result.budget == extra_propagation_budget(3, 2) == 0
        expected = fit_multilinear(net, params, ev)
        for mask in range(8):
            assert result.function.coefficients[mask] == pytest.approx(
                expected.coefficients[mask], abs=AGREEMENT_TOLERANCE)

    def test_foreign_lower_order_parameter_rejected(self, r2):
        params = [r2.parameter(0, 0, ()), r2.parameter(2, 0, (0,))]
        stray = fit_multilinear(r2, [r2.parameter(1, 0, (0,))], None)
        with pytest.raises(Exception, match="outside the requested set"):
            general_nway(build_junction_tree(r2), params, lower_order=[stray])


def _binary_network(names, parents, rng):
    """Binary variables with CPT rows drawn from U(0.1, 0.9)."""
    cpts = []
    for name in names:
        ps = rng.uniform(0.1, 0.9, size=1 << len(parents.get(name, ())))
        cpts.append({"variable": name, "parents": list(parents.get(name, ())),
                     "rows": [[p, 1.0 - p] for p in ps]})
    return load_network({"variables": [{"name": v, "states": ["s0", "s1"]} for v in names],
                         "cpts": cpts})


class TestSixParameters:
    """n = 6 on both routes, checked against the enumeration fit."""

    def test_same_clique_route(self):
        roots = list("ABCDEF")
        net = _binary_network(roots + ["X"], {"X": roots}, np.random.default_rng(6))
        params = [net.parameter(i, 0, ()) for i in range(6)]
        ev = Evidence(net).set_hard("X", "s0")
        tree = build_junction_tree(net)
        mf = same_clique_nway(tree, params, ev)
        assert tree.stats.snapshot()[:2] == (1, 1)
        expected = fit_multilinear(net, params, ev)
        for mask in range(1 << 6):
            assert mf.coefficients[mask] == pytest.approx(
                expected.coefficients[mask], abs=NWAY_TOLERANCE)

    def test_general_route_on_a_chain(self):
        names = [f"V{k}" for k in range(12)]
        net = _binary_network(names, {names[k]: [names[k - 1]] for k in range(1, 12)},
                              np.random.default_rng(7))
        params = [net.parameter(k, 0, (0,)) for k in range(1, 12, 2)]
        ev = Evidence(net).set_hard("V11", "s0")
        result = general_nway(build_junction_tree(net), params, ev)
        expected = fit_multilinear(net, params, ev)
        for mask in range(1 << 6):
            assert result.function.coefficients[mask] == pytest.approx(
                expected.coefficients[mask], abs=NWAY_TOLERANCE)


class TestBudget:
    def test_reference_values(self):
        assert extra_propagation_budget(2, 1) == 0
        assert extra_propagation_budget(4, 1) == 1
        assert extra_propagation_budget(5, 2) == 0

    def test_never_negative(self):
        for n in range(1, 8):
            for m in range(1, n + 1):
                assert extra_propagation_budget(n, m) >= 0


class TestElimination:
    def test_solves_a_full_rank_system(self):
        rng = np.random.default_rng(54)
        a = rng.normal(size=(6, 4))
        x = rng.normal(size=4)
        rank, solution = _eliminate(a, a @ x)
        assert rank == 4
        assert_allclose(solution, x, atol=1e-9)

    def test_reports_deficient_rank_without_solution(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        rank, solution = _eliminate(a, np.array([1.0, 2.0, 3.0]))
        assert rank == 1
        assert solution is None

    def test_tiny_pivots_do_not_count_toward_rank(self):
        a = np.array([[1.0, 0.0], [0.0, 1e-13]])
        rank, solution = _eliminate(a, np.array([1.0, 0.0]))
        assert rank == 1
        assert solution is None


def _side(tree, start, across):
    """The cliques reachable from `start` without crossing to `across`."""
    seen = {start}
    stack = [start]
    while stack:
        for nb, _ in tree.neighbors[stack.pop()]:
            if nb != across and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen
