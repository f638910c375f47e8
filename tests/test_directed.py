"""Directed outward passes, the inward-only posterior, and the stale-read guard.

A directed pass sends only the messages on the paths from its root to the
cliques an analysis reads.  The analyses that direct their passes must give
the oracle's answers with fewer messages, bit for bit what full passes give,
and every read outside the region a pass left current must raise.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import (BnsenseError, Evidence, QueryRef, all_outputs_one_param,
                     build_junction_tree, distribute, enter_finding, evidence_probability,
                     general_nway, infer_marginal, load_network, marginal,
                     one_output_all_params_m1, one_output_all_params_m2, propagate_full,
                     relevant_parameters, replay, retract_finding)
from bnsense import nway, oneway
from bnsense.functions import evaluate
from bnsense.network import enumerate_parameters
from bnsense.oneway import _family_lines, read_cliques
from bnsense.oracle import brute_query, fit_linear_sf, fit_multilinear, random_network
from bnsense.propagation import collect
from tests.conftest import possible_evidence
from tests.oracle_helpers import random_independent_parameters
from tests.test_acceptance import NWAY_TOLERANCE, ONEWAY_TOLERANCE
from tests.test_zero_parameters import ZERO_CORPUS_SEED, _with_zeros

# A -> B, A -> C -> D.  Cliques {A,B} (0), {A,C} (1), {C,D} (2); sepsets {A}
# between 0 and 1, {C} between 1 and 2.
BRANCH = {"variables": [{"name": n, "states": ["y", "n"]} for n in "ABCD"],
          "cpts": [{"variable": "A", "parents": [], "rows": [[0.3, 0.7]]},
                   {"variable": "B", "parents": ["A"], "rows": [[0.9, 0.1], [0.2, 0.8]]},
                   {"variable": "C", "parents": ["A"], "rows": [[0.6, 0.4], [0.1, 0.9]]},
                   {"variable": "D", "parents": ["C"],
                    "rows": [[0.5, 0.5], [0.25, 0.75]]}]}


@pytest.fixture(scope="module")
def branch():
    return load_network(BRANCH)


@pytest.fixture(scope="module")
def hidden_zero():
    """p(V0=s0) = 0, and V0's family clique is not an end of its cheapest holder."""
    arities = [2, 2, 3, 3, 2, 3]
    parents = [(), (0,), (0, 1), (1, 2), (0, 2, 3), (0, 3, 4)]
    rng = np.random.default_rng(84)
    cpts = []
    for v, ps in enumerate(parents):
        rows = rng.uniform(0.1, 1.0, size=(int(np.prod([arities[p] for p in ps])),
                                           arities[v]))
        if v == 0:
            rows[0, 0] = 0.0
        cpts.append({"variable": f"V{v}", "parents": [f"V{p}" for p in ps],
                     "rows": (rows / rows.sum(axis=1, keepdims=True)).tolist()})
    return load_network({"variables": [{"name": f"V{v}", "states": [f"s{k}" for k in range(a)]}
                                       for v, a in enumerate(arities)],
                         "cpts": cpts})


def _full_messages(tree, outward_passes):
    """Messages of one inward pass and `outward_passes` full outward ones."""
    return len(tree.sepsets) * (1 + outward_passes)


def _all_cliques(tree, variables):
    return set(range(len(tree.cliques)))


# ---------------------------------------------------------------------------
# the read set


class TestReadSet:
    def test_branch_read_set(self, branch):
        tree = build_junction_tree(branch)
        assert [c.members for c in tree.cliques] == [(0, 1), (0, 2), (2, 3)]
        # A and B are read from their family clique {A,B}, D from {C,D}
        assert read_cliques(tree, [0, 1]) == {0}
        assert read_cliques(tree, [3]) == {2}

    def test_zeros_add_nothing(self, hidden_zero):
        tree = build_junction_tree(hidden_zero)
        # V0's CPT has a zero and its cheapest holder is sepset {V0,V3,V4},
        # but its family is read from its family clique 0 alone
        assert [c.members for c in tree.cliques] == [(0, 1, 2, 3), (0, 2, 3, 4), (0, 3, 4, 5)]
        assert tree.family_clique[0] == 0 and tree.holder((0,)) == (False, 1)
        assert tree.sepsets[1].cliques == (1, 2)
        assert read_cliques(tree, [0]) == {0}

    def test_zero_entry_read_reaches_its_clique(self, hidden_zero):
        query = QueryRef(5, 0)               # rooted at clique 2, the far end
        params = [ref for ref in enumerate_parameters(hidden_zero) if ref.variable == 0]
        tree = build_junction_tree(hidden_zero)
        analysis = one_output_all_params_m1(tree, query, None, params)
        assert tree.stats.snapshot() == (1, 2, 6)
        for ref, sf in analysis.functions.items():
            expected = fit_linear_sf(hidden_zero, ref, 5, 0, None)
            assert_allclose(sf.coefficients(), expected.coefficients(), atol=ONEWAY_TOLERANCE)


# ---------------------------------------------------------------------------
# analyses on directed passes


class TestDirectedAnalyses:
    QUERY = QueryRef(0, 0)             # p(A=y | B=y): screening drops C and D

    def test_one_way_methods_on_a_dropped_branch(self, branch):
        ev = Evidence(branch).set_hard("B", "y")
        params = relevant_parameters(branch, self.QUERY, ev)
        assert {ref.variable for ref in params} == {0, 1}
        for method in (one_output_all_params_m1, one_output_all_params_m2):
            tree = build_junction_tree(branch)
            analysis = method(tree, self.QUERY, ev, params)
            for ref, sf in analysis.functions.items():
                expected = fit_linear_sf(branch, ref, 0, 0, ev)
                assert_allclose(sf.coefficients(), expected.coefficients(),
                                atol=ONEWAY_TOLERANCE)
            assert tree.stats.snapshot() == (1, 2, 2)
            assert tree.stats.messages_passed < _full_messages(tree, 2)

    def test_general_nway_on_a_dropped_branch(self, branch):
        ev = Evidence(branch).set_hard("D", "y")
        params = [branch.parameter(1, 0, (0,)), branch.parameter(2, 0, (0,))]
        tree = build_junction_tree(branch)
        result = general_nway(tree, params, ev)
        expected = fit_multilinear(branch, params, ev)
        for mask in range(4):
            assert result.function.coefficients[mask] == pytest.approx(
                expected.coefficients[mask], abs=NWAY_TOLERANCE)
        extra = result.extra_propagations
        # inward 2 + outward 0 -> 1; per extra setting, inward 0 <- 1 and outward 0 -> 1
        assert result.stats == (1 + extra, 1 + extra, 3 + 2 * extra)
        assert result.stats[2] < _full_messages(tree, 1) + extra * (1 + len(tree.sepsets))

    @pytest.mark.parametrize("connected", [True, False])
    def test_directed_equals_full_on_a_random_corpus(self, connected, monkeypatch):
        """Bit-identical to full passes, never more messages, and on the oracle."""
        rng = np.random.default_rng(81 if connected else 82)
        fewer = 0
        for _ in range(30):
            net = random_network(rng, n_vars=int(rng.integers(4, 12)), connected=connected)
            ev = possible_evidence(rng, net)
            var = int(rng.integers(net.n_variables))
            query = QueryRef(var, int(rng.integers(net.arity(var))))
            params = relevant_parameters(net, query, ev)
            nparams = random_independent_parameters(rng, net, 2)
            runs = {}
            for mode in ("directed", "full"):
                with monkeypatch.context() as m:
                    if mode == "full":
                        m.setattr(oneway, "read_cliques", _all_cliques)
                        m.setattr(nway, "read_cliques", _all_cliques)
                    out = []
                    for method in (one_output_all_params_m1, one_output_all_params_m2):
                        tree = build_junction_tree(net)
                        analysis = method(tree, query, ev, params)
                        out.append(({ref: sf.coefficients()
                                     for ref, sf in analysis.functions.items()},
                                    tree.stats.messages_passed))
                    if nparams is not None:
                        tree = build_junction_tree(net)
                        result = general_nway(tree, nparams, ev)
                        out.append((result.function.coefficients, result.stats[2]))
                    runs[mode] = out
            for (got, sent), (want, full_sent) in zip(runs["directed"], runs["full"]):
                assert got == want
                assert sent <= full_sent
                fewer += sent < full_sent
            for ref, coeffs in runs["directed"][0][0].items():
                expected = fit_linear_sf(net, ref, query.variable, query.state, ev)
                assert_allclose(coeffs, expected.coefficients(), atol=ONEWAY_TOLERANCE)
        assert fewer > 0


# ---------------------------------------------------------------------------
# the inward-only posterior


class TestInferMarginal:
    def test_matches_the_full_propagation_with_one_inward_pass(self, branch):
        ev = Evidence(branch).set_hard("D", "y")
        for var in range(branch.n_variables):
            tree = build_junction_tree(branch)
            got = infer_marginal(tree, var, ev)
            assert tree.stats.snapshot() == (1, 0, len(tree.sepsets))
            full = build_junction_tree(branch)
            propagate_full(full, ev)
            assert_allclose(got, marginal(full, var), rtol=1e-14)
            for state in range(branch.arity(var)):
                assert got[state] == pytest.approx(brute_query(branch, var, state, ev)[0],
                                                   abs=1e-15)

    def test_leaves_only_its_root_current(self, branch):
        tree = build_junction_tree(branch)
        infer_marginal(tree, 3)
        assert tree.current == {tree.var_clique[3]}
        with pytest.raises(BnsenseError):
            tree.joint((0,))
        with pytest.raises(BnsenseError):
            evidence_probability(tree)


# ---------------------------------------------------------------------------
# the directed inward pass


class TestDirectedCollect:
    @pytest.mark.parametrize("root, reads, sent", [
        (0, None, {(2, 1), (1, 0)}),
        (0, {0}, set()),
        (0, {1}, {(1, 0)}),
        (0, {2}, {(2, 1), (1, 0)}),
        (2, {0}, {(0, 1), (1, 2)}),
        (1, {0, 2}, {(0, 1), (2, 1)}),
        (1, {2}, {(2, 1)}),
    ])
    def test_sends_only_the_paths_from_reads_to_the_root(self, branch, root, reads, sent):
        tree = build_junction_tree(branch)
        collect(tree, root, reads)
        assert set(tree.messages) == sent
        assert tree.stats.snapshot() == (1, 0, len(sent))
        assert tree.current == {root} and tree.pass_root == root

    def test_leaves_the_root_current_after_a_change_below_it(self, branch):
        # D's CPT sits in clique 2; with D observed it moves p(A, e), read at
        # clique 0 after the two messages on the path from 2.
        ev = Evidence(branch).set_hard("D", "y")
        ref = branch.parameter(3, 0, (0,))
        tree = build_junction_tree(branch)
        propagate_full(tree, ev)
        tree.set_parameter(ref, 0.2)
        collect(tree, 0, {2})
        assert tree.stats.snapshot() == (2, 1, len(tree.sepsets) * 2 + 2)
        fresh = build_junction_tree(tree.net)
        propagate_full(fresh, ev)
        assert_allclose(tree.read_clique(0, (0,)).table, marginal(fresh, 0), rtol=1e-14)
        with pytest.raises(BnsenseError, match="outside the region"):
            tree.read_clique(1, (0,))


# ---------------------------------------------------------------------------
# the stale-read guard


def _directed(net, reads, root=0, ev=None):
    """A tree after one collect and one outward pass from `root` directed by `reads`."""
    tree = build_junction_tree(net)
    propagate_full(tree, ev, root=root, reads=reads)
    return tree


class TestStaleReadGuard:
    def test_directed_pass_leaves_its_paths_current(self, branch):
        tree = _directed(branch, {1})
        assert tree.current == {0, 1} and tree.pass_root == 0
        assert tree.stats.snapshot() == (1, 1, 3)
        full = build_junction_tree(branch)
        propagate_full(full)
        assert_allclose(tree.joint((0, 2)).table, full.joint((0, 2)).table, rtol=0)
        assert full.current == {0, 1, 2} and full.pass_root is None

    def test_joint_outside_the_region_raises(self, branch):
        tree = _directed(branch, {0})
        tree.joint((0, 1))
        with pytest.raises(BnsenseError, match="outside the region"):
            tree.joint((0,))               # sepset {A}: clique 1 is outside
        with pytest.raises(BnsenseError, match="outside the region"):
            tree.joint((2, 3))

    def test_family_lines_outside_the_region_raise(self, branch):
        tree = _directed(branch, read_cliques(build_junction_tree(branch), [1]))
        _family_lines(tree, [1])
        with pytest.raises(BnsenseError, match="outside the region"):
            _family_lines(tree, [3])

    def test_marginal_after_a_directed_pass_raises(self, branch):
        with pytest.raises(BnsenseError, match="needs a full propagation"):
            marginal(_directed(branch, {0, 1}), 0)

    def test_retraction_after_a_directed_pass_raises(self, branch):
        tree = _directed(branch, {0}, ev=Evidence(branch).set_hard("D", "y"))
        with pytest.raises(BnsenseError, match="needs a full propagation"):
            retract_finding(tree, 3)

    def test_outward_pass_from_another_root_raises(self, branch):
        tree = _directed(branch, {1})
        distribute(tree, 0, {1})           # the same root is fine
        with pytest.raises(BnsenseError, match="directed from clique 0"):
            distribute(tree, 2)
        tree.set_parameter(branch.parameter(3, 0, (0,)), 0.4)
        with pytest.raises(BnsenseError, match="directed from clique 0"):
            replay(tree, {2})

    def test_outward_pass_before_any_inward_pass_raises(self, branch):
        tree = build_junction_tree(branch)
        propagate_full(tree)
        tree.reset()
        enter_finding(tree, 3, [1.0, 0.0])
        with pytest.raises(BnsenseError, match="no inward pass"):
            distribute(tree, 0)
        with pytest.raises(BnsenseError, match="no inward pass"):
            replay(tree, {2})

    def test_outward_pass_after_collect_needs_its_root(self, branch):
        tree = build_junction_tree(branch)
        collect(tree, 1)
        assert tree.current == {1}
        with pytest.raises(BnsenseError, match="directed from clique 1"):
            distribute(tree, 0)
        distribute(tree, 1)
        assert tree.pass_root is None

    @pytest.mark.parametrize("change", ["set_parameter", "inject_finding",
                                        "enter_finding", "restore_network"])
    def test_every_read_after_a_change_raises(self, branch, change):
        tree = build_junction_tree(branch)
        propagate_full(tree)
        if change == "set_parameter":
            tree.set_parameter(branch.parameter(1, 0, (0,)), 0.5)
        elif change == "inject_finding":
            tree.inject_finding(0, 0, np.array([1.0, 0.0]))
        elif change == "enter_finding":
            enter_finding(tree, 3, [1.0, 0.0])
        else:
            tree.restore_network(branch)
        for read in (lambda: tree.joint((0, 1)), lambda: marginal(tree, 0),
                     lambda: evidence_probability(tree), lambda: _family_lines(tree, [1])):
            with pytest.raises(BnsenseError, match="propagate"):
                read()


# ---------------------------------------------------------------------------
# counters and the restored network


class TestEntriesTouched:
    def test_pinned_on_r2(self, r2):
        # cliques {A,B} and {B,C}, four entries each, one sepset
        tree = build_junction_tree(r2)
        propagate_full(tree, Evidence(r2).set_hard("C", "yes"))
        assert tree.stats.entries_touched == 8
        assert tree.stats.snapshot() == (1, 1, 2)

    def test_inward_pass_touches_every_clique_but_the_root(self):
        net = random_network(np.random.default_rng(83), n_vars=9, max_states=4)
        sizes = [int(np.prod([net.arity(v) for v in c.members]))
                 for c in build_junction_tree(net).cliques]
        assert len(set(sizes)) > 1
        for root in range(len(sizes)):
            tree = build_junction_tree(net)
            collect(tree, root)
            assert tree.stats.entries_touched == sum(sizes) - sizes[root]

    def test_directed_m1_touches_fewer_entries(self, r2, branch):
        query = QueryRef(0, 0)
        tree = build_junction_tree(r2)
        one_output_all_params_m1(tree, query, None, [r2.parameter(0, 0, ())])
        assert tree.stats.entries_touched == 4          # the inward message only
        ev = Evidence(branch).set_hard("B", "y")
        params = relevant_parameters(branch, query, ev)
        directed = build_junction_tree(branch)
        one_output_all_params_m1(directed, query, ev, params)
        full = build_junction_tree(branch)
        propagate_full(full, ev)
        full.inject_finding(0, 0, np.array([1.0, 0.0]))
        distribute(full, 0)
        assert directed.stats.entries_touched == 8 < full.stats.entries_touched == 24


class TestSweepRestoresTheNetwork:
    def test_one_tree_reused_across_parameters(self):
        rng = np.random.default_rng(ZERO_CORPUS_SEED)
        net = _with_zeros(rng, random_network(rng))
        ev = possible_evidence(rng, net)
        var = int(rng.integers(net.n_variables))
        query = QueryRef(var, int(rng.integers(net.arity(var))))
        params = [ref for ref in enumerate_parameters(net) if ref.initial_value < 1.0]
        first = params[0]
        second = next(ref for ref in params if ref.variable != first.variable)
        tree = build_junction_tree(net)
        all_outputs_one_param(tree, first, ev)
        assert tree.net is net
        reused = all_outputs_one_param(tree, second, ev)
        fresh = all_outputs_one_param(build_junction_tree(net), second, ev)
        x0 = net.parameter_value(second)
        got = evaluate(reused.functions[var][query.state], x0)
        joint, pe = brute_query(net, var, query.state, ev)
        assert got == evaluate(fresh.functions[var][query.state], x0)
        assert got == pytest.approx(joint / pe, abs=ONEWAY_TOLERANCE)
        assert got == pytest.approx(0.589, abs=5e-4)
