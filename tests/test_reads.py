"""Reads from a propagated tree: marginals and family masses from the cheapest holder.

Every read is held to the enumeration oracle and to the contraction it
replaced (the lowest-id clique holding a variable, the family clique of a
family), in each state the analyses read from: a full propagation, the
indicator replay of the local-extraction route, a co-varied parameter
followed by one outward pass, and a retracted finding.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import BnsenseError, build_junction_tree, load_network
from bnsense.network import apply_parameter, enumerate_parameters
from bnsense.oracle import _joint_table, random_network
from bnsense.propagation import distribute, marginal, propagate_full, retract_finding
from tests.conftest import possible_evidence

# A (one state) -> B -> C and B -> D: cliques {A,B}, {B,C}, {B,D} joined by
# two sepsets {B}; B's three holders all have two entries.
TIE_NET = {
    "variables": [{"name": "A", "states": ["only"]},
                  {"name": "B", "states": ["y", "n"]},
                  {"name": "C", "states": ["y", "n"]},
                  {"name": "D", "states": ["y", "n"]}],
    "cpts": [{"variable": "A", "parents": [], "rows": [[1.0]]},
             {"variable": "B", "parents": ["A"], "rows": [[0.3, 0.7]]},
             {"variable": "C", "parents": ["B"], "rows": [[0.6, 0.4], [0.2, 0.8]]},
             {"variable": "D", "parents": ["B"], "rows": [[0.5, 0.5], [0.1, 0.9]]}],
}


def reference_holder(tree, vars):
    """The cheapest holder by a scan over every sepset and clique."""
    def size(members):
        return math.prod(tree.net.arity(v) for v in members)
    candidates = [(size(s.members), False, i) for i, s in enumerate(tree.sepsets)
                  if set(vars) <= set(s.members)]
    candidates += [(size(c.members), True, c.id) for c in tree.cliques
                   if set(vars) <= set(c.members)]
    return min(candidates)[1:]


def check_reads(tree, joint):
    """Every marginal and family mass against the oracle's joint table and the old reads."""
    net = tree.net
    for v in range(net.n_variables):
        for vars, old_home in (((v,), tree.var_clique[v]),
                               (net.family(v), tree.family_clique[v])):
            is_clique, idx = tree.holder(vars)
            assert (is_clique, idx) == reference_holder(tree, vars)
            if not is_clique:
                assert set(vars) <= set(tree.sepsets[idx].members)
            got = marginal(tree, v) if len(vars) == 1 else tree.joint(vars).table
            assert_allclose(got, joint.marginalize(vars).table, rtol=1e-12, atol=0)
            assert_allclose(got, tree.local_product(old_home, vars).table, rtol=1e-12, atol=0)


def cases(seed, connected):
    rng = np.random.default_rng(seed)
    for _ in range(12):
        net = random_network(rng, connected=connected)
        yield rng, net, possible_evidence(rng, net)


@pytest.mark.parametrize("connected", [True, False])
class TestReadsAgree:
    def test_after_full_propagation(self, connected):
        for _, net, ev in cases(71, connected):
            tree = build_junction_tree(net)
            propagate_full(tree, ev)
            check_reads(tree, _joint_table(net, ev))

    def test_after_indicator_replay(self, connected):
        for rng, net, ev in cases(72, connected):
            tree = build_junction_tree(net)
            query = int(rng.integers(net.n_variables))
            indicator = np.zeros(net.arity(query))
            indicator[int(rng.integers(net.arity(query)))] = 1.0
            home = tree.var_clique[query]
            propagate_full(tree, ev, root=home)
            tree.inject_finding(home, query, indicator)
            distribute(tree, home)
            check_reads(tree, _joint_table(net, ev).multiply_vector(query, indicator))

    def test_after_covaried_parameter(self, connected):
        for rng, net, ev in cases(73, connected):
            tree = build_junction_tree(net)
            params = enumerate_parameters(net)
            ref = params[int(rng.integers(len(params)))]
            x = float(rng.uniform(0.05, 0.95))
            home = tree.family_clique[ref.variable]
            propagate_full(tree, ev, root=home)
            tree.set_parameter(ref, x)
            distribute(tree, home)
            check_reads(tree, _joint_table(apply_parameter(net, ref, x), ev))

    def test_after_retraction(self, connected):
        checked = 0
        for rng, net, ev in cases(74, connected):
            if not ev.variables():
                continue
            tree = build_junction_tree(net)
            propagate_full(tree, ev)
            var = ev.variables()[int(rng.integers(len(ev.variables())))]
            retract_finding(tree, var)
            check_reads(tree, _joint_table(net, ev.copy().remove(var)))
            checked += 1
        assert checked > 0


class TestHolders:
    def test_golden_choice_on_r2(self, r2):
        tree = build_junction_tree(r2)
        # cliques {A,B} and {B,C}, sepset {B}
        assert tree.holder((0,)) == (True, 0)
        assert tree.holder((1,)) == (False, 0)
        assert tree.holder((2,)) == (True, 1)
        assert tree.holder((0, 1)) == (True, 0)
        assert tree.holder((1, 2)) == (True, 1)

    def test_ties_go_to_sepsets_then_lowest_id(self):
        tree = build_junction_tree(load_network(TIE_NET))
        assert [c.members for c in tree.cliques] == [(0, 1), (1, 2), (1, 3)]
        assert [s.members for s in tree.sepsets] == [(1,), (1,)]
        assert tree.holder((1,)) == (False, 0)
        assert tree.holder((0,)) == (True, 0)

    def test_holders_survive_reset_and_set_parameter(self, r2):
        tree = build_junction_tree(r2)
        propagate_full(tree)
        tree.joint((1,))
        tree.reset()
        tree.set_parameter(enumerate_parameters(r2)[0], 0.5)
        assert tree._holders == {(1,): (False, 0)}

    def test_marginal_on_a_reset_tree_raises(self, r2):
        tree = build_junction_tree(r2)
        propagate_full(tree)
        tree.reset()
        with pytest.raises(BnsenseError):
            marginal(tree, 1)


class TestSepsetPotential:
    def test_missing_messages_count_as_ones(self, r2):
        tree = build_junction_tree(r2)
        assert_allclose(tree.sepset_potential(0).table, [1.0, 1.0])
        propagate_full(tree)
        inward = tree.messages.pop((1, 0))
        assert_allclose(tree.sepset_potential(0).table, tree.messages[(0, 1)])
        tree.messages[(1, 0)] = inward
        assert_allclose(tree.sepset_potential(0).table, tree.messages[(0, 1)] * inward)
        assert_allclose(tree.sepset_potential(0).table, [0.2 * 0.9 + 0.8 * 0.3,
                                                         0.2 * 0.1 + 0.8 * 0.7])


def test_attached_findings_match_a_sorted_scan():
    rng = np.random.default_rng(75)
    for _ in range(12):
        net = random_network(rng, connected=bool(rng.integers(2)))
        tree = build_junction_tree(net)
        propagate_full(tree, possible_evidence(rng, net, max_findings=5))
        leaf = tree.cliques[-1]
        tree.inject_finding(leaf.id, leaf.members[0], np.ones(net.arity(leaf.members[0])))
        for c in tree.cliques:
            scan = [(v, vec) for v, vec in sorted(tree.findings.items())
                    if tree.family_clique[v] == c.id]
            scan += sorted(tree.injected.get(c.id, {}).items())
            # the finding operands follow the clique's CPTs
            operands, _ = tree.operands(c.id, ())
            got = operands[len(c.families):len(c.families) + len(scan)]
            assert [axes for _, axes in got] == [[c.members.index(v)] for v, _ in scan]
            assert all(a is b for (a, _), (_, b) in zip(got, scan))
