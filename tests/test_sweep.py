"""The one-parameter sweep's second pass, directed at what the parameter can move.

With no finding on or below the parameter's variable X, only X and its
descendants can move: the replay sends only the messages toward the cliques
their reads use, and every other line, and the denominator, is flat.  With a
finding on or below X, p(e) and every marginal can move and the replay is a
full outward pass.  Either way the sweep costs 1 inward + 2 outward and meets
the enumeration oracle.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bnsense import Evidence, all_outputs_one_param, build_junction_tree, load_network
from bnsense import oneway
from bnsense.functions import LinearCoeffs
from bnsense.network import enumerate_parameters
from bnsense.oracle import fit_linear_sf, random_network
from bnsense.propagation import propagate_full
from tests.conftest import possible_evidence
from tests.test_acceptance import ONEWAY_TOLERANCE
from tests.test_directed import BRANCH


def _below(net, var):
    """`var` and its descendants."""
    out, stack = {var}, [var]
    while stack:
        for child in net.children(stack.pop()):
            if child not in out:
                out.add(child)
                stack.append(child)
    return out


def _steiner_edges(tree, terminals):
    """Edges of the smallest subtree joining the terminal cliques: prune
    non-terminal leaves until none is left."""
    adj = {c.id: {nb for nb, _ in tree.neighbors[c.id]} for c in tree.cliques}
    pruned = True
    while pruned:
        pruned = False
        for cid in list(adj):
            if cid not in terminals and len(adj[cid]) <= 1:
                for nb in adj.pop(cid):
                    adj[nb].discard(cid)
                pruned = True
    return sum(len(nbs) for nbs in adj.values()) // 2


def _reads(tree, variables):
    return {cid for var in variables for cid in tree.holder_cliques((var,))}


def _param_of(rng, net, var):
    refs = [ref for ref in enumerate_parameters(net)
            if ref.variable == var and ref.initial_value < 1.0]
    return refs[int(rng.integers(len(refs)))]


def _assert_on_oracle(net, sweep, ev):
    for var in range(net.n_variables):
        for state in range(net.arity(var)):
            expected = fit_linear_sf(net, sweep.parameter, var, state, ev)
            assert_allclose(sweep.functions[var][state].coefficients(),
                            expected.coefficients(), atol=ONEWAY_TOLERANCE)


def _sweep_full(tree, ref, ev, monkeypatch):
    """The sweep with every replay full, as if a finding lay below the parameter."""
    with monkeypatch.context() as m:
        m.setattr(oneway, "_moved_variables", lambda *args: None)
        return all_outputs_one_param(tree, ref, ev)


@pytest.fixture(scope="module")
def branch():
    return load_network(BRANCH)


class TestBranch:
    """A -> B, A -> C -> D: cliques {A,B} (0), {A,C} (1), {C,D} (2)."""

    @pytest.mark.parametrize("name, config, messages", [
        ("C", (0,), 1),    # C's family clique 1 out to D's clique 2
        ("D", (0,), 0),    # D is a leaf held by its own family clique
    ])
    def test_replay_reaches_only_the_descendants(self, branch, name, config, messages):
        ev = Evidence(branch).set_hard("B", "y")
        ref = branch.parameter(branch.variable_id(name), 0, config)
        tree = build_junction_tree(branch)
        sweep = all_outputs_one_param(tree, ref, ev)
        assert tree.stats.snapshot() == (1, 2, 2 * len(tree.sepsets) + messages)
        _assert_on_oracle(branch, sweep, ev)
        moved = _below(branch, ref.variable)
        for var in set(range(branch.n_variables)) - moved:
            for sf in sweep.functions[var]:
                assert sf.numerator.slope == 0.0
        assert sweep.denominator.slope == 0.0

    def test_finding_below_sends_the_full_replay(self, branch):
        ev = Evidence(branch).set_hard("D", "y")
        ref = branch.parameter(branch.variable_id("C"), 0, (0,))
        tree = build_junction_tree(branch)
        sweep = all_outputs_one_param(tree, ref, ev)
        assert tree.stats.snapshot() == (1, 2, 3 * len(tree.sepsets))
        _assert_on_oracle(branch, sweep, ev)
        assert sweep.denominator.slope != 0.0


class TestCorpus:
    """Random networks with the parameter's variable chosen per case."""

    @staticmethod
    def _cases(seed, pick):
        rng = np.random.default_rng(seed)
        found = 0
        while found < 12:
            net = random_network(rng, n_vars=int(rng.integers(6, 11)))
            tree = build_junction_tree(net)
            var = pick(rng, net, tree)
            if var is None:
                continue
            found += 1
            yield rng, net, tree, var

    @staticmethod
    def _no_finding_below(rng, net, var):
        ev = possible_evidence(rng, net)
        for v in _below(net, var):
            ev.remove(v)
        return ev

    @staticmethod
    def _leaf(rng, net, tree):
        leaves = [v for v in range(net.n_variables) if not net.children(v)]
        return leaves[int(rng.integers(len(leaves)))]

    @staticmethod
    def _spread(rng, net, tree):
        """A variable whose descendants' reads span several cliques, short of all."""
        for var in rng.permutation(net.n_variables):
            reads = _reads(tree, _below(net, int(var)))
            if len(reads) > 1 and len(reads) < len(tree.cliques):
                return int(var)
        return None

    @pytest.mark.parametrize("kind, seed", [("_leaf", 151), ("_spread", 152)])
    def test_directed_sweep_meets_the_oracle(self, kind, seed, monkeypatch):
        fewer = 0
        for rng, net, tree, var in self._cases(seed, getattr(self, kind)):
            ev = self._no_finding_below(rng, net, var)
            ref = _param_of(rng, net, var)
            sweep = all_outputs_one_param(tree, ref, ev)
            _assert_on_oracle(net, sweep, ev)

            moved = _below(net, var)
            home = tree.family_clique[var]
            replay = _steiner_edges(tree, _reads(tree, moved) | {home})
            assert tree.stats.snapshot() == (1, 2, 2 * len(tree.sepsets) + replay)
            fewer += replay < len(tree.sepsets)

            pe = sweep.denominator.intercept
            assert sweep.denominator == LinearCoeffs(0.0, pe)
            for v in set(range(net.n_variables)) - moved:
                for sf in sweep.functions[v]:
                    assert sf.numerator.slope == 0.0

            # the messages the replay sends are those of a full replay, bit for bit
            full_tree = build_junction_tree(net)
            full = _sweep_full(full_tree, ref, ev, monkeypatch)
            assert full_tree.stats.snapshot() == (1, 2, 3 * len(tree.sepsets))
            for v in moved:
                assert ([sf.numerator for sf in sweep.functions[v]]
                        == [sf.numerator for sf in full.functions[v]])
        assert fewer >= 6

    def test_finding_below_sends_every_message(self, monkeypatch):
        rng = np.random.default_rng(153)
        cases = 0
        while cases < 12:
            net = random_network(rng, n_vars=int(rng.integers(5, 10)))
            ev = possible_evidence(rng, net)
            if not len(ev):
                continue
            found = ev.variables()[int(rng.integers(len(ev)))]
            above = [v for v in range(net.n_variables) if found in _below(net, v)]
            var = above[int(rng.integers(len(above)))]
            ref = _param_of(rng, net, var)
            tree = build_junction_tree(net)
            sweep = all_outputs_one_param(tree, ref, ev)
            assert tree.stats.snapshot() == (1, 2, 3 * len(tree.sepsets))
            _assert_on_oracle(net, sweep, ev)
            full = _sweep_full(build_junction_tree(net), ref, ev, monkeypatch)
            assert ({v: [sf.coefficients() for sf in fs] for v, fs in sweep.functions.items()}
                    == {v: [sf.coefficients() for sf in fs] for v, fs in full.functions.items()})
            cases += 1


def test_stacked_marginals_equal_one_read_per_variable():
    """`oneway._marginals` stacks the reads of alike sepset holders; each
    variable's marginal is still what `JunctionTree.joint` reads, bit for bit."""
    rng = np.random.default_rng(154)
    summed = 0
    for _ in range(20):
        net = random_network(rng, n_vars=int(rng.integers(6, 12)),
                             connected=bool(rng.integers(2)))
        tree = build_junction_tree(net)
        propagate_full(tree, possible_evidence(rng, net))
        variables = range(net.n_variables)
        want = np.concatenate([tree.joint((var,)).table for var in variables])
        assert_array_equal(oneway._marginals(tree, variables), want)
        holders = [tree.holder((var,)) for var in variables]
        summed += sum(len(tree.sepsets[idx].members) > 1
                      for is_clique, idx in holders if not is_clique)
    assert summed > 0   # reads that sum a sepset's other axes out
