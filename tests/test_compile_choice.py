"""The two choices `build_junction_tree` makes for a tree with a large clique.

When the weighted min-fill order gives a clique above PLAN_ABOVE_ENTRIES,
the compiler also eliminates by fill count first and keeps the order whose
cliques have fewer total entries, then hangs each clique on the smallest
clique opened before it that holds its separator.  The tree must still be a
clique tree, its full propagation must touch no more entries than the tree
the walk's own parents give over the same cliques, and p(e) and every
marginal must agree with that tree's to 1e-12.  The figures of the
benchmark's wide-clique trees are pinned, with those of the trees the
weighted order and the walk's parents alone give.
"""

import json

import numpy as np
import pytest

from bnsense import Evidence, build_junction_tree, load_network
from bnsense import jtree
from bnsense.jtree import PLAN_ABOVE_ENTRIES, JunctionTree, moralize, triangulate
from bnsense.oracle import random_evidence, random_network
from bnsense.propagation import marginal, propagate_full
from tests.test_compile_reference import assert_clique_tree
from tests.test_shared_outward import load_workloads

TOLERANCE = 1e-12


def sens_param_case(seed):
    """The network and findings of the wide-clique workload's `sens-param` call."""
    workloads = load_workloads()
    wl = workloads.wide_clique(seed)
    net = load_network(json.loads(json.dumps(wl.models[0].to_doc())))
    call = next(call for call in wl.calls if call.kind == "sens_param")
    evidence = Evidence(net)
    for var, state, negative in call.evidence:
        (evidence.set_negative if negative else evidence.set_hard)(var, state)
    return net, evidence


def shape(tree):
    return len(tree.cliques), sum(tree._sizes), max(tree._sizes)


def touched(tree, evidence):
    """The entries a full propagation of the tree touches, which propagates it."""
    before = tree.stats.entries_touched
    propagate_full(tree, evidence)
    return tree.stats.entries_touched - before


def weighted_owner_tree(net, evidence=None):
    """The tree of the weighted order alone, on the walk's own parents."""
    fixed = {} if evidence is None else jtree.fixed_states(evidence.items())
    adj = moralize(net, range(net.n_variables), fixed)
    walk = jtree._elimination_cliques(adj, *triangulate(adj, net.arities))
    return JunctionTree(net, *jtree._clique_tree(*walk), fixed)


def test_wide_clique_sens_param_tree():
    net, evidence = sens_param_case(1)
    tree = build_junction_tree(net, evidence=evidence)
    assert shape(tree) == (118, 1_570_080, 314_928)
    assert touched(tree, evidence) == 5_171_370
    before = weighted_owner_tree(net, evidence)
    assert shape(before) == (117, 2_505_576, 629_856)
    assert touched(before, evidence) == 10_144_386
    assert tree.evidence_mass == pytest.approx(before.evidence_mass, rel=TOLERANCE, abs=0)


def test_wide_clique_whole_tree():
    """The weighted order is kept there; only the parents move."""
    net, evidence = sens_param_case(1)
    tree = build_junction_tree(net)
    before = weighted_owner_tree(net)
    assert shape(tree) == shape(before) == (116, 4_186_061, 1_259_712)
    assert [c.members for c in tree.cliques] == [c.members for c in before.cliques]
    assert touched(tree, evidence) == 13_999_907
    assert touched(before, evidence) == 16_995_917


@pytest.mark.parametrize("mode", ["connected", "disconnected", "evidence"])
def test_random_networks_with_large_cliques(mode, monkeypatch):
    checked = other_order = 0
    for seed in range(120):
        rng = np.random.default_rng([31, seed])
        net = random_network(rng, n_vars=int(rng.integers(30, 60)), max_states=3,
                             max_parents=3, connected=mode != "disconnected")
        if mode == "evidence":
            evidence = Evidence(net)
            for var in rng.choice(net.n_variables, size=4, replace=False).tolist():
                evidence.set_hard(var, int(rng.integers(net.arity(var))))
            compiled = {"evidence": evidence}
        else:
            evidence, compiled = random_evidence(rng, net), {}
        tree = build_junction_tree(net, **compiled)
        if max(tree._sizes) <= PLAN_ABOVE_ENTRIES:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(jtree, "_smallest_parents", lambda members, parent, *_: parent)
            walk = build_junction_tree(net, **compiled)
        members = [c.members for c in tree.cliques]
        assert members == [c.members for c in walk.cliques]
        assert_clique_tree(members, tree.sepsets)
        assert touched(tree, evidence) <= touched(walk, evidence)
        pe = tree.evidence_mass
        assert pe == pytest.approx(walk.evidence_mass, rel=TOLERANCE, abs=0)
        for var in range(net.n_variables):
            np.testing.assert_allclose(marginal(tree, var) / pe, marginal(walk, var) / pe,
                                       rtol=0, atol=TOLERANCE)
        checked += 1
        other_order += sum(tree._sizes) < sum(weighted_owner_tree(net, compiled.get(
            "evidence"))._sizes)
    assert checked >= 15
    assert other_order >= 1
