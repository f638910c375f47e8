"""Factor-list contraction: JunctionTree.local_product against dense products.

The reference for every check is the dense clique table, built the long way:
the clique's charge (a product of its CPTs) times its attached finding vectors
times its incoming messages, then marginalized.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import build_junction_tree, load_network
from bnsense import jtree
from bnsense.jtree import PLAN_ABOVE_ENTRIES, UNPLANNED_MAX_FACTORS
from bnsense.oracle import random_network
from bnsense.potentials import Potential
from bnsense.propagation import collect, distribute, enter_finding, marginal
from tests.conftest import possible_evidence


def dense_product(tree, cid, without=None):
    pot = tree.charge(cid)
    attached = [(v, tree.findings[v]) for v in tree.cliques[cid].families if v in tree.findings]
    for var, vec in attached + sorted(tree.injected.get(cid, {}).items()):
        pot = pot.multiply_vector(var, vec)
    for nb, s_idx in tree.neighbors[cid]:
        msg = tree.messages.get((nb, cid))
        if nb != without and msg is not None:
            pot = pot.multiply(Potential(tree.sepsets[s_idx].members, msg))
    return pot


def keeps(tree, cid):
    """Every kind of target: each sepset, each family, each member, nothing, all."""
    clique = tree.cliques[cid]
    out = [tree.sepsets[s].members for _, s in tree.neighbors[cid]]
    out += [tree.net.family(v) for v in clique.families]
    out += [(v,) for v in clique.members]
    out += [(), None]
    return out


def check_every_clique(tree):
    for c in tree.cliques:
        for without in [None] + [nb for nb, _ in tree.neighbors[c.id]]:
            dense = dense_product(tree, c.id, without)
            for keep in keeps(tree, c.id):
                got = tree.local_product(c.id, keep, without=without)
                want = dense if keep is None else dense.marginalize(keep)
                assert got.vars == want.vars
                assert_allclose(got.table, want.table, rtol=1e-12, atol=0)


def record_plans(monkeypatch):
    """The `optimize` argument of every np.einsum call from here on, in order."""
    plans = []
    einsum = np.einsum

    def recording(*args, optimize=False, **kwargs):
        plans.append(optimize)
        return einsum(*args, optimize=optimize, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    return plans


def with_findings(net, seed):
    rng = np.random.default_rng(seed)
    tree = build_junction_tree(net)
    for var, vec in possible_evidence(rng, net).items():
        enter_finding(tree, var, vec)
    leaf = tree.cliques[-1]
    var = leaf.members[0]
    tree.inject_finding(leaf.id, var, rng.uniform(0.1, 1.0, net.arity(var)))
    return tree


@pytest.mark.parametrize("seed", range(6))
def test_random_networks_match_dense_products(seed):
    net = random_network(np.random.default_rng(100 + seed))
    tree = with_findings(net, seed)
    check_every_clique(tree)          # no messages yet
    collect(tree)
    check_every_clique(tree)          # messages toward the root only
    distribute(tree)
    check_every_clique(tree)          # every message


def test_clique_above_the_size_gate(monkeypatch):
    net = random_network(np.random.default_rng(24), n_vars=10, max_states=4, max_parents=4)
    tree = with_findings(net, 24)
    assert max(tree._sizes) > PLAN_ABOVE_ENTRIES >= min(tree._sizes)
    plans = record_plans(monkeypatch)
    collect(tree)
    distribute(tree)
    check_every_clique(tree)
    assert "greedy" in plans  # the large clique went through a planned path


def test_member_no_factor_covers():
    # Cliques (V0,V1,V3), (V0,V3,V4), (V1,V2,V3); the first holds the CPTs of
    # V0 and V1 only, so before any message arrives nothing covers V3.
    parents = {"V0": [], "V1": ["V0"], "V2": ["V1"], "V3": ["V2"], "V4": ["V0", "V3"]}
    net = load_network({
        "variables": [{"name": n, "states": ["t", "f"]} for n in parents],
        "cpts": [{"variable": n, "parents": ps, "rows": [[0.3, 0.7]] * (2 ** len(ps))}
                 for n, ps in parents.items()]})
    tree = build_junction_tree(net)
    assert tree.cliques[0].members == (0, 1, 3) and tree.cliques[0].families == (0, 1)
    check_every_clique(tree)
    assert tree.local_product(0, ()).total() == pytest.approx(2.0)
    collect(tree)
    distribute(tree)
    check_every_clique(tree)


def test_set_parameter_refreshes_cached_factor(r2):
    tree = build_junction_tree(r2)
    collect(tree)
    distribute(tree)
    before = tree.local_product(0).table.copy()
    ref = r2.parameter(1, 0, (0,))
    tree.set_parameter(ref, 0.5)
    cid = tree.family_clique[1]
    tree.operands(cid, ())  # rebuilds the plan dropped by set_parameter
    plan_table = next(table for v, table, *_ in tree._plans[cid][2] if v == 1)
    assert_allclose(plan_table, Potential.from_cpt(tree.net, 1).table)
    assert_allclose(tree.local_product(0).table, dense_product(tree, 0).table, rtol=1e-12)
    assert not np.allclose(tree.local_product(0).table, before)


def test_star_hub_with_more_factors_than_one_einsum_call_takes():
    # Naive-Bayes star: every clique is {C, Xi} and one of them is the hub
    # that receives a message from each of the other 69.
    n = 70
    net = load_network({
        "variables": [{"name": "C", "states": ["a", "b"]}]
        + [{"name": f"X{i}", "states": ["t", "f"]} for i in range(n)],
        "cpts": [{"variable": "C", "parents": [], "rows": [[0.4, 0.6]]}]
        + [{"variable": f"X{i}", "parents": ["C"], "rows": [[0.3, 0.7], [0.8, 0.2]]}
           for i in range(n)]})
    tree = build_junction_tree(net)
    hub = max(tree.neighbors, key=lambda cid: len(tree.neighbors[cid]))
    assert len(tree.neighbors[hub]) > UNPLANNED_MAX_FACTORS
    for i in range(1, n + 1, 2):
        enter_finding(tree, i, [1.0, 0.0])
    collect(tree)
    distribute(tree)
    check_every_clique(tree)
    like = np.array([0.3, 0.8]) ** (n // 2)
    assert_allclose(marginal(tree, 0), like * [0.4, 0.6], rtol=1e-12)   # p(C, e)


def test_planned_path_for_small_cliques_with_many_factors(monkeypatch):
    # Lowering the factor limit sends every clique through the merge of
    # same-scope factors and, where that leaves more than one, a planned path.
    monkeypatch.setattr(jtree, "UNPLANNED_MAX_FACTORS", 1)
    net = random_network(np.random.default_rng(103))
    tree = with_findings(net, 3)
    assert max(tree._sizes) <= PLAN_ABOVE_ENTRIES
    plans = record_plans(monkeypatch)
    collect(tree)
    distribute(tree)
    check_every_clique(tree)
    assert "greedy" in plans
