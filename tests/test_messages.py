"""Messages are plain arrays sent from each clique's contraction plan.

`JunctionTree.send` lays out a message's einsum operands from the source
clique's plan and stores the result as an array: a pass builds no
`Potential` and makes no `local_product` call, yet every message equals
the source clique's `local_product` onto the sepset, bit for bit.  The plan
caches the clique's CPT tables, so `set_parameter` and `restore_network`
must drop it: the next replay then sends what a fresh tree sends.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bnsense import Evidence, build_junction_tree, load_network
from bnsense.jtree import JunctionTree, UNPLANNED_MAX_FACTORS
from bnsense.nway import same_clique_nway
from bnsense.potentials import Potential
from bnsense.propagation import distribute, propagate_full, replay


def chain(n=300, seed=5):
    """A binary chain V0 -> V1 -> ... with random rows."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.05, 1.0, size=(n, 2, 2))
    rows /= rows.sum(axis=2, keepdims=True)
    return load_network({
        "variables": [{"name": f"V{i}", "states": ["a", "b"]} for i in range(n)],
        "cpts": [{"variable": "V0", "parents": [], "rows": rows[0, :1].tolist()}]
        + [{"variable": f"V{i}", "parents": [f"V{i - 1}"], "rows": rows[i].tolist()}
           for i in range(1, n)]})


def star(n=UNPLANNED_MAX_FACTORS + 10):
    """Naive Bayes: C -> X0 .. X(n-1); the hub clique takes a message per child."""
    return load_network({
        "variables": [{"name": "C", "states": ["a", "b", "c"]}]
        + [{"name": f"X{i}", "states": ["t", "f"]} for i in range(n)],
        "cpts": [{"variable": "C", "parents": [], "rows": [[0.2, 0.5, 0.3]]}]
        + [{"variable": f"X{i}", "parents": ["C"],
            "rows": [[0.3, 0.7], [0.8, 0.2], [0.5 + i / (4 * n), 0.5 - i / (4 * n)]]}
           for i in range(n)]})


def findings(net, every=7):
    ev = Evidence(net)
    for var in range(1, net.n_variables, every):
        ev.set_hard(var, var % 2)
    ev.set_likelihood(net.n_variables - 2, [0.3, 0.9])
    return ev


def check_messages(tree):
    """Every stored message against the source clique's product onto the sepset."""
    for s_idx, sep in enumerate(tree.sepsets):
        a, b = sep.cliques
        for src, dst in ((a, b), (b, a)):
            msg = tree.messages[(src, dst)]
            assert type(msg) is np.ndarray
            assert_array_equal(msg, tree.local_product(src, sep.members, without=dst).table)


def test_the_star_hub_takes_more_factors_than_one_unplanned_einsum():
    tree = build_junction_tree(star())
    assert max(len(nbs) for nbs in tree.neighbors.values()) > UNPLANNED_MAX_FACTORS


@pytest.mark.parametrize("net", [chain(), star()], ids=["chain", "star"])
def test_a_pass_builds_no_potential(net, monkeypatch):
    tree = build_junction_tree(net)
    ev = findings(net)
    propagate_full(tree, ev)    # builds the plans
    counts = {"potentials": 0, "local_products": 0}
    init, local_product = Potential.__init__, JunctionTree.local_product

    def counting_init(self, *args, **kwargs):
        counts["potentials"] += 1
        init(self, *args, **kwargs)

    def counting_product(self, *args, **kwargs):
        counts["local_products"] += 1
        return local_product(self, *args, **kwargs)

    monkeypatch.setattr(Potential, "__init__", counting_init)
    monkeypatch.setattr(JunctionTree, "local_product", counting_product)
    propagate_full(tree, ev)
    leaves = [cid for cid, nbs in tree.neighbors.items() if len(nbs) == 1]
    changed = {leaves[0], leaves[-1]}
    for cid in changed:
        var = tree.cliques[cid].members[-1]
        tree.inject_finding(cid, var, np.linspace(0.2, 0.9, net.arity(var)))
    replay(tree, changed, reads={leaves[len(leaves) // 2]})
    assert counts == {"potentials": 0, "local_products": 0}
    monkeypatch.undo()

    distribute(tree, min(changed))  # every message current again
    check_messages(tree)


@pytest.mark.parametrize("net", [chain(40), star()], ids=["chain", "star"])
def test_replays_after_a_changed_table_send_what_a_fresh_tree_sends(net):
    ev = findings(net)
    tree = build_junction_tree(net)
    propagate_full(tree, ev)
    ref = net.parameter(net.n_variables - 1, 0, (1,))

    def check_replay():
        replay(tree, {tree.family_clique[ref.variable]})
        fresh = build_junction_tree(tree.net)
        propagate_full(fresh, ev)
        assert tree.messages.keys() == fresh.messages.keys()
        for key, msg in fresh.messages.items():
            assert_array_equal(tree.messages[key], msg)

    tree.set_parameter(ref, 0.05)
    check_replay()
    tree.restore_network(net)
    check_replay()
    # same_clique_nway swaps in a network with the parameters' rows cleared
    # to ones and puts the operating-point network back
    same_clique_nway(tree, [ref], ev)
    check_replay()
    table = np.array(net.cpts[ref.variable])
    table[net.row_index(ref.variable, ref.parent_config)] = 1.0
    tree.restore_network(net.with_cpt(ref.variable, table))
    check_replay()
