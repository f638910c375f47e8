"""One shared contraction for a large clique's small-sepset children.

In an outward pass `JunctionTree.send_outward` sums a clique above
PLAN_ABOVE_ENTRIES once onto U, the union of the sepsets of its children
whose sepsets have at most 1/SHARED_SEPSET_RATIO of its entries, and reads
each of those children's messages off that table and the other shared
children's messages.  Every message must still equal the source clique's
`local_product` onto the sepset, up to rounding (1e-15 of the message's
largest entry), and the pass must count exactly the messages, and the
source-clique entries, that sending one message at a time counts.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import Evidence, build_junction_tree, load_network
from bnsense.jtree import PLAN_ABOVE_ENTRIES, SHARED_SEPSET_RATIO, JunctionTree
from bnsense.oracle import random_evidence, random_network
from bnsense.propagation import _bfs, collect, distribute, propagate_full

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def wide_clique(seed):
    """The benchmark's wide-clique network and findings for one workload seed."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads   # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules["workloads"]
    net = load_network(json.loads(json.dumps(workloads.wide_clique(seed).models[0].to_doc())))
    evidence = Evidence(net)
    for i, var in enumerate(workloads.WIDE_FINDINGS):
        evidence.set_hard(var, i % net.arity(var))
    return net, evidence


def shared_children(tree, root=0):
    """{source: children that share its contraction} for an outward pass from `root`."""
    order, parent, _ = _bfs(tree, root)
    shared = {}
    for cid in order[1:]:
        src = parent[cid]
        size = tree._sizes[src]
        sepset = tree.sepsets[dict(tree.neighbors[src])[cid]]
        if size > PLAN_ABOVE_ENTRIES and SHARED_SEPSET_RATIO * math.prod(
                map(tree.net.arity, sepset.members)) <= size:
            shared.setdefault(src, []).append(cid)
    return {src: dsts for src, dsts in shared.items() if len(dsts) > 1}


def check_message(tree, src, dst):
    sepset = tree.sepsets[dict(tree.neighbors[src])[dst]]
    want = tree.local_product(src, sepset.members, without=dst).table
    assert_allclose(tree.messages[(src, dst)], want, rtol=0, atol=1e-15 * np.abs(want).max())


def check_full_pass(tree, evidence):
    """A full propagation: each message within rounding of its clique's
    product, and the counters of one message per directed sepset."""
    before = tree.stats.snapshot()
    touched = tree.stats.entries_touched
    propagate_full(tree, evidence)
    for src, dst in tree.messages:
        check_message(tree, src, dst)
    sepsets = len(tree.sepsets)
    assert tree.stats.snapshot() == (before[0] + 1, before[1] + 1, before[2] + 2 * sepsets)
    assert tree.stats.entries_touched - touched == sum(
        tree._sizes[a] + tree._sizes[b] for a, b in (s.cliques for s in tree.sepsets))


def count_sends(monkeypatch):
    """How often `JunctionTree.send` runs from here on: once per unshared message."""
    calls = []
    send = JunctionTree.send

    def counting(self, src, dst):
        calls.append((src, dst))
        send(self, src, dst)

    monkeypatch.setattr(JunctionTree, "send", counting)
    return calls


@pytest.mark.parametrize("seed", [1, 2])
def test_wide_clique_messages_and_counters(seed, monkeypatch):
    net, evidence = wide_clique(seed)
    tree = build_junction_tree(net)
    shared = shared_children(tree)
    assert len(shared) >= 5
    sends = count_sends(monkeypatch)
    check_full_pass(tree, evidence)
    assert len(sends) == 2 * len(tree.sepsets) - sum(map(len, shared.values()))


def test_random_networks_with_large_cliques():
    checked = 0
    for seed in range(120):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars=int(rng.integers(8, 16)), max_states=5, max_parents=4)
        tree = build_junction_tree(net)
        if shared_children(tree):
            check_full_pass(tree, random_evidence(rng, net, 3))
            checked += 1
    assert checked >= 10


def test_directed_pass_shares_among_the_children_it_reaches(monkeypatch):
    net, evidence = wide_clique(1)
    tree = build_junction_tree(net)
    shared = shared_children(tree)
    src = max(shared, key=lambda cid: len(shared[cid]))
    reached = shared[src][:3]
    assert len(shared[src]) > len(reached)
    propagate_full(tree, evidence)
    _, parent, _ = _bfs(tree, 0)
    region = {0}
    for cid in reached:
        while cid not in region:
            region.add(cid)
            cid = parent[cid]
    before = tree.stats.snapshot()
    touched = tree.stats.entries_touched
    sends = count_sends(monkeypatch)
    distribute(tree, 0, set(reached))
    sent = sorted(region - {0})
    assert tree.stats.snapshot() == (before[0], before[1] + 1, before[2] + len(sent))
    assert tree.stats.entries_touched - touched == sum(tree._sizes[parent[c]] for c in sent)
    assert sorted(dst for _, dst in sends) == sorted(set(sent) - set(reached))
    for cid in sent:
        check_message(tree, parent[cid], cid)


def test_a_member_only_the_shared_children_cover():
    # Cliques (V0,V1,V3), (V0,V3,V4), (V1,V2,V3): clique 0 holds the CPTs of
    # V0 and V1 only, so among its factors only its children's messages
    # cover V3.  Its sepsets (V0,V3) and (V1,V3) are 20 times smaller than
    # it, so both children share its contraction, onto all of its members.
    parents = {"V0": [], "V1": ["V0"], "V2": ["V1"], "V3": ["V2"], "V4": ["V0", "V3"]}
    arities = {"V0": 20, "V1": 20, "V2": 12, "V3": 11, "V4": 3}
    rng = np.random.default_rng(5)
    net = load_network({
        "variables": [{"name": n, "states": [f"s{i}" for i in range(k)]}
                      for n, k in arities.items()],
        "cpts": [{"variable": n, "parents": ps,
                  "rows": rng.dirichlet(np.ones(arities[n]),
                                        size=math.prod(arities[p] for p in ps)).tolist()}
                 for n, ps in parents.items()]})
    tree = build_junction_tree(net)
    assert tree.cliques[0].members == (0, 1, 3) and tree.cliques[0].families == (0, 1)
    assert shared_children(tree) == {0: [1, 2]}
    evidence = Evidence(net).set_hard("V2", "s3").set_hard("V4", "s1")
    check_full_pass(tree, evidence)
    collect(tree, 0)
    distribute(tree, 0, {2})    # reaches one of them, which is sent alone
    check_message(tree, 0, 2)
