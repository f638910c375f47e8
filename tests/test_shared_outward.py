"""One shared contraction for a large clique's small-sepset children.

In an outward pass `JunctionTree.send_outward` sums a clique C above
PLAN_ABOVE_ENTRIES once onto U, the union of the sepsets of its k children
whose sepsets have at most 1/SHARED_SEPSET_RATIO of its entries, when k ≥ 2
and k·|U| ≤ |C|, and reads each of those children's messages off that table
and the other shared children's messages.  Past that bound each of them is
sent alone.  Every message must still equal the source clique's
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
from bnsense.jtree import PLAN_ABOVE_ENTRIES, SHARED_SEPSET_RATIO, JunctionTree, Sepset
from bnsense.oracle import random_evidence, random_network
from bnsense.propagation import _bfs, collect, distribute, propagate_full

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def load_workloads():
    """The benchmark's benchmarks/workloads.py, as a module."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads   # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules["workloads"]
    return workloads


def wide_clique(seed):
    """The benchmark's wide-clique network and findings for one workload seed."""
    workloads = load_workloads()
    net = load_network(json.loads(json.dumps(workloads.wide_clique(seed).models[0].to_doc())))
    evidence = Evidence(net)
    for i, var in enumerate(workloads.WIDE_FINDINGS):
        evidence.set_hard(var, i % net.arity(var))
    return net, evidence


def entries(net, variables):
    return math.prod(map(net.arity, variables))


def shared_children(tree, root=0):
    """{source: children that share its contraction} for an outward pass from `root`."""
    order, parent, _ = _bfs(tree, root)
    small = {}
    for cid in order[1:]:
        src = parent[cid]
        size = tree._sizes[src]
        sepset = tree.sepsets[dict(tree.neighbors[src])[cid]]
        if size > PLAN_ABOVE_ENTRIES and SHARED_SEPSET_RATIO * entries(tree.net,
                                                                       sepset.members) <= size:
            small.setdefault(src, []).append(cid)
    return {src: dsts for src, dsts in small.items()
            if len(dsts) > 1 and len(dsts) * entries(tree.net, union_of(tree, src, dsts))
            <= tree._sizes[src]}


def union_of(tree, src, dsts):
    """The variables of the sepsets between `src` and its neighbors `dsts`."""
    seps = dict(tree.neighbors[src])
    return set().union(*(tree.sepsets[seps[dst]].members for dst in dsts))


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


def hub_clique_network():
    """V1..V6 (5 states each) all joined, V0 a parent of V1, and a binary
    leaf Wi under each of V2..V5, with random rows: cliques (V0,V1),
    (V1,...,V6) and (Vi,Wi).  The 15,625-entry clique is the only holder of
    the leaves' sepsets (Vi), whose union (V2,...,V5) has 625 entries."""
    parents = {"V0": [], "V1": ["V0"], **{f"V{i}": [f"V{j}" for j in range(1, i)]
                                          for i in range(2, 7)},
               **{f"W{i}": [f"V{i}"] for i in range(2, 6)}}
    arities = {name: 2 if name[0] == "W" or name == "V0" else 5 for name in parents}
    rng = np.random.default_rng(6)
    return load_network({
        "variables": [{"name": n, "states": [f"s{i}" for i in range(k)]}
                      for n, k in arities.items()],
        "cpts": [{"variable": n, "parents": ps,
                  "rows": rng.dirichlet(np.ones(arities[n]),
                                        size=math.prod(arities[p] for p in ps)).tolist()}
                 for n, ps in parents.items()]})


def test_directed_pass_shares_among_the_children_it_reaches(monkeypatch):
    net = hub_clique_network()
    evidence = Evidence(net).set_hard("V0", "s1").set_hard("W2", "s0").set_hard("W5", "s1")
    tree = build_junction_tree(net)
    assert [c.members for c in tree.cliques] == [
        (0, 1), (1, 2, 3, 4, 5, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    shared = shared_children(tree)
    assert shared == {1: [2, 3, 4, 5]}
    src = 1
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


def four_variable_network(extra=None):
    """V0 -> V1 -> V2 -> V3, with V4 a child of V0 and V3, and random rows;
    `extra`, a (name, arity) pair, adds a child of V0 and V1."""
    parents = {"V0": [], "V1": ["V0"], "V2": ["V1"], "V3": ["V2"], "V4": ["V0", "V3"]}
    arities = {"V0": 20, "V1": 20, "V2": 12, "V3": 11, "V4": 3}
    if extra is not None:
        parents[extra[0]], arities[extra[0]] = ["V0", "V1"], extra[1]
    rng = np.random.default_rng(5)
    return load_network({
        "variables": [{"name": n, "states": [f"s{i}" for i in range(k)]}
                      for n, k in arities.items()],
        "cpts": [{"variable": n, "parents": ps,
                  "rows": rng.dirichlet(np.ones(arities[n]),
                                        size=math.prod(arities[p] for p in ps)).tolist()}
                 for n, ps in parents.items()]})


def test_children_whose_sepsets_cover_the_clique_are_sent_alone(monkeypatch):
    # Cliques (V0,V1,V3), (V0,V3,V4), (V1,V2,V3).  The sepsets (V0,V3) and
    # (V1,V3) of clique 0 are 20 times smaller than it, but together they
    # cover it: sharing would cost two passes over all of its 4,400 entries.
    net = four_variable_network()
    tree = build_junction_tree(net)
    assert [c.members for c in tree.cliques] == [(0, 1, 3), (0, 3, 4), (1, 2, 3)]
    assert tree._sizes[0] > PLAN_ABOVE_ENTRIES
    assert all(SHARED_SEPSET_RATIO * size <= tree._sizes[0] for size in tree._sepset_sizes)
    assert union_of(tree, 0, [1, 2]) == {0, 1, 3}
    assert shared_children(tree) == {}
    evidence = Evidence(net).set_hard("V2", "s3").set_hard("V4", "s1")
    sends = count_sends(monkeypatch)
    check_full_pass(tree, evidence)
    assert sorted(sends) == [(0, 1), (0, 2), (1, 0), (2, 0)]


def test_a_member_only_the_shared_children_cover(monkeypatch):
    # W (3 states) is a child of V0 and V1.  The compiler would give it a
    # clique of its own, (V0,V1,W); this tree is built by hand with W in
    # clique 0 instead: (V0,V1,V3,W), (V0,V3,V4), (V1,V2,V3).  Clique 0 holds
    # the CPTs of V0, V1 and W only, so among its factors only its children's
    # messages cover V3.  Their sepsets (V0,V3) and (V1,V3) are 20 times
    # smaller than it and their union (V0,V1,V3) holds a third of its
    # entries, so both share its contraction, onto a table over V3 that only
    # ones cover.
    net = four_variable_network(("W", 3))
    tree = JunctionTree(net, [(0, 1, 3, 5), (0, 3, 4), (1, 2, 3)],
                        [Sepset((0, 1), (0, 3)), Sepset((0, 2), (1, 3))])
    assert tree.cliques[0].families == (0, 1, 5)
    assert 2 * entries(net, union_of(tree, 0, [1, 2])) <= tree._sizes[0]
    assert shared_children(tree) == {0: [1, 2]}
    evidence = Evidence(net).set_hard("V2", "s3").set_hard("V4", "s1")
    sends = count_sends(monkeypatch)
    check_full_pass(tree, evidence)
    assert (0, 1) not in sends and (0, 2) not in sends
    assert len(sends) == 2 * len(tree.sepsets) - 2
    collect(tree, 0)
    distribute(tree, 0, {2})    # reaches one of them, which is sent alone
    assert sends[-1] == (0, 2)
    check_message(tree, 0, 2)
