"""Junction tree compilation: moralization, triangulation, structure, charges."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import build_junction_tree, load_network
from bnsense.jtree import moralize, triangulate
from bnsense.oracle import random_network
from tests.oracle_helpers import assignments, brute_joint


def _uniform_net(parent_map):
    """Binary network with uniform rows; only the structure matters."""
    names = sorted(parent_map)
    variables = [{"name": n, "states": ["t", "f"]} for n in names]
    cpts = [{"variable": n, "parents": list(parent_map[n]),
             "rows": [[0.5, 0.5]] * (2 ** len(parent_map[n]))} for n in names]
    return load_network({"variables": variables, "cpts": cpts})


DIAMOND = {"A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"]}
# Chain V0->V1->V2->V3 with V4 hanging off {V0, V3}: the moral graph has the
# chordless cycle V0-V1-V2-V3, so triangulation must add a fill edge.
PENTAGON = {"V0": [], "V1": ["V0"], "V2": ["V1"], "V3": ["V2"], "V4": ["V0", "V3"]}


def has_running_intersection(tree) -> bool:
    """For every variable, the cliques holding it form a connected subtree."""
    for v in range(tree.net.n_variables):
        holding = [c.id for c in tree.cliques if v in c.members]
        if len(holding) <= 1:
            continue
        seen = {holding[0]}
        frontier = [holding[0]]
        while frontier:
            cid = frontier.pop()
            for other, sep_idx in tree.neighbors[cid]:
                if other in holding and other not in seen \
                        and v in tree.sepsets[sep_idx].members:
                    seen.add(other)
                    frontier.append(other)
        if set(holding) != seen:
            return False
    return True


class TestGraphSteps:
    def test_moralization_marries_coparents(self):
        net = _uniform_net(DIAMOND)
        adj = moralize(net, range(net.n_variables))
        b, c = net.variable_id("B"), net.variable_id("C")
        assert c in adj[b] and b in adj[c]

    def test_triangulation_leaves_chordal_graph_alone(self):
        net = _uniform_net(DIAMOND)
        _, fills = triangulate(moralize(net, range(net.n_variables)), net.arities)
        assert fills == set()

    def test_triangulation_breaks_chordless_cycle(self):
        net = _uniform_net(PENTAGON)
        _, fills = triangulate(moralize(net, range(net.n_variables)), net.arities)
        assert fills == {frozenset((1, 3))}


class TestStructure:
    def test_single_clique_chain(self, r1):
        tree = build_junction_tree(r1)
        assert [c.members for c in tree.cliques] == [(0, 1)]
        assert tree.sepsets == []
        assert tree.cliques[0].families == (0, 1)

    def test_two_clique_chain_golden(self, r2):
        tree = build_junction_tree(r2)
        assert tree.to_dict() == {
            "cliques": [
                {"id": 0, "members": ["A", "B"], "families": ["A", "B"]},
                {"id": 1, "members": ["B", "C"], "families": ["C"]},
            ],
            "sepsets": [{"cliques": [0, 1], "members": ["B"]}],
            "edges": [[0, 1]],
        }

    def test_diamond_cliques_and_sepset(self):
        tree = build_junction_tree(_uniform_net(DIAMOND))
        assert [c.members for c in tree.cliques] == [(0, 1, 2), (1, 2, 3)]
        assert [s.members for s in tree.sepsets] == [(1, 2)]

    def test_pentagon_cliques(self):
        tree = build_junction_tree(_uniform_net(PENTAGON))
        assert [c.members for c in tree.cliques] == [(0, 1, 3), (0, 3, 4), (1, 2, 3)]
        assert sorted(s.members for s in tree.sepsets) == [(0, 3), (1, 3)]

    def test_family_and_variable_homes(self, r2):
        tree = build_junction_tree(r2)
        assert tree.family_clique == {0: 0, 1: 0, 2: 1}
        assert tree.var_clique == {0: 0, 1: 0, 2: 1}

    def test_clique_containing(self, r2):
        tree = build_junction_tree(r2)
        assert tree.clique_containing((0, 1)) == 0
        assert tree.clique_containing((1,)) == 0      # lowest id wins
        assert tree.clique_containing((0, 2)) is None

    def test_construction_is_deterministic(self):
        rng = np.random.default_rng(21)
        net = random_network(rng, n_vars=7)
        assert build_junction_tree(net).to_dict() == build_junction_tree(net).to_dict()

    def test_running_intersection_on_random_corpus(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            tree = build_junction_tree(random_network(rng))
            assert has_running_intersection(tree)
            for sep in tree.sepsets:
                a, b = sep.cliques
                assert set(sep.members) <= set(tree.cliques[a].members)
                assert set(sep.members) <= set(tree.cliques[b].members)

    def test_every_family_is_inside_its_clique(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            net = random_network(rng)
            tree = build_junction_tree(net)
            for v in range(net.n_variables):
                home = tree.cliques[tree.family_clique[v]]
                assert set(net.family(v)) <= set(home.members)


class TestCharges:
    def test_charge_product_equals_joint(self, r2):
        tree = build_junction_tree(r2)
        product = tree.charge(0).multiply(tree.charge(1))
        for assignment in assignments(r2):
            at = {v: s for v, s in enumerate(assignment)}
            assert product.value(at) == pytest.approx(
                brute_joint(r2, assignment), abs=1e-12)

    def test_charge_product_equals_joint_random(self):
        rng = np.random.default_rng(24)
        net = random_network(rng, n_vars=5)
        tree = build_junction_tree(net)
        product = tree.charge(0)
        for c in tree.cliques[1:]:
            product = product.multiply(tree.charge(c.id))
        for assignment in itertools.islice(assignments(net), 40):
            at = {v: s for v, s in enumerate(assignment)}
            assert product.value(at) == pytest.approx(
                brute_joint(net, assignment), abs=1e-12)

    def test_set_parameter_refreshes_charge(self, r1):
        tree = build_junction_tree(r1)
        ref = r1.parameter(1, 0, (0,))
        before = tree.charge(0).value({0: 0, 1: 0})
        tree.set_parameter(ref, 0.5)
        after = tree.charge(0).value({0: 0, 1: 0})
        assert before == pytest.approx(0.2 * 0.9)
        assert after == pytest.approx(0.2 * 0.5)

    def test_json_dump_parses(self, r2):
        import json
        tree = build_junction_tree(r2)
        assert json.loads(tree.to_json()) == tree.to_dict()
