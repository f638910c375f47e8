"""Batched family reads against one read per variable.

`oneway._family_lines` reads the variables whose family reads share operand
shapes, subscripts and CPT axis order with one einsum over stacked operands.
The reference below reads each variable on its own with
`JunctionTree.read_clique(family clique, family, omit=var)` and computes its
lines with the same formulas; the two must agree bit for bit, after a pass
with the evidence and after an outward replay with an injected indicator, for
local extraction and for the two-point fit.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bnsense import build_junction_tree, load_network
from bnsense.jtree import UNPLANNED_MAX_FACTORS
from bnsense.network import Evidence, network_to_dict
from bnsense.oneway import _family_lines, _offsets
from bnsense.oracle import random_network
from bnsense.propagation import distribute, evidence_probability, propagate_full
from tests.conftest import possible_evidence

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def reference_lines(tree, var, two_point):
    """(slope, intercept) of every entry of the variable's CPT, in C order."""
    net = tree.net
    pe = evidence_probability(tree)
    cpt = net.cpts[var]
    family = net.family(var)
    order = [family.index(v) for v in net.parents[var] + (var,)]
    left_out = tree.read_clique(tree.family_clique[var], family, omit=var)
    grad = left_out.table.transpose(order).reshape(cpt.shape)
    mass = grad * cpt
    total = mass.sum()
    rowsum = mass.sum(axis=1, keepdims=True)
    covaried = rowsum - mass
    with np.errstate(divide="ignore", invalid="ignore"):
        if two_point:
            x2 = np.where(cpt < 0.5, (cpt + 1.0) / 2.0, cpt / 2.0)
            at_x2 = x2 * grad + (1.0 - x2) / (1.0 - cpt) * covaried + (total - rowsum)
            slope = (pe - at_x2) / (cpt - x2)
            intercept = (cpt * at_x2 - x2 * pe) / (cpt - x2)
        else:
            shrink = covaried / (1.0 - cpt)
            slope, intercept = grad - shrink, shrink + (total - mass - covaried)
    return slope.ravel(), intercept.ravel()


def check_batched(tree, variables):
    offsets, size = _offsets(tree.net, variables)
    for two_point in (False, True):
        lines = _family_lines(tree, variables, two_point)
        assert lines.shape == (2, size)
        for var in variables:
            at = slice(offsets[var], offsets[var] + tree.net.cpts[var].size)
            slope, intercept = reference_lines(tree, var, two_point)
            assert_array_equal(lines[0, at], slope)
            assert_array_equal(lines[1, at], intercept)


def check_both_passes(tree, evidence, rng):
    """Check every compiled variable after a full pass and after an indicator replay."""
    variables = sorted(tree.family_clique)
    home = int(rng.integers(len(tree.cliques)))
    propagate_full(tree, evidence, root=home)
    check_batched(tree, variables)
    var = tree.cliques[home].members[0]
    indicator = np.zeros(tree.net.arity(var))
    indicator[int(rng.integers(tree.net.arity(var)))] = 1.0
    tree.inject_finding(home, var, indicator)
    distribute(tree, home)
    check_batched(tree, variables)


def permuted(net, rng):
    """The same network with its variable ids shuffled, so that a family's CPT
    axis order differs between variables whose reads otherwise look alike."""
    doc = network_to_dict(net)
    doc["variables"] = [doc["variables"][i] for i in rng.permutation(net.n_variables)]
    return load_network(doc)


@pytest.mark.parametrize("seed", range(20))
def test_seeded_corpus(seed):
    rng = np.random.default_rng(500 + seed)
    net = random_network(rng, n_vars=int(rng.integers(3, 14)), connected=bool(seed % 4))
    if seed % 2:
        net = permuted(net, rng)
    check_both_passes(build_junction_tree(net), possible_evidence(rng, net), rng)


def test_cpt_axis_order_splits_groups():
    # A fork X3 -> X2 -> X1 -> X0, X3 -> X4 -> X5 -> X6: the reads of X1 and
    # X5 take two messages over the same axes, but X1's parent has the higher
    # id and X5's the lower, so their CPT axis orders differ.
    edges = {0: [1], 1: [2], 2: [3], 3: [], 4: [3], 5: [4], 6: [5]}
    rng = np.random.default_rng(9)
    net = load_network({
        "variables": [{"name": f"X{v}", "states": ["a", "b"]} for v in edges],
        "cpts": [{"variable": f"X{v}", "parents": [f"X{p}" for p in ps],
                  "rows": rng.dirichlet([1.0, 1.0], size=2 ** len(ps)).tolist()}
                 for v, ps in edges.items()]})
    check_both_passes(build_junction_tree(net), Evidence(net).set_hard("X0", "a"), rng)


def test_wide_clique_network_with_planned_cliques():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads   # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules["workloads"]
    net = load_network(json.loads(json.dumps(workloads.wide_clique(1).models[0].to_doc())))
    tree = build_junction_tree(net)
    assert any(tree.planned(c.id, ()) for c in tree.cliques)    # by size alone
    evidence = Evidence(net)
    for var in workloads.WIDE_FINDINGS:
        evidence.set_hard(var, 0)
    check_both_passes(tree, evidence, np.random.default_rng(3))


def test_star_hub_past_the_factor_limit():
    n = 40
    rng = np.random.default_rng(11)
    net = load_network({
        "variables": [{"name": "C", "states": ["a", "b", "c"]}]
        + [{"name": f"X{i}", "states": ["t", "f"]} for i in range(n)],
        "cpts": [{"variable": "C", "parents": [], "rows": [[0.2, 0.3, 0.5]]}]
        + [{"variable": f"X{i}", "parents": ["C"], "rows": rng.dirichlet([1.0, 1.0], 3).tolist()}
           for i in range(n)]})
    tree = build_junction_tree(net)
    assert max(len(tree.neighbors[c.id]) for c in tree.cliques) > UNPLANNED_MAX_FACTORS
    evidence = Evidence(net)
    for i in range(0, n, 3):
        evidence.set_hard(f"X{i}", "t")
    check_both_passes(tree, evidence, rng)


def test_alike_planned_cliques():
    # Three copies of one structure with different CPTs.  The large cliques of
    # the second and third copies, each joined to the first by an empty
    # sepset, give alike reads.  On this network a greedy path over a stack of
    # two, or over a stack of one, rounds some lines apart from the read of
    # one variable, so a planned read is read alone and unstacked.
    rng = np.random.default_rng(1)
    doc = network_to_dict(random_network(rng, n_vars=10, max_states=5, max_parents=5))
    variables, cpts = [], []
    for suffix in ("", "'", "''"):
        variables += [{**entry, "name": entry["name"] + suffix} for entry in doc["variables"]]
        cpts += [{"variable": entry["variable"] + suffix,
                  "parents": [p + suffix for p in entry["parents"]],
                  "rows": rng.dirichlet(np.ones(len(rows[0])), len(rows)).tolist()}
                 for entry in doc["cpts"] for rows in [entry["rows"]]]
    net = load_network({"variables": variables, "cpts": cpts})
    tree = build_junction_tree(net)
    assert sum(tree.planned(c.id, ()) for c in tree.cliques) >= 3
    check_both_passes(tree, Evidence(net).set_hard(0, 0), rng)
