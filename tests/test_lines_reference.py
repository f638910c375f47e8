"""Line arrays read one family at a time against the per-parameter loops.

The reference functions below are the straightforward versions.  Local
extraction reads, for each parameter in turn, the derivative of p(e) in its
variable's CPT (the family clique's factors with that CPT left out), takes
the parameter's row of it and splits the mass into the part carrying the
parameter, the part co-varying with it and the rest.  Two-point reads the
family's mass p(family, e) from its cheapest holder and reweights the row by
a co-varied copy of it to evaluate the mass at a second value.  Local
extraction does the same arithmetic as the library elementwise, so method 1
is bit-identical; the two-point route in the library evaluates the second
point from the derivative rather than by reweighting the row, so method 2
agrees to rounding.
"""

import numpy as np
import pytest

from bnsense import (Evidence, QueryRef, build_junction_tree, one_output_all_params_m1,
                     one_output_all_params_m2, relevant_parameters)
from bnsense.functions import LinearCoeffs
from bnsense.network import covary_row, enumerate_parameters
from bnsense.oracle import random_network
from bnsense.propagation import (collect, distribute, enter_finding, evidence_probability,
                                 propagate_full)
from tests.conftest import possible_evidence

TWO_POINT_TOLERANCE = 1e-14
DEGENERATE = "parameter value is 1; co-variation undefined"


# ---------------------------------------------------------------------------
# reference implementations


def _reference_row_mass(tree, marg, ref):
    assign = dict(zip(tree.net.parents[ref.variable], ref.parent_config))
    idx = tuple(slice(None) if v == ref.variable else assign[v] for v in marg.vars)
    return np.asarray(marg.table[idx], dtype=float)


def _reference_derivative(tree, var):
    """The derivative of p(e) in each entry of the variable's CPT, (rows, states)."""
    net = tree.net
    family = net.family(var)
    left_out = tree.read_clique(tree.family_clique[var], family, omit=var)
    axes = [family.index(v) for v in net.parents[var] + (var,)]
    return left_out.table.transpose(axes).reshape(net.cpts[var].shape)


def reference_extract_lines(tree, params):
    lines, skipped, cache = {}, [], {}
    for ref in params:
        value = tree.net.parameter_value(ref)
        if value >= 1.0:
            skipped.append((ref, DEGENERATE))
            continue
        grad = cache.get(ref.variable)
        if grad is None:
            grad = cache[ref.variable] = _reference_derivative(tree, ref.variable)
        cpt = tree.net.cpts[ref.variable]
        row = tree.net.row_index(ref.variable, ref.parent_config)
        mass = grad[row] * cpt[row]
        total = (grad * cpt).sum()
        held = float(mass[ref.state])
        covaried = float(mass.sum()) - held
        rest = total - held - covaried
        direct = float(grad[row, ref.state])
        shrink = covaried / (1.0 - value)
        lines[ref] = LinearCoeffs(direct - shrink, shrink + rest)
    return lines, skipped


def _reference_line_through(x1, y1, x2, y2):
    return LinearCoeffs((y1 - y2) / (x1 - x2), (x1 * y2 - x2 * y1) / (x1 - x2))


def reference_two_point_lines(tree, params):
    lines, skipped, cache = {}, [], {}
    mass_total = evidence_probability(tree)
    for ref in params:
        x1 = tree.net.parameter_value(ref)
        if x1 >= 1.0:
            skipped.append((ref, DEGENERATE))
            continue
        x2 = (x1 + 1.0) / 2.0 if x1 < 0.5 else x1 / 2.0
        marg = cache.get(ref.variable)
        if marg is None:
            marg = cache[ref.variable] = tree.joint(tree.net.family(ref.variable))
        mass = _reference_row_mass(tree, marg, ref)
        row1 = tree.net.row(ref.variable, ref.parent_config)
        ratio = covary_row(row1, ref.state, x2) / row1
        reweighted = float((mass * ratio).sum()) + (marg.total() - float(mass.sum()))
        lines[ref] = _reference_line_through(x1, mass_total, x2, reweighted)
    return lines, skipped


def _indicator(net, query):
    vec = np.zeros(net.arity(query.variable))
    vec[query.state] = 1.0
    return vec


def reference_m1(tree, query, evidence, params):
    """(parameter -> numerator and denominator coefficients, skipped)."""
    home = tree.var_clique[query.variable]
    propagate_full(tree, evidence, root=home)
    den, skipped = reference_extract_lines(tree, params)
    tree.inject_finding(home, query.variable, _indicator(tree.net, query))
    distribute(tree, home)
    num, _ = reference_extract_lines(tree, params)
    return {ref: (num[ref].slope, num[ref].intercept, den[ref].slope, den[ref].intercept)
            for ref in den}, skipped


def reference_m2(tree, query, evidence, params):
    home = tree.var_clique[query.variable]
    tree.reset()
    for var, vec in evidence.items():
        enter_finding(tree, var, vec)
    collect(tree, home)
    tree.inject_finding(home, query.variable, _indicator(tree.net, query))
    distribute(tree, home)
    num, skipped = reference_two_point_lines(tree, params)
    tree.inject_finding(home, query.variable, 1.0 - _indicator(tree.net, query))
    distribute(tree, home)
    rest, _ = reference_two_point_lines(tree, params)
    return {ref: (num[ref].slope, num[ref].intercept,
                  num[ref].slope + rest[ref].slope, num[ref].intercept + rest[ref].intercept)
            for ref in num}, skipped


# ---------------------------------------------------------------------------
# the library against the references


def _cases(r1, r2):
    yield r1, Evidence(r1).set_hard("B", "yes"), QueryRef(0, 0)
    yield r2, Evidence(r2).set_hard("C", "yes"), QueryRef(0, 0)
    yield r2, Evidence(r2), QueryRef(2, 1)
    rng = np.random.default_rng(4242)
    for _ in range(40):
        net = random_network(rng)
        ev = possible_evidence(rng, net)
        var = int(rng.integers(net.n_variables))
        yield net, ev, QueryRef(var, int(rng.integers(net.arity(var))))


@pytest.mark.parametrize("screened", [False, True])
def test_local_extraction_is_bit_identical(r1, r2, screened):
    for net, ev, query in _cases(r1, r2):
        params = (relevant_parameters(net, query, ev) if screened
                  else enumerate_parameters(net))
        got = one_output_all_params_m1(build_junction_tree(net), query, ev, params)
        expected, skipped = reference_m1(build_junction_tree(net), query, ev, params)
        assert got.skipped == skipped
        assert list(got.functions) == list(expected)
        for ref, sf in got.functions.items():
            assert sf.coefficients() == expected[ref]


@pytest.mark.parametrize("screened", [False, True])
def test_two_point_agrees_to_rounding(r1, r2, screened):
    worst = 0.0
    for net, ev, query in _cases(r1, r2):
        params = (relevant_parameters(net, query, ev) if screened
                  else enumerate_parameters(net))
        got = one_output_all_params_m2(build_junction_tree(net), query, ev, params)
        expected, skipped = reference_m2(build_junction_tree(net), query, ev, params)
        assert got.skipped == skipped
        assert list(got.functions) == list(expected)
        for ref, sf in got.functions.items():
            gap = np.subtract(sf.coefficients(), expected[ref])
            worst = max(worst, float(np.abs(gap).max()))
    assert worst <= TWO_POINT_TOLERANCE
