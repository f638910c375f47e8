"""The subset-product n-way algebra against the bit loops it replaced.

The reference functions below are the straightforward versions: every
equation row is built mask by mask, multiplying the setting values of the
mask's bits lowest first; each same-clique entry group is expanded over the
submasks of its disagreeing parameters; a multilinear function is evaluated
term by term.  Rows built through `subset_products` multiply the same
factors in the same order, so they must be bit-identical.  The same-clique
expansion and the evaluation add their terms in another order, so they are
held to rounding tolerances set from the float64 epsilon.
"""

import numpy as np
import pytest

from bnsense import Evidence, build_junction_tree, evaluate_multilinear, same_clique_nway
from bnsense.functions import MultilinearFunction, subset_products
from bnsense.nway import _mway_rows, _on_axis, _setting_rows
from bnsense.oracle import random_independent_parameters, random_network
from bnsense.propagation import propagate_full
from tests.conftest import possible_evidence

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# reference implementations


def _reference_value_row(n, setting):
    row = np.empty(1 << n)
    for mask in range(1 << n):
        prod = 1.0
        for i in range(n):
            if mask & (1 << i):
                prod *= setting[i]
        row[mask] = prod
    return row


def _reference_line_rows(n, i, setting):
    slope = np.zeros(1 << n)
    intercept = np.zeros(1 << n)
    for mask in range(1 << n):
        prod = 1.0
        for j in range(n):
            if j != i and mask & (1 << j):
                prod *= setting[j]
        if mask & (1 << i):
            slope[mask] = prod
        else:
            intercept[mask] = prod
    return slope, intercept


def _reference_mway_rows(n, indices, mf, setting):
    t_mask = 0
    for i in indices:
        t_mask |= 1 << i
    rows = []
    rhs = []
    for sub_mask, coeff in mf.coefficients.items():
        y_mask = 0
        for k, i in enumerate(indices):
            if sub_mask & (1 << k):
                y_mask |= 1 << i
        row = np.zeros(1 << n)
        for z in range(1 << n):
            if (z & t_mask) != y_mask:
                continue
            prod = 1.0
            rest = z & ~t_mask
            for j in range(n):
                if rest & (1 << j):
                    prod *= setting[j]
            row[z] = prod
        rows.append(row)
        rhs.append(coeff)
    return rows, rhs


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _reference_same_clique(tree, params, evidence):
    """Same classification as the library; each group expanded submask by submask.

    Returns the coefficients and, per coefficient, the sum of the magnitudes
    of the group sums added into it (the scale its rounding error is bounded by).
    """
    net = tree.net
    needed = tuple(sorted({v for ref in params for v in net.family(ref.variable)}))
    propagate_full(tree, evidence, root=tree.clique_containing(needed))
    pot = tree.joint(needed)
    table = pot.table
    axis = {v: k for k, v in enumerate(pot.vars)}
    n = len(params)
    digits = np.zeros((1,) * table.ndim, dtype=np.int64)
    weight = table
    for i, ref in enumerate(params):
        context = np.ones((1,) * table.ndim, dtype=bool)
        for p, s in zip(net.parents[ref.variable], ref.parent_config):
            context = context & _on_axis(np.arange(net.arity(p)) == s, axis[p], table.ndim)
        held = _on_axis(np.arange(net.arity(ref.variable)) == ref.state,
                        axis[ref.variable], table.ndim)
        value = net.parameter_value(ref)
        digits = digits + 3 ** i * np.where(context, np.where(held, 1, 2), 0)
        weight = weight / np.where(context, np.where(held, value or 1.0, 1.0 - value), 1.0)

    digits = np.broadcast_to(digits, table.shape).ravel()
    sums = np.bincount(digits, weights=weight.ravel(), minlength=3 ** n)
    coeffs = np.zeros(1 << n)
    scale = np.zeros(1 << n)
    for group in np.flatnonzero(sums):
        matched = disagreeing = 0
        code = int(group)
        for i in range(n):
            code, digit = divmod(code, 3)
            if digit == 1:
                matched |= 1 << i
            elif digit == 2:
                disagreeing |= 1 << i
        for sub in _submasks(disagreeing):
            sign = -1.0 if bin(sub).count("1") % 2 else 1.0
            coeffs[matched | sub] += sign * float(sums[group])
            scale[matched | sub] += abs(float(sums[group]))
    return coeffs, scale


def _reference_evaluate(mf, values):
    total = 0.0
    for mask, coeff in mf.coefficients.items():
        term = coeff
        i = 0
        m = mask
        while m:
            if m & 1:
                term *= values[i]
            m >>= 1
            i += 1
        total += term
    return total


# ---------------------------------------------------------------------------
# fixtures of the comparison


def _setting(rng, n):
    """Random values in [0, 1), with 0.0 and values just below 1 (down to one ulp) mixed in."""
    setting = rng.uniform(size=n)
    edge = [0.0, np.nextafter(1.0, 0.0), 1.0 - 1e-12, 1.0 - 1e-6]
    for i in rng.choice(n, size=min(n, 3), replace=False):
        setting[i] = edge[int(rng.integers(len(edge)))]
    return setting


def _random_function(rng, n):
    return MultilinearFunction(tuple(range(n)),
                               {mask: float(rng.normal()) for mask in range(1 << n)})


# ---------------------------------------------------------------------------
# comparisons


def test_subset_products_layout():
    a0, a1, b0, b1 = 2.0, 3.0, 5.0, 7.0
    got = subset_products([[[a0, a1], [b0, b1]], [[1.0, 0.0], [0.0, 1.0]]])
    assert got.tolist() == [[a0 * b0, a1 * b0, a0 * b1, a1 * b1], [0.0, 0.0, 1.0, 0.0]]


@pytest.mark.parametrize("n", range(1, 9))
def test_setting_rows_are_bit_identical(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        setting = _setting(rng, n)
        expected = [_reference_value_row(n, setting)]
        for i in range(n):
            expected.extend(_reference_line_rows(n, i, setting))
        assert np.array_equal(_setting_rows(setting), np.array(expected))


@pytest.mark.parametrize("n", range(1, 9))
def test_lower_order_rows_are_bit_identical(n):
    rng = np.random.default_rng(200 + n)
    for m in range(1, min(n, 3) + 1):
        for _ in range(3):
            setting = _setting(rng, n)
            indices = [int(i) for i in rng.choice(n, size=m, replace=False)]
            mf = _random_function(rng, m)
            rows, rhs = _mway_rows(indices, mf, setting)
            expected_rows, expected_rhs = _reference_mway_rows(n, indices, mf, setting)
            assert np.array_equal(rows, np.array(expected_rows))
            assert rhs == expected_rhs


def test_same_clique_expansion_matches_submask_loop():
    rng = np.random.default_rng(61)
    cases = 0
    while cases < 40:
        net = random_network(rng, n_vars=int(rng.integers(3, 9)))
        tree = build_junction_tree(net)
        clique = tree.cliques[int(rng.integers(len(tree.cliques)))]
        hosted = tuple(v for v in clique.members
                       if set(net.family(v)) <= set(clique.members))
        params = random_independent_parameters(rng, net, int(rng.integers(1, 5)),
                                                within_vars=hosted)
        if params is None:
            continue
        cases += 1
        ev = possible_evidence(rng, net) if cases % 4 else Evidence(net)
        mf = same_clique_nway(tree, params, ev)
        expected, scale = _reference_same_clique(tree, params, ev)
        got = np.array([mf.coefficients[mask] for mask in range(1 << len(params))])
        assert sorted(mf.coefficients) == list(range(1 << len(params)))
        assert np.all(np.abs(got - expected) <= 1e-15 * scale)


@pytest.mark.parametrize("n", range(1, 9))
def test_evaluate_matches_term_loop(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(4):
        mf = _random_function(rng, n)
        values = _setting(rng, n)
        scale = sum(abs(c) for c in mf.coefficients.values())
        # each of the 2^n terms is n products and one addition away from exact
        bound = (len(mf.coefficients) + n) * EPS * scale
        assert abs(evaluate_multilinear(mf, values) - _reference_evaluate(mf, values)) <= bound
