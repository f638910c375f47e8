"""The subset-product n-way algebra against straightforward bit loops.

The reference functions below are the straightforward versions: every
equation row is built mask by mask, multiplying the setting values of the
mask's bits lowest first; the same-clique coefficients are expanded entry by
entry and mask by mask from an enumerated table of the network with the
parameters' rows set to ones; a multilinear function is evaluated term by
term.  Rows built through `subset_products` multiply the same factors in the
same order, so they must be bit-identical.  The same-clique expansion and
the evaluation add their terms in another order, so they are held to
rounding tolerances set from the float64 epsilon.
"""

import numpy as np
import pytest

from bnsense import Evidence, build_junction_tree, evaluate_multilinear, same_clique_nway
from bnsense.functions import MultilinearFunction, subset_products
from bnsense.nway import _mway_rows, _setting_rows
from bnsense.oracle import _joint_table, random_network
from tests.conftest import possible_evidence
from tests.oracle_helpers import random_independent_parameters

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


def _reference_same_clique(net, params, evidence):
    """p(U, e) of the network with the parameters' rows set to ones, by
    enumeration; each entry's per-parameter pairs expanded mask by mask.

    Per parameter, an entry outside the row contributes (1, 0) to the
    (constant, x) terms, the held entry (0, 1) and the row's other entries
    theta / (1 - x0) * (1, -1).  Returns the coefficients and, per
    coefficient, the sum of the magnitudes of the terms added into it (the
    scale its rounding error is bounded by).
    """
    cleared = net
    for ref in params:
        table = np.array(cleared.cpts[ref.variable])
        table[net.row_index(ref.variable, ref.parent_config)] = 1.0
        cleared = cleared.with_cpt(ref.variable, table)
    needed = tuple(sorted({v for ref in params for v in net.family(ref.variable)}))
    rest = _joint_table(cleared, evidence).marginalize(needed).table
    n = len(params)
    coeffs = np.zeros(1 << n)
    scale = np.zeros(1 << n)
    for index in np.ndindex(rest.shape):
        state = dict(zip(needed, index))
        pairs = []
        for ref in params:
            config = tuple(state[p] for p in net.parents[ref.variable])
            if config != ref.parent_config:
                pairs.append((1.0, 0.0))
            elif state[ref.variable] == ref.state:
                pairs.append((0.0, 1.0))
            else:
                theta = net.row(ref.variable, config)[state[ref.variable]]
                theta = theta / (1.0 - net.parameter_value(ref))
                pairs.append((theta, -theta))
        for mask in _submasks((1 << n) - 1):
            term = float(rest[index])
            for i in range(n):
                term *= pairs[i][mask >> i & 1]
            coeffs[mask] += term
            scale[mask] += abs(term)
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
        assert tree.stats.snapshot()[:2] == (1, 1) and tree.net is net
        expected, scale = _reference_same_clique(net, params, ev)
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
