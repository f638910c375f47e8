"""Oracle helpers that only the tests use: enumeration built on
`bnsense.oracle`, and draws of independent parameters."""

import itertools

import numpy as np

from bnsense.network import (Evidence, Network, ParameterRef, apply_parameter,
                             enumerate_parameters)
from bnsense.nway import check_independent
from bnsense.oracle import brute_query


def brute_joint(net: Network, assignment: tuple[int, ...]) -> float:
    """p(assignment) as the product of one CPT entry per variable."""
    prob = 1.0
    for var in range(net.n_variables):
        config = tuple(assignment[p] for p in net.parents[var])
        prob *= float(net.row(var, config)[assignment[var]])
    return prob


def constant_on_grid(net: Network, ref: ParameterRef, variable: int, state: int,
                     evidence: Evidence | None = None, points: int = 5) -> float:
    """Max deviation of the brute posterior from constant over a grid in the parameter."""
    values = []
    for x in np.linspace(0.0, 1.0, points):
        joint, total = brute_query(apply_parameter(net, ref, float(x)), variable, state, evidence)
        if total <= 0:
            continue
        values.append(joint / total)
    if not values:
        return 0.0
    return float(max(values) - min(values))


def assignments(net: Network):
    """All joint assignments (state-index tuples) of the network's variables."""
    return itertools.product(*(range(net.arity(v)) for v in range(net.n_variables)))


def random_independent_parameters(rng: np.random.Generator, net: Network, n: int,
                                  within_vars: tuple[int, ...] | None = None,
                                  tries: int = 200) -> list[ParameterRef] | None:
    """Draw n pairwise-independent parameters, or None if the draws keep failing."""
    pool = enumerate_parameters(net, within_vars)
    if len(pool) < n:
        return None
    for _ in range(tries):
        idx = rng.choice(len(pool), size=n, replace=False)
        refs = [pool[int(i)] for i in idx]
        if check_independent(net, refs):
            return refs
    return None
