"""Brute-force enumeration oracle and random-model generators.

Everything here recomputes, by full enumeration over the joint state space,
the quantities the junction-tree engine produces cleverly.  The oracle is the
reference the engine is tested against; it must stay dead simple.
"""

from __future__ import annotations

import numpy as np

from .functions import LinearCoeffs, MultilinearFunction, SensitivityFunction, evaluate_multilinear
from .network import Evidence, Network, ParameterRef, Variable, apply_parameter
from .potentials import Potential

MAX_STATE_BITS = 20.0
LINEARITY_TOLERANCE = 1e-10


def _guard(net: Network) -> None:
    bits = net.joint_state_bits()
    if bits > MAX_STATE_BITS:
        raise ValueError(
            f"joint state space of 2^{bits:.1f} states is too large to enumerate")


def _joint_table(net: Network, evidence: Evidence | None) -> Potential:
    _guard(net)
    pot = Potential.ones(net, tuple(range(net.n_variables)))
    for var in range(net.n_variables):
        pot = pot.multiply(Potential.from_cpt(net, var))
    if evidence is not None:
        for var, vec in evidence.items():
            pot = pot.multiply_vector(var, vec)
    return pot


def brute_query(net: Network, variable: int, state: int,
                evidence: Evidence | None = None) -> tuple[float, float]:
    """(p(variable=state, e), p(e)) by full enumeration."""
    pot = _joint_table(net, evidence)
    joint = float(pot.marginalize((variable,)).table[state])
    return joint, pot.total()


def brute_evidence_probability(net: Network, evidence: Evidence | None = None) -> float:
    return _joint_table(net, evidence).total()


def fit_linear_sf(net: Network, ref: ParameterRef, variable: int, state: int,
                  evidence: Evidence | None = None) -> SensitivityFunction:
    """Fit the exact sensitivity function from enumerations at x = 0, 1/2, 1.

    The numerator and denominator are both linear in the parameter; the
    endpoints determine the lines and the midpoint enumeration must agree
    with them to within LINEARITY_TOLERANCE, witnessing linearity.
    """
    num = {}
    den = {}
    for x in (0.0, 0.5, 1.0):
        num[x], den[x] = brute_query(apply_parameter(net, ref, x), variable, state, evidence)
    for name, pts in (("numerator", num), ("denominator", den)):
        mid = 0.5 * (pts[0.0] + pts[1.0])
        if abs(pts[0.5] - mid) > LINEARITY_TOLERANCE:
            raise AssertionError(
                f"{name} is not linear in the parameter: midpoint off by "
                f"{abs(pts[0.5] - mid):.3e}")
    return SensitivityFunction(
        parameter=ref,
        numerator=LinearCoeffs(num[1.0] - num[0.0], num[0.0]),
        denominator=LinearCoeffs(den[1.0] - den[0.0], den[0.0]),
    )


def fit_multilinear(net: Network, refs: list[ParameterRef],
                    evidence: Evidence | None = None) -> MultilinearFunction:
    """Fit p(e) over a parameter tuple from the {0,1}^n grid of enumerations.

    Coefficients come out of Moebius inversion over the subset lattice; an
    off-grid enumeration at the all-1/2 point must then match the fit.
    """
    n = len(refs)
    grid = np.empty(1 << n)
    for mask in range(1 << n):
        net_m = net
        for i, ref in enumerate(refs):
            net_m = apply_parameter(net_m, ref, 1.0 if mask & (1 << i) else 0.0)
        grid[mask] = brute_evidence_probability(net_m, evidence)
    coeffs: dict[int, float] = {}
    for mask in range(1 << n):
        total = 0.0
        sub = mask
        while True:
            sign = -1.0 if bin(mask ^ sub).count("1") % 2 else 1.0
            total += sign * grid[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        coeffs[mask] = float(total)
    fit = MultilinearFunction(tuple(refs), coeffs)

    net_h = net
    for ref in refs:
        net_h = apply_parameter(net_h, ref, 0.5)
    direct = brute_evidence_probability(net_h, evidence)
    fitted = evaluate_multilinear(fit, [0.5] * n)
    if abs(direct - fitted) > LINEARITY_TOLERANCE:
        raise AssertionError(
            f"multilinear fit misses the all-1/2 enumeration by {abs(direct - fitted):.3e}")
    return fit


# ---------------------------------------------------------------------------
# random models for cross-checking


def random_network(rng: np.random.Generator, n_vars: int | None = None,
                   max_states: int = 3, max_parents: int = 3,
                   connected: bool = True) -> Network:
    """A random DAG with CPT entries bounded away from zero.

    Variables are named V0..Vk in topological order.  With connected=True
    every variable after the first draws at least one parent, which makes the
    DAG (and hence the junction tree) connected.
    """
    if n_vars is None:
        n_vars = int(rng.integers(3, 9))
    variables = []
    parents: list[tuple[int, ...]] = []
    tables = []
    for v in range(n_vars):
        arity = int(rng.integers(2, max_states + 1))
        variables.append(Variable(f"V{v}", tuple(f"s{i}" for i in range(arity))))
        lo = 1 if (connected and v > 0) else 0
        k = int(rng.integers(lo, min(v, max_parents) + 1)) if v else 0
        pars = tuple(sorted(int(i) for i in rng.choice(v, size=k, replace=False))) if k else ()
        parents.append(pars)
        n_rows = 1
        for p in pars:
            n_rows *= variables[p].arity
        raw = rng.uniform(0.05, 1.0, size=(n_rows, arity))
        tables.append(raw / raw.sum(axis=1, keepdims=True))
    return Network(variables, parents, tables)


def random_evidence(rng: np.random.Generator, net: Network,
                    max_findings: int = 3) -> Evidence:
    """Random findings of mixed kinds on a random subset of variables."""
    ev = Evidence(net)
    n = int(rng.integers(0, max_findings + 1))
    if n == 0:
        return ev
    chosen = rng.choice(net.n_variables, size=min(n, net.n_variables), replace=False)
    for var in sorted(int(v) for v in chosen):
        kind = rng.integers(0, 3)
        arity = net.arity(var)
        if kind == 0:
            ev.set_hard(var, int(rng.integers(arity)))
        elif kind == 1 and arity > 1:
            ev.set_negative(var, int(rng.integers(arity)))
        else:
            ev.set_likelihood(var, rng.uniform(0.1, 1.0, size=arity))
    return ev
    for _ in range(tries):
        idx = rng.choice(len(pool), size=n, replace=False)
        refs = [pool[int(i)] for i in idx]
        if check_independent(net, refs):
            return refs
    return None
