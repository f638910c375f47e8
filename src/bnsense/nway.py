"""n-way sensitivity analysis: multilinear coefficients of p(e) in n parameters.

Under proportional co-variation of n pairwise-independent parameters, the
evidence probability is multilinear — one coefficient per parameter subset.

Two routes compute the coefficients:

* when every parameter's family lives inside one clique, a single propagation
  suffices: each entry of p(U, e), for U the union of the families, is
  classified by which parameter contexts hold and which designated states it
  matches, and the 2^n coefficients come out of the 3^n group sums by one
  2x3 contraction per parameter (parameters at value 0 are first co-varied
  to 1/2, which costs one replay);
* in general, a linear system over the 2^n coefficients is assembled from
  whatever lower-order analyses are available plus propagations at
  deterministic fresh parameter settings, extended until full rank; each
  extra propagation re-sends only the messages the co-varied rows reach.
  A setting's line equations are the one-way local-extraction lines, read
  one family per variable (`oneway._family_lines`), and those reads direct
  every outward pass.

Every equation row is a product over the subset lattice of per-parameter
factor pairs (`functions.subset_products`): (1, x_i) where parameter i is
held at x_i, (0, 1) or (1, 0) where a row picks its slope or intercept or a
lower-order subset fixes its bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BnsenseError, CliqueMembershipError, DegenerateParameterError,
                     DependentParametersError, RankDeficiencyError)
from .functions import MultilinearFunction, evaluate_multilinear, subset_products
from .jtree import JunctionTree
from .network import Evidence, Network, ParameterRef
from .oneway import _family_lines, _pick, _variables, read_cliques
from .propagation import evidence_probability, propagate_full, replay, require_compiled

__all__ = ["check_independent", "same_clique_nway", "general_nway",
           "extra_propagation_budget", "NWayResult", "evaluate_multilinear"]


def check_independent(net: Network, params: list[ParameterRef]) -> bool:
    """Pairwise independence: distinct CPT rows, and neither parameter's
    variable is a parent of the other's (co-variation of one row must not
    interact with the other's conditioning context)."""
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            a, b = params[i], params[j]
            if a.variable == b.variable and a.parent_config == b.parent_config:
                return False
            if a.variable in net.parents[b.variable]:
                return False
            if b.variable in net.parents[a.variable]:
                return False
    return True


def _require_analyzable(net: Network, params: list[ParameterRef]) -> None:
    if not params:
        raise BnsenseError("no parameters given")
    if len(params) > len(_WEYL_PRIMES):
        raise BnsenseError(
            f"n-way analysis supports at most {len(_WEYL_PRIMES)} parameters")
    if not check_independent(net, params):
        raise DependentParametersError(
            "parameters are not pairwise independent (shared row, or one's "
            "variable is a parent of another's)")
    for ref in params:
        if net.parameter_value(ref) >= 1.0:
            raise DegenerateParameterError(
                "a parameter with value 1 cannot be co-varied")


# ---------------------------------------------------------------------------
# all families in one clique: one propagation


# rows: a subset's bit for one parameter; columns: an entry's digit for it
# (outside the context, matches the designated state, disagrees with it)
_EXPAND = np.array([[1.0, 0.0, 1.0],
                    [0.0, 1.0, -1.0]])


def _on_axis(vec: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A vector shaped to broadcast along one axis of an ndim-axis table."""
    return vec.reshape(tuple(-1 if k == axis else 1 for k in range(ndim)))


def same_clique_nway(tree: JunctionTree, params: list[ParameterRef],
                     evidence: Evidence | None = None) -> MultilinearFunction:
    """All 2^n coefficients from one propagation, read off one table.

    The route needs one clique that holds U, the union of the parameters'
    families; it propagates toward that clique and reads p(U, e) from U's
    cheapest holder (`JunctionTree.joint`), which is no larger than the
    clique.  Every entry of that table carries each parameter's current row
    value as a factor exactly when that parameter's context (its parent
    configuration) holds in the entry.  Dividing the factor out and expanding
    the co-variation line per held context turns each entry into signed
    contributions to the coefficients of every subset between its matched
    parameters and its matched-plus-disagreeing ones.

    A parameter at value 0 leaves nothing to divide out, so such parameters
    are co-varied to 1/2 and the table is read after one `replay` from their
    family cliques; p(e) is the same multilinear function from any point on
    the co-variation line.  The operating-point network is put back on
    return.
    """
    net = tree.net
    _require_analyzable(net, params)
    require_compiled(tree, [ref.variable for ref in params])
    needed = tuple(sorted({v for ref in params for v in net.family(ref.variable)}))
    home = tree.clique_containing(needed)
    if home is None:
        raise CliqueMembershipError(
            "no single clique contains all the parameter families")

    propagate_full(tree, evidence, root=home)
    shifted = [ref for ref in params if net.parameter_value(ref) == 0.0]
    try:
        if shifted:
            for ref in shifted:
                tree.set_parameter(ref, 0.5)
            replay(tree, {tree.family_clique[ref.variable] for ref in shifted})
        pot = tree.joint(needed)
        values = [tree.net.parameter_value(ref) for ref in params]
    finally:
        if shifted:
            tree.restore_network(net)

    # Classify every entry at once.  Per parameter, an entry is outside its
    # context (digit 0), matches the designated state (1) or disagrees with
    # it (2); the entry's weight is its mass with the held row values divided
    # out, in parameter order.  Entries with equal digits expand alike, so
    # they are summed first and only the at most 3^n groups are expanded.
    table = pot.table
    axis = {v: k for k, v in enumerate(pot.vars)}
    n = len(params)
    digits = np.zeros((1,) * table.ndim, dtype=np.int64)
    weight = table
    for i, (ref, value) in enumerate(zip(params, values)):
        context = np.ones((1,) * table.ndim, dtype=bool)
        for p, s in zip(net.parents[ref.variable], ref.parent_config):
            context = context & _on_axis(np.arange(net.arity(p)) == s, axis[p], table.ndim)
        held = _on_axis(np.arange(net.arity(ref.variable)) == ref.state,
                        axis[ref.variable], table.ndim)
        digits = digits + 3 ** i * np.where(context, np.where(held, 1, 2), 0)
        weight = weight / np.where(context, np.where(held, value, 1.0 - value), 1.0)

    digits = np.broadcast_to(digits, table.shape).ravel()
    sums = np.bincount(digits, weights=weight.ravel(), minlength=3 ** n)
    # A group adds to the coefficient of every subset that holds its matched
    # parameters, none outside its context and any of its disagreeing ones,
    # with sign -1 per disagreeing one held: per parameter, digit d adds
    # _EXPAND[b, d] to the subsets with bit b.  Contracting the digits one at
    # a time, lowest first, leaves bit i at the place digit i had.
    coeffs = sums
    for _ in range(n):
        coeffs = (_EXPAND @ coeffs.reshape(-1, 3).T).ravel()
    return MultilinearFunction(tuple(params), dict(enumerate(coeffs.tolist())))


# ---------------------------------------------------------------------------
# the general case: a linear system over the 2^n coefficients


@dataclass
class NWayResult:
    function: MultilinearFunction
    budget: int                 # a-priori allocation of extra propagations
    extra_propagations: int     # actually performed beyond the initial one
    stats: tuple[int, int, int]  # (inward, outward, messages) over every propagation


def extra_propagation_budget(n: int, m: int) -> int:
    """A-priori extra full propagations when m-way results already exist.

    One setting yields C(n,m)*2^m + 1 equations (each m-subset's coefficients
    plus the evidence-probability value); the budget covers the remaining
    2^n unknowns by that count.  It is an allocation, not a guarantee — the
    solver extends it whenever the system stays rank-deficient.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    per_setting = math.comb(n, m) * (1 << m) + 1
    missing = (1 << n) - per_setting
    if missing <= 0:
        return 0
    return -(-missing // per_setting)


# pivots below this magnitude do not count toward the system's rank
RANK_TOLERANCE = 1e-10

_WEYL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _extension_setting(k: int, operating: np.ndarray) -> np.ndarray:
    """k-th deterministic fresh setting: each parameter moves a distinct
    fraction of its gap toward one.

    Collinear settings (every parameter moved by the same fraction) confine
    the value and slope equations to a low-dimensional span — at most 1 + n^2,
    below 2^n from n = 4 up — so the fractions must differ per parameter.
    Irrational rotations k*sqrt(prime) mod 1 spread the settings through the
    unit cube, keeping the system generically full-rank and well conditioned;
    the clamp keeps every parameter strictly inside (0, 1) and moving.
    """
    fractions = np.array([(k * math.sqrt(p)) % 1.0
                          for p in _WEYL_PRIMES[:len(operating)]])
    fractions = 0.05 + 0.9 * fractions
    return operating + fractions * (1.0 - operating)


def _setting_rows(setting: np.ndarray) -> np.ndarray:
    """Coefficient rows of one setting's equations, as a (2n+1, 2^n) batch.

    Row 0 is the evidence-probability value; rows 1+2i and 2+2i are the
    slope and intercept of the line in parameter i with every other
    parameter held at the setting.
    """
    n = len(setting)
    factors = np.tile(np.stack([np.ones(n), setting], axis=-1), (2 * n + 1, 1, 1))
    each = np.arange(n)
    factors[1 + 2 * each, each] = (0.0, 1.0)
    factors[2 + 2 * each, each] = (1.0, 0.0)
    return subset_products(factors)


def _mway_rows(indices: list[int], mf: MultilinearFunction,
               setting: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Equations tying a lower-order analysis's coefficients to the unknowns.

    The fitted coefficient of subset Y within the analyzed tuple T equals the
    sum, over all global subsets Z with Z∩T = Y, of the unknown coefficient
    of Z times the setting values of Z's parameters outside T.
    """
    masks = np.fromiter(mf.coefficients, dtype=np.int64, count=len(mf.coefficients))
    bits = (masks[:, None] >> np.arange(len(indices))) & 1
    factors = np.tile(np.stack([np.ones(len(setting)), setting], axis=-1), (len(masks), 1, 1))
    factors[:, indices] = np.stack([1 - bits, bits], axis=-1)
    return subset_products(factors), list(mf.coefficients.values())


def _eliminate(matrix: np.ndarray, rhs: np.ndarray):
    """Row-echelon by partial pivoting; returns (rank, solution or None)."""
    a = matrix.astype(float).copy()
    b = rhs.astype(float).copy()
    m, ncols = a.shape
    pivot_cols = []
    row = 0
    for col in range(ncols):
        if row >= m:
            break
        lead = int(np.argmax(np.abs(a[row:, col]))) + row
        if abs(a[lead, col]) < RANK_TOLERANCE:
            continue
        if lead != row:
            a[[row, lead]] = a[[lead, row]]
            b[[row, lead]] = b[[lead, row]]
        factors = a[row + 1:, col] / a[row, col]
        a[row + 1:] -= np.outer(factors, a[row])
        b[row + 1:] -= factors * b[row]
        pivot_cols.append(col)
        row += 1
    rank = len(pivot_cols)
    if rank < ncols:
        return rank, None
    x = np.zeros(ncols)
    for r in range(ncols - 1, -1, -1):
        col = pivot_cols[r]
        x[col] = (b[r] - a[r, col + 1:] @ x[col + 1:]) / a[r, col]
    return rank, x


def general_nway(tree: JunctionTree, params: list[ParameterRef],
                 evidence: Evidence | None = None,
                 lower_order: list[MultilinearFunction] | None = None) -> NWayResult:
    """Assemble and solve the coefficient system for arbitrary parameter sets.

    The initial propagation at the operating point contributes the
    evidence probability and every parameter's line there; given lower-order
    analyses contribute their coefficient equations.  While the system is
    rank-deficient, further propagations run at deterministic fresh settings,
    up to a hard cap of 2^n, each adding its value and line equations.  Each
    setting co-varies the parameters' rows in place on the caller's tree and
    re-sends only the messages those rows reach (`replay`): the inward ones
    along the subtree joining the parameters' family cliques, then one
    outward pass, rooted at the lowest family clique like the first
    propagation and directed at the line reads.  The tree gets its
    operating-point network back on return.
    """
    net = tree.net
    _require_analyzable(net, params)
    require_compiled(tree, [ref.variable for ref in params])
    n = len(params)
    cap = 1 << n
    operating = np.array([net.parameter_value(ref) for ref in params])
    homes = {tree.family_clique[ref.variable] for ref in params}

    index_of = {ref: i for i, ref in enumerate(params)}
    variables = _variables(params)

    rows: list[np.ndarray] = []
    rhs: list[float] = []

    def add_rows(setting: np.ndarray) -> None:
        rows.append(_setting_rows(setting))
        rhs.append(evidence_probability(tree))
        lines, skipped = _pick(tree.net, params, _family_lines(tree, variables))
        if skipped:
            raise DegenerateParameterError(
                "a parameter reached value 1 at an analysis setting")
        for (line,) in lines.values():
            rhs.extend((line.slope, line.intercept))

    reads = read_cliques(tree, variables)
    propagate_full(tree, evidence, root=min(homes), reads=reads)
    add_rows(operating)

    for mf in lower_order or []:
        indices = []
        for ref in mf.params:
            if ref not in index_of:
                raise BnsenseError(
                    "lower-order analysis mentions a parameter outside the requested set")
            indices.append(index_of[ref])
        extra_rows, extra_rhs = _mway_rows(indices, mf, operating)
        rows.append(extra_rows)
        rhs.extend(extra_rhs)

    budget = extra_propagation_budget(n, len(lower_order[0].params)) if lower_order else (
        extra_propagation_budget(n, 1))
    extra = 0
    try:
        while True:
            rank, solution = _eliminate(np.concatenate(rows), np.array(rhs))
            if solution is not None:
                break
            if extra >= cap:
                raise RankDeficiencyError(
                    f"coefficient system stuck at rank {rank} of {1 << n} after "
                    f"{extra} extra propagations")
            extra += 1
            setting = _extension_setting(extra, operating)
            for i, ref in enumerate(params):
                tree.set_parameter(ref, float(setting[i]))
            replay(tree, homes, reads)
            add_rows(setting)
    finally:
        tree.restore_network(net)

    residual = float(np.max(np.abs(np.concatenate(rows) @ solution - np.array(rhs))))
    if residual > 1e-6:
        raise BnsenseError(
            f"coefficient system is inconsistent (residual {residual:.3e}); "
            "were the lower-order analyses computed at the operating point?")

    coeffs = {mask: float(solution[mask]) for mask in range(1 << n)}
    return NWayResult(MultilinearFunction(tuple(params), coeffs), budget, extra,
                      tree.stats.snapshot())
