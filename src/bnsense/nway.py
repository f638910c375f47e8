"""n-way sensitivity analysis: multilinear coefficients of p(e) in n parameters.

Under proportional co-variation of n pairwise-independent parameters, the
evidence probability is multilinear — one coefficient per parameter subset.

Two routes compute the coefficients:

* when every parameter's family lives inside one clique, a single propagation
  suffices: with the parameters' rows set to ones, it reads p(U, e) without
  those rows, for U the union of the families, and one contraction with a
  degree-1 polynomial factor per row gives the 2^n coefficients, with no
  division by a parameter value (Castillo, Gutiérrez & Hadi, IEEE SMC-A
  1997; Darwiche, JACM 2003);
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
from .propagation import (evidence_probability, propagate_full, replay, require_compiled,
                          require_possible)

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


def same_clique_nway(tree: JunctionTree, params: list[ParameterRef],
                     evidence: Evidence | None = None) -> MultilinearFunction:
    """All 2^n coefficients from one propagation, read off one clique.

    The route needs one clique that holds U, the union of the parameters'
    families; `home` is the lowest such clique.  With every parameter's row
    set to ones, one inward pass toward `home` and a read of its factors give
    p(U, e) with the parameters' rows factored out, wherever their CPTs are
    assigned; the outward pass is directed at `home` and sends no message.
    Each row then comes back as a polynomial factor over its family with one
    last axis for the (constant, x) terms: x at the held entry,
    theta * (1 - x) / (1 - x0) at the row's other entries and 1 outside the
    row.  One contraction of the read with the n factors leaves the
    coefficients in mask layout; no parameter value is divided out, so a
    parameter at 0 needs nothing else.  The operating-point network is put
    back on return.
    """
    net = tree.net
    _require_analyzable(net, params)
    require_compiled(tree, [ref.variable for ref in params])
    tree.require_uncut([ref.variable for ref in params])
    needed = tuple(sorted({v for ref in params for v in net.family(ref.variable)}))
    home = tree.clique_containing(needed)
    if home is None:
        raise CliqueMembershipError(
            "no single clique contains all the parameter families")

    cleared = net
    for ref in params:
        table = np.array(cleared.cpts[ref.variable])
        table[net.row_index(ref.variable, ref.parent_config)] = 1.0
        cleared = cleared.with_cpt(ref.variable, table)
    tree.restore_network(cleared)
    try:
        propagate_full(tree, evidence, root=home, reads={home})
        rest = tree.read_clique(home, needed)
    finally:
        tree.restore_network(net)

    # per parameter, over its family in CPT axis order plus a (constant, x)
    # axis: (1, 0) outside the row, theta / (1 - x0) * (1, -1) in it and
    # (0, 1) at the held entry
    values = [net.parameter_value(ref) for ref in params]
    args = [rest.table, list(range(len(needed)))]
    for i, (ref, value) in enumerate(zip(params, values)):
        cpt = net.cpts[ref.variable]
        r = net.row_index(ref.variable, ref.parent_config)
        factor = np.zeros(cpt.shape + (2,)) + (1.0, 0.0)
        factor[r] = (cpt[r] / (1.0 - value))[:, None] * (1.0, -1.0)
        factor[r, ref.state] = (0.0, 1.0)
        listed = net.parents[ref.variable] + (ref.variable,)
        args += (factor.reshape(tuple(net.arity(v) for v in listed) + (2,)),
                 [needed.index(v) for v in listed] + [len(needed) + i])
    # output axes n-1 ... 0 put bit i of a mask on parameter i's term axis
    args.append([len(needed) + i for i in reversed(range(len(params)))])
    mf = MultilinearFunction(tuple(params), dict(enumerate(np.einsum(*args).ravel().tolist())))
    # the cleared mass can be positive where only the parameters' rows make
    # the evidence impossible; every monomial of a parameter at 0 is exactly 0
    require_possible(evaluate_multilinear(mf, values))
    return mf


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
    tree.require_uncut([ref.variable for ref in params])
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
        lines = _family_lines(tree, variables)
        index, _, _, skipped = _pick(tree.net, params)
        if skipped:
            raise DegenerateParameterError(
                "a parameter reached value 1 at an analysis setting")
        rhs.extend(lines[:, index].T.ravel().tolist())

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
