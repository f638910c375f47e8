"""One-way sensitivity analysis on a propagated junction tree.

The posterior of interest, as a function of a single CPT entry under
proportional co-variation, is a quotient of two lines.  Both lines are read
off the propagated junction tree:

* the *local-extraction* route computes a line's slope and intercept directly
  from p(family, e) of the parameter's variable, read from the family's
  cheapest holder in the tree (one read per variable, after one inward and
  at most two outward propagations for every parameter at once);
* the *two-point* route propagates at a second parameter value and fits the
  line through the two evaluations (used when all posteriors for one
  parameter are wanted).

Both routes exist as public operations and must agree to high precision; the
tests hold them to the enumeration oracle as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BnsenseError
from .functions import LinearCoeffs, SensitivityFunction, derivative, evaluate
from .jtree import JunctionTree
from .network import (Evidence, Network, ParameterRef, QueryRef, covary_row,
                      enumerate_parameters)
from .potentials import Potential
from .propagation import (collect, distribute, enter_finding, evidence_probability,
                          marginal, propagate_full)

__all__ = ["relevant_parameters", "one_output_all_params_m1", "one_output_all_params_m2",
           "all_outputs_one_param", "OneWayAnalysis", "OneParamAnalysis",
           "evaluate", "derivative"]


@dataclass
class OneWayAnalysis:
    """Sensitivity functions for one posterior over many parameters."""

    query: QueryRef
    functions: dict[ParameterRef, SensitivityFunction]
    skipped: list[tuple[ParameterRef, str]] = field(default_factory=list)


@dataclass
class OneParamAnalysis:
    """Sensitivity functions for all states of all targets over one parameter."""

    parameter: ParameterRef
    functions: dict[int, tuple[SensitivityFunction, ...]]  # variable -> per-state
    denominator: LinearCoeffs


# ---------------------------------------------------------------------------
# relevance screening


def _influenced_variables(net: Network, target: int, evidence_vars: set[int]) -> set[int]:
    """Variables whose CPT can influence p(target | evidence) — a sound superset.

    For each variable B, imagine an extra parent of B that selects among CPT
    rows; B's parameters can matter only if that parent is connected to the
    target by an active trail.  Findings are treated as observations of a
    dummy *child* of the finding variable (virtual evidence), so no real
    variable is conditioned on: chains and forks stay open everywhere, and a
    collider is open iff the junction variable has a finding on or below it.

    Active trails read the same in both directions, so one ball search from
    the target finds them all: B is relevant iff the ball can leave B upward,
    that is, it reached B from a child (a chain or fork at B; the target
    counts as reached from below), or from a parent while B has a finding on
    or below it (a collider at B).
    """
    has_observed_below = _ancestors_of_evidence(net, evidence_vars)
    relevant: set[int] = set()
    seen: set[tuple[int, bool]] = set()
    stack: list[tuple[int, bool]] = [(target, False)]  # (node, arrived-from-parent?)
    while stack:
        node, from_parent = stack.pop()
        if (node, from_parent) in seen:
            continue
        seen.add((node, from_parent))
        for c in net.children(node):
            stack.append((c, True))
        if not from_parent or node in has_observed_below:
            relevant.add(node)
            for p in net.parents[node]:
                stack.append((p, False))
    return relevant


def _ancestors_of_evidence(net: Network, evidence_vars: set[int]) -> set[int]:
    """Variables with a finding on themselves or on some descendant."""
    out = set(evidence_vars)
    for v in reversed(net.topological_order()):
        if v in out:
            continue
        if any(c in out for c in net.children(v)):
            out.add(v)
    return out


def relevant_parameters(net: Network, query: QueryRef,
                        evidence: Evidence | None = None) -> list[ParameterRef]:
    """Parameters that may influence the query — a sound superset, in CPT order."""
    evidence_vars = set(evidence.variables()) if evidence is not None else set()
    keep = _influenced_variables(net, query.variable, evidence_vars)
    return [p for p in enumerate_parameters(net) if p.variable in keep]


# ---------------------------------------------------------------------------
# local extraction of line coefficients from clique potentials


def _family_marginal(tree: JunctionTree, var: int,
                     cache: dict[int, Potential]) -> Potential:
    """p(family, e) of the variable, read from the family's cheapest holder in the tree."""
    marg = cache.get(var)
    if marg is None:
        marg = cache[var] = tree.joint(tree.net.family(var))
    return marg


def _row_mass_by_state(tree: JunctionTree, marg: Potential, var: int,
                       parent_config: tuple[int, ...]) -> np.ndarray:
    """A family marginal's masses at one parent row, one per state of the variable."""
    assign = dict(zip(tree.net.parents[var], parent_config))
    idx = tuple(slice(None) if v == var else assign[v] for v in marg.vars)
    return np.asarray(marg.table[idx], dtype=float)


def _extract_lines(tree: JunctionTree, params: list[ParameterRef]):
    """Line coefficients of the tree's current total mass in each parameter.

    Requires a consistent tree.  For parameter p(b_i | pi) of variable B, the
    rows at (B, pi) of p(family(B), e) split the total mass into the part
    carrying the parameter, the part co-varying with it, and the rest; slope
    and intercept follow by dividing out the current row values.
    Degenerate parameters (value 1) are reported, not silently dropped.
    """
    lines: dict[ParameterRef, LinearCoeffs] = {}
    skipped: list[tuple[ParameterRef, str]] = []
    cache: dict[int, Potential] = {}
    for ref in params:
        value = tree.net.parameter_value(ref)
        if value >= 1.0:
            skipped.append((ref, "parameter value is 1; co-variation undefined"))
            continue
        marg = _family_marginal(tree, ref.variable, cache)
        mass = _row_mass_by_state(tree, marg, ref.variable, ref.parent_config)
        total = marg.total()
        held = float(mass[ref.state])
        covaried = float(mass.sum()) - held
        rest = total - held - covaried
        direct = held / value if value > 0 else 0.0  # 0/0 := 0 (mass vanishes with value)
        shrink = covaried / (1.0 - value)
        lines[ref] = LinearCoeffs(direct - shrink, shrink + rest)
    return lines, skipped


# ---------------------------------------------------------------------------
# one output, all parameters


def _indicator(tree: JunctionTree, query: QueryRef) -> np.ndarray:
    vec = np.zeros(tree.net.arity(query.variable))
    vec[query.state] = 1.0
    return vec


def one_output_all_params_m1(tree: JunctionTree, query: QueryRef,
                             evidence: Evidence | None = None,
                             params: list[ParameterRef] | None = None) -> OneWayAnalysis:
    """Local-extraction analysis: 1 inward + 2 outward propagations total.

    The evidence propagation yields every denominator line locally; injecting
    the query indicator at the query clique and replaying one outward pass
    yields every numerator line the same way.
    """
    if params is None:
        params = enumerate_parameters(tree.net)
    home = tree.var_clique[query.variable]
    propagate_full(tree, evidence, root=home)
    den_lines, skipped = _extract_lines(tree, params)

    tree.inject_finding(home, query.variable, _indicator(tree, query))
    distribute(tree, home)
    num_lines, _ = _extract_lines(tree, params)

    functions = {
        ref: SensitivityFunction(ref, num_lines[ref], den_lines[ref])
        for ref in params if ref in den_lines
    }
    return OneWayAnalysis(query, functions, skipped)


def one_output_all_params_m2(tree: JunctionTree, query: QueryRef,
                             evidence: Evidence | None = None,
                             params: list[ParameterRef] | None = None) -> OneWayAnalysis:
    """Two-point analysis: 1 inward + 2 outward propagations total.

    One inward pass toward the query clique, one outward pass with the query
    indicator, one outward pass with the complementary finding.  Each pass
    evaluates p(target-or-complement, e) at the current parameter value and,
    by reweighting the family's mass p(family, e) with a co-varied row, at a
    second value; the two points fix the line.  Numerator lines come from the
    indicator pass, denominator lines are the sum over the two passes.
    """
    if params is None:
        params = enumerate_parameters(tree.net)
    home = tree.var_clique[query.variable]
    tree.reset()
    if evidence is not None:
        for var, vec in evidence.items():
            enter_finding(tree, var, vec)
    collect(tree, home)

    tree.inject_finding(home, query.variable, _indicator(tree, query))
    distribute(tree, home)
    num_lines, skipped = _two_point_lines(tree, params)

    tree.inject_finding(home, query.variable, 1.0 - _indicator(tree, query))
    distribute(tree, home)
    rest_lines, _ = _two_point_lines(tree, params)

    functions = {}
    for ref in params:
        if ref not in num_lines:
            continue
        num = num_lines[ref]
        rest = rest_lines[ref]
        functions[ref] = SensitivityFunction(
            ref, num, LinearCoeffs(num.slope + rest.slope, num.intercept + rest.intercept))
    return OneWayAnalysis(query, functions, skipped)


def _line_through(x1: float, y1: float, x2: float, y2: float) -> LinearCoeffs:
    """The line through (x1, y1) and (x2, y2)."""
    return LinearCoeffs((y1 - y2) / (x1 - x2), (x1 * y2 - x2 * y1) / (x1 - x2))


def _second_value(x1: float) -> float:
    return (x1 + 1.0) / 2.0 if x1 < 0.5 else x1 / 2.0


def _two_point_lines(tree: JunctionTree, params: list[ParameterRef]):
    """Lines of the tree's current mass in each parameter via row reweighting.

    The family marginal carries the current row values; multiplying its
    (B, pi) slices by covaried-row / current-row ratios evaluates the mass at
    a second parameter value without touching the tree.
    """
    lines: dict[ParameterRef, LinearCoeffs] = {}
    skipped: list[tuple[ParameterRef, str]] = []
    cache: dict[int, Potential] = {}
    mass_total = evidence_probability(tree)
    for ref in params:
        x1 = tree.net.parameter_value(ref)
        if x1 >= 1.0:
            skipped.append((ref, "parameter value is 1; co-variation undefined"))
            continue
        x2 = _second_value(x1)
        marg = _family_marginal(tree, ref.variable, cache)
        mass = _row_mass_by_state(tree, marg, ref.variable, ref.parent_config)
        row1 = tree.net.row(ref.variable, ref.parent_config)
        row2 = covary_row(row1, ref.state, x2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(row1 > 0, row2 / np.where(row1 > 0, row1, 1.0), 0.0)
        reweighted = float((mass * ratio).sum()) + (marg.total() - float(mass.sum()))
        lines[ref] = _line_through(x1, mass_total, x2, reweighted)
    return lines, skipped


# ---------------------------------------------------------------------------
# all outputs, one parameter


def all_outputs_one_param(tree: JunctionTree, ref: ParameterRef,
                          evidence: Evidence | None = None) -> OneParamAnalysis:
    """Every posterior's line pair in one parameter: 1 inward + 2 outward.

    Propagate at the current value, record every variable's marginal and p(e);
    co-vary the parameter's row to a second value, replay one outward pass
    from the family clique, record again; fit every line through its two
    points.
    """
    x1 = tree.net.parameter_value(ref)
    if x1 >= 1.0:
        raise BnsenseError("parameter value is 1; co-variation undefined")
    x2 = _second_value(x1)
    targets = range(tree.net.n_variables)

    home = tree.family_clique[ref.variable]
    propagate_full(tree, evidence, root=home)
    first = {var: marginal(tree, var) for var in targets}
    pe1 = evidence_probability(tree)

    tree.set_parameter(ref, x2)
    distribute(tree, home)
    second = {var: marginal(tree, var) for var in targets}
    pe2 = evidence_probability(tree)

    den = _line_through(x1, pe1, x2, pe2)
    functions = {
        var: tuple(
            SensitivityFunction(
                ref, _line_through(x1, float(first[var][s]), x2, float(second[var][s])), den)
            for s in range(tree.net.arity(var)))
        for var in targets
    }
    return OneParamAnalysis(ref, functions, den)
