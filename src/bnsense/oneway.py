"""One-way sensitivity analysis on a propagated junction tree.

The posterior of interest, as a function of a single CPT entry under
proportional co-variation, is a quotient of two lines.  Both lines of every
entry of a variable's CPT come from one read of the variable's family per
pass: the derivative of p(e) in each CPT entry, which is the family clique's
factors with the variable's own CPT left out, summed onto the family
(Darwiche, JACM 2003).  Times the CPT it is the mass p(family, e).  Both are
(rows, states) arrays in CPT order.  The variables whose reads have the same
operand shapes, subscripts and CPT axis order are read by one einsum over
their stacked operands, and their lines computed as (variables, rows,
states) arrays; every parameter's line is then picked out of the flat line
arrays with one index array.  One inward and two outward propagations serve
every parameter at once, by either route:

* *local extraction* reads each line's slope and intercept straight off the
  mass and its derivative;
* *two-point* evaluates the mass at a second parameter value from the same
  arrays and fits the line through the two evaluations.

Both routes direct their outward passes at the family cliques of the
parameters' variables (`read_cliques`), so a parameter that relevance
screening drops costs no message.

`one_output_lines` is the core of both routes: it propagates and returns the
line pair of every CPT entry of the given variables as one (entries, 4)
array, with the entries' values, in CPT order.  `one_output_all_params_m1`
and `_m2` pick their parameters out of it; the CLI's `sens-out` reports
from it directly, over the `relevant_variables`, and names a parameter
(`entry_parameter`) only for an entry it skips or reports an error on.

Every posterior's line pair in one parameter is fitted through two
propagations, at the current value and at a second one, the second a
directed replay (`all_outputs_one_param`).

Both routes exist as public operations and must agree to high precision; the
tests hold them to the enumeration oracle as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateParameterError
from .functions import LinearCoeffs, SensitivityFunction, derivative, evaluate
from .jtree import JunctionTree
from .network import Evidence, Network, ParameterRef, QueryRef, enumerate_parameters
from .propagation import (collect, distribute, enter_evidence, evidence_probability,
                          propagate_full, require_compiled, require_possible)

__all__ = ["relevant_variables", "relevant_parameters", "read_cliques", "one_output_lines",
           "entry_parameter", "one_output_all_params_m1", "one_output_all_params_m2",
           "all_outputs_one_param", "OneWayAnalysis", "OneParamAnalysis", "VALUE_ONE",
           "evaluate", "derivative"]

VALUE_ONE = "parameter value is 1; co-variation undefined"


@dataclass
class OneWayAnalysis:
    """Sensitivity functions for one posterior over many parameters.

    Row i of `coefficients` holds the numerator's slope and intercept and the
    denominator's slope and intercept in parameter refs[i], whose current
    value is x0[i].
    """

    query: QueryRef
    refs: list[ParameterRef]
    coefficients: np.ndarray
    x0: np.ndarray
    skipped: list[tuple[ParameterRef, str]] = field(default_factory=list)

    @cached_property
    def functions(self) -> dict[ParameterRef, SensitivityFunction]:
        """Each kept parameter's function, built from its row on first use."""
        return {ref: SensitivityFunction(ref, LinearCoeffs(a, b), LinearCoeffs(c, d))
                for ref, (a, b, c, d) in zip(self.refs, self.coefficients.tolist())}


@dataclass
class OneParamAnalysis:
    """Sensitivity functions for every state of every variable over one
    parameter: one `coefficients` row per state, in id and state order, laid
    out as in `OneWayAnalysis`."""

    parameter: ParameterRef
    arities: tuple[int, ...]    # states per variable
    coefficients: np.ndarray
    denominator: LinearCoeffs

    @cached_property
    def functions(self) -> dict[int, tuple[SensitivityFunction, ...]]:
        """Each variable's per-state functions, built on first use."""
        rows = iter(self.coefficients.tolist())
        return {var: tuple(SensitivityFunction(self.parameter, LinearCoeffs(a, b),
                                               LinearCoeffs(c, d))
                           for a, b, c, d in itertools.islice(rows, arity))
                for var, arity in enumerate(self.arities)}


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
    has_observed_below = net.ancestors(evidence_vars)
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


def relevant_variables(net: Network, query: QueryRef,
                       evidence: Evidence | None = None) -> list[int]:
    """Variables whose parameters may influence the query — a sound superset, by id."""
    evidence_vars = set(evidence.variables()) if evidence is not None else set()
    return sorted(_influenced_variables(net, query.variable, evidence_vars))


def relevant_parameters(net: Network, query: QueryRef,
                        evidence: Evidence | None = None) -> list[ParameterRef]:
    """Every CPT entry of the `relevant_variables`, in CPT order."""
    return enumerate_parameters(net, relevant_variables(net, query, evidence))


# ---------------------------------------------------------------------------
# lines by family


def read_cliques(tree: JunctionTree, variables) -> set[int]:
    """The cliques `_family_lines` reads for these variables: their family cliques."""
    return {tree.family_clique[var] for var in variables}


def _family_lines(tree: JunctionTree, variables, two_point: bool = False) -> np.ndarray:
    """Lines of the tree's current mass in every CPT entry of each variable.

    Requires the cliques of `read_cliques` current, and no variable's family
    cut on a tree compiled for evidence (`require_uncut`).  One read per variable
    gives `grad`, the derivative of p(e) in each CPT entry, as a (rows,
    states) array in CPT order; alike reads are stacked on a leading batch
    axis (module docstring).  A read along a greedy path
    (`JunctionTree.planned`) is read alone: a stacked path may round it
    apart from the read of one variable.
    The mass p(family, e) is `grad` times the CPT.  Under proportional
    co-variation of entry (r, s), the mass of its row's other states,
    `covaried`, scales by (1 - x) / (1 - x0) and the mass outside the row
    stays put.

    Local extraction gives the line directly: slope grad - covaried / (1 - x0).
    The two-point route (`two_point`) evaluates the mass at a second value
    and fits the line through it and p(e).  Entries at value 1 come out as
    nan; `_pick` skips them.  Returns the slopes and intercepts as the two
    rows of one array, laid out by `_offsets`.
    """
    net = tree.net
    pe = evidence_probability(tree)
    tree.require_uncut(variables)
    tree.require_current([tree.family_clique[var] for var in variables])
    offsets, size = _offsets(net, variables)
    groups: dict = {}
    for var in variables:
        cid, family = tree.family_clique[var], net.family(var)
        operands, out = tree.operands(cid, family, omit=var)
        order = (0, *[1 + family.index(v) for v in net.parents[var] + (var,)])
        key = var if tree.planned(cid, operands) else (
            *[(table.shape, tuple(axes)) for table, axes in operands], tuple(out), order)
        groups.setdefault(key, (cid, out, order, []))[3].append((var, operands))
    lines = np.empty((2, size))
    for cid, out, order, group in groups.values():
        if len(group) == 1:   # unstacked, as `read_clique` reads it
            grad = tree.contract(cid, group[0][1], out)[None]
        else:
            batch = len(tree.cliques[cid].members)   # an axis label no member uses
            grad = tree.contract(cid, [(np.stack([ops[i][0] for _, ops in group]), [batch, *axes])
                                       for i, (_, axes) in enumerate(group[0][1])], [batch, *out])
        cpt = np.stack([net.cpts[var] for var, _ in group])
        grad = grad.transpose(order).reshape(cpt.shape)
        mass = grad * cpt
        total = mass.reshape(len(group), -1).sum(axis=1)[:, None, None]
        rowsum = mass.sum(axis=2, keepdims=True)
        covaried = rowsum - mass
        with np.errstate(divide="ignore", invalid="ignore"):
            if two_point:
                x2 = _second_value(cpt)
                at_x2 = x2 * grad + (1.0 - x2) / (1.0 - cpt) * covaried + (total - rowsum)
                fit = _line_through(cpt, pe, x2, at_x2)
            else:
                shrink = covaried / (1.0 - cpt)
                fit = LinearCoeffs(grad - shrink, shrink + (total - mass - covaried))
        at = np.array([offsets[var] for var, _ in group])[:, None] + np.arange(cpt[0].size)
        lines[0, at], lines[1, at] = fit.slope.reshape(at.shape), fit.intercept.reshape(at.shape)
    return lines


def _offsets(net: Network, variables) -> tuple[dict[int, int], int]:
    """Where each variable's CPT starts in the layout of `_family_lines`, which
    flattens the variables' CPTs in C order, one after another; and its size."""
    sizes = [net.cpts[var].size for var in variables]
    return dict(zip(variables, itertools.accumulate(sizes, initial=0))), sum(sizes)


def _values(net: Network, variables) -> np.ndarray:
    """The CPT entries of the variables, laid out by `_offsets`."""
    return np.concatenate([np.empty(0), *(net.cpts[var].ravel() for var in variables)])


def entry_parameter(net: Network, variables, flat: int) -> ParameterRef:
    """The parameter of row `flat` of `one_output_lines` over `variables`."""
    for var in variables:
        if flat < net.cpts[var].size:
            break
        flat -= net.cpts[var].size
    row, state = divmod(flat, net.arity(var))
    config = np.unravel_index(row, [net.arity(p) for p in net.parents[var]])
    return net.parameter(var, state, tuple(map(int, config)))


def _pick(net: Network, params: list[ParameterRef]):
    """Each parameter's flat index into `_family_lines` of the parameters'
    variables, taken with one index array, and its value; returns those of
    the parameters below 1, those parameters, and the others with the reason
    they are skipped: they are reported, not silently dropped."""
    offsets, _ = _offsets(net, _variables(params))
    index = np.array([offsets[ref.variable] + net.entry_index(ref) for ref in params],
                     dtype=np.intp)
    x0 = _values(net, offsets)[index]
    below = x0 < 1.0
    keep = below.tolist()
    return (index[below], x0[below], list(itertools.compress(params, keep)),
            [(ref, VALUE_ONE) for ref, ok in zip(params, keep) if not ok])


def _variables(params: list[ParameterRef]) -> list[int]:
    """The parameters' variables, in order of first appearance."""
    return list(dict.fromkeys(ref.variable for ref in params))


# ---------------------------------------------------------------------------
# one output, all parameters


def one_output_lines(tree: JunctionTree, query: QueryRef, evidence: Evidence | None,
                     variables, two_point: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """One posterior's line pair in every CPT entry of `variables`: 1 inward
    + 2 outward propagations, by local extraction or, with `two_point`, by
    the two-point fit.

    Returns the (entries, 4) coefficients, laid out as in `OneWayAnalysis`,
    and the entries' values, both in CPT order, one variable after another
    (`_offsets`).  An entry at value 1 cannot be co-varied (`VALUE_ONE`):
    its row is not a line.
    """
    net = tree.net
    require_compiled(tree, [query.variable, *variables])
    home, reads = tree.var_clique[query.variable], read_cliques(tree, variables)
    indicator = np.zeros(net.arity(query.variable))
    indicator[query.state] = 1.0
    if two_point:
        enter_evidence(tree, evidence)
        collect(tree, home)
        tree.inject_finding(home, query.variable, indicator)
        distribute(tree, home, reads)
        target_mass = evidence_probability(tree)
        num = _family_lines(tree, variables, two_point=True)

        tree.inject_finding(home, query.variable, 1.0 - indicator)
        distribute(tree, home, reads)
        require_possible(target_mass + evidence_probability(tree))
        den = num + _family_lines(tree, variables, two_point=True)
    else:
        propagate_full(tree, evidence, root=home, reads=reads)
        den = _family_lines(tree, variables)

        tree.inject_finding(home, query.variable, indicator)
        distribute(tree, home, reads)
        num = _family_lines(tree, variables)
    return np.concatenate([num, den]).T, _values(net, variables)


def _analysis(tree: JunctionTree, query: QueryRef, evidence: Evidence | None,
              params: list[ParameterRef] | None, two_point: bool) -> OneWayAnalysis:
    """`one_output_lines` over the parameters' variables (by default every
    CPT entry), picked out for the parameters (`_pick`)."""
    if params is None:
        params = enumerate_parameters(tree.net)
    coefficients, _ = one_output_lines(tree, query, evidence, _variables(params), two_point)
    index, x0, refs, skipped = _pick(tree.net, params)
    return OneWayAnalysis(query, refs, coefficients[index], x0, skipped)


def one_output_all_params_m1(tree: JunctionTree, query: QueryRef,
                             evidence: Evidence | None = None,
                             params: list[ParameterRef] | None = None) -> OneWayAnalysis:
    """Local-extraction analysis: 1 inward + 2 outward propagations total.

    The evidence propagation yields every denominator line locally; injecting
    the query indicator at the query clique and replaying one outward pass
    yields every numerator line the same way.
    """
    return _analysis(tree, query, evidence, params, two_point=False)


def one_output_all_params_m2(tree: JunctionTree, query: QueryRef,
                             evidence: Evidence | None = None,
                             params: list[ParameterRef] | None = None) -> OneWayAnalysis:
    """Two-point analysis: 1 inward + 2 outward propagations total.

    One inward pass toward the query clique, one outward pass with the query
    indicator, one outward pass with the complementary finding.  Each pass
    evaluates p(target-or-complement, e) at the current parameter value and,
    from the family's mass and its derivative, at a second value; the two
    points fix the line.  Numerator lines come from the indicator pass,
    denominator lines are the sum over the two passes, and so is p(e), which
    must be positive.
    """
    return _analysis(tree, query, evidence, params, two_point=True)


def _line_through(x1, y1, x2, y2) -> LinearCoeffs:
    """The line through (x1, y1) and (x2, y2), elementwise over arrays."""
    return LinearCoeffs((y1 - y2) / (x1 - x2), (x1 * y2 - x2 * y1) / (x1 - x2))


def _second_value(x1):
    """The second evaluation point of the two-point fit, elementwise over arrays."""
    return np.where(x1 < 0.5, (x1 + 1.0) / 2.0, x1 / 2.0)


# ---------------------------------------------------------------------------
# all outputs, one parameter


def _moved_variables(net: Network, var: int, evidence: Evidence | None) -> set[int] | None:
    """The variables whose p(V, e) can depend on `var`'s CPT: `var` and its
    descendants, found by one walk down from `var`.  None when a finding lies
    on or below `var`, for then p(e) and every marginal can move.

    Without such a finding, `var` and its descendants are barren for any other
    variable V and the findings, so `var`'s CPT sums out of p(V, e) (Baker &
    Boult, UAI 1990).
    """
    findings = set(evidence.variables()) if evidence is not None else set()
    moved, stack = {var}, [var]
    while stack:
        for child in net.children(stack.pop()):
            if child not in moved:
                moved.add(child)
                stack.append(child)
    return None if moved & findings else moved


def all_outputs_one_param(tree: JunctionTree, ref: ParameterRef,
                          evidence: Evidence | None = None) -> OneParamAnalysis:
    """Every posterior's line pair in one parameter: 1 inward + 2 outward.

    Propagate at the current value, record every variable's marginal and p(e);
    co-vary the parameter's row to a second value, replay one outward pass
    from the family clique, record again; fit every line through its two
    points.  The tree gets its operating-point network back on return.

    The replay is directed at the cliques the reads of the variables that
    can move use.  With no finding on or below the parameter's variable,
    those are that variable and its descendants (`_moved_variables`), and
    every other variable's line and the denominator are the flat line of
    their first reading.  Otherwise every variable moves; the cliques holding
    them include every leaf, so the replay is a full outward pass.  Every
    variable is reported, so the tree must compile all of them.
    """
    net = tree.net
    x1 = net.parameter_value(ref)
    if x1 >= 1.0:
        raise DegenerateParameterError(VALUE_ONE)
    targets = range(net.n_variables)
    require_compiled(tree, (ref.variable, *targets))
    x2 = float(_second_value(x1))

    home = tree.family_clique[ref.variable]
    propagate_full(tree, evidence, root=home)
    first = _marginals(tree, targets)
    pe1 = evidence_probability(tree)

    below = _moved_variables(net, ref.variable, evidence)
    moved = targets if below is None else sorted(below)
    try:
        tree.set_parameter(ref, x2)
        distribute(tree, home, {cid for var in moved for cid in tree.holder_cliques((var,))})
        in_moved = np.repeat([below is None or var in below for var in targets], net.arities)
        second = first.copy()
        second[in_moved] = _marginals(tree, moved)
        den = (_line_through(x1, pe1, x2, evidence_probability(tree)) if below is None
               else LinearCoeffs(0.0, pe1))
    finally:
        tree.restore_network(net)

    fit = _line_through(x1, first, x2, second)
    coefficients = np.column_stack([np.where(in_moved, fit.slope, 0.0),
                                    np.where(in_moved, fit.intercept, first),
                                    np.broadcast_to([den.slope, den.intercept], (len(first), 2))])
    return OneParamAnalysis(ref, net.arities, coefficients, den)


def _marginals(tree: JunctionTree, variables) -> np.ndarray:
    """Each variable's p(var, e) as `JunctionTree.joint` reads it, one after
    another; sepset reads of one message shape and axis are one einsum over
    the stacked messages.  The holders' cliques must be current."""
    reads, groups = {}, {}
    for var in variables:
        is_clique, idx = tree.holder((var,))
        if is_clique:
            reads[var] = tree.joint((var,)).table
        else:
            sep = tree.sepsets[idx]
            key = (tree.messages[sep.cliques].shape, sep.members.index(var))
            groups.setdefault(key, []).append((var, sep.cliques))
    for (shape, axis), group in groups.items():
        axes = list(range(len(shape) + 1))   # axis 0 runs over the group
        read = np.einsum(np.stack([tree.messages[(a, b)] for _, (a, b) in group]), axes,
                         np.stack([tree.messages[(b, a)] for _, (a, b) in group]), axes,
                         [0, axis + 1])
        reads.update(zip([var for var, _ in group], read))
    return np.concatenate([reads[var] for var in variables])
