"""Message passing on a junction tree: collect, distribute, marginals, retraction.

Messages are directed: each sepset stores one plain array per direction.  A
message out of a clique is the product of the clique's assigned CPTs, its
attached finding vectors and the messages it received from its *other*
neighbors, summed onto the sepset in one contraction laid out from the
clique's plan (`JunctionTree.send`) that never builds the clique table and
builds no `Potential`; a `Potential` is what the reads return.  This is
algebraically the classical flow (marginalize, divide by the old sepset
content, multiply into the receiver) with the division cancelled symbolically
— which is exactly what lets a replayed outward pass retract a hard finding
without dividing by zeros it created.

After collect + distribute with findings entered, every clique potential
equals p(members, e) and every sepset potential equals p(members, e).  A
marginal is therefore read from the cheapest place that holds the variable
(`JunctionTree.joint`): the smallest such sepset or clique, whose two messages
or factor list are summed onto it.  Root totals are contracted from the root's
factor list.  The finding vectors attached at a clique are multiplied in
lazily, so dropping one vector from the registry and replaying a single
outward pass from its attachment clique yields the tree for the reduced
evidence set.  The same replay covers a change at several cliques, such as
co-varied CPT rows: only the messages directed away from a changed clique
are sent again (`replay`).

An outward pass sends each clique's children together
(`JunctionTree.send_outward`): on a clique above `PLAN_ABOVE_ENTRIES`, the
children with small sepsets share one contraction of the clique's other
factors onto the union of their sepsets, and each of their messages is read
off that table and the other shared messages, with no division (Shenoy,
IJAR 1997).

Given the cliques an analysis reads (`reads`), an outward pass sends only
the messages on the paths from its root to them, skipping messages nobody
consumes (Madsen & Jensen, AIJ 1999); it still counts as one outward
propagation.  An inward pass takes `reads` the same way and sends only the
messages on the paths from them to its root.  One variable's posterior needs
no outward pass: the root of an inward pass holds p(members, e)
(`infer_marginal`).
"""

from __future__ import annotations

import numpy as np

from .errors import BnsenseError, ImpossibleEvidenceError
from .jtree import JunctionTree, PropagationStats, fixed_states
from .network import Evidence, check_finding

__all__ = ["PropagationStats", "require_compiled", "enter_finding", "enter_evidence",
           "collect", "distribute", "propagate_full", "require_possible",
           "evidence_probability", "marginal", "infer_marginal", "replay", "retract_finding"]


def require_compiled(tree: JunctionTree, variables) -> None:
    """Raise `BnsenseError` naming the first of `variables` the tree does not compile."""
    for var in variables:
        if var not in tree.family_clique:
            raise BnsenseError(
                f"variable {tree.net.variables[var].name!r} is not compiled in this tree")


def enter_finding(tree: JunctionTree, var: int, vector) -> None:
    """Register a finding vector for a variable, replacing any prior one.

    The vector is attached at the variable's family clique and folded into
    message computation lazily; the tree needs a propagation afterwards.
    A variable the tree does not compile, or a fixed one the vector does not
    fix at its state, raises `BnsenseError`.
    """
    var, vec = check_finding(tree.net, var, vector)
    require_compiled(tree, (var,))
    if var in tree.fixed and fixed_states([(var, vec)]).get(var) != tree.fixed[var]:
        _not_fixed(tree, var)
    tree.findings[var] = vec
    tree.invalidate()


def _not_fixed(tree: JunctionTree, var: int) -> None:
    """Raise for a fixed variable of the tree that the findings do not fix at its state."""
    variable = tree.net.variables[var]
    raise BnsenseError(
        f"this tree is compiled for evidence that fixes {variable.name!r} at "
        f"{variable.states[tree.fixed[var]]!r}; other evidence on it needs another tree")


def _bfs(tree: JunctionTree, root: int, reads: set[int] | None = None):
    """BFS order of the tree from the root, each clique's parent (None at the
    root), and the region of a pass directed at `reads`: the root and every
    clique on its paths to them, or None when `reads` is None."""
    order, parent = [root], {root: None}
    for cid in order:           # visits the cliques appended along the way
        for nb, _ in tree.neighbors[cid]:
            if nb not in parent:
                parent[nb] = cid
                order.append(nb)
    region = {root}
    for cid in reads or ():
        while cid not in region:
            region.add(cid)
            cid = parent[cid]
    return order, parent, None if reads is None else frozenset(region)


def _require_root(tree: JunctionTree, root: int) -> None:
    """An outward pass from `root` needs every message toward it current."""
    if tree.sepsets and not tree.messages:
        raise BnsenseError("no inward pass since the tree was reset; collect first")
    if tree.pass_root is not None and root != tree.pass_root:
        raise BnsenseError(
            f"the last pass was directed from clique {tree.pass_root}; an outward "
            f"pass from clique {root} needs a full propagation first")


def _require_full(tree: JunctionTree, what: str) -> None:
    """Raise unless the last pass left every clique current."""
    if tree.pass_root is not None:
        raise BnsenseError(
            f"{what} needs a full propagation; the last pass was directed from "
            f"clique {tree.pass_root}")
    tree.require_current(())


def collect(tree: JunctionTree, root: int = 0, reads: set[int] | None = None) -> None:
    """Pass messages leaf-to-root over the tree; one inward propagation.

    Given `reads`, only the messages on the paths from those cliques to the
    root are sent.  Leaves only the root current.
    """
    order, parent, region = _bfs(tree, root, reads)
    for cid in reversed(order[1:]):
        if region is None or cid in region:
            tree.send(cid, parent[cid])
    tree.stats.inward_propagations += 1
    tree.evidence_mass = None
    tree.left_current(root, frozenset((root,)))


def distribute(tree: JunctionTree, root: int = 0, reads: set[int] | None = None) -> None:
    """Pass messages root-to-leaves over the tree; one outward propagation.

    Records p(e) as the root's total.  Also the replay primitive: after
    changing what is attached at (or assigned to) a clique, distributing from
    that clique rebuilds every message directed away from it, because messages
    directed toward it never depended on it.

    Given `reads`, only the messages on the paths from the root to those
    cliques are sent, and only those paths are left current.
    """
    _require_root(tree, root)
    order, parent, region = _bfs(tree, root, reads)
    tree.send_outward([cid for cid in order[1:] if region is None or cid in region], parent)
    tree.evidence_mass = float(tree.contract(root, *tree.operands(root, ())))
    tree.stats.outward_propagations += 1
    tree.left_current(root, region)


def enter_evidence(tree: JunctionTree, evidence: Evidence | None = None) -> None:
    """Reset the tree and register every finding of the evidence.

    On a tree compiled for evidence, the evidence must fix each of the
    tree's fixed variables at its state, or `BnsenseError` is raised.  The
    tree needs a propagation afterwards.
    """
    tree.reset()
    if evidence is not None:
        for var, vec in evidence.items():
            enter_finding(tree, var, vec)
    for var in sorted(tree.fixed.keys() - tree.findings.keys()):
        _not_fixed(tree, var)


def require_possible(pe: float) -> float:
    """p(e) as given; raises ImpossibleEvidenceError when it is not positive."""
    if pe <= 0.0:
        raise ImpossibleEvidenceError("the entered evidence has probability zero")
    return pe


def propagate_full(tree: JunctionTree, evidence: Evidence | None = None,
                   root: int = 0, reads: set[int] | None = None) -> float:
    """Reset, enter the evidence, collect and distribute (directed by
    `reads`, if given); returns p(e).

    Raises ImpossibleEvidenceError when the evidence has probability zero.
    """
    enter_evidence(tree, evidence)
    collect(tree, root)
    distribute(tree, root, reads)
    return require_possible(evidence_probability(tree))


def infer_marginal(tree: JunctionTree, var: int,
                   evidence: Evidence | None = None) -> np.ndarray:
    """p(var, e) read at the root of one inward pass, the variable's first clique.

    Raises ImpossibleEvidenceError when the evidence has probability zero.
    """
    require_compiled(tree, (var,))
    enter_evidence(tree, evidence)
    home = tree.var_clique[var]
    collect(tree, home)
    joint = tree.read_clique(home, (var,)).table.copy()
    require_possible(float(joint.sum()))
    return joint


def evidence_probability(tree: JunctionTree) -> float:
    """p(e): the root-clique total of the last outward propagation."""
    if tree.evidence_mass is None:
        raise BnsenseError("tree has not been propagated")
    return tree.evidence_mass


def marginal(tree: JunctionTree, var: int) -> np.ndarray:
    """p(var, e) read from the smallest sepset or clique holding the variable.

    Needs a full propagation.  Always a fresh array: a clique holding nothing
    but the variable's own CPT would otherwise hand back a read-only view of
    that CPT.
    """
    _require_full(tree, "marginal")
    return tree.joint((var,)).table.copy()


def replay(tree: JunctionTree, changed: set[int], reads: set[int] | None = None) -> None:
    """Restore consistency after the factors of the `changed` cliques changed.

    Only the messages directed away from a changed clique depend on it.
    Rooted at the lowest changed clique, those are the inward messages along
    the subtree joining the changed cliques, and every outward message: one
    collect directed at the changed cliques (none for a single clique, as in
    `retract_finding`), then one distribute, directed by `reads` if given.
    Messages directed toward the subtree from outside it never saw the
    change and are kept.
    """
    root = min(changed)
    _require_root(tree, root)
    if len(changed) > 1:
        collect(tree, root, changed)
    distribute(tree, root, reads)


def retract_finding(tree: JunctionTree, var: int) -> None:
    """Drop one variable's finding and restore consistency with one outward pass.

    The messages directed toward the finding's attachment clique never carried
    it, so replaying the outward half from that clique is enough — no inward
    propagation over the tree.  Raises ImpossibleEvidenceError if the retained
    evidence has probability zero, and BnsenseError for a fixed variable of
    a tree compiled for evidence.
    """
    if var not in tree.findings:
        raise BnsenseError(f"variable {var} has no finding to retract")
    if var in tree.fixed:
        _not_fixed(tree, var)
    _require_full(tree, "retraction")
    del tree.findings[var]
    home = tree.family_clique[var]
    distribute(tree, home)
    if evidence_probability(tree) <= 0.0:
        raise ImpossibleEvidenceError(
            "retained evidence has probability zero after retraction")
