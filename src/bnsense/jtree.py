"""Junction tree construction: moralization, triangulation, cliques, sepsets.

The pipeline is the classical one — moralize the DAG, triangulate greedily by
weighted minimum fill (a fill edge costs the product of its ends' arities;
lowest variable id on ties), then read the maximal cliques and a clique tree
joining them off the elimination order in one backward pass.  Weighting the
fill keeps the total clique state space small when arities are mixed; with
one arity throughout the order is plain min-fill's.  A tree with a clique
above PLAN_ABOVE_ENTRIES costs more to propagate than the rest of the
compile put together, so there the compiler also tries the fill-count
order, keeps the one with fewer total clique entries, and hangs each clique
on its smallest valid parent (`_cheaper_walk`); every other tree is the
weighted order's, on the walk's parents.  A disconnected network still
compiles to one tree: its parts are joined by empty sepsets.  Every
tie-break is fixed so that identical networks always produce identical
trees.

Each step does near-linear work on a sparse network.  Triangulation keeps
the fill scores in a heap and updates only the vertices an elimination
touches, at the cost of the edges that changed; the clique tree costs one
step per edge of the triangulated graph; a variable-to-cliques index places
each family and answers `clique_containing`.

The tree also owns the mutable propagation state: the finding vectors and
the two directed messages per sepset, each a plain array.  A clique is never
stored as a dense table but as a factor list (its CPTs, attached findings
and incoming messages), as in Madsen & Jensen's lazy propagation (AIJ 1999).
Its contraction plan, built on first use, holds the member axes, a view of
each assigned CPT over its sorted family with its axes and covered-axes
bitmask, the family finding slots and each neighbor's sepset axes.  `send`
lays a message's einsum operands out from the plan; `send_outward` sends a
clique's children in an outward pass, those of a large clique with small
sepsets from one shared contraction onto the union of their sepsets.  A read
(`local_product`) lays its operands out the same way and returns a
`Potential`: a marginal, or, with a variable's own CPT left out, the
derivative of p(e) in each entry of that CPT, which the one-way lines are
read from.  Finding vectors stay separate factors, which makes retracting
one cheap; a co-varied CPT row changes only its family clique's factors, so
an extra n-way propagation re-sends only the messages directed away from it.

After a full propagation every sepset and every clique holds
p(members, e), so `JunctionTree.joint` reads p(vars, e) from the cheapest
of them that holds `vars`: often a sepset, whose read is one einsum of its
two messages, rather than a large clique.  A variable-to-sepsets index,
built on the first read, finds that holder.  A read that leaves a CPT out
goes to the clique that CPT is assigned to (`read_clique`), whatever the
cheapest holder of its family.

A tree compiled for evidence (`build_junction_tree(net, evidence=...)`) cuts
the edges out of each fixed variable, one whose finding leaves one state
possible, before moralizing (Darwiche, *Modeling and Reasoning with Bayesian
Networks*, 2009, §6.9).  Its children's CPTs enter the plans as views at its
state (`cpt_table`), over their `family` without it; it keeps its own CPT
and finding, so every marginal and p(e) keep their meaning.  Such a tree
takes only evidence that fixes the same variables at the same states
(`propagation.enter_evidence`), and reads no family across a cut edge
(`require_uncut`).

An inward or directed outward pass leaves only part of the tree current; the
tree records that region (`current`, `pass_root`), and `joint` and
`read_clique` raise `BnsenseError` outside it rather than read a message
that was never sent or is stale.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

try:    # what np.einsum runs unplanned, behind a dispatch layer that costs about as much
    from numpy._core.multiarray import c_einsum
except ImportError:     # numpy 1.x
    from numpy.core.multiarray import c_einsum

from .errors import BnsenseError, NetworkFormatError
from .network import Network, ParameterRef, apply_parameter
from .potentials import Potential, family_table


# Cliques with more table entries than this are contracted along a greedy
# pairwise path, which einsum plans on every call: no workload repeats a
# (clique, factor axes, kept axes) key within one tree, so a per-tree cache
# of plans would not be hit.  Smaller cliques go through a single unplanned
# einsum call: that costs about 7 us, against about 200 us for planning and
# running a path, which would dominate small networks.  A tree with such a
# clique is also worth more compile work: `build_junction_tree` then tries a
# second elimination order and picks each clique's parent (`_cheaper_walk`).
PLAN_ABOVE_ENTRIES = 4096

# A single einsum call takes fewer than NPY_MAXARGS operands (32 on numpy 1.x,
# 64 on 2.x).  A clique with more factors than this, such as the hub of a
# naive-Bayes star with one incoming message per child, first multiplies the
# factors that share a scope; if that still leaves too many, it takes the
# planned path whatever its size, since that contracts two operands at a time.
UNPLANNED_MAX_FACTORS = 30

# In an outward pass, the children of a clique above PLAN_ABOVE_ENTRIES whose
# sepsets have at most 1/SHARED_SEPSET_RATIO of its entries may share one
# contraction of its factors (`send_outward`).
SHARED_SEPSET_RATIO = 20


@dataclass(frozen=True)
class Clique:
    id: int
    members: tuple[int, ...]             # sorted variable ids
    families: tuple[int, ...]            # variables whose CPT is assigned here


@dataclass(frozen=True)
class Sepset:
    cliques: tuple[int, int]             # (lower clique id, higher clique id)
    members: tuple[int, ...]             # sorted variable ids


@dataclass
class PropagationStats:
    """Counters for the work a tree has done (monotone within an analysis)."""

    inward_propagations: int = 0
    outward_propagations: int = 0
    messages_passed: int = 0
    entries_touched: int = 0    # the source clique's entries, summed over the messages sent

    def snapshot(self) -> tuple[int, int, int]:
        return (self.inward_propagations, self.outward_propagations, self.messages_passed)


# ---------------------------------------------------------------------------
# graph steps


def fixed_states(findings) -> dict[int, int]:
    """{variable: state} for each (variable, vector) finding that leaves one
    state possible: a hard finding, or a negative one on a binary variable."""
    nonzero = [(var, np.flatnonzero(vec)) for var, vec in findings]
    return {var: int(states[0]) for var, states in nonzero if len(states) == 1}


def cut_family(net: Network, var: int, fixed=()) -> tuple[int, ...]:
    """The variable's family without its `fixed` parents, sorted by id."""
    return tuple(sorted((var, *(p for p in net.parents[var] if p not in fixed))))


def moralize(net: Network, variables, fixed=()) -> dict[int, set[int]]:
    """Undirected adjacency over `variables`, which hold every parent of
    their members: each family without its `fixed` parents (`cut_family`)
    becomes a complete subgraph, so no edge leaves a fixed variable."""
    adj: dict[int, set[int]] = {v: set() for v in variables}
    for v in variables:
        fam = cut_family(net, v, fixed)
        for a in fam:
            for b in fam:
                if a != b:
                    adj[a].add(b)
    return adj


def triangulate(adj: dict[int, set[int]],
                arities: Sequence[int]) -> tuple[tuple[int, ...], set[frozenset[int]]]:
    """Greedy weighted min-fill elimination; returns (order, fill edges added).

    `arities[v]` is the number of states of vertex v.  The score of v is its
    weighted fill: the sum, over the pairs {a, b} of v's neighbours that are
    not adjacent, of arities[a] * arities[b].  Weighting each fill edge by
    the table it would multiply into keeps the total clique state space small
    on mixed arities (Kjærulff, *Triangulation of graphs — algorithms giving
    small total state space*, Aalborg R-90-09, 1990); when every vertex has
    the same arity k the score is k² times the fill count, so the order is
    plain min-fill's.  Ties go to the lowest variable id, making the order
    (and everything downstream) deterministic.  With every arity raised by
    K = n²·A² (n vertices, A the largest arity; `fill_first`), the score is
    K² times the fill count, plus K times the missing pairs' arity sums,
    plus the weighted fill, each term below the unit of the one before: the
    order is then min-fill's with the arities only breaking ties, the
    second order `_cheaper_walk` tries.

    Scores sit in a heap of (score, id) entries, invalidated lazily.  Each
    vertex's score is kept up to date along with the arity sum of its
    neighbours: eliminating v changes each neighbour a's by the pairs {v, b}
    it loses, which are missing unless b is in N(a) ∩ N(v); a fill edge
    {a, b} adds the pairs of b (of a) with a's (b's) other neighbours to the
    score of a (of b), less those adjacent to both, and takes the pair {a, b}
    off the score of each of their common neighbours.  Only those vertices
    are rescored, each at the cost of the edges that changed, so a sparse
    graph, and a star whatever its degree, costs near-linear time.
    """
    work = {v: set(ns) for v, ns in adj.items()}
    arity = arities.__getitem__
    total = {v: sum(map(arity, ns)) for v, ns in work.items()}
    score = {v: sum(arity(a) * (total[v] - arity(a) - sum(map(arity, work[a] & ns)))
                    for a in ns) // 2 for v, ns in work.items()}
    heap = [(weight, v) for v, weight in score.items()]
    heapq.heapify(heap)
    order, fills = [], set()
    while heap:
        weight, v = heapq.heappop(heap)
        if v not in work or score[v] != weight:
            continue
        ns = sorted(work.pop(v))
        touched = set(ns)
        for a in ns:
            work[a].discard(v)
            total[a] -= arity(v)
            score[a] -= arity(v) * (total[a] - sum(map(arity, work[a] & touched)))
        for i, a in enumerate(ns):
            for b in ns[i + 1:]:
                if b not in work[a]:
                    common = work[a] & work[b]
                    shared = sum(map(arity, common))
                    for x, y in ((a, b), (b, a)):
                        score[x] += arity(y) * (total[x] - shared)
                        total[x] += arity(y)
                        work[x].add(y)
                    for c in common:
                        score[c] -= arity(a) * arity(b)
                    touched |= common
                    fills.add(frozenset((a, b)))
        for u in touched:
            heapq.heappush(heap, (score[u], u))
        order.append(v)
    return tuple(order), fills


def _elimination_cliques(adj: dict[int, set[int]], order: tuple[int, ...],
                         fills: set[frozenset[int]]) -> tuple[list[list[int]], list[int],
                                                              list[set[int]]]:
    """Maximal cliques of the triangulated graph in the order a backward walk
    of the elimination order opens them, with each one's parent and
    separator: (members, parent, separator) by order of opening.

    Walking the order backwards, each vertex v either joins a clique or
    opens one (Blair & Peyton, *An introduction to chordal graphs and
    clique trees*, 1993).  With no later-eliminated neighbour, v opens the
    root clique of its part of the graph, its own parent, with an empty
    separator.  Otherwise let p be the earliest eliminated of v's later
    neighbours: they all lie in the clique that owns p, and if they are
    that whole clique, v joins it; if not, v opens a new clique whose parent
    is p's, with v's later neighbours as the separator.  That separator is
    everything the new clique shares with the cliques opened before it, so
    any of them that holds it would do as the parent (`_smallest_parents`).
    Every vertex's owner is fixed when it is placed, so the walk is linear
    in the edges of the triangulated graph.
    """
    position = {v: i for i, v in enumerate(order)}
    later: dict[int, set[int]] = {v: {a for a in ns if position[a] > position[v]}
                                  for v, ns in adj.items()}
    for edge in fills:
        a, b = sorted(edge, key=position.__getitem__)
        later[a].add(b)
    members: list[list[int]] = []
    parent: list[int] = []              # the clique's own index at a root
    separator: list[set[int]] = []
    owner: dict[int, int] = {}
    for v in reversed(order):
        up = later[v]
        if up:
            home = owner[min(up, key=position.__getitem__)]
            if len(up) == len(members[home]):
                members[home].append(v)
                owner[v] = home
                continue
        else:
            home = len(members)
        owner[v] = len(members)
        members.append([v, *up])
        parent.append(home)
        separator.append(up)
    return members, parent, separator


def _smallest_parents(members: list[list[int]], parent: list[int], separator: list[set[int]],
                      sizes: list[int]) -> list[int]:
    """Each clique's parent moved to the smallest clique opened before it
    that holds its nonempty separator; ties keep the parent the walk gave
    (`_elimination_cliques`), then go to the earliest opened.

    Running intersection still holds, since the separator is all the clique
    shares with the cliques opened before it.  A full propagation touches
    |a| + |b| entries per sepset between cliques a and b, and each clique's
    edge to its parent is chosen apart from the others', so these parents
    give the cheapest tree over this order of opening.
    """
    holding: dict[int, list[int]] = {}  # variable -> cliques holding it, by order of opening
    for c, mem in enumerate(members):
        for v in mem:
            holding.setdefault(v, []).append(c)
    parent = parent[:]
    for c, sep in enumerate(separator):
        if not sep:
            continue
        for j in holding[min(sep, key=lambda v: len(holding[v]))]:
            if j >= c:
                break
            if sizes[j] < sizes[parent[c]] and sep.issubset(members[j]):
                parent[c] = j
    return parent


def _clique_tree(members: list[list[int]], parent: list[int],
                 separator: list[set[int]]) -> tuple[list[tuple[int, ...]], list[Sepset]]:
    """The cliques opened by `_elimination_cliques`, sorted lexicographically
    and renumbered, and the sepsets joining each one to its parent.

    Each part of a disconnected graph but clique 0's is joined to clique 0
    through its lowest clique by an empty sepset (Jensen & Jensen, *Optimal
    junction trees*, UAI 1994), whose messages are the scalar masses of the
    two sides.  Sepsets are listed by their clique-id pairs.
    """
    cliques = [tuple(sorted(mem)) for mem in members]
    rank = sorted(range(len(cliques)), key=cliques.__getitem__)
    new_id = [0] * len(cliques)
    for cid, c in enumerate(rank):
        new_id[c] = cid
    lowest = new_id[:]                  # lowest id in each subtree; at a root, in its part
    for c in reversed(range(len(cliques))):   # children were opened after parents
        lowest[parent[c]] = min(lowest[parent[c]], lowest[c])
    sepsets = [Sepset((0, lowest[c]), ()) if parent[c] == c else
               Sepset(tuple(sorted((new_id[c], new_id[parent[c]]))), tuple(sorted(separator[c])))
               for c in range(len(cliques)) if parent[c] != c or lowest[c] != 0]
    sepsets.sort(key=lambda s: s.cliques)
    return [cliques[c] for c in rank], sepsets


def _cliques_by_variable(n_variables: int, members: list[tuple[int, ...]]) -> list[list[int]]:
    """For each variable, the ids of the cliques (or sepsets) holding it, ascending."""
    index: list[list[int]] = [[] for _ in range(n_variables)]
    for cid, mem in enumerate(members):
        for v in mem:
            index[v].append(cid)
    return index


def _all_holding(index: list[list[int]], member_sets, vars):
    """Ids, in increasing order, of the sets holding every one of the (nonempty) `vars`."""
    holding = min((index[v] for v in vars), key=len)
    return (cid for cid in holding if member_sets[cid].issuperset(vars))


def _merge_same_scope(operands):
    """One operand per distinct axis list: the product of the tables sharing it."""
    merged: dict[tuple[int, ...], np.ndarray] = {}
    for table, axes in operands:
        key = tuple(axes)
        merged[key] = merged[key] * table if key in merged else table
    return [(table, list(axes)) for axes, table in merged.items()]


# ---------------------------------------------------------------------------
# the tree


class JunctionTree:
    def __init__(self, net: Network, members: list[tuple[int, ...]], sepsets: list[Sepset],
                 fixed: dict[int, int] | None = None):
        """The tree over cliques with these sorted `members` (clique id = list
        index) and `sepsets`, with the edges out of the `fixed` variables
        ({variable: state}) cut.  Each compiled variable's CPT is assigned
        to the lowest-id clique that holds its `family` (`clique_containing`)."""
        self.net = net
        self.fixed = fixed or {}
        self._cut = {c for f in self.fixed for c in net.children(f)}   # whose family is cut
        self.sepsets = sepsets
        self.neighbors: dict[int, list[tuple[int, int]]] = {cid: [] for cid in range(len(members))}
        for s_idx, sep in enumerate(sepsets):
            a, b = sep.cliques
            self.neighbors[a].append((b, s_idx))
            self.neighbors[b].append((a, s_idx))
        for lst in self.neighbors.values():
            lst.sort()

        self._holding = _cliques_by_variable(net.n_variables, members)
        self._member_sets = [frozenset(mem) for mem in members]
        self.var_clique: dict[int, int] = {v: ids[0] for v, ids in enumerate(self._holding)
                                           if ids}
        self.family_clique = {v: self.clique_containing(self.family(v)) for v in self.var_clique}
        families: list[list[int]] = [[] for _ in members]
        for v, cid in self.family_clique.items():
            families[cid].append(v)
        self.cliques = [Clique(cid, mem, tuple(fams)) for cid, (mem, fams) in
                        enumerate(zip(members, families))]

        self._sizes = [math.prod(net.arity(v) for v in mem) for mem in members]
        self._sepset_sizes = [math.prod(net.arity(v) for v in s.members) for s in sepsets]
        self._plans: list[tuple | None] = [None] * len(members)   # built by `_plan` on first use
        self._every = frozenset(range(len(members)))
        self._sepset_index: tuple | None = None   # built by the first `joint`
        self._holders: dict[tuple[int, ...], tuple[bool, int]] = {}
        self.findings: dict[int, np.ndarray] = {}
        self.injected: dict[int, dict[int, np.ndarray]] = {}
        self.messages: dict[tuple[int, int], np.ndarray] = {}
        self.evidence_mass: float | None = None   # p(e), set by each outward pass
        self.current: frozenset[int] = frozenset()  # cliques the last pass left current
        self.pass_root: int | None = None         # root of the last pass, unless it was full
        self.stats = PropagationStats()

    # -- structure ---------------------------------------------------------

    def clique_containing(self, vars: tuple[int, ...]) -> int | None:
        """Lowest-id clique containing all the given variables, if any."""
        return next(_all_holding(self._holding, self._member_sets, vars), None) if vars else 0

    def holder(self, vars: tuple[int, ...]) -> tuple[bool, int]:
        """(is a clique, id) of the cheapest holder of the sorted, nonempty `vars`.

        The holder is the sepset or clique with the fewest table entries that
        contains every one of `vars`; ties go to sepsets before cliques, then
        to the lowest id.  An empty sepset holds no variable, so it is never
        chosen.  Holders depend only on the structure and are cached for the
        life of the tree.
        """
        found = self._holders.get(vars)
        if found is None:
            if self._sepset_index is None:
                members = [s.members for s in self.sepsets]
                self._sepset_index = (_cliques_by_variable(self.net.n_variables, members),
                                      [frozenset(mem) for mem in members])
            candidates = [(self._sepset_sizes[s], False, s)
                          for s in _all_holding(*self._sepset_index, vars)]
            candidates.extend((self._sizes[c], True, c)
                              for c in _all_holding(self._holding, self._member_sets, vars))
            if not candidates:
                raise BnsenseError(f"no clique of this tree holds variables {vars}")
            found = self._holders[vars] = min(candidates)[1:]
        return found

    def holder_cliques(self, vars: tuple[int, ...]) -> tuple[int, ...]:
        """The cliques a `joint(vars)` read needs current: the holder, or
        both ends of a sepset holder."""
        is_clique, idx = self.holder(vars)
        return (idx,) if is_clique else self.sepsets[idx].cliques

    def family(self, var: int) -> tuple[int, ...]:
        """The axes of the variable's CPT in this tree: its family without
        its fixed parents, sorted by id."""
        return cut_family(self.net, var, self.fixed) if var in self._cut else self.net.family(var)

    def cpt_table(self, var: int) -> np.ndarray:
        """A view of the variable's CPT over `family(var)`: its family table
        (`family_table`) at its fixed parents' states."""
        table = family_table(self.net, var)
        if var in self._cut:
            table = table[tuple(self.fixed[v] if v != var and v in self.fixed else slice(None)
                                for v in self.net.family(var))]
        return table

    def require_uncut(self, variables) -> None:
        """Raise BnsenseError if one of the variables has a fixed parent,
        whose edge to it is cut: its family cannot be read here."""
        for var in variables if self._cut else ():
            if var in self._cut:
                p = next(p for p in self.net.parents[var] if p in self.fixed)
                name = self.net.variables[var].name
                raise BnsenseError(
                    f"this tree cut the edge from fixed {self.net.variables[p].name!r} "
                    f"to {name!r}; read {name!r}'s family on a tree compiled without evidence")

    def charge(self, cid: int) -> Potential:
        """Evidence-free product of the CPTs assigned to the clique, as a dense table."""
        pot = Potential.ones(self.net, self.cliques[cid].members)
        for v in self.cliques[cid].families:
            pot = pot.multiply(Potential(self.family(v), self.cpt_table(v)))
        return pot

    def set_parameter(self, ref: ParameterRef, x: float) -> None:
        """Co-vary one CPT row in place (`restore_network` of the co-varied network)."""
        self.restore_network(apply_parameter(self.net, ref, x))

    def restore_network(self, net: Network) -> None:
        """Swap in a network of the same structure, such as the one before
        `set_parameter` calls; drops the plan of each changed table's family
        clique, which holds a view of the old table."""
        for v, table in enumerate(net.cpts):
            if table is not self.net.cpts[v] and v in self.family_clique:
                self._plans[self.family_clique[v]] = None
        self.net = net
        self.invalidate()

    # -- finding registry ----------------------------------------------------

    def inject_finding(self, cid: int, var: int, vec: np.ndarray) -> None:
        """Attach an analysis-internal finding at a chosen clique (not the family one)."""
        if var not in self.cliques[cid].members:
            raise BnsenseError(f"variable {var} not in clique {cid}")
        self.injected.setdefault(cid, {})[var] = np.asarray(vec, dtype=float)
        self.invalidate()

    # -- potential views -----------------------------------------------------

    def _plan(self, cid: int) -> tuple:
        """Build the clique's contraction plan: member axes and their bitmask;
        (variable, CPT table, axes, bitmask) per CPT and (variable, axes,
        bitmask) per finding slot, as `families`; (axes, bitmask) per
        neighbor's sepset, as `neighbors`."""
        axis = {v: i for i, v in enumerate(self.cliques[cid].members)}

        def axes(vars):
            return [axis[v] for v in vars], sum([1 << axis[v] for v in vars])
        families = self.cliques[cid].families
        plan = self._plans[cid] = (
            axis, (1 << len(axis)) - 1,
            [(v, self.cpt_table(v), *axes(self.family(v))) for v in families],
            [(v, [axis[v]], 1 << axis[v]) for v in families],
            {nb: axes(self.sepsets[s].members) for nb, s in self.neighbors[cid]})
        return plan

    def _factors(self, cid: int, without, omit: int | None):
        """The clique's factors as (table, member axes) einsum operands: its
        CPTs but `omit`'s, its findings, the messages from every neighbor not
        in `without`, and ones for each member none covers.  Past
        UNPLANNED_MAX_FACTORS the factors sharing a scope are multiplied first."""
        axis, every, cpts, slots, seps = self._plans[cid] or self._plan(cid)
        operands, covered = [], 0
        for v, table, axes, mask in cpts:
            if v != omit:
                operands.append((table, axes))
                covered |= mask
        for v, axes, mask in slots:
            if v in self.findings:
                operands.append((self.findings[v], axes))
                covered |= mask
        for v, vec in sorted(self.injected[cid].items()) if cid in self.injected else ():
            operands.append((vec, [axis[v]]))
            covered |= 1 << axis[v]
        for nb in seps:
            if nb not in without and (nb, cid) in self.messages:
                axes, mask = seps[nb]
                operands.append((self.messages[(nb, cid)], axes))
                covered |= mask
        if covered != every:
            operands += [(np.ones(self.net.arity(v)), [i]) for v, i in axis.items()
                         if not covered >> i & 1]
        if len(operands) > UNPLANNED_MAX_FACTORS:
            operands = _merge_same_scope(operands)
        return operands

    def operands(self, cid: int, keep: tuple[int, ...], *, without: int | None = None,
                 omit: int | None = None) -> tuple[list[tuple[np.ndarray, list[int]]], list[int]]:
        """The einsum operands (`_factors`) and the output axes that sum the
        clique's factors onto the sorted `keep`."""
        axis = (self._plans[cid] or self._plan(cid))[0]
        return self._factors(cid, (without,), omit), [axis[v] for v in keep]

    def send(self, src: int, dst: int) -> None:
        """Sum the factors of clique `src` but `dst`'s message onto their
        sepset, as the plain-array message to `dst`; counted in `stats`."""
        # `_factors` builds the plan, if need be, before the sepset axes are read from it
        self.messages[(src, dst)] = self.contract(src, self._factors(src, (dst,), None),
                                                  self._plans[src][4][dst][0])
        self.stats.messages_passed += 1
        self.stats.entries_touched += self._sizes[src]

    def send_outward(self, dsts: list[int], parent: dict[int, int | None]) -> None:
        """Send each clique of `dsts`, in BFS order, the message from its
        `parent`, as `send` does.

        On a clique C above PLAN_ABOVE_ENTRIES, the k children whose sepsets
        have at most 1/SHARED_SEPSET_RATIO of its entries (the first
        UNPLANNED_MAX_FACTORS of them, so that each message is one unplanned
        einsum call) share one contraction, as in Shenoy's binary join trees
        (IJAR 1997), if k ≥ 2 and k·|U| ≤ |C| for U the union of their
        sepsets; each shared message costs a pass over U.  The clique's
        factors but those children's messages, with ones for any member only
        those messages covered, are summed once onto U.  Each of them then
        gets U's table times the other shared children's messages, summed
        onto its sepset by numpy's pairwise summation.  No division is
        needed, and every message is counted in `stats` as sent from the
        whole clique.
        """
        run = None      # the large clique whose children, which come in one run, are being sent
        for dst in dsts:
            src = parent[dst]
            size = self._sizes[src]
            if size > PLAN_ABOVE_ENTRIES and src != run:
                run, shared = src, [nb for nb, s in self.neighbors[src] if parent[nb] == src
                                    and nb in dsts and SHARED_SEPSET_RATIO
                                    * self._sepset_sizes[s] <= size][:UNPLANNED_MAX_FACTORS]
                if len(shared) > 1:
                    seps = (self._plans[src] or self._plan(src))[4]
                    union = sorted({i for nb in shared for i in seps[nb][0]})
                    members = self.cliques[src].members
                    if len(shared) * math.prod(self.net.arity(members[i]) for i in union) > size:
                        shared = ()
                    else:
                        table = self.contract(src, self._factors(src, shared, None), union)
            if size <= PLAN_ABOVE_ENTRIES or len(shared) < 2 or dst not in shared:
                self.send(src, dst)
                continue
            axes = seps[dst][0]
            others = [arg for nb in shared if nb != dst and (nb, src) in self.messages
                      for arg in (self.messages[(nb, src)], seps[nb][0])]
            product = c_einsum(table, union, *others, axes + [i for i in union if i not in axes])
            self.messages[(src, dst)] = product.reshape(*product.shape[:len(axes)], -1).sum(-1)
            self.stats.messages_passed += 1
            self.stats.entries_touched += size

    def planned(self, cid: int, operands) -> bool:
        """Whether `contract` takes these operands of the clique along a
        greedy pairwise path: on a large clique or past UNPLANNED_MAX_FACTORS."""
        return self._sizes[cid] > PLAN_ABOVE_ENTRIES or len(operands) > UNPLANNED_MAX_FACTORS

    def contract(self, cid: int, operands, out: list[int]) -> np.ndarray:
        """One einsum of the clique's `operands` onto the axes `out`; a leading
        axis of stacked operands may be added to both.  Unplanned unless
        `planned`."""
        if self.planned(cid, operands):
            return np.einsum(*itertools.chain.from_iterable(operands), out, optimize="greedy")
        return c_einsum(*itertools.chain.from_iterable(operands), out)

    def local_product(self, cid: int, keep: tuple[int, ...] | None = None, *,
                      without: int | None = None, omit: int | None = None) -> Potential:
        """The clique's factors (`operands`), multiplied and summed onto
        `keep`, a subset of the clique's members that defaults to all of
        them; only then is the clique table built."""
        keep = self.cliques[cid].members if keep is None else tuple(sorted(keep))
        return Potential(keep, self.contract(cid, *self.operands(cid, keep, without=without,
                                                                    omit=omit)))

    def clique_potential(self, cid: int) -> Potential:
        """The clique's current table; equals p(members, e) after a full propagation."""
        return self.local_product(cid)

    def sepset_potential(self, s_idx: int) -> Potential:
        """Product of the two directed messages; equals p(members, e) when consistent."""
        return self._sepset_product(s_idx, self.sepsets[s_idx].members)

    def _sepset_product(self, s_idx: int, keep: tuple[int, ...]) -> Potential:
        """The two directed messages of a sepset, multiplied and summed onto `keep`.

        A message not yet sent counts as a table of ones.
        """
        sep = self.sepsets[s_idx]
        a, b = sep.cliques
        axes = list(range(len(sep.members)))
        args = []
        for key in ((a, b), (b, a)):
            msg = self.messages.get(key)
            args += (msg if msg is not None else
                     np.ones(tuple(self.net.arity(v) for v in sep.members)), axes)
        args.append([sep.members.index(v) for v in keep])
        return Potential(keep, np.einsum(*args))

    def joint(self, vars: tuple[int, ...]) -> Potential:
        """p(vars, e) for sorted, nonempty `vars`, read from their cheapest holder.

        After a full propagation every sepset and every clique holds
        p(members, e), so any holder gives the same table; the smallest one
        costs least.  A sepset read is one einsum of its two messages, a
        clique read one `local_product`.  The `holder_cliques` must be
        current.
        """
        self.require_current(self.holder_cliques(vars))
        is_clique, idx = self.holder(vars)
        if is_clique:
            return self.local_product(idx, vars)
        return self._sepset_product(idx, vars)

    def read_clique(self, cid: int, vars: tuple[int, ...], *,
                    omit: int | None = None) -> Potential:
        """p(vars, e) from one current clique; without `omit`'s CPT, if given,
        its derivative in each entry of that CPT."""
        self.require_current((cid,))
        return self.local_product(cid, vars, omit=omit)

    # -- currency --------------------------------------------------------------

    def invalidate(self) -> None:
        """Mark every read stale: a factor or finding changed since the last pass."""
        self.current = frozenset()
        self.evidence_mass = None

    def left_current(self, root: int, region: frozenset[int] | None) -> None:
        """Record what a pass from `root` left current: `region`, or every clique if None."""
        if region is None or region == self._every:
            self.current, self.pass_root = self._every, None
        else:
            self.current, self.pass_root = region, root

    def require_current(self, cliques) -> None:
        """Raise BnsenseError unless the last pass left every one of `cliques` current."""
        if not self.current:
            raise BnsenseError("tree is not consistent; propagate first")
        for cid in cliques:
            if cid not in self.current:
                raise BnsenseError(
                    f"clique {cid} lies outside the region the pass from clique "
                    f"{self.pass_root} left current")

    # -- maintenance -----------------------------------------------------------

    def reset(self) -> None:
        """Back to the freshly built state (plans kept, counters kept)."""
        self.findings.clear()
        self.injected.clear()
        self.messages.clear()
        self.invalidate()
        self.pass_root = None

    def to_dict(self) -> dict:
        names = [v.name for v in self.net.variables]
        return {
            "cliques": [
                {"id": c.id,
                 "members": [names[v] for v in c.members],
                 "families": [names[v] for v in c.families]}
                for c in self.cliques
            ],
            "sepsets": [
                {"cliques": list(s.cliques), "members": [names[v] for v in s.members]}
                for s in self.sepsets
            ],
            "edges": [list(s.cliques) for s in self.sepsets],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def fill_first(arities: Sequence[int], n: int) -> list[int]:
    """`arities` raised so that `triangulate` over n vertices orders by fill
    count first, the arities only breaking ties (see there): each by n²·A²,
    for A the largest of them."""
    shift = n * n * max(arities) ** 2
    return [a + shift for a in arities]


def _cheaper_walk(net: Network, adj: dict[int, set[int]], walk):
    """The walk (`_elimination_cliques`) of a cheaper tree, if the weighted
    order's `walk` has a clique above PLAN_ABOVE_ENTRIES.

    The graph is then also eliminated by fill count first (`fill_first`).
    Neither greedy order dominates the other (Kjærulff 1990, cited at
    `triangulate`); the one whose cliques have fewer total entries is kept,
    the weighted one on a tie.  Each clique is then hung on its smallest
    valid parent (`_smallest_parents`).
    """
    def entries(members):
        return [math.prod(map(net.arities.__getitem__, mem)) for mem in members]
    sizes = entries(walk[0])
    if max(sizes) <= PLAN_ABOVE_ENTRIES:
        return walk
    other = _elimination_cliques(adj, *triangulate(adj, fill_first(net.arities, len(adj))))
    other_sizes = entries(other[0])
    if sum(other_sizes) < sum(sizes):
        walk, sizes = other, other_sizes
    members, parent, separator = walk
    return members, _smallest_parents(members, parent, separator, sizes), separator


def build_junction_tree(net: Network, requisite=None, evidence=None) -> JunctionTree:
    """Moralize, triangulate, read the clique tree off the elimination order
    (with `_cheaper_walk`'s two choices where a clique is above
    PLAN_ABOVE_ENTRIES), and place each family in the lowest-id clique that
    holds it.

    Compiles every variable when `requisite` is None, else the variable ids
    in `requisite` and their ancestors (`Network.ancestors`): every other
    variable is barren for a question about them, and leaving it out changes
    no answer.  Ids stay the network's own, and every tie-break above is
    monotone in the id, so the tree is the one a network of the compiled
    variables alone would give.  No clique holds a variable left out.

    Given `evidence`, the tree is compiled for it (module docstring): each
    compiled variable whose finding leaves one state possible is fixed
    (`fixed_states`), and the edges out of it are cut before moralizing.
    """
    compiled = None if requisite is None else net.ancestors(requisite)
    variables = range(net.n_variables) if compiled is None else sorted(compiled)
    if not variables:
        raise NetworkFormatError("cannot build a junction tree with no variables")
    fixed = {} if evidence is None else fixed_states(
        item for item in evidence.items() if compiled is None or item[0] in compiled)
    adj = moralize(net, variables, fixed)
    walk = _elimination_cliques(adj, *triangulate(adj, net.arities))
    if max(net.arities) ** max(map(len, walk[0])) > PLAN_ABOVE_ENTRIES:   # else none is large
        walk = _cheaper_walk(net, adj, walk)
    return JunctionTree(net, *_clique_tree(*walk), fixed)
