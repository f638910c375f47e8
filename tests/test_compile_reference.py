"""The indexed compile and the one-search relevance screen against their quadratic originals.

The reference functions below are the straightforward versions of each
step: triangulation rescans every remaining vertex per elimination, the
maximality filter compares every pair of candidate cliques, every clique
pair is scored for a maximum-weight spanning tree (Kruskal), every clique is
scanned for each family, and relevance screening runs one ball search per
variable.  The library must give exactly the same elimination order and
fill edges, cliques, family placement, relevant sets and topological
order.

The library reads its clique tree off the elimination order instead of
running Kruskal.  Every clique tree of a chordal graph has the same
multiset of separators, and every one is a maximum-weight spanning tree of
the clique graph; two of them differ only in which clique pairs carry the
edges, which is a tie-break.  So the library's sepsets are held to what
defines a clique tree (a spanning tree whose sepsets are the intersections
of their two cliques, with running intersection) and to the reference's
separator multiset, not to Kruskal's choice of pairs.

Triangulation is weighted min-fill: a fill edge counts the product of its
ends' arities.  Plain min-fill, which counts every fill edge as 1, is kept
as a second reference: where all variables share one arity the weighted
score is a constant multiple of the fill count, so the two orders agree.

Where the weighted order gives a clique above PLAN_ABOVE_ENTRIES, the
library also eliminates by fill count first, with arities only breaking
ties, keeps whichever order's cliques have fewer total entries (the weighted
one on a tie), and hangs each clique on the smallest clique opened before it
that holds its separator.  The reference runs both eliminations by rescanning,
finds the order the library's backward walk opens the cliques in from a
closed characterization of that walk (`reference_walk`), and picks each
parent by scanning every earlier clique; the sepsets must then be exactly
the reference's, clique pairs included, as they must be on the walk's own
parents everywhere else.
"""

import numpy as np
import pytest

from bnsense import build_junction_tree
from bnsense.jtree import PLAN_ABOVE_ENTRIES, Sepset, fill_first, moralize, triangulate
from bnsense.network import Network, Variable
from bnsense.oneway import _influenced_variables
from bnsense.oracle import random_network


# ---------------------------------------------------------------------------
# reference implementations


def _reference_eliminate(adj, score):
    """Eliminate by lowest score(work, v), ties to the lowest id, rescanning every vertex."""
    work = {v: set(ns) for v, ns in adj.items()}
    order = []
    fills = set()
    remaining = sorted(work)
    while remaining:
        best, best_score = None, None
        for v in remaining:
            value = score(work, v)
            if best_score is None or value < best_score:
                best, best_score = v, value
        v = best
        ns = sorted(work[v])
        for i, a in enumerate(ns):
            for b in ns[i + 1:]:
                if b not in work[a]:
                    work[a].add(b)
                    work[b].add(a)
                    fills.add(frozenset((a, b)))
        for a in ns:
            work[a].discard(v)
        del work[v]
        remaining.remove(v)
        order.append(v)
    return tuple(order), fills


def _missing_pairs(work, v):
    ns = sorted(work[v])
    return [(a, b) for i, a in enumerate(ns) for b in ns[i + 1:] if b not in work[a]]


def reference_triangulate(adj, arities):
    """Weighted min-fill: each missing pair of neighbours costs the product of their arities."""
    return _reference_eliminate(
        adj, lambda work, v: sum(arities[a] * arities[b] for a, b in _missing_pairs(work, v)))


def reference_min_fill(adj):
    """Plain min-fill: each missing pair of neighbours costs 1."""
    return _reference_eliminate(adj, lambda work, v: len(_missing_pairs(work, v)))


def reference_fill_first(adj, arities):
    """Fill count first; ties to the lower sum of the missing pairs' arity
    sums, then to the lower weighted fill, then to the lowest id."""
    def score(work, v):
        pairs = _missing_pairs(work, v)
        return (len(pairs), sum(arities[a] + arities[b] for a, b in pairs),
                sum(arities[a] * arities[b] for a, b in pairs))
    return _reference_eliminate(adj, score)


def reference_elimination_cliques(adj, order, fills):
    work = {v: set(ns) for v, ns in adj.items()}
    for edge in fills:
        a, b = tuple(edge)
        work[a].add(b)
        work[b].add(a)
    candidates = []
    for v in order:
        candidates.append(frozenset({v} | work[v]))
        for a in work[v]:
            work[a].discard(v)
        del work[v]
    maximal = []
    for c in sorted(set(candidates), key=len, reverse=True):
        if not any(c < kept for kept in maximal):
            maximal.append(c)
    return sorted(tuple(sorted(c)) for c in maximal)


def reference_walk(adj, order, fills):
    """The cliques in the order the library's backward walk opens them:
    (members, walk parent, separator) by order of opening.

    With later(x) the neighbours of x eliminated after it in the
    triangulated graph and C(x) = {x} ∪ later(x): walking the order
    backwards, x joins the clique of the earliest eliminated p of later(x)
    exactly when later(x) = C(p) and x is the latest eliminated vertex with
    that later set; every other vertex opens a clique, C(x), whose separator
    is later(x) and whose walk parent is the clique p is in.
    """
    position = {v: i for i, v in enumerate(order)}
    work = {v: set(ns) for v, ns in adj.items()}
    for edge in fills:
        a, b = tuple(edge)
        work[a].add(b)
        work[b].add(a)
    later = {v: {a for a in work[v] if position[a] > position[v]} for v in order}
    with_later = {}
    for x in order:
        with_later.setdefault(frozenset(later[x]), []).append(x)
    joins = {}
    for p in order:
        same = with_later.get(frozenset({p} | later[p]))
        if same:
            joins[same[-1]] = p
    openers = [v for v in reversed(order) if v not in joins]
    clique_of = {v: c for c, v in enumerate(openers)}
    for v in reversed(order):
        if v in joins:
            clique_of[v] = clique_of[joins[v]]
    members = [sorted(v for v in order if clique_of[v] == c) + sorted(later[opener])
               for c, opener in enumerate(openers)]
    parent = [clique_of[min(later[v], key=position.__getitem__)] if later[v] else c
              for c, v in enumerate(openers)]
    return members, parent, [later[v] for v in openers]


def reference_smallest_parents(net, members, parent, separator):
    """Each clique with a separator hung on the smallest earlier clique
    holding it; ties to the walk parent, then to the earliest opened."""
    def size(c):
        return int(np.prod([net.arity(v) for v in members[c]]))
    return [min((j for j in range(c) if separator[c] <= set(members[j])),
                key=lambda j: (size(j), j != parent[c], j)) if separator[c] else c
            for c in range(len(members))]


def reference_sepsets(members, parent, separator):
    """The sepsets of a walk's cliques under the given parents, with the
    cliques numbered in lexicographic order; each part but clique 0's is
    joined to clique 0 through its lowest clique by an empty sepset."""
    order = sorted(range(len(members)), key=lambda c: sorted(members[c]))
    new_id = {c: cid for cid, c in enumerate(order)}
    uf = _UnionFind(len(members))
    sepsets = []
    for c, p in enumerate(parent):
        if p != c:
            uf.union(new_id[c], new_id[p])
            sepsets.append(Sepset(tuple(sorted((new_id[c], new_id[p]))),
                                  tuple(sorted(separator[c]))))
    sepsets.extend(Sepset((0, j), ()) for j in range(1, len(members)) if uf.union(0, j))
    return sorted(sepsets, key=lambda sep: sep.cliques)


def entries(net, members):
    return [int(np.prod([net.arity(v) for v in mem])) for mem in members]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def reference_spanning_sepsets(net, members):
    """Kruskal: most shared variables first, then the larger joint state space,
    then the lower clique-id pair; leftover parts join clique 0 by empty sepsets."""
    candidates = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            shared = tuple(sorted(set(members[i]) & set(members[j])))
            if not shared:
                continue
            mass = 1
            for v in shared:
                mass *= net.arity(v)
            candidates.append((-len(shared), -mass, i, j, shared))
    candidates.sort()
    uf = _UnionFind(len(members))
    sepsets = []
    for _, _, i, j, shared in candidates:
        if uf.union(i, j):
            sepsets.append(Sepset((i, j), shared))
    sepsets.extend(Sepset((0, j), ()) for j in range(1, len(members)) if uf.union(0, j))
    return sepsets


def reference_families(net, members):
    families = [[] for _ in members]
    for v in range(net.n_variables):
        fam = set(net.family(v))
        for cid, mem in enumerate(members):
            if fam <= set(mem):
                families[cid].append(v)
                break
    return [tuple(f) for f in families]


def reference_clique_containing(members, vars):
    target = set(vars)
    for cid, mem in enumerate(members):
        if target <= set(mem):
            return cid
    return None


def reference_ancestors_of_evidence(net, evidence_vars):
    """Variables with a finding on themselves or on some descendant, by one
    scan of the reversed topological order."""
    out = set(evidence_vars)
    for v in reversed(net.topological_order()):
        if v not in out and any(c in out for c in net.children(v)):
            out.add(v)
    return out


def reference_influenced_variables(net, target, evidence_vars):
    has_observed_below = reference_ancestors_of_evidence(net, evidence_vars)
    relevant = set()
    for b in range(net.n_variables):
        seen = set()
        stack = [(b, True)]
        hit = False
        while stack:
            node, from_parent = stack.pop()
            if (node, from_parent) in seen:
                continue
            seen.add((node, from_parent))
            if node == target:
                hit = True
                break
            if from_parent:
                for c in net.children(node):
                    stack.append((c, True))
                if node in has_observed_below:
                    for p in net.parents[node]:
                        stack.append((p, False))
            else:
                for p in net.parents[node]:
                    stack.append((p, False))
                for c in net.children(node):
                    stack.append((c, True))
        if hit:
            relevant.add(b)
    return relevant


def reference_topological_order(parents, children):
    n = len(parents)
    remaining_parents = {v: set(parents[v]) for v in range(n)}
    ready = sorted(v for v in range(n) if not remaining_parents[v])
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        freed = []
        for c in children[v]:
            remaining_parents[c].discard(v)
            if not remaining_parents[c]:
                freed.append(c)
        ready = sorted(ready + freed)
    return tuple(order)


# ---------------------------------------------------------------------------
# comparison helpers


def assert_clique_tree(cliques, sepsets):
    """The sepsets join the cliques into a clique tree.

    They span the cliques as a tree, each is exactly the intersection of its
    two cliques, and the cliques holding any one variable form a connected
    subtree (running intersection).  Since each sepset is an intersection, a
    variable's cliques and the sepsets holding it form a sub-forest of the
    tree, which is connected exactly when it has one edge fewer than
    cliques.
    """
    uf = _UnionFind(len(cliques))
    assert len(sepsets) == len(cliques) - 1
    assert all(uf.union(*sep.cliques) for sep in sepsets)
    for sep in sepsets:
        i, j = sep.cliques
        assert i < j
        assert sep.members == tuple(sorted(set(cliques[i]) & set(cliques[j])))
    holding = {}
    for mem in cliques:
        for v in mem:
            holding[v] = holding.get(v, 0) + 1
    for sep in sepsets:
        for v in sep.members:
            holding[v] -= 1
    assert set(holding.values()) <= {1}


def assert_tree_matches_reference(net, reference_order=None):
    """Same order, fills, cliques, families and sepsets as the reference
    pipeline, and a clique tree with the Kruskal reference's separators.

    `reference_order` stands in for the reference triangulation where that is
    too slow to run; the caller then checks the order separately.
    """
    adj = moralize(net, range(net.n_variables))
    order, fills = triangulate(adj, net.arities)
    if reference_order is None:
        reference_order = reference_triangulate(adj, net.arities)
    assert (order, fills) == reference_order
    members = reference_elimination_cliques(adj, order, fills)
    large = max(entries(net, members)) > PLAN_ABOVE_ENTRIES
    if large:
        other = reference_fill_first(adj, net.arities)
        other_members = reference_elimination_cliques(adj, *other)
        if sum(entries(net, other_members)) < sum(entries(net, members)):
            order, fills = other
            members = other_members
    walk = reference_walk(adj, order, fills)
    assert sorted(tuple(sorted(mem)) for mem in walk[0]) == members
    if large:
        walk = walk[0], reference_smallest_parents(net, *walk), walk[2]
    tree = build_junction_tree(net)
    assert [c.members for c in tree.cliques] == members
    assert_clique_tree(members, tree.sepsets)
    assert tree.sepsets == reference_sepsets(*walk)
    assert tree.sepsets == sorted(tree.sepsets, key=lambda sep: sep.cliques)
    reference = reference_spanning_sepsets(net, members)
    assert sorted(sep.members for sep in tree.sepsets) == sorted(sep.members for sep in reference)
    assert ([sep for sep in tree.sepsets if not sep.members]
            == [sep for sep in reference if not sep.members])
    assert [c.families for c in tree.cliques] == reference_families(net, members)
    return tree


def assert_relevance_matches_reference(net, target, evidence_vars):
    assert (_influenced_variables(net, target, evidence_vars)
            == reference_influenced_variables(net, target, evidence_vars))


def _structure(parents, arities):
    variables = [Variable(f"X{i}", tuple(f"s{k}" for k in range(a)))
                 for i, a in enumerate(arities)]
    tables = []
    for v, pars in enumerate(parents):
        rows = int(np.prod([arities[p] for p in pars], dtype=int))
        tables.append(np.full((rows, arities[v]), 1.0 / arities[v]))
    return Network(variables, parents, tables)


# ---------------------------------------------------------------------------
# tests


class TestRandomNetworks:
    @pytest.mark.parametrize("connected", [True, False])
    def test_compile_matches_reference(self, connected):
        rng = np.random.default_rng(31 if connected else 32)
        for _ in range(120):
            net = random_network(rng, n_vars=int(rng.integers(3, 40)), max_states=4,
                                 max_parents=int(rng.integers(1, 5)), connected=connected)
            tree = assert_tree_matches_reference(net)
            members = [c.members for c in tree.cliques]
            for _ in range(10):
                k = int(rng.integers(1, 4))
                vars = tuple(sorted(int(v) for v in
                                    rng.choice(net.n_variables, size=k, replace=False)))
                assert tree.clique_containing(vars) == reference_clique_containing(members, vars)
            assert tree.var_clique == {v: reference_clique_containing(members, (v,))
                                       for v in range(net.n_variables)}

    @pytest.mark.parametrize("connected", [True, False])
    def test_relevance_matches_reference(self, connected):
        rng = np.random.default_rng(33 if connected else 34)
        for _ in range(120):
            net = random_network(rng, n_vars=int(rng.integers(3, 25)),
                                 max_parents=3, connected=connected)
            k = int(rng.integers(0, min(5, net.n_variables) + 1))
            evidence = {int(v) for v in rng.choice(net.n_variables, size=k, replace=False)}
            for target in range(net.n_variables):
                assert_relevance_matches_reference(net, target, evidence)

    def test_topological_order_matches_reference(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            net = random_network(rng, n_vars=int(rng.integers(1, 40)),
                                 connected=bool(rng.integers(2)))
            assert net.topological_order() == reference_topological_order(
                net.parents, tuple(net.children(v) for v in range(net.n_variables)))


class TestMixedArities:
    def test_sepset_mass_ties(self):
        """Cliques sharing equally many variables of different arities."""
        rng = np.random.default_rng(36)
        for _ in range(40):
            n = int(rng.integers(6, 30))
            parents = [tuple(sorted(int(p) for p in rng.choice(
                v, size=int(rng.integers(1 if v else 0, min(v, 3) + 1)), replace=False)))
                if v else () for v in range(n)]
            arities = [int(a) for a in rng.integers(2, 6, size=n)]
            assert_tree_matches_reference(_structure(parents, arities))

    def test_equal_arities_keep_min_fill(self):
        """One arity everywhere: the weighted order is plain min-fill's."""
        rng = np.random.default_rng(38)
        for _ in range(60):
            n = int(rng.integers(4, 35))
            parents = [tuple(sorted(int(p) for p in rng.choice(
                v, size=int(rng.integers(0, min(v, 4) + 1)), replace=False)))
                if v else () for v in range(n)]
            net = _structure(parents, [int(rng.integers(2, 5))] * n)
            adj = moralize(net, range(n))
            assert triangulate(adj, net.arities) == reference_min_fill(adj)

    def test_fill_first_order(self):
        """The raised arities make the order min-fill's, ties to the lower
        arity sums, then to the lower weighted fill, then to the lowest id."""
        rng = np.random.default_rng(39)
        for _ in range(60):
            net = random_network(rng, n_vars=int(rng.integers(4, 30)), max_states=5,
                                 max_parents=int(rng.integers(1, 6)),
                                 connected=bool(rng.integers(2)))
            adj = moralize(net, range(net.n_variables))
            assert (triangulate(adj, fill_first(net.arities, len(adj)))
                    == reference_fill_first(adj, net.arities))

    def test_tied_totals_keep_the_weighted_order(self):
        """Both orders give 6,000 entries over different cliques."""
        rng = np.random.default_rng(832)
        net = random_network(rng, n_vars=int(rng.integers(6, 16)), max_states=5, max_parents=3)
        adj = moralize(net, range(net.n_variables))
        weighted = reference_elimination_cliques(adj, *reference_triangulate(adj, net.arities))
        other = reference_elimination_cliques(adj, *reference_fill_first(adj, net.arities))
        assert sum(entries(net, weighted)) == sum(entries(net, other)) == 6000
        assert weighted != other
        assert max(entries(net, weighted)) > PLAN_ABOVE_ENTRIES
        tree = assert_tree_matches_reference(net)
        assert [c.members for c in tree.cliques] == weighted

    def test_wide_clique_dag(self):
        """The benchmark's wide-clique DAG: weighted fill halves the clique state space."""
        net = random_network(np.random.default_rng(4), n_vars=130, max_states=3,
                             max_parents=2)
        tree = assert_tree_matches_reference(net)
        weighted = entries(net, (c.members for c in tree.cliques))
        assert (max(weighted), sum(weighted)) == (1_259_712, 4_186_061)
        adj = moralize(net, range(net.n_variables))
        plain = entries(net, reference_elimination_cliques(adj, *reference_min_fill(adj)))
        assert (max(plain), sum(plain)) == (1_889_568, 9_311_561)

    def test_with_cpt_keeps_structure(self):
        net = random_network(np.random.default_rng(37), n_vars=12)
        table = np.array(net.cpts[5])
        table[0] = table[0][::-1]
        moved = net.with_cpt(5, table)
        assert moved.topological_order() == net.topological_order()
        assert [moved.children(v) for v in range(12)] == [net.children(v) for v in range(12)]
        assert np.array_equal(moved.cpts[5], table) and not moved.cpts[5].flags.writeable
        assert all(moved.cpts[v] is net.cpts[v] for v in range(12) if v != 5)
        assert np.array_equal(net.cpts[5][0], table[0][::-1])


class TestLargeStructures:
    def test_long_chain(self):
        n = 2000
        net = _structure([()] + [(v - 1,) for v in range(1, n)], [2 + v % 3 for v in range(n)])
        assert_tree_matches_reference(net)
        for target, evidence in [(650, set()), (0, {1000})]:
            assert_relevance_matches_reference(net, target, evidence)

    def test_star(self):
        """A hub with 999 children: the reference scores every pair of its 999 cliques.

        The reference triangulation rescans the hub's 998-neighbour fill count
        on every elimination, which takes many seconds at this size.  It is
        run on a 300-variable star instead; at 1000 the order is stated
        directly and the rest of the pipeline is held to the reference.  Every
        leaf has fill 0, so the leaves go in id order until one is left; the
        hub then has fill 0 too and goes before it on the lower id.
        """
        small = _structure([()] + [(0,)] * 299, [3] + [2] * 299)
        assert_tree_matches_reference(small)
        n = 1000
        net = _structure([()] + [(0,)] * (n - 1), [3] + [2 + v % 2 for v in range(1, n)])
        assert_tree_matches_reference(net, (tuple(range(1, n - 1)) + (0, n - 1), set()))
        for target, evidence in [(0, set()), (500, set()), (500, {7}), (0, {1, 999})]:
            assert_relevance_matches_reference(net, target, evidence)

    def test_star_of_paths(self):
        """A hub whose children each have a child of their own, mixed arities:
        the hub's cliques meet only in the hub, k - 1 of its k cliques' sepsets."""
        k = 60
        parents = [()] + [(0,)] * k + [(v,) for v in range(1, k + 1)]
        net = _structure(parents, [3] + [2 + v % 3 for v in range(1, 2 * k + 1)])
        tree = assert_tree_matches_reference(net)
        assert len(tree.cliques) == 2 * k
        assert sum(sep.members == (0,) for sep in tree.sepsets) == k - 1

    def test_complete_graph(self):
        """Every variable a parent of every later one: one clique, no sepset."""
        n = 13
        net = _structure([tuple(range(v)) for v in range(n)], [2] * n)
        tree = assert_tree_matches_reference(net)
        assert [c.members for c in tree.cliques] == [tuple(range(n))]
        assert tree.sepsets == []
