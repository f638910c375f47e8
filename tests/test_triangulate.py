"""Incrementally scored triangulation against the rescoring one it replaced.

`triangulate` keeps each vertex's weighted fill up to date from three
running sums over its neighbours.  The reference below rescores every
touched vertex from scratch with `fill_weight`, which sums over all of the
vertex's neighbours' neighbourhoods; on a star that makes each leaf
elimination cost the hub's whole degree.  Both must give the same scores,
so the same heap ties, elimination order and fill edges, on any graph.
"""

import heapq
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsense.jtree import triangulate


def fill_weight(work, arities, v):
    """Sum of arities[a] * arities[b] over the non-adjacent pairs {a, b} of v's neighbours."""
    ns = work[v]
    arity = arities.__getitem__
    total = sum(map(arity, ns))
    weight = 0
    for a in ns:
        k = arity(a)
        weight += k * (total - k - sum(map(arity, work[a] & ns)))
    return weight // 2


def rescoring_triangulate(adj, arities):
    """Greedy weighted min-fill that rescores each touched vertex with `fill_weight`."""
    work = {v: set(ns) for v, ns in adj.items()}
    score = {v: fill_weight(work, arities, v) for v in work}
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
        for i, a in enumerate(ns):
            for b in ns[i + 1:]:
                if b not in work[a]:
                    touched |= work[a] & work[b]
                    work[a].add(b)
                    work[b].add(a)
                    fills.add(frozenset((a, b)))
        for u in touched:
            weight = fill_weight(work, arities, u)
            if weight != score[u]:
                score[u] = weight
                heapq.heappush(heap, (weight, u))
        order.append(v)
    return tuple(order), fills


def assert_same(adj, arities):
    assert triangulate(adj, arities) == rescoring_triangulate(adj, arities)


def star(n_leaves, hub=0):
    leaves = [v for v in range(n_leaves + 1) if v != hub]
    adj = {v: {hub} for v in leaves}
    adj[hub] = set(leaves)
    return adj


def complete(vertices):
    return {v: set(vertices) - {v} for v in vertices}


@st.composite
def graphs(draw):
    """A random graph of 2-40 vertices, arities 1-4, as (adjacency, arities)."""
    n = draw(st.integers(2, 40))
    arities = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    adj = {v: set() for v in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                adj[a].add(b)
                adj[b].add(a)
    return adj, arities


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs())
def test_random_graphs_match_the_rescoring_order(graph):
    assert_same(*graph)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graphs(), graphs())
def test_disconnected_parts_match_the_rescoring_order(first, second):
    (adj_a, arities_a), (adj_b, arities_b) = first, second
    shift = len(adj_a)
    adj = dict(adj_a)
    adj.update({v + shift: {u + shift for u in ns} for v, ns in adj_b.items()})
    assert_same(adj, arities_a + arities_b)


def test_stars_and_complete_graphs_match_the_rescoring_order():
    rng = np.random.default_rng(27)
    for n in (1, 2, 5, 30, 200):
        for hub in (0, n // 2, n):
            arities = [int(k) for k in rng.integers(1, 5, size=n + 1)]
            assert_same(star(n, hub), arities)
            assert_same(star(n, hub), [2] * (n + 1))
    for n in (2, 3, 8, 15):
        arities = [int(k) for k in rng.integers(1, 5, size=n)]
        assert_same(complete(range(n)), arities)
        # two complete parts joined through one vertex, plus an isolated one
        adj = complete(range(n))
        adj.update(complete(range(n - 1, 2 * n - 1)))
        adj[n - 1] = set(range(2 * n - 1)) - {n - 1}
        adj[2 * n - 1] = set()
        assert_same(adj, [int(k) for k in rng.integers(1, 5, size=2 * n)])


def test_a_4000_leaf_star_triangulates_in_linear_time():
    adj, arities = star(4000), [3] + [2] * 4000
    start = time.perf_counter()
    order, fills = triangulate(adj, arities)
    assert time.perf_counter() - start < 0.5
    assert order == (*range(1, 4000), 0, 4000) and not fills
