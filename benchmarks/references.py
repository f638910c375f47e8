"""Independent references for the long-chain and wide-clique workloads.

Both are plain numpy code over workloads.Model and import nothing from
bnsense, so a defect in the package cannot hide in its own reference.

* chain_joint: a scaled forward-backward pass on a chain V0 -> V1 -> ...,
  carrying the scale in log space; gives p(v = s, e) for every variable.
* eliminate: bucket elimination by einsum along a greedy min-size order;
  gives p(keep = s, e) for one variable, or p(e).
* influencing_variables: the variables whose parameters can move a
  posterior, by d-separation.
"""

from __future__ import annotations

import math
import string

import numpy as np

from workloads import Model


def covaried(model: Model, settings) -> list[np.ndarray]:
    """CPTs with each (Param, x) in settings applied by proportional co-variation."""
    cpts = list(model.cpts)
    for p, x in settings:
        table = np.array(cpts[p.variable], dtype=float)
        r = model.row_of_config(p.variable, p.config)
        row = table[r]
        current = row[p.state]
        row *= (1.0 - x) / (1.0 - current)
        row[p.state] = x
        cpts[p.variable] = table
    return cpts


def likelihoods(model: Model, evidence) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for v, s, negated in evidence:
        vec = np.zeros(model.arities[v])
        vec[s] = 1.0
        if negated:
            vec = 1.0 - vec
        out[v] = out[v] * vec if v in out else vec
    return out


def second_value(x: float) -> float:
    """A co-varied point well inside (0, 1) and away from x."""
    return (x + 1.0) / 2.0 if x < 0.5 else x / 2.0


def influencing_variables(model: Model, target: int, observed) -> set[int]:
    """Variables whose CPT can move p(target | e), by d-separation.

    Each variable v gets an imagined parent theta_v selecting its CPT entries;
    findings are observed dummy children.  v counts when theta_v is
    d-connected to the target.  One Bayes-ball pass from the target: a ball
    that reaches v from below, or from above with a finding at or below v,
    moves on to v's parents, theta_v among them.
    """
    children: list[list[int]] = [[] for _ in range(model.n)]
    for v in range(model.n):
        for p in model.parents[v]:
            children[p].append(v)
    below = set(observed)
    stack = list(observed)
    while stack:
        for p in model.parents[stack.pop()]:
            if p not in below:
                below.add(p)
                stack.append(p)
    seen: set[tuple[int, bool]] = set()
    stack = [(target, True)]   # (variable, ball arriving from a child)
    while stack:
        v, up = stack.pop()
        up = up or v in below   # the ball bounces back up off a finding at or below v
        if (v, up) in seen:
            continue
        seen.add((v, up))
        if up:
            stack.extend((p, True) for p in model.parents[v])
        stack.extend((c, False) for c in children[v])
    found = {v for v, up in seen if up}
    return found


# ---------------------------------------------------------------------------
# chains


def chain_joint(model: Model, evidence, settings=()) -> tuple[np.ndarray, float]:
    """(p(v = s, e) as an (n, arity) array, p(e)) for a chain model.

    Forward and backward messages are renormalized at every step and their
    scales summed as logarithms, so the pass neither underflows nor loses
    precision however long the chain or however many findings it carries.
    """
    cpts = covaried(model, settings)
    lam = likelihoods(model, evidence)
    n = model.n
    ones = np.ones(model.arities[0])
    fwd = np.empty((n, model.arities[0]))
    log_fwd = np.empty(n)   # log of the scale carried by fwd[v]
    a = cpts[0][0] * lam.get(0, ones)
    acc = 0.0
    for v in range(n):
        if v:
            a = (a @ cpts[v]) * lam.get(v, ones)
        c = a.sum()
        a = a / c
        acc += math.log(c)
        fwd[v] = a
        log_fwd[v] = acc
    bwd = np.empty_like(fwd)
    log_bwd = np.empty(n)   # log of the scale carried by bwd[v]
    b = ones.copy()
    acc = 0.0
    bwd[n - 1] = b
    log_bwd[n - 1] = 0.0
    for v in range(n - 1, 0, -1):
        b = cpts[v] @ (lam.get(v, ones) * b)
        d = b.sum()
        b = b / d
        acc += math.log(d)
        bwd[v - 1] = b
        log_bwd[v - 1] = acc
    joint = fwd * bwd * np.exp(log_fwd + log_bwd)[:, None]
    return joint, math.exp(log_fwd[-1])


# ---------------------------------------------------------------------------
# bucket elimination


class Eliminator:
    """Variable elimination over one model structure, orders cached per kept variable."""

    def __init__(self, model: Model):
        self.model = model
        self._orders: dict[int | None, list[int]] = {}

    def _order(self, keep: int | None) -> list[int]:
        if keep in self._orders:
            return self._orders[keep]
        m = self.model
        adj = {v: set() for v in range(m.n)}
        for v in range(m.n):
            fam = (v,) + m.parents[v]
            for a in fam:
                adj[a].update(b for b in fam if b != a)
        remaining = set(range(m.n)) - {keep}
        order = []
        while remaining:
            best = min(remaining, key=lambda v: (
                math.prod(m.arities[u] for u in adj[v] | {v}), v))
            nbrs = adj.pop(best)
            for a in nbrs:
                adj[a].discard(best)
                adj[a].update(b for b in nbrs if b != a)
            remaining.discard(best)
            order.append(best)
        self._orders[keep] = order
        return order

    def eliminate(self, evidence, keep: int | None = None, settings=()) -> np.ndarray:
        """p(keep = s, e) for every state s (a 0-d array of p(e) if keep is None)."""
        m = self.model
        cpts = covaried(m, settings)
        factors = []
        for v in range(m.n):
            scope = m.parents[v] + (v,)
            factors.append((scope, cpts[v].reshape(tuple(m.arities[u] for u in scope))))
        for v, vec in likelihoods(m, evidence).items():
            factors.append(((v,), vec))
        for x in self._order(keep):
            bucket = [f for f in factors if x in f[0]]
            factors = [f for f in factors if x not in f[0]]
            scope = sorted(set().union(*(f[0] for f in bucket)) - {x})
            factors.append((tuple(scope), _contract(bucket, scope)))
        return _contract(factors, [] if keep is None else [keep])


def _contract(factors, out_vars) -> np.ndarray:
    letters = {}
    for scope, _ in factors:
        for v in scope:
            letters.setdefault(v, string.ascii_letters[len(letters)])
    spec = ",".join("".join(letters[v] for v in scope) for scope, _ in factors)
    spec += "->" + "".join(letters[v] for v in out_vars)
    return np.einsum(spec, *(table for _, table in factors))
