"""Frozen input generators for the three benchmark workloads.

Nothing here imports bnsense: the inputs a run feeds the CLI depend only on
the workload seed and on this file, so two commits of the package receive
byte-identical network files and argument lists.

A workload is a list of networks (JSON documents in the package's network
format) and one *pass*: the ordered list of CLI calls the timed loop repeats.
Each call also carries the structured inputs (variable ids, state indices)
that the reference checks use, so no check has to parse an argv back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KINDS = ("infer", "sens_out_m1", "sens_out_m2", "sens_param", "sens_n")


@dataclass
class Model:
    """A discrete Bayesian network as plain arrays.

    cpts[v] has one row per parent configuration, last listed parent varying
    fastest, exactly as in the network file.
    """

    arities: list[int]
    parents: list[tuple[int, ...]]
    cpts: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.arities)

    def name(self, v: int) -> str:
        return f"V{v}"

    def state(self, v: int, s: int) -> str:
        return f"s{s}"

    def n_rows(self, v: int) -> int:
        return int(np.prod([self.arities[p] for p in self.parents[v]], dtype=int))

    def config_of_row(self, v: int, row: int) -> tuple[int, ...]:
        if not self.parents[v]:
            return ()
        shape = tuple(self.arities[p] for p in self.parents[v])
        return tuple(int(i) for i in np.unravel_index(row, shape))

    def row_of_config(self, v: int, config: tuple[int, ...]) -> int:
        if not self.parents[v]:
            return 0
        shape = tuple(self.arities[p] for p in self.parents[v])
        return int(np.ravel_multi_index(config, shape))

    def to_doc(self) -> dict:
        return {
            "variables": [{"name": self.name(v),
                           "states": [self.state(v, s) for s in range(self.arities[v])]}
                          for v in range(self.n)],
            "cpts": [{"variable": self.name(v),
                      "parents": [self.name(p) for p in self.parents[v]],
                      "rows": [[float(x) for x in row] for row in self.cpts[v]]}
                     for v in range(self.n)],
        }


@dataclass(frozen=True)
class Param:
    """One CPT entry p(variable = state | parents = config)."""

    variable: int
    state: int
    config: tuple[int, ...]


@dataclass
class Call:
    kind: str
    net: int                                   # index into Workload.models
    evidence: tuple[tuple[int, int, bool], ...]  # (variable, state, negated)
    target: tuple[int, int | None] | None = None  # (variable, state or all)
    params: tuple[Param, ...] = ()


@dataclass
class Workload:
    name: str
    models: list[Model]
    calls: list[Call] = field(default_factory=list)


# ---------------------------------------------------------------------------
# text forms of the CLI grammar


def param_text(model: Model, p: Param) -> str:
    head = model.name(p.variable)
    if p.config:
        head += "|" + ";".join(f"{model.name(q)}={model.state(q, s)}"
                               for q, s in zip(model.parents[p.variable], p.config))
    return f"{head}:{model.state(p.variable, p.state)}"


def evidence_text(model: Model, evidence) -> str:
    return ",".join(f"{model.name(v)}{'!=' if neg else '='}{model.state(v, s)}"
                    for v, s, neg in evidence)


def argv(call: Call, model: Model, net_path: str) -> list[str]:
    """CLI arguments for a call, without --out."""
    ev = ["--evidence", evidence_text(model, call.evidence)]
    if call.kind == "infer":
        var, state = call.target
        target = model.name(var)
        if state is not None:
            target += f"={model.state(var, state)}"
        return ["infer", "--net", net_path, "--target", target, *ev]
    if call.kind in ("sens_out_m1", "sens_out_m2"):
        var, state = call.target
        return ["sens-out", "--net", net_path,
                "--target", f"{model.name(var)}={model.state(var, state)}",
                "--method", call.kind[-1], *ev]
    if call.kind == "sens_param":
        return ["sens-param", "--net", net_path, "--param", param_text(model, call.params[0]), *ev]
    return ["sens-n", "--net", net_path,
            "--params", ",".join(param_text(model, p) for p in call.params), *ev]


# ---------------------------------------------------------------------------
# shared draws


def _cpt(rng: np.random.Generator, n_rows: int, arity: int) -> np.ndarray:
    """Rows bounded away from zero, so every finding set has positive probability."""
    raw = rng.uniform(0.05, 1.0, size=(n_rows, arity))
    return raw / raw.sum(axis=1, keepdims=True)


def _random_param(rng: np.random.Generator, model: Model, var: int) -> Param:
    row = int(rng.integers(model.n_rows(var)))
    return Param(var, int(rng.integers(model.arities[var])), model.config_of_row(var, row))


def independent(model: Model, params) -> bool:
    """Distinct CPT rows, and no parameter's variable a parent of another's."""
    for i, a in enumerate(params):
        for b in params[i + 1:]:
            if a.variable == b.variable and a.config == b.config:
                return False
            if a.variable in model.parents[b.variable] or b.variable in model.parents[a.variable]:
                return False
    return True


def _five_calls(net: int, evidence, target: tuple[int, int], param: Param,
                nway: tuple[Param, ...]) -> list[Call]:
    var, state = target
    return [Call("infer", net, evidence, (var, None)),
            Call("sens_out_m1", net, evidence, (var, state)),
            Call("sens_out_m2", net, evidence, (var, state)),
            Call("sens_param", net, evidence, None, (param,)),
            Call("sens_n", net, evidence, None, nway)]


# ---------------------------------------------------------------------------
# small-corpus: the acceptance-corpus distribution


SMALL_CORPUS_SIZE = 200


def _small_network(rng: np.random.Generator) -> Model:
    """3-8 variables, 2-3 states, in-degree <= 3, connected (every variable
    after the first draws at least one earlier parent)."""
    n = int(rng.integers(3, 9))
    arities: list[int] = []
    parents: list[tuple[int, ...]] = []
    cpts = []
    for v in range(n):
        arities.append(int(rng.integers(2, 4)))
        k = int(rng.integers(1, min(v, 3) + 1)) if v else 0
        pars = tuple(sorted(int(i) for i in rng.choice(v, size=k, replace=False))) if k else ()
        parents.append(pars)
        cpts.append(_cpt(rng, int(np.prod([arities[p] for p in pars], dtype=int)), arities[v]))
    return Model(arities, parents, cpts)


def small_corpus(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    wl = Workload("small-corpus", [])
    for i in range(SMALL_CORPUS_SIZE):
        model = _small_network(rng)
        wl.models.append(model)
        count = int(rng.integers(0, 4))
        chosen = sorted(int(v) for v in
                        rng.choice(model.n, size=min(count, model.n), replace=False))
        evidence = tuple((v, int(rng.integers(model.arities[v])), bool(rng.integers(2)))
                         for v in chosen)
        var = int(rng.integers(model.n))
        target = (var, int(rng.integers(model.arities[var])))
        param = _random_param(rng, model, int(rng.integers(model.n)))
        nway = None
        for n in range(int(rng.integers(2, 5)), 1, -1):
            for _ in range(200):
                cand = tuple(_random_param(rng, model, int(rng.integers(model.n)))
                             for _ in range(n))
                if independent(model, cand):
                    nway = cand
                    break
            if nway:
                break
        if nway is None:  # every connected network has a variable with two rows
            raise RuntimeError("no independent parameter set")
        wl.calls += _five_calls(i, evidence, target, param, nway)
    return wl


# ---------------------------------------------------------------------------
# long-chain: compile and relevance screening dominate


CHAIN_LENGTH = 300
CHAIN_FINDING_EVERY = 20
# Relevance screening runs a ball search from every variable, and its cost
# depends on where the target sits (it is least, and flat, a third of the way
# down).  A narrow window keeps that cost from swinging with the draw.
CHAIN_TARGET_WINDOW = (CHAIN_LENGTH // 3 - 10, CHAIN_LENGTH // 3 + 10)


def long_chain(seed: int) -> Workload:
    """V0 -> V1 -> ... -> V299, binary, one hard finding in every block of 20
    variables, four n-way parameters one per quarter of the chain."""
    rng = np.random.default_rng(seed)
    n = CHAIN_LENGTH
    model = Model([2] * n, [()] + [(v - 1,) for v in range(1, n)],
                  [_cpt(rng, 1 if v == 0 else 2, 2) for v in range(n)])
    evidence = tuple((b + int(rng.integers(CHAIN_FINDING_EVERY)), int(rng.integers(2)), False)
                     for b in range(0, n, CHAIN_FINDING_EVERY))
    observed = {v for v, _, _ in evidence}
    free = [v for v in range(*CHAIN_TARGET_WINDOW) if v not in observed]
    target = (free[int(rng.integers(len(free)))], int(rng.integers(2)))
    param = _random_param(rng, model, int(rng.integers(1, n)))
    quarter = n // 4
    nway = tuple(_random_param(rng, model, q * quarter + int(rng.integers(1, quarter - 1)))
                 for q in range(4))
    return Workload("long-chain", [model], _five_calls(0, evidence, target, param, nway))


# ---------------------------------------------------------------------------
# wide-clique: dense clique tables dominate


# The DAG oracle.random_network(default_rng(4), n_vars=130, max_states=3,
# max_parents=2) drew at the seed commit; frozen so the workload never
# follows changes to that generator.  Its junction tree has 116 cliques,
# treewidth 14, a largest clique of 1,889,568 entries and 9,311,561 in total.
WIDE_ARITIES = [int(c) for c in (
    "33233233232333222332333322233223223223322223233332323233322322222222"
    "32322322333333332223323322332223333223222233222322223222322223")]
WIDE_PARENTS = [
    (), (0,), (0, 1), (0, 2), (3,), (0,), (4,), (3,), (0,), (5,), (1, 8), (0, 3), (9,),
    (2, 5), (9,), (4, 6), (7, 12), (8, 16), (4, 13), (16, 17), (4, 6), (1,), (6, 10), (5,),
    (9, 15), (17,), (4,), (21,), (0, 1), (7,), (1, 23), (12, 26), (21,), (8, 24), (11, 12),
    (24,), (27,), (4,), (28,), (5,), (38,), (11, 29), (14,), (6, 25), (17,), (16, 22),
    (3, 6), (36,), (13, 16), (14,), (42,), (13, 25), (25,), (3,), (12, 19), (26, 38),
    (29, 40), (42, 44), (7,), (30, 50), (9, 49), (19,), (22,), (43,), (39,), (10,),
    (13, 24), (58,), (26,), (17, 22), (8, 37), (25, 70), (23, 42), (12,), (36, 42), (1,),
    (25, 43), (59,), (7, 75), (8, 46), (63,), (37, 78), (40, 70), (29, 43), (56,), (28,),
    (16, 18), (48, 67), (59, 86), (18, 36), (53, 86), (0,), (24, 51), (18, 44), (78,),
    (81,), (29, 76), (86,), (73, 75), (77,), (0,), (25, 38), (3, 85), (21,), (81, 83),
    (101,), (31, 38), (3,), (78,), (89,), (36, 85), (69, 106), (100, 106), (33, 55),
    (11, 62), (41,), (44,), (34,), (53, 111), (45, 87), (1,), (35, 55), (96,), (47,),
    (72, 116), (55, 63), (58, 71), (82,), (13, 59), (66, 75)]
# Variables whose families lie together in one clique of 419,904 entries (and
# in no lower-numbered clique), and none of which is a parent of another: one
# parameter from each always takes the same-clique n-way route, at a fixed
# table size whatever the seed.
WIDE_NWAY_VARIABLES = (6, 29, 75)
# The variables that carry findings, the target and the sens-param variable
# are fixed too (drawn once with default_rng(0), findings kept outside the
# n-way clique so its table has no zero entries): the cost of every call
# depends on where they sit, not on their states, so the seed draws only CPT
# values, states and CPT rows.
WIDE_FINDINGS = (10, 40, 46, 69, 85, 108)
WIDE_TARGET = 119
WIDE_PARAM_VARIABLE = 65


def wide_clique(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    model = Model(list(WIDE_ARITIES), list(WIDE_PARENTS), [])
    model.cpts = [_cpt(rng, model.n_rows(v), model.arities[v]) for v in range(model.n)]
    evidence = tuple((v, int(rng.integers(model.arities[v])), i % 3 == 2)
                     for i, v in enumerate(WIDE_FINDINGS))
    target = (WIDE_TARGET, int(rng.integers(model.arities[WIDE_TARGET])))
    param = _random_param(rng, model, WIDE_PARAM_VARIABLE)
    nway = tuple(_random_param(rng, model, v) for v in WIDE_NWAY_VARIABLES)
    return Workload("wide-clique", [model], _five_calls(0, evidence, target, param, nway))


GENERATORS = {"small-corpus": small_corpus, "long-chain": long_chain, "wide-clique": wide_clique}
