"""Requisite trees: `build_junction_tree(net, requisite)` and the CLI analyses
that compile them.

`infer`, `sens-out` and `sens-n` compile only the target, the finding
variables, the parameters' variables and their ancestors, on the ids of the
network they loaded.  The unit tests pin what such a tree compiles and that
it equals the tree of the compiled variables loaded on their own.  A seeded
corpus of random networks with barren variables appended (children that
nothing observes or asks about) then holds every pruned CLI analysis to the
enumeration oracle run on the *whole* network, and `sens-out` to the whole
network's relevant parameters, row for row.
"""

import csv
import io
import json

import numpy as np
import pytest

from bnsense import (BnsenseError, Evidence, Network, NetworkFormatError, QueryRef, Variable,
                     all_outputs_one_param, build_junction_tree, enter_finding,
                     format_parameter, general_nway, infer_marginal, network_from_dict,
                     network_to_dict, one_output_all_params_m1, one_output_all_params_m2,
                     propagate_full, relevant_parameters, same_clique_nway)
from bnsense import cli
from bnsense.cli import main
from bnsense.oracle import (brute_evidence_probability, brute_query, fit_linear_sf,
                            fit_multilinear, random_network)
from tests.oracle_helpers import random_independent_parameters

R2 = "tests/fixtures/r2.json"
CORPUS_SIZE = 30
CORPUS_SEED = 1409
TOLERANCE = 1e-9

# ids not in topological order: C <- B <- A, and X <- A is barren for C
UNORDERED = {"variables": [{"name": n, "states": ["y", "n"]} for n in "CXAB"],
             "cpts": [{"variable": "C", "parents": ["B"], "rows": [[0.7, 0.3], [0.1, 0.9]]},
                      {"variable": "X", "parents": ["A"], "rows": [[0.5, 0.5], [0.4, 0.6]]},
                      {"variable": "A", "parents": [], "rows": [[0.2, 0.8]]},
                      {"variable": "B", "parents": ["A"], "rows": [[0.9, 0.1], [0.3, 0.7]]}]}


def _restricted(doc: dict, names: set[str]) -> dict:
    """The network document with only the named variables and their cpts."""
    return {"variables": [v for v in doc["variables"] if v["name"] in names],
            "cpts": [c for c in doc["cpts"] if c["variable"] in names]}


def _closed(net: Network, seeds) -> set[int]:
    """The seeds and their ancestors, by adding parents until nothing changes."""
    kept = set(seeds)
    while True:
        grown = kept.union(*(net.parents[v] for v in kept))
        if grown == kept:
            return kept
        kept = grown


def _structure(tree, names) -> tuple:
    """The tree's cliques, families and sepsets with each id read as names[id]."""
    return ([(tuple(names[v] for v in c.members), tuple(names[v] for v in c.families))
             for c in tree.cliques],
            [(s.cliques, tuple(names[v] for v in s.members)) for s in tree.sepsets])


class TestRequisiteTree:
    def test_none_compiles_every_variable(self, r2):
        whole = build_junction_tree(r2)
        assert set(whole.var_clique) == {0, 1, 2}
        assert build_junction_tree(r2, None).to_dict() == whole.to_dict()
        assert build_junction_tree(r2, {2}).to_dict() == whole.to_dict()
        with pytest.raises(NetworkFormatError, match="no variables"):
            build_junction_tree(r2, set())

    def test_drops_a_barren_chain_tail(self, r2):
        tree = build_junction_tree(r2, {1})
        assert tree.net is r2
        assert set(tree.var_clique) == {0, 1}
        assert [(c.members, c.families) for c in tree.cliques] == [((0, 1), (0, 1))]
        assert tree.sepsets == []

    def test_ids_keep_the_loaded_networks_own(self):
        net = network_from_dict(UNORDERED)
        tree = build_junction_tree(net, {net.variable_id("C")})
        assert set(tree.var_clique) == {0, 2, 3}          # C, A, B; not X
        assert [c.members for c in tree.cliques] == [(0, 3), (2, 3)]
        fresh = build_junction_tree(network_from_dict(_restricted(UNORDERED, {"A", "B", "C"})))
        assert tree.to_dict() == fresh.to_dict()

    def test_compiles_exactly_the_seeds_and_their_ancestors(self, corpus):
        for case in corpus:
            whole = case["whole"]
            seeds = {case["var"], *case["evidence"].variables()}
            tree = build_junction_tree(whole, seeds)
            assert set(tree.var_clique) == _closed(whole, seeds) == set(tree.family_clique)
            assert len(tree.var_clique) < whole.n_variables

    def test_structure_matches_a_fresh_load_under_any_id_order(self, corpus):
        """Cliques, families and sepsets equal those of the compiled variables
        loaded on their own, under the id map, also when ids are not topological."""
        rng = np.random.default_rng(CORPUS_SEED + 1)
        for case in corpus:
            doc = network_to_dict(case["whole"])
            doc["variables"] = [doc["variables"][int(i)]
                                for i in rng.permutation(len(doc["variables"]))]
            net = network_from_dict(doc)
            seeds = {int(v) for v in rng.choice(net.n_variables, size=2, replace=False)}
            tree = build_junction_tree(net, seeds)
            fresh = network_from_dict(_restricted(
                doc, {net.variables[v].name for v in _closed(net, seeds)}))
            fresh_tree = build_junction_tree(fresh)
            assert _structure(tree, [v.name for v in net.variables]) == _structure(
                fresh_tree, [v.name for v in fresh.variables])

    def test_a_finding_outside_the_tree_raises(self, r2):
        tree = build_junction_tree(r2, {1})
        with pytest.raises(BnsenseError, match="'C' is not compiled"):
            enter_finding(tree, 2, [1.0, 0.0])
        with pytest.raises(BnsenseError, match="'C' is not compiled"):
            propagate_full(tree, Evidence(r2).set_hard("C", "yes"))
        assert tree.findings == {}
        enter_finding(tree, 1, [1.0, 0.0])
        assert set(tree.findings) == {1}

    @pytest.mark.parametrize("analysis", [
        lambda tree, r2: all_outputs_one_param(tree, r2.parameter(2, 0, (0,))),
        lambda tree, r2: all_outputs_one_param(tree, r2.parameter(0, 0, ())),
        lambda tree, r2: one_output_all_params_m1(tree, QueryRef(2, 0)),
        lambda tree, r2: one_output_all_params_m2(tree, QueryRef(2, 0)),
        lambda tree, r2: one_output_all_params_m1(tree, QueryRef(0, 0), None,
                                                  [r2.parameter(1, 0, (0,))]),
        lambda tree, r2: one_output_all_params_m2(tree, QueryRef(0, 0), None,
                                                  [r2.parameter(1, 0, (0,))]),
        lambda tree, r2: infer_marginal(tree, 2),
        lambda tree, r2: general_nway(tree, [r2.parameter(0, 0, ()),
                                             r2.parameter(2, 0, (0,))]),
        lambda tree, r2: same_clique_nway(tree, [r2.parameter(2, 0, (0,))]),
    ], ids=["sens-param", "sens-param-compiled", "m1-query", "m2-query", "m1-param",
            "m2-param", "infer", "general-nway", "same-clique-nway"])
    def test_an_analysis_outside_the_tree_raises(self, r2, analysis):
        tree = build_junction_tree(r2, {0})
        with pytest.raises(BnsenseError, match="'[BC]' is not compiled in this tree"):
            analysis(tree, r2)

    def test_holder_outside_the_tree_raises(self, r2):
        tree = build_junction_tree(r2, {1})
        assert tree.holder((0, 1)) == (True, 0)
        for vars in [(2,), (1, 2)]:
            with pytest.raises(BnsenseError, match="no clique of this tree holds"):
                tree.holder(vars)


# ---------------------------------------------------------------------------
# the seeded corpus


def _with_barren_children(rng, net: Network, k: int) -> Network:
    """The network with k binary variables appended, each a child of one or two
    earlier variables; no finding, target or parameter is drawn on them."""
    variables, parents, tables = list(net.variables), list(net.parents), list(net.cpts)
    for i in range(k):
        pars = tuple(sorted(int(p) for p in rng.choice(
            len(variables), size=int(rng.integers(1, 3)), replace=False)))
        n_rows = int(np.prod([variables[p].arity for p in pars]))
        raw = rng.uniform(0.05, 1.0, size=(n_rows, 2))
        variables.append(Variable(f"X{i}", ("s0", "s1")))
        parents.append(pars)
        tables.append(raw / raw.sum(axis=1, keepdims=True))
    return Network(variables, parents, tables)


def _findings(rng, net: Network, core: int):
    """Up to three hard or negative findings on the first `core` variables,
    as (CLI text, Evidence on the whole network)."""
    ev = Evidence(net)
    tokens = []
    chosen = rng.choice(core, size=int(rng.integers(0, min(3, core) + 1)), replace=False)
    for var in sorted(int(v) for v in chosen):
        state = int(rng.integers(net.arity(var)))
        variable = net.variables[var]
        if rng.random() < 0.5:
            ev.set_hard(var, state)
            tokens.append(f"{variable.name}={variable.states[state]}")
        else:
            ev.set_negative(var, state)
            tokens.append(f"{variable.name}!={variable.states[state]}")
    return ",".join(tokens), ev


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = np.random.default_rng(CORPUS_SEED)
    root = tmp_path_factory.mktemp("requisite")
    cases = []
    while len(cases) < CORPUS_SIZE:
        core = random_network(rng, max_states=3)
        whole = _with_barren_children(rng, core, int(rng.integers(1, 4)))
        text, ev = _findings(rng, whole, core.n_variables)
        if brute_evidence_probability(whole, ev) <= 1e-12:
            continue
        var = int(rng.integers(core.n_variables))
        state = int(rng.integers(whole.arity(var)))
        params = random_independent_parameters(rng, whole, 2,
                                               within_vars=tuple(range(core.n_variables)))
        path = root / f"net{len(cases)}.json"
        path.write_text(json.dumps(network_to_dict(whole)))
        kept = {whole.variables[v].name for v in _closed(whole, {var, *ev.variables()})}
        cases.append({"path": str(path), "whole": whole, "evidence": ev, "text": text,
                      "var": var, "state": state, "params": params,
                      "sub": network_from_dict(_restricted(network_to_dict(whole), kept))})
    return cases


def _run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _target(case, with_state=True) -> str:
    variable = case["whole"].variables[case["var"]]
    return f"{variable.name}={variable.states[case['state']]}" if with_state else variable.name


class TestPrunedCli:
    def test_infer_matches_the_whole_network_oracle(self, capsys, corpus):
        worst = 0.0
        for case in corpus:
            out = _run(capsys, "infer", "--net", case["path"], "--evidence", case["text"],
                       "--target", _target(case, with_state=False))
            got = [float(line.split()[-1]) for line in out.splitlines()]
            var, whole, ev = case["var"], case["whole"], case["evidence"]
            for state, value in enumerate(got):
                joint, total = brute_query(whole, var, state, ev)
                worst = max(worst, abs(value - joint / total))
            assert len(got) == whole.arity(var)
        assert worst <= TOLERANCE

    @pytest.mark.parametrize("method", ["1", "2"])
    def test_sens_out_matches_the_whole_network_oracle(self, capsys, corpus, method):
        worst = 0.0
        lines = 0
        for case in corpus:
            whole, ev = case["whole"], case["evidence"]
            query = QueryRef(case["var"], case["state"])
            out = _run(capsys, "sens-out", "--net", case["path"], "--evidence", case["text"],
                       "--target", _target(case), "--method", method)
            rows = list(csv.DictReader(io.StringIO(out)))
            expected = relevant_parameters(whole, query, ev)
            assert [row["parameter"] for row in rows] == [
                format_parameter(whole, ref) for ref in expected]
            for row, ref in zip(rows, expected):
                want = fit_linear_sf(whole, ref, query.variable, query.state, ev)
                got = [float(row[k]) for k in ("alpha", "beta", "gamma", "delta")]
                worst = max(worst, float(np.abs(np.subtract(got, want.coefficients())).max()))
            lines += len(rows)
        assert lines >= 100
        assert worst <= TOLERANCE

    def test_sens_n_matches_the_whole_network_oracle(self, capsys, corpus):
        worst = 0.0
        cases = 0
        for case in corpus:
            refs = case["params"]
            if refs is None:
                continue
            whole, ev = case["whole"], case["evidence"]
            names = [format_parameter(whole, ref) for ref in refs]
            out = _run(capsys, "sens-n", "--net", case["path"], "--evidence", case["text"],
                       "--params", ",".join(names))
            doc = json.loads(out)
            assert doc["params"] == names
            expected = fit_multilinear(whole, refs, ev)
            assert sorted(doc["coefficients"]) == sorted(
                cli._subset_key(m) for m in expected.coefficients)
            for mask, coeff in expected.coefficients.items():
                worst = max(worst, abs(doc["coefficients"][cli._subset_key(mask)] - coeff))
            cases += 1
        assert cases >= 20
        assert worst <= TOLERANCE

    def test_sens_n_params_reach_past_the_targets_requisite_network(self, corpus):
        """Some parameters sit on variables that the target's and findings'
        requisite network drops, so `sens-n` seeds with the parameters too."""
        outside = inside = 0
        for case in corpus:
            for ref in case["params"] or ():
                if case["whole"].variables[ref.variable] in case["sub"].variables:
                    inside += 1
                else:
                    outside += 1
        assert inside and outside


def test_check_compiles_the_requisite_network(capsys, monkeypatch, corpus):
    """`check` compiles what `sens-out` compiles and still meets its oracle."""
    trees = []
    build = cli.build_junction_tree

    def recording(net, requisite=None):
        trees.append(build(net, requisite))
        return trees[-1]

    monkeypatch.setattr(cli, "build_junction_tree", recording)
    monkeypatch.setenv("BN_SENSE_SEED", "3")
    whole = corpus[0]["whole"]
    out = _run(capsys, "check", "--net", corpus[0]["path"], "--trials", "8")
    assert float(out.split()[-1]) <= TOLERANCE
    assert len(trees) == 8 and min(len(t.var_clique) for t in trees) < whole.n_variables


def test_barren_descendants_send_no_message(capsys):
    """With no finding, A's requisite network is A alone: one clique, no message."""
    assert main(["infer", "--net", R2, "--target", "A", "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "A yes 0.2000000000\nA no 0.8000000000\n"
    assert captured.err == "inward=1 outward=0 messages=0\n"
