"""Acceptance gate: ten stated criteria, each printing one verdict line.

Every test ends with a plain PASS/FAIL line (visible under `pytest -v` or
`-s`) followed by the assertion itself.  The shared corpus is 200 random
networks (3-8 variables, 2-3 states, in-degree <= 3) with random evidence.

Two count clauses of criterion 6 assert an a-priori propagation allocation
that the equation counting behind it does not actually deliver: the rows a
single propagation contributes can never exceed rank n+1, and lower-order
coefficient equations at the operating point leave the system short of full
rank, so the solver genuinely needs more settings than those clauses allow.
The clauses are asserted as stated and are expected to fail; the coefficient
clause (06a) passes.  See README.md for the analysis.
"""

import itertools
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bnsense import (Evidence, QueryRef, all_outputs_one_param, build_junction_tree,
                     derivative, evaluate, evaluate_multilinear, evidence_probability,
                     general_nway, load_network, marginal, one_output_all_params_m1,
                     one_output_all_params_m2, propagate_full, relevant_parameters,
                     retract_finding, same_clique_nway)
from bnsense.cli import main as cli_main
from bnsense.network import enumerate_parameters
from bnsense.oracle import brute_query, fit_linear_sf, fit_multilinear, random_network
from tests.conftest import possible_evidence
from tests.oracle_helpers import constant_on_grid, random_independent_parameters
from tests.test_jtree import has_running_intersection

CORPUS_SIZE = 200
CORPUS_SEED = 2026
ONEWAY_TOLERANCE = 1e-9
NWAY_TOLERANCE = 1e-8
FIXTURE_TOLERANCE = 1e-12
GRID_TOLERANCE = 1e-12


def _verdict(capsys, code, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {code} {name}: {'PASS' if ok else 'FAIL'}{tail}")


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    cases = []
    for _ in range(CORPUS_SIZE):
        net = random_network(rng)
        ev = possible_evidence(rng, net)
        var = int(rng.integers(net.n_variables))
        query = QueryRef(var, int(rng.integers(net.arity(var))))
        cases.append((net, ev, query))
    return cases


def _nway_case(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(500):
        net = random_network(rng, n_vars=8)
        params = random_independent_parameters(rng, net, n)
        if params is None:
            continue
        ev = possible_evidence(rng, net)
        return net, params, ev
    raise AssertionError(f"no {n}-parameter case found")


@pytest.fixture(scope="module")
def four_way():
    net, params, ev = _nway_case(4, 604)
    singles = [fit_multilinear(net, [ref], ev) for ref in params]
    tree = build_junction_tree(net)
    return net, params, ev, general_nway(tree, params, ev, lower_order=singles)


@pytest.fixture(scope="module")
def five_way():
    net, params, ev = _nway_case(5, 605)
    pairs = [fit_multilinear(net, list(pair), ev)
             for pair in itertools.combinations(params, 2)]
    tree = build_junction_tree(net)
    return net, params, ev, general_nway(tree, params, ev, lower_order=pairs)


@pytest.fixture(scope="module")
def oneway_results(corpus):
    """Method 1 and Method 2 runs over the corpus, with their counters."""
    out = []
    for net, ev, query in corpus:
        params = relevant_parameters(net, query, ev)
        t1 = build_junction_tree(net)
        m1 = one_output_all_params_m1(t1, query, ev, params)
        t2 = build_junction_tree(net)
        m2 = one_output_all_params_m2(t2, query, ev, params)
        out.append((net, ev, query, params, m1, m2,
                    t1.stats.snapshot(), t2.stats.snapshot()))
    return out


class TestAcceptance:
    def test_01_oneway_oracle_equivalence(self, oneway_results, capsys):
        started = time.perf_counter()
        worst = 0.0
        checked = 0
        for net, ev, query, params, m1, _, _, _ in oneway_results:
            for ref in params:
                if ref not in m1.functions:
                    continue
                expected = fit_linear_sf(net, ref, query.variable, query.state, ev)
                deviation = max(abs(a - b) for a, b in zip(
                    m1.functions[ref].coefficients(), expected.coefficients()))
                worst = max(worst, deviation)
                checked += 1
        elapsed = time.perf_counter() - started
        ok = worst <= ONEWAY_TOLERANCE and elapsed < 60.0
        _verdict(capsys, "01", "one-way matches enumeration on random corpus", ok,
                 f"{checked} parameters, max deviation {worst:.3e}, {elapsed:.1f}s")
        assert ok

    def test_02_method_equivalence(self, oneway_results, capsys):
        worst = 0.0
        for _, _, _, _, m1, m2, _, _ in oneway_results:
            assert set(m1.functions) == set(m2.functions)
            for ref, sf in m1.functions.items():
                deviation = max(abs(a - b) for a, b in zip(
                    sf.coefficients(), m2.functions[ref].coefficients()))
                worst = max(worst, deviation)
        ok = worst <= ONEWAY_TOLERANCE
        _verdict(capsys, "02", "local-extraction and two-point methods agree", ok,
                 f"max deviation {worst:.3e}")
        assert ok

    def test_03_propagation_counts(self, oneway_results, capsys):
        sized = [(net, ev, params, s1, s2)
                 for net, ev, _, params, _, _, s1, s2 in oneway_results
                 if 10 <= len(enumerate_parameters(net)) <= 200]
        assert len(sized) >= 50
        bad = 0
        rng = np.random.default_rng(303)
        for net, ev, params, s1, s2 in sized:
            if s1[:2] != (1, 2) or s2[:2] != (1, 2):
                bad += 1
                continue
            ref = params[int(rng.integers(len(params)))]
            tree = build_junction_tree(net)
            all_outputs_one_param(tree, ref, ev)
            if tree.stats.snapshot()[:2] != (1, 2):
                bad += 1
        ok = bad == 0
        _verdict(capsys, "03", "every analysis costs 1 inward + 2 outward", ok,
                 f"{len(sized)} networks with 10-200 parameters, {bad} off-count")
        assert ok

    def test_04_one_param_sweep_cross_check(self, corpus, capsys):
        rng = np.random.default_rng(404)
        worst = 0.0
        for net, ev, query in corpus[::5]:
            params = relevant_parameters(net, query, ev)
            ref = params[int(rng.integers(len(params)))]
            tree = build_junction_tree(net)
            sweep = all_outputs_one_param(tree, ref, ev)
            for var in range(net.n_variables):
                for state in range(net.arity(var)):
                    single = one_output_all_params_m1(
                        build_junction_tree(net), QueryRef(var, state), ev, [ref])
                    deviation = max(abs(a - b) for a, b in zip(
                        sweep.functions[var][state].coefficients(),
                        single.functions[ref].coefficients()))
                    worst = max(worst, deviation)
        ok = worst <= ONEWAY_TOLERANCE
        _verdict(capsys, "04", "one-parameter sweep equals per-output analysis", ok,
                 f"max deviation {worst:.3e}")
        assert ok

    def test_05_same_clique_nway(self, corpus, capsys):
        worst = 0.0
        hits = 0
        off_count = 0
        for i, (net, ev, _) in enumerate(corpus):
            tree = build_junction_tree(net)
            rng = np.random.default_rng(505 + i)
            clique = tree.cliques[int(rng.integers(len(tree.cliques)))]
            hosted = tuple(v for v in clique.members
                           if set(net.family(v)) <= set(clique.members))
            params = random_independent_parameters(
                rng, net, 2 + i % 2, within_vars=hosted)
            if params is None:
                continue
            hits += 1
            mf = same_clique_nway(tree, params, ev)
            if tree.stats.snapshot()[:2] != (1, 1):
                off_count += 1
            expected = fit_multilinear(net, params, ev)
            for mask, coeff in mf.coefficients.items():
                worst = max(worst, abs(coeff - expected.coefficients[mask]))
        ok = hits >= 30 and off_count == 0 and worst <= ONEWAY_TOLERANCE
        _verdict(capsys, "05", "one propagation yields all same-clique coefficients",
                 ok, f"{hits} cases, max deviation {worst:.3e}, {off_count} off-count")
        assert ok

    # -- criterion 6, split: coefficients (a), then the two count clauses ----

    def test_06a_general_nway_coefficients(self, four_way, five_way, capsys):
        worst = 0.0
        for net, params, ev, result in (four_way, five_way):
            expected = fit_multilinear(net, params, ev)
            for mask, coeff in result.function.coefficients.items():
                worst = max(worst, abs(coeff - expected.coefficients[mask]))
        ok = worst <= NWAY_TOLERANCE
        _verdict(capsys, "06a", "general n-way coefficients match enumeration", ok,
                 f"n=4 and n=5, max deviation {worst:.3e}")
        assert ok

    def test_06b_four_way_extra_propagation_count(self, four_way, capsys):
        _, _, _, result = four_way
        ok = result.extra_propagations == 1
        _verdict(capsys, "06b", "n=4 with one-way inputs solved by 1 extra "
                 "propagation", ok,
                 f"needed {result.extra_propagations}, budgeted {result.budget}")
        assert ok

    def test_06c_five_way_extra_propagation_count(self, five_way, capsys):
        _, _, _, result = five_way
        ok = result.extra_propagations == 0
        _verdict(capsys, "06c", "n=5 with two-way inputs solved by 0 extra "
                 "propagations", ok,
                 f"needed {result.extra_propagations}, budgeted {result.budget}")
        assert ok

    def test_07_fixture_reproduction(self, r1, r2, capsys):
        failures = []

        def check(label, got, want, tolerance=FIXTURE_TOLERANCE):
            got = np.atleast_1d(np.asarray(got, dtype=float))
            want = np.atleast_1d(np.asarray(want, dtype=float))
            if got.shape != want.shape or np.max(np.abs(got - want)) > tolerance:
                failures.append(label)

        b_yes = Evidence(r1).set_hard("B", "yes")
        c_yes = Evidence(r2).set_hard("C", "yes")

        tree1 = build_junction_tree(r1)
        check("p(B=yes) on R1", propagate_full(tree1, b_yes), 0.42)
        check("marginal of A under B=yes", marginal(tree1, 0), [0.18, 0.24])

        tree2 = build_junction_tree(r2)
        check("p(C=yes) on R2", propagate_full(tree2, c_yes), 0.352)
        check("marginal of A under C=yes", marginal(tree2, 0), [0.128, 0.224])
        check("clique {A,B} total", tree2.clique_potential(0).total(), 0.352)
        check("clique {A,B} entry (yes,yes)",
              tree2.clique_potential(0).value({0: 0, 1: 0}), 0.126)

        fresh2 = build_junction_tree(r2)
        propagate_full(fresh2)
        check("no-evidence clique {B,C} entry (yes,yes)",
              fresh2.clique_potential(1).value({1: 0, 2: 0}), 0.294)

        ra = build_junction_tree(r2)
        propagate_full(ra, Evidence(r2).set_hard("A", "yes").set_hard("C", "yes"))
        retract_finding(ra, 0)
        check("retract A on R2", marginal(ra, 0), [0.128, 0.224])
        rb = build_junction_tree(r1)
        propagate_full(rb, b_yes)
        retract_finding(rb, 1)
        check("retract B on R1", marginal(rb, 1), [0.42, 0.58])

        check("relevant count, R1 query under B=yes",
              len(relevant_parameters(r1, QueryRef(0, 0), b_yes)), 6)
        check("relevant count, R2 prior query",
              len(relevant_parameters(r2, QueryRef(2, 0))), 10)

        m1 = one_output_all_params_m1(build_junction_tree(r1), QueryRef(0, 0), b_yes)
        m2 = one_output_all_params_m2(build_junction_tree(r1), QueryRef(0, 0), b_yes)
        for label, (var, state, config), want in [
                ("line pair in p(A=yes)", (0, 0, ()), (0.9, 0.0, 0.6, 0.3)),
                ("line pair in p(B=yes|A=yes)", (1, 0, (0,)), (0.2, 0.0, 0.2, 0.24)),
                ("line pair in p(B=yes|A=no)", (1, 0, (1,)), (0.0, 0.18, 0.8, 0.18))]:
            ref = r1.parameter(var, state, config)
            check(label, m1.functions[ref].coefficients(), want)
            check(label + " (two-point)", m2.functions[ref].coefficients(), want)

        sweep_b = all_outputs_one_param(build_junction_tree(r1),
                                        r1.parameter(1, 0, (0,)))
        check("sweep target B, no evidence",
              sweep_b.functions[1][0].coefficients(), (0.2, 0.24, 0.0, 1.0))
        sweep_a = all_outputs_one_param(build_junction_tree(r2),
                                        r2.parameter(1, 0, (0,)), c_yes)
        check("sweep target A under C=yes",
              sweep_a.functions[0][0].coefficients(), (0.12, 0.02, 0.12, 0.244))

        prior_sf = m1.functions[r1.parameter(0, 0, ())]
        check("posterior at x=0.2", evaluate(prior_sf, 0.2), 0.18 / 0.42)
        check("derivative at x=0.2", derivative(prior_sf, 0.2), 0.27 / 0.1764)

        sc = same_clique_nway(build_junction_tree(r1),
                              [r1.parameter(1, 0, (0,)), r1.parameter(1, 0, (1,))],
                              b_yes)
        check("same-clique coefficients",
              [sc.coefficients[m] for m in range(4)], [0.0, 0.2, 0.8, 0.0])
        single = same_clique_nway(build_junction_tree(r1),
                                  [r1.parameter(1, 0, (0,))], b_yes)
        check("one-parameter reduction",
              [single.coefficients[m] for m in range(2)], [0.24, 0.2])

        gen = general_nway(build_junction_tree(r2),
                           [r2.parameter(0, 0, ()), r2.parameter(2, 0, (0,))], c_yes)
        check("cross-clique coefficients",
              [gen.function.coefficients[m] for m in range(4)],
              [0.07, -0.06, 0.3, 0.6])
        check("cross-clique evaluation at (0.2, 0.7)",
              evaluate_multilinear(gen.function, (0.2, 0.7)), 0.352)

        check("enumeration inputs on R1", brute_query(r1, 0, 0, b_yes), (0.18, 0.42))
        check("enumeration inputs on R2", brute_query(r2, 0, 0, c_yes),
              (0.128, 0.352))
        oracle_prior = fit_linear_sf(r1, r1.parameter(0, 0, ()), 0, 0, b_yes)
        check("oracle numerator endpoints",
              (oracle_prior.numerator.at(0.0), oracle_prior.numerator.at(1.0)),
              (0.0, 0.9))
        oracle_chain = fit_linear_sf(r2, r2.parameter(1, 0, (0,)), 0, 0, c_yes)
        check("oracle numerator endpoints on R2",
              (oracle_chain.numerator.at(0.0), oracle_chain.numerator.at(1.0)),
              (0.02, 0.14))
        grid = fit_multilinear(r1, [r1.parameter(1, 0, (0,)), r1.parameter(1, 0, (1,))],
                               b_yes)
        check("oracle grid coefficients",
              [grid.coefficients[m] for m in range(4)], [0.0, 0.2, 0.8, 0.0])

        capsys.readouterr()
        rc = cli_main(["infer", "--net", "tests/fixtures/r1.json",
                       "--evidence", "B=yes", "--target", "A"])
        out = capsys.readouterr().out
        if rc != 0 or out != "A yes 0.4285714286\nA no 0.5714285714\n":
            failures.append("infer report")
        rc = cli_main(["sens-out", "--net", "tests/fixtures/r1.json",
                       "--evidence", "B=yes", "--target", "A=yes"])
        out = capsys.readouterr().out
        if rc != 0 or len(out.splitlines()) != 7:
            failures.append("sens-out row count")
        rc = cli_main(["check", "--net", "tests/fixtures/r1.json",
                       "--trials", "50"])
        out = capsys.readouterr().out
        if rc != 0 or float(out.split()[-1]) >= 1e-9:
            failures.append("check deviation")

        ok = not failures
        _verdict(capsys, "07", "every derived fixture value reproduced", ok,
                 "all within 1e-12" if ok else "failed: " + ", ".join(failures))
        assert ok, failures

    def test_08_fast_retraction(self, corpus, capsys):
        worst = 0.0
        findings = 0
        for net, ev, _ in corpus:
            if len(ev) < 2:
                continue
            for var in ev.variables():
                findings += 1
                tree = build_junction_tree(net)
                propagate_full(tree, ev)
                retract_finding(tree, var)
                fresh = build_junction_tree(net)
                propagate_full(fresh, ev.copy().remove(var))
                worst = max(worst, abs(evidence_probability(tree)
                                       - evidence_probability(fresh)))
                for v in range(net.n_variables):
                    worst = max(worst, float(np.max(np.abs(
                        marginal(tree, v) - marginal(fresh, v)))))
        ok = findings >= 50 and worst <= ONEWAY_TOLERANCE
        _verdict(capsys, "08", "retraction equals fresh propagation", ok,
                 f"{findings} findings, max deviation {worst:.3e}")
        assert ok

    def test_09_structural_invariants(self, corpus, capsys):
        bad = []
        for i, (net, ev, _) in enumerate(corpus):
            tree = build_junction_tree(net)
            pe = propagate_full(tree, ev)
            if not has_running_intersection(tree):
                bad.append(f"case {i}: running intersection")
                continue
            for s_idx, sep in enumerate(tree.sepsets):
                sep_pot = tree.sepset_potential(s_idx)
                for cid in sep.cliques:
                    clique_marg = tree.clique_potential(cid).marginalize(sep.members)
                    if np.max(np.abs(sep_pot.table - clique_marg.table)) > 1e-9:
                        bad.append(f"case {i}: sepset {s_idx} vs clique {cid}")
            for cid in range(len(tree.cliques)):
                if abs(tree.clique_potential(cid).total() - pe) > 1e-9:
                    bad.append(f"case {i}: clique {cid} total")
        ok = not bad
        _verdict(capsys, "09", "tree invariants hold across the corpus", ok,
                 "none violated" if ok else "; ".join(bad[:4]))
        assert ok, bad

    def test_10_screening_soundness(self, corpus, capsys):
        worst = 0.0
        excluded_total = 0
        for net, ev, query in corpus:
            kept = set(relevant_parameters(net, query, ev))
            for ref in enumerate_parameters(net):
                if ref in kept:
                    continue
                excluded_total += 1
                worst = max(worst, constant_on_grid(
                    net, ref, query.variable, query.state, ev))
        ok = worst < GRID_TOLERANCE
        _verdict(capsys, "10", "excluded parameters never move the posterior", ok,
                 f"{excluded_total} excluded parameters, max grid residual "
                 f"{worst:.3e}")
        assert ok
