"""Trees compiled for their evidence: `build_junction_tree(net, evidence=...)`.

A variable whose finding leaves one possible state (a hard finding, or `!=`
on a binary variable) is fixed: the edges out of it are cut before
moralizing, and its children's CPTs enter the cliques at its state.
`sens-param` compiles the whole network that way.  Its rows must equal the
transposed `sens-out --method 1` rows from a requisite tree compiled as
before, within 1e-9: the line pair of target t in parameter θ is the same
function whichever route reads it.  A tree compiled for evidence refuses
evidence that does not fix its fixed variables at their states, the
retraction of such a finding, and every family read across a cut edge.
"""

import numpy as np
import pytest

from bnsense import (BnsenseError, Evidence, QueryRef, all_outputs_one_param,
                     build_junction_tree, enter_finding, general_nway,
                     one_output_all_params_m1, propagate_full, retract_finding,
                     same_clique_nway)
from bnsense import cli
from bnsense.oracle import random_network
from bnsense.propagation import enter_evidence
from tests.test_cli import R2, run
from tests.test_shared_outward import wide_clique

CORPUS_SEED = 3030
CORPUS_SIZE = 40
TOLERANCE = 1e-9


def transposed_rows(net, evidence, refs, targets):
    """{(ref, var, state): (sens-param row, sens-out m1 row)} for every
    parameter and target state."""
    tree = build_junction_tree(net, evidence=evidence)
    offsets = np.cumsum([0, *net.arities])
    rows = {}
    by_param = {ref: all_outputs_one_param(tree, ref, evidence).coefficients for ref in refs}
    for var in targets:
        requisite = {var, *evidence.variables(), *(ref.variable for ref in refs)}
        for state in range(net.arity(var)):
            m1 = one_output_all_params_m1(build_junction_tree(net, requisite),
                                          QueryRef(var, state), evidence, refs)
            assert m1.refs == refs
            for ref, row in zip(refs, m1.coefficients):
                rows[(ref, var, state)] = (by_param[ref][offsets[var] + state], row)
    return tree, rows


def corpus_case(seed):
    """A random network, findings that fix variables with children (some
    of them `!=` on a binary variable, every third case on the root V0),
    and parameters of the fixed variables' own CPTs and of their children's
    rows, live and dead."""
    rng = np.random.default_rng([CORPUS_SEED, seed])
    net = random_network(rng, n_vars=int(rng.integers(4, 9)))
    parents_of_some = [v for v in range(net.n_variables) if net.children(v)]
    chosen = set(rng.choice(parents_of_some, size=min(2, len(parents_of_some)),
                            replace=False).tolist())
    if seed % 3 == 0:
        chosen.add(0)
    evidence, negated = Evidence(net), 0
    for var in sorted(chosen):
        state = int(rng.integers(net.arity(var)))
        if net.arity(var) == 2 and rng.integers(2):
            evidence.set_negative(var, 1 - state)
            negated += 1
        else:
            evidence.set_hard(var, state)
    refs, dead = [], []
    for var in sorted(chosen):
        fixed = int(np.flatnonzero(evidence.vector(var))[0])
        config = tuple(int(rng.integers(net.arity(p))) for p in net.parents[var])
        refs.append(net.parameter(var, int(rng.integers(net.arity(var))), config))
        child = int(rng.choice(net.children(var)))
        for live in (True, False):
            config = [int(rng.integers(net.arity(p))) for p in net.parents[child]]
            at = net.parents[child].index(var)
            config[at] = fixed if live else (fixed + 1) % net.arity(var)
            ref = net.parameter(child, int(rng.integers(net.arity(child))), tuple(config))
            if ref not in refs:
                refs.append(ref)
                if not live:
                    dead.append(ref)
    return net, evidence, sorted(chosen), negated, refs, dead


def test_sens_param_rows_equal_transposed_sens_out_rows():
    roots = negated = own = dead_rows = 0
    for seed in range(CORPUS_SIZE):
        net, evidence, fixed, neg, refs, dead = corpus_case(seed)
        tree, rows = transposed_rows(net, evidence, refs, range(net.n_variables))
        assert sorted(tree.fixed) == fixed
        for (ref, var, state), (by_param, by_output) in rows.items():
            assert np.abs(by_param - by_output).max() <= TOLERANCE, (seed, ref, var, state)
            if ref in dead:   # its row is zeroed by the finding on a fixed parent
                assert by_param[0] == by_param[2] == 0.0
        roots += 0 in fixed
        negated += neg
        own += sum(ref.variable in fixed for ref in refs)
        dead_rows += len(dead)
    assert roots >= 10 and negated >= 10 and own >= 40 and dead_rows >= 40


def test_wide_clique_whole_network():
    net, evidence = wide_clique(1)
    v10 = int(np.flatnonzero(evidence.vector(10))[0])
    refs = [net.parameter(65, 1, (v10,)), net.parameter(65, 0, (1 - v10,)),
            net.parameter(10, 0, (0, 0)), net.parameter(102, 1, (0, 0))]
    tree, rows = transposed_rows(net, evidence, refs, [119, 65, 102])
    assert len(tree.cliques) == 117 and max(tree._sizes) == 629_856
    for (ref, var, state), (by_param, by_output) in rows.items():
        assert np.abs(by_param - by_output).max() <= TOLERANCE, (ref, var, state)
    assert all(rows[(refs[1], var, state)][0][[0, 2]].tolist() == [0.0, 0.0]
               for var, state in [(119, 0), (65, 1)])


# ---------------------------------------------------------------------------
# guards


def chain():
    """r2, A -> B -> C, compiled for B=yes: the edge B -> C is cut."""
    net = cli._load_net(R2)
    evidence = Evidence(net).set_hard("B", "yes")
    tree = build_junction_tree(net, evidence=evidence)
    assert tree.fixed == {1: 0} and tree.family(2) == (2,)
    return net, evidence, tree


@pytest.mark.parametrize("other", [None, "B!=yes", "B=no", "soft", "A=yes"])
def test_evidence_that_does_not_fix_a_fixed_variable_is_refused(other):
    net, evidence, tree = chain()
    findings = {None: Evidence(net), "B!=yes": Evidence(net).set_negative("B", "yes"),
                "B=no": Evidence(net).set_hard("B", "no"),
                "soft": Evidence(net).set_likelihood("B", [0.5, 1.0]),
                "A=yes": Evidence(net).set_hard("A", "yes")}[other]
    with pytest.raises(BnsenseError, match="fixes 'B' at 'yes'"):
        propagate_full(tree, findings)
    with pytest.raises(BnsenseError, match="fixes 'B' at 'yes'"):
        enter_evidence(tree, findings)


def test_evidence_that_fixes_the_same_states_is_taken():
    net, evidence, tree = chain()
    want = propagate_full(build_junction_tree(net), evidence.copy().set_hard("A", "no"))
    got = propagate_full(tree, Evidence(net).set_likelihood("B", [2.0, 0.0]).set_hard("A", "no"))
    assert got == pytest.approx(2.0 * want, rel=1e-15)
    with pytest.raises(BnsenseError, match="fixes 'B' at 'yes'"):
        enter_finding(tree, "B", [1.0, 1.0])


def test_a_fixed_finding_is_not_retracted():
    net, _, tree = chain()
    propagate_full(tree, Evidence(net).set_hard("B", "yes").set_hard("C", "no"))
    with pytest.raises(BnsenseError, match="fixes 'B' at 'yes'"):
        retract_finding(tree, 1)
    retract_finding(tree, 2)
    assert tree.evidence_mass == pytest.approx(0.2 * 0.9 + 0.8 * 0.3)


def test_family_reads_across_a_cut_edge_are_refused():
    net, evidence, tree = chain()
    below = net.parameter(2, 0, (0,))
    with pytest.raises(BnsenseError, match="cut the edge from fixed 'B' to 'C'"):
        one_output_all_params_m1(tree, QueryRef(0, 0), evidence, [below])
    with pytest.raises(BnsenseError, match="cut the edge from fixed 'B' to 'C'"):
        same_clique_nway(tree, [below], evidence)
    with pytest.raises(BnsenseError, match="cut the edge from fixed 'B' to 'C'"):
        general_nway(tree, [below], evidence)
    # B's own family is whole: its lines read as on a tree compiled without evidence
    own = net.parameter(1, 0, (0,))
    got = one_output_all_params_m1(tree, QueryRef(0, 0), evidence, [own]).coefficients
    want = one_output_all_params_m1(build_junction_tree(net), QueryRef(0, 0), evidence,
                                    [own]).coefficients
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_contradictory_findings_exit_3_before_any_compile(capsys, monkeypatch):
    compiled = []
    monkeypatch.setattr(cli, "build_junction_tree", lambda *a, **k: compiled.append(a))
    code, out, err = run(capsys, "sens-param", "--net", R2, "--evidence", "B=yes,B!=yes",
                         "--param", "C|B=yes:yes")
    assert (code, out, compiled) == (3, "", [])
    assert err.startswith("impossible evidence:")
