"""CSV reports from arrays: byte-identical to per-parameter emission.

`sens-out` reads the lines of every entry of the relevant variables as
arrays and formats its rows from them, building a `ParameterRef` only for
an entry it skips.  `sens-param` shares the row formatter.  The reference
here is the emitter the CLI had before: one `ParameterRef` per reported
parameter from the library's analyses, each cell formatted alone with
`REAL`, and the rows written by `csv.writer`.
"""

import csv
import io
import json

import numpy as np
import pytest

from bnsense import (Evidence, ParameterRef, QueryRef, all_outputs_one_param,
                     build_junction_tree, format_parameter, load_network, network_to_dict,
                     one_output_all_params_m1, one_output_all_params_m2, relevant_parameters)
from bnsense import cli
from bnsense.cli import REAL, SENS_OUT_HEADER, SENS_PARAM_HEADER
from bnsense.functions import at_point
from bnsense.network import format_parent_config
from tests.test_cli import run
from tests.test_messages import chain


def reference_csv(rows) -> str:
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\n").writerows(rows)
    return sink.getvalue()


def reference_columns(coefficients, x0):
    values = np.column_stack([coefficients, *at_point(coefficients, x0)])
    return [[REAL % c for c in row] for row in values.tolist()]


def reference_labels(net, refs):
    rows = []
    for ref in refs:
        var, config = net.variables[ref.variable], format_parent_config(net, ref)
        head = f"{var.name}|{config}:" if config else f"{var.name}:"
        state = var.states[ref.state]
        rows.append([head + state, var.name, state, config])
    return rows


def reference_sens_out(net, query, evidence, method):
    """(report, stderr notes) as the per-parameter emitter wrote them."""
    params = relevant_parameters(net, query, evidence)
    tree = build_junction_tree(net, {query.variable, *evidence.variables()})
    analysis = (one_output_all_params_m2 if method == "2" else one_output_all_params_m1)(
        tree, query, evidence, params)
    notes = "".join(f"skipped {format_parameter(net, ref)}: {reason}\n"
                    for ref, reason in analysis.skipped)
    rows = zip(reference_labels(net, analysis.refs),
               reference_columns(analysis.coefficients, analysis.x0))
    return reference_csv([SENS_OUT_HEADER, *(head + cols for head, cols in rows)]), notes


def reference_sens_param(net, ref, evidence):
    analysis = all_outputs_one_param(build_junction_tree(net), ref, evidence)
    labels = [[var.name, state] for var in net.variables for state in var.states]
    rows = zip(labels, reference_columns(analysis.coefficients,
                                         np.full(len(labels), net.parameter_value(ref))))
    return reference_csv([SENS_PARAM_HEADER, *(head + cols for head, cols in rows)])


# Names and states with commas, double quotes, spaces, line breaks and
# non-ASCII text; T has three parents, so its configurations join three pairs.
AWKWARD = [("P", ["p0", "p1"]),
           ('A, "quoted"', ["yes", "no, really", 'é"x']),
           ("Bé ünï", [" sp", "x\ny", "c\rr"]),
           ("T", ["t", "f"]),
           ("W", ["w0", "w1", "w2"])]
AWKWARD_PARENTS = {"P": [], 'A, "quoted"': ["P"], "Bé ünï": [],
                   "T": ['A, "quoted"', "P", "Bé ünï"], "W": ["T"]}


def awkward_network(seed, ones=()):
    """The network above with random rows; the (variable, row) pairs in
    `ones` get a first entry of exactly 1."""
    rng = np.random.default_rng(seed)
    arity = dict(AWKWARD)
    cpts = []
    for name, states in AWKWARD:
        n_rows = int(np.prod([len(arity[p]) for p in AWKWARD_PARENTS[name]], dtype=int))
        rows = rng.uniform(0.05, 1.0, (n_rows, len(states)))
        rows /= rows.sum(axis=1, keepdims=True)
        for var, row in ones:
            if var == name:
                rows[row] = np.eye(len(states))[0]
        cpts.append({"variable": name, "parents": AWKWARD_PARENTS[name],
                     "rows": rows.tolist()})
    return load_network({"variables": [{"name": n, "states": s} for n, s in AWKWARD],
                         "cpts": cpts})


def write(tmp_path, net):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_dict(net)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("cell", ["plain", "", " lead", "trail ", "a,b", 'say "hi"', "x\ny",
                                  "c\rr", "tab\there", "é ünï", '",', "a|b=c:d;e"])
def test_quoted_cells_are_as_csv_writer_writes_them(cell):
    assert cli._quoted(cell) + ",z\n" == reference_csv([[cell, "z"]])


@pytest.mark.parametrize("method", ["1", "2", "both"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sens_out_report_is_byte_identical(capsys, tmp_path, method, seed):
    ones = [("T", 5), ("P", 0), ("Bé ünï", 0)] if seed == 2 else []
    net = awkward_network(seed, ones)
    path = write(tmp_path, net)
    evidence = Evidence(net).set_hard("W", "w1")
    want, notes = reference_sens_out(net, QueryRef(3, 0), evidence, method)
    code, out, err = run(capsys, "sens-out", "--net", path, "--evidence", "W=w1",
                         "--target", "T=t", "--method", method)
    assert (code, out, err) == (0, want, notes)
    assert out.count("\n") > 40
    if ones:   # every value-1 entry is noted in CPT order, and its row left out
        assert err == ("skipped P:p0: parameter value is 1; co-variation undefined\n"
                       "skipped Bé ünï: sp: parameter value is 1; co-variation undefined\n"
                       'skipped T|A, "quoted"=yes;P=p1;Bé ünï=c\rr:t: '
                       "parameter value is 1; co-variation undefined\n")


@pytest.mark.parametrize("method", ["1", "2", "both"])
def test_header_only_report(capsys, tmp_path, method):
    net = load_network({"variables": [{"name": "U", "states": ["only"]}],
                        "cpts": [{"variable": "U", "parents": [], "rows": [[1.0]]}]})
    path = write(tmp_path, net)
    want, notes = reference_sens_out(net, QueryRef(0, 0), Evidence(net), method)
    code, out, err = run(capsys, "sens-out", "--net", path, "--target", "U=only",
                         "--method", method)
    assert (code, out, err) == (0, want, notes)
    assert out == ",".join(SENS_OUT_HEADER) + "\n"


@pytest.mark.parametrize("seed", [0, 1])
def test_sens_param_report_is_byte_identical(capsys, tmp_path, seed):
    net = awkward_network(seed)
    path = write(tmp_path, net)
    evidence = Evidence(net).set_hard("W", "w1")
    want = reference_sens_param(net, net.parameter(0, 1, ()), evidence)
    code, out, err = run(capsys, "sens-param", "--net", path, "--evidence", "W=w1",
                         "--param", "P:p1")
    assert (code, out, err) == (0, want, "")


def count_refs(monkeypatch):
    made = []
    init = ParameterRef.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ParameterRef, "__init__", counting)
    return made


CHAIN_FINDINGS = ",".join(f"V{v}={'ab'[v % 2]}" for v in range(1, 300, 7))


@pytest.mark.parametrize("method", ["1", "2", "both"])
def test_sens_out_builds_no_parameter_per_row(capsys, tmp_path, monkeypatch, method):
    net = chain()
    path = write(tmp_path, net)
    evidence = cli._evidence(net, CHAIN_FINDINGS)
    rows = len(relevant_parameters(net, QueryRef(100, 0), evidence))
    made = count_refs(monkeypatch)
    code, out, err = run(capsys, "sens-out", "--net", path, "--evidence", CHAIN_FINDINGS,
                         "--target", "V100=a", "--method", method)
    assert (code, err) == (0, "")
    assert out.count("\n") == 1 + rows
    assert made == []


@pytest.mark.parametrize("method", ["1", "2", "both"])
def test_sens_out_builds_one_parameter_per_skipped_entry(capsys, tmp_path, monkeypatch, method):
    doc = network_to_dict(chain())
    for var in (50, 120, 121):     # p(V = a | parent = b) = 1
        doc["cpts"][var]["rows"][1] = [1.0, 0.0]
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    made = count_refs(monkeypatch)
    code, _, err = run(capsys, "sens-out", "--net", str(path), "--evidence", CHAIN_FINDINGS,
                       "--target", "V100=a", "--method", method)
    assert code == 0
    assert err.splitlines() == [f"skipped V{v}|V{v - 1}=b:a: parameter value is 1; "
                                "co-variation undefined" for v in (50, 120, 121)]
    assert len(made) == 3
