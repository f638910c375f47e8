"""Command-line contract: golden reports, exit codes, stats lines, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from bnsense import UndefinedPointError, cli
from bnsense.functions import LinearCoeffs, SensitivityFunction, derivative, evaluate
from bnsense.cli import SENS_OUT_HEADER, _parser, _report, main

R1 = "tests/fixtures/r1.json"
R2 = "tests/fixtures/r2.json"

SENS_OUT_GOLDEN = """\
parameter,variable,state,parent_config,alpha,beta,gamma,delta,y_at_x0,dy_dx_at_x0
A:yes,A,yes,,9.000000000e-01,0.000000000e+00,6.000000000e-01,3.000000000e-01,4.285714286e-01,1.530612245e+00
A:no,A,no,,-9.000000000e-01,9.000000000e-01,-6.000000000e-01,9.000000000e-01,4.285714286e-01,-1.530612245e+00
B|A=yes:yes,B,yes,A=yes,2.000000000e-01,0.000000000e+00,2.000000000e-01,2.400000000e-01,4.285714286e-01,2.721088435e-01
B|A=yes:no,B,no,A=yes,-2.000000000e-01,2.000000000e-01,-2.000000000e-01,4.400000000e-01,4.285714286e-01,-2.721088435e-01
B|A=no:yes,B,yes,A=no,0.000000000e+00,1.800000000e-01,8.000000000e-01,1.800000000e-01,4.285714286e-01,-8.163265306e-01
B|A=no:no,B,no,A=no,0.000000000e+00,1.800000000e-01,-8.000000000e-01,9.800000000e-01,4.285714286e-01,8.163265306e-01
"""

SENS_PARAM_GOLDEN = """\
variable,state,alpha,beta,gamma,delta,y_at_x0,dy_dx_at_x0
A,yes,1.200000000e-01,2.000000000e-02,1.200000000e-01,2.440000000e-01,3.636363636e-01,2.169421488e-01
A,no,0.000000000e+00,2.240000000e-01,1.200000000e-01,2.440000000e-01,6.363636364e-01,-2.169421488e-01
B,yes,1.400000000e-01,1.680000000e-01,1.200000000e-01,2.440000000e-01,8.352272727e-01,1.129907025e-01
B,no,-2.000000000e-02,7.600000000e-02,1.200000000e-01,2.440000000e-01,1.647727273e-01,-1.129907025e-01
C,yes,1.200000000e-01,2.440000000e-01,1.200000000e-01,2.440000000e-01,1.000000000e+00,0.000000000e+00
C,no,0.000000000e+00,0.000000000e+00,1.200000000e-01,2.440000000e-01,0.000000000e+00,0.000000000e+00
"""

# p(V, e) under the finding B=yes as a function of p(C=yes | B=yes): C is a
# leaf without a finding, so every other line and the denominator are flat.
SENS_PARAM_LEAF_GOLDEN = """\
variable,state,alpha,beta,gamma,delta,y_at_x0,dy_dx_at_x0
A,yes,0.000000000e+00,1.800000000e-01,0.000000000e+00,4.200000000e-01,4.285714286e-01,0.000000000e+00
A,no,0.000000000e+00,2.400000000e-01,0.000000000e+00,4.200000000e-01,5.714285714e-01,0.000000000e+00
B,yes,0.000000000e+00,4.200000000e-01,0.000000000e+00,4.200000000e-01,1.000000000e+00,0.000000000e+00
B,no,0.000000000e+00,0.000000000e+00,0.000000000e+00,4.200000000e-01,0.000000000e+00,0.000000000e+00
C,yes,4.200000000e-01,0.000000000e+00,0.000000000e+00,4.200000000e-01,7.000000000e-01,1.000000000e+00
C,no,-4.200000000e-01,4.200000000e-01,0.000000000e+00,4.200000000e-01,3.000000000e-01,-1.000000000e+00
"""

SENS_N_SAME_CLIQUE_GOLDEN = """\
{
  "params": [
    "B|A=yes:yes",
    "B|A=no:yes"
  ],
  "coefficients": {
    "{}": 0.0,
    "{0}": 0.2,
    "{1}": 0.8,
    "{0,1}": 0.0
  }
}
"""


def _sure_network(tmp_path) -> str:
    """A -> B with p(A=y) = 1 and p(B=n | A=y) = 0, so the evidence B=n is impossible."""
    path = tmp_path / "sure.json"
    path.write_text(json.dumps(
        {"variables": [{"name": "A", "states": ["y", "n"]},
                       {"name": "B", "states": ["y", "n"]}],
         "cpts": [{"variable": "A", "parents": [], "rows": [[1.0, 0.0]]},
                  {"variable": "B", "parents": ["A"],
                   "rows": [[1.0, 0.0], [0.2, 0.8]]}]}))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestInfer:
    def test_posterior_lines(self, capsys):
        rc, out, err = run(capsys, "infer", "--net", R1,
                           "--evidence", "B=yes", "--target", "A")
        assert (rc, err) == (0, "")
        assert out == "A yes 0.4285714286\nA no 0.5714285714\n"

    def test_prior_marginal(self, capsys):
        rc, out, _ = run(capsys, "infer", "--net", R2, "--target", "C")
        assert rc == 0
        assert out == "C yes 0.3520000000\nC no 0.6480000000\n"

    def test_negative_finding(self, capsys):
        rc, out, _ = run(capsys, "infer", "--net", R2,
                         "--evidence", "C!=no", "--target", "A")
        assert rc == 0
        assert out == "A yes 0.3636363636\nA no 0.6363636364\n"

    def test_single_state_target(self, capsys):
        rc, out, _ = run(capsys, "infer", "--net", R1,
                         "--evidence", "B=yes", "--target", "A=no")
        assert rc == 0
        assert out == "A no 0.5714285714\n"

    def test_stats_line_is_one_inward_pass(self, capsys):
        rc, out, err = run(capsys, "infer", "--net", R2, "--evidence", "C=yes",
                           "--target", "A", "--stats")
        assert rc == 0
        assert out == "A yes 0.3636363636\nA no 0.6363636364\n"
        assert err == "inward=1 outward=0 messages=1\n"


class TestSensOut:
    ARGS = ("sens-out", "--net", R1, "--evidence", "B=yes", "--target", "A=yes")

    def test_golden_report(self, capsys):
        rc, out, err = run(capsys, *self.ARGS)
        assert (rc, err) == (0, "")
        assert out == SENS_OUT_GOLDEN

    def test_stats_line_on_stderr(self, capsys):
        rc, out, err = run(capsys, *self.ARGS, "--stats")
        assert rc == 0
        assert out == SENS_OUT_GOLDEN
        assert err == "inward=1 outward=2 messages=0\n"

    def test_methods_agree(self, capsys):
        _, one, _ = run(capsys, *self.ARGS, "--method", "1")
        rc, both, _ = run(capsys, *self.ARGS, "--method", "both")
        assert rc == 0
        assert both == one == SENS_OUT_GOLDEN

    def test_both_methods_share_one_tree(self, capsys, monkeypatch):
        """m2 runs on m1's tree; --stats reports m1's passes alone."""
        built = []
        build = cli.build_junction_tree

        def recording(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(cli, "build_junction_tree", recording)
        rc, _, err = run(capsys, "sens-out", "--net", R2, "--evidence", "C=yes",
                         "--target", "A=yes", "--method", "both", "--stats")
        assert rc == 0
        assert err == "inward=1 outward=2 messages=3\n"
        assert len(built) == 1
        assert built[0].stats.snapshot() == (2, 4, 6)   # both analyses ran on it

    def test_second_method_report(self, capsys):
        rc, out, _ = run(capsys, *self.ARGS, "--method", "2")
        assert rc == 0
        got = [line.split(",") for line in out.splitlines()[1:]]
        want = [line.split(",") for line in SENS_OUT_GOLDEN.splitlines()[1:]]
        for got_row, want_row in zip(got, want):
            assert got_row[:4] == want_row[:4]
            for g, w in zip(got_row[4:], want_row[4:]):
                assert float(g) == pytest.approx(float(w), abs=1e-9)


    def test_methods_that_disagree_fail(self, capsys, monkeypatch):
        lines = cli.one_output_lines

        def skewed(*args, two_point=False):
            coefficients, x0 = lines(*args, two_point=two_point)
            if two_point:
                coefficients = coefficients.copy()
                coefficients[2, 1] += 1e-6       # B|A=yes:yes, numerator intercept
            return coefficients, x0

        monkeypatch.setattr(cli, "one_output_lines", skewed)
        rc, out, err = run(capsys, *self.ARGS, "--method", "both")
        assert (rc, out) == (4, "")
        assert err == ("analysis error: methods disagree on B|A=yes:yes: "
                       "max coefficient gap 1.000e-06\n")

    def test_value_one_parameter_is_skipped_with_a_note(self, capsys, tmp_path):
        path = tmp_path / "sure.json"
        path.write_text(json.dumps(
            {"variables": [{"name": "A", "states": ["y", "n"]},
                           {"name": "B", "states": ["y", "n"]}],
             "cpts": [{"variable": "A", "parents": [], "rows": [[1.0, 0.0]]},
                      {"variable": "B", "parents": ["A"], "rows": [[0.6, 0.4], [0.5, 0.5]]}]}))
        rc, out, err = run(capsys, "sens-out", "--net", str(path), "--target", "B=y")
        assert rc == 0
        assert err == "skipped A:y: parameter value is 1; co-variation undefined\n"
        assert [row.split(",")[0] for row in out.splitlines()] == [
            "parameter", "A:n", "B|A=y:y", "B|A=y:n", "B|A=n:y", "B|A=n:n"]

    def test_columns_follow_evaluate_and_derivative(self):
        rng = np.random.default_rng(12)
        coefficients = rng.uniform(-1.0, 1.0, (50, 4))
        coefficients[:, 3] = np.abs(coefficients[:, 3]) + 1.0     # positive denominators
        x0 = rng.uniform(0.0, 0.9, 50)
        want = []
        for (a, b, c, d), x in zip(coefficients.tolist(), x0.tolist()):
            sf = SensitivityFunction(None, LinearCoeffs(a, b), LinearCoeffs(c, d))
            den = c * x + d     # the quotient rule in Python floats
            assert (evaluate(sf, x), derivative(sf, x)) == ((a * x + b) / den,
                                                            (a * d - b * c) / (den * den))
            want.append(",".join(cli.REAL % v
                                 for v in (a, b, c, d, evaluate(sf, x), derivative(sf, x))))
        report = _report(["h"], [f"row{i}" for i in range(50)], coefficients, x0)
        assert report.splitlines() == ["h", *(f"row{i},{row}" for i, row in enumerate(want))]

    def test_columns_raise_at_a_nonpositive_denominator(self):
        coefficients = np.array([[0.1, 0.2, 0.5, 0.5], [0.1, 0.2, -1.0, 0.25], [0, 0, 0, -1.0]])
        x0 = np.array([0.5, 0.25, 0.5])
        sf = SensitivityFunction(None, LinearCoeffs(0.1, 0.2), LinearCoeffs(-1.0, 0.25))
        with pytest.raises(UndefinedPointError) as want:
            evaluate(sf, 0.25)
        with pytest.raises(UndefinedPointError) as got:
            _report(SENS_OUT_HEADER, ["a", "b", "c"], coefficients, x0)
        assert str(got.value) == str(want.value)


class TestSensParam:
    ARGS = ("sens-param", "--net", R2, "--evidence", "C=yes",
            "--param", "B|A=yes:yes")

    def test_golden_report(self, capsys):
        rc, out, err = run(capsys, *self.ARGS)
        assert (rc, err) == (0, "")
        assert out == SENS_PARAM_GOLDEN

    def test_stats_line(self, capsys):
        _, _, err = run(capsys, *self.ARGS, "--stats")
        assert err == "inward=1 outward=2 messages=3\n"

    @pytest.mark.parametrize("param", ["B|A=yes:yes,", ",B|A=yes:yes", " ,B|A=yes:yes,, "])
    def test_empty_entries_around_the_parameter_are_skipped(self, capsys, param):
        assert run(capsys, *self.ARGS[:-1], param) == (0, SENS_PARAM_GOLDEN, "")

    def test_leaf_parameter_golden_and_stats(self, capsys):
        """The replay sends no message: C's family clique holds all of C."""
        rc, out, err = run(capsys, "sens-param", "--net", R2, "--evidence", "B=yes",
                           "--param", "C|B=yes:yes", "--stats")
        assert rc == 0
        assert out == SENS_PARAM_LEAF_GOLDEN
        assert err == "inward=1 outward=2 messages=2\n"


class TestSensN:
    def test_same_clique_golden(self, capsys):
        rc, out, err = run(capsys, "sens-n", "--net", R1, "--evidence", "B=yes",
                           "--params", "B|A=yes:yes,B|A=no:yes", "--stats")
        assert rc == 0
        assert out == SENS_N_SAME_CLIQUE_GOLDEN
        assert err == "inward=1 outward=1 messages=0\n"

    def test_general_route(self, capsys):
        rc, out, err = run(capsys, "sens-n", "--net", R2, "--evidence", "C=yes",
                           "--params", "A:yes,C|B=yes:yes", "--stats")
        assert rc == 0
        doc = json.loads(out)
        assert doc["params"] == ["A:yes", "C|B=yes:yes"]
        expected = {"{}": 0.07, "{0}": -0.06, "{1}": 0.3, "{0,1}": 0.6}
        assert list(doc["coefficients"]) == list(expected)
        for key, value in expected.items():
            assert doc["coefficients"][key] == pytest.approx(value, abs=1e-9)
        assert err == "inward=2 outward=2 messages=4\n"

    @pytest.mark.parametrize("params", [
        "A:yes,,C|B=yes:yes", ",A:yes,C|B=yes:yes", "A:yes,C|B=yes:yes,", " , A:yes, ,C|B=yes:yes"])
    def test_empty_entries_between_parameters_are_skipped(self, capsys, params):
        argv = ("sens-n", "--net", R2, "--evidence", "C=yes", "--stats")
        assert (run(capsys, *argv, "--params", params)
                == run(capsys, *argv, "--params", "A:yes,C|B=yes:yes"))

    def test_multi_parent_configuration_grammar(self, capsys):
        net = {"variables": [{"name": "A", "states": ["y", "n"]},
                             {"name": "B", "states": ["y", "n"]},
                             {"name": "C", "states": ["y", "n"]}],
               "cpts": [{"variable": "A", "parents": [], "rows": [[0.2, 0.8]]},
                        {"variable": "B", "parents": [], "rows": [[0.6, 0.4]]},
                        {"variable": "C", "parents": ["A", "B"],
                         "rows": [[0.9, 0.1], [0.7, 0.3],
                                  [0.5, 0.5], [0.1, 0.9]]}]}
        import tempfile, os
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.json")
            with open(path, "w") as fh:
                json.dump(net, fh)
            for config in ("A=y;B=n", "A=y,B=n"):
                rc, out, _ = run(capsys, "sens-n", "--net", path,
                                 "--params", f"C|{config}:y,C|A=n;B=y:y")
                assert rc == 0
                assert json.loads(out)["params"] == ["C|A=y;B=n:y", "C|A=n;B=y:y"]


class TestCheck:
    def test_fixed_network(self, capsys):
        rc, out, _ = run(capsys, "check", "--net", R2, "--trials", "5")
        assert rc == 0
        assert out.startswith("max deviation ")
        assert float(out.split()[-1]) <= 1e-9

    def test_random_networks_seeded(self, capsys, monkeypatch):
        monkeypatch.setenv("BN_SENSE_SEED", "7")
        rc, first, _ = run(capsys, "check", "--trials", "4")
        assert rc == 0
        rc, second, _ = run(capsys, "check", "--trials", "4")
        assert first == second
        monkeypatch.setenv("BN_SENSE_SEED", "8")
        rc, third, _ = run(capsys, "check", "--trials", "4")
        assert rc == 0
        assert third != first

    @pytest.mark.parametrize("seed", ["abc", "-1"])
    def test_seed_that_is_not_a_nonnegative_integer(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("BN_SENSE_SEED", seed)
        rc, out, err = run(capsys, "check", "--trials", "1")
        assert (rc, out) == (1, "")
        assert err == "usage error: BN_SENSE_SEED must be a nonnegative integer\n"

    def test_network_past_the_enumeration_limit(self, capsys, tmp_path):
        """A 30-variable binary chain has 2^30 joint states: check --net
        stops before any trial with an analysis error naming the limit."""
        names = [f"V{i}" for i in range(30)]
        chain = tmp_path / "chain30.json"
        chain.write_text(json.dumps({
            "variables": [{"name": n, "states": ["y", "n"]} for n in names],
            "cpts": [{"variable": n, "parents": names[i - 1:i],
                      "rows": [[0.5, 0.5]] * (2 if i else 1)} for i, n in enumerate(names)]}))
        rc, out, err = run(capsys, "check", "--net", str(chain), "--trials", "1")
        assert (rc, out) == (4, "")
        assert err.startswith("analysis error:")
        assert "2^20 states" in err and "2^30.0" in err


class TestDumpAndStats:
    def test_stats_output(self, capsys):
        rc, out, _ = run(capsys, "stats", "--net", R2, "--evidence", "C=yes")
        assert rc == 0
        assert out == "inward=1 outward=1 messages=2\n"

    def test_dump_jtree(self, capsys):
        rc, out, _ = run(capsys, "dump-jtree", "--net", R2)
        assert rc == 0
        doc = json.loads(out)
        assert doc["cliques"] == [
            {"id": 0, "members": ["A", "B"], "families": ["A", "B"]},
            {"id": 1, "members": ["B", "C"], "families": ["C"]}]
        assert doc["sepsets"] == [{"cliques": [0, 1], "members": ["B"]}]
        assert doc["edges"] == [[0, 1]]


class TestReportSinks:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, *TestSensOut.ARGS)
        path = tmp_path / "report.csv"
        rc, out, _ = run(capsys, *TestSensOut.ARGS, "--out", str(path))
        assert (rc, out) == (0, "")
        assert path.read_text() == stdout_text

    def test_repeated_runs_are_byte_identical(self, capsys):
        first = run(capsys, *TestSensOut.ARGS)
        second = run(capsys, *TestSensOut.ARGS)
        assert first == second

    def test_empty_relevant_set_yields_header_only_csv(self):
        assert _report(SENS_OUT_HEADER, [], np.empty((0, 4)), np.empty(0)) == (
            "parameter,variable,state,parent_config,"
            "alpha,beta,gamma,delta,y_at_x0,dy_dx_at_x0\n")


class TestExitCodes:
    def test_usage_errors(self, capsys):
        cases = [
            ("sens-out", "--net", R1),                                # no target
            ("sens-out", "--net", R1, "--target", "A"),               # no state
            ("sens-param", "--net", R1, "--param", "B|Q=yes:yes"),    # bad parent
            ("infer", "--net", R1, "--evidence", "B:yes", "--target", "A"),
            ("infer", "--net", R1, "--evidence", "B=maybe", "--target", "A"),
            ("sens-n", "--net", R1, "--params", "A:yes,B|A=yes"),
            ("nonsense",),
        ]
        for argv in cases:
            rc, _, err = run(capsys, *argv)
            assert rc == 1, argv
            assert err.startswith("usage error:"), argv

    @pytest.mark.parametrize("argv", [
        ("infer", "--net", R1, "--target", "A", "--evidence=--"),
        ("infer", "--net", R1, "--target=--"),
        ("sens-n", "--net=--", "--params", "A:yes"),
        ("sens-out", "--net", R1, "--target", "A=yes", "--method=--")])
    def test_a_double_dash_value_is_a_usage_error(self, capsys, argv):
        # argparse drops a `--` value given as --option=-- and stores []
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.startswith("usage error: argument --")

    @pytest.mark.parametrize("option", ["--param", "--params"])
    def test_configuration_assigning_a_parent_twice(self, capsys, option):
        command = "sens-param" if option == "--param" else "sens-n"
        rc, out, err = run(capsys, command, "--net", R2, option, "B|A=yes;A=no:yes")
        assert (rc, out) == (1, "")
        assert err == "usage error: configuration assigns parent 'A' twice\n"

    @pytest.mark.parametrize("command", [
        ("infer", "--target", "A"), ("sens-out", "--target", "A=yes"),
        ("sens-n", "--params", "A:yes"), ("sens-param", "--param", "A:yes")])
    def test_evidence_errors_on_every_command(self, capsys, command):
        cases = {"Q=yes": "unknown variable 'Q'",
                 "B=maybe": "variable 'B' has no state 'maybe'",
                 "B=yes,B:no": "finding 'B:no' is not VAR=state or VAR!=state"}
        for evidence, message in cases.items():
            rc, out, err = run(capsys, command[0], "--net", R1, *command[1:],
                               "--evidence", evidence)
            assert (rc, out, err) == (1, "", f"usage error: {message}\n"), evidence

    def test_shared_parser_gives_the_same_answers(self, capsys):
        """The parser is built once per process; a call leaves nothing behind for the next."""
        assert _parser() is _parser()
        bad = ("sens-out", "--net", R1, "--target", "A")
        good = TestSensOut.ARGS
        first = [run(capsys, *argv) for argv in (bad, good, ("nonsense",))]
        again = [run(capsys, *argv) for argv in (bad, good, ("nonsense",))]
        assert first == again
        assert [rc for rc, _, _ in first] == [1, 0, 1]
        assert first[1][1] == SENS_OUT_GOLDEN

    def test_invalid_network_file(self, capsys, tmp_path):
        bad_sum = tmp_path / "rowsum.json"
        bad_sum.write_text(json.dumps(
            {"variables": [{"name": "A", "states": ["y", "n"]}],
             "cpts": [{"variable": "A", "parents": [], "rows": [[0.6, 0.5]]}]}))
        bad_json = tmp_path / "broken.json"
        bad_json.write_text("{nope")
        string_entry = tmp_path / "string_entry.json"
        string_entry.write_text(json.dumps(
            {"variables": [{"name": "A", "states": ["y", "n"]}],
             "cpts": [{"variable": "A", "parents": [], "rows": [["0.6", 0.4]]}]}))
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(json.dumps(
            {"variables": [{"name": "\u00c4", "states": ["y"]}],
             "cpts": [{"variable": "\u00c4", "parents": [], "rows": [[1.0]]}]},
            ensure_ascii=False).encode("latin-1"))
        huge_entry = tmp_path / "huge_entry.json"
        huge_entry.write_text(
            '{"variables": [{"name": "A", "states": ["y", "n"]}], "cpts": [{"variable": "A", '
            '"parents": [], "rows": [[' + "1" * 401 + ', 0]]}]}')
        not_objects = []
        # a JSON string naming a valid network file is not followed as a path
        for i, doc in enumerate([str(Path(R2).resolve()), [], None]):
            not_objects.append(tmp_path / f"not_object{i}.json")
            not_objects[-1].write_text(json.dumps(doc))
        for path, fragment in [(tmp_path / "missing.json", "cannot read"),
                               (bad_json, "not valid JSON"),
                               (bad_sum, "sum 1.1 outside tolerance"),
                               (string_entry, "cpt entries must be numbers"),
                               (deep, "nests too deeply"),
                               (not_utf8, "not valid JSON: 'utf-8' codec can't decode"),
                               (huge_entry, "row 0: entries must be finite and nonnegative"),
                               *((path, "must be a JSON object") for path in not_objects)]:
            rc, _, err = run(capsys, "infer", "--net", str(path), "--target", "A")
            assert rc == 2
            assert err.startswith("invalid network:")
            assert fragment in err

    def test_impossible_evidence(self, capsys):
        rc, _, err = run(capsys, "infer", "--net", R1,
                         "--evidence", "B=yes,B!=yes", "--target", "A")
        assert rc == 3
        assert err == "impossible evidence: finding for 'B' is all-zero\n"

    @pytest.mark.parametrize("method", ["1", "2", "both"])
    def test_impossible_evidence_on_every_method(self, capsys, tmp_path, method):
        rc, out, err = run(capsys, "sens-out", "--net", _sure_network(tmp_path),
                           "--evidence", "B=n", "--target", "A=y", "--method", method)
        assert (rc, out) == (3, "")
        assert err == "impossible evidence: the entered evidence has probability zero\n"

    def test_impossible_evidence_from_the_inward_pass(self, capsys, tmp_path):
        rc, out, err = run(capsys, "infer", "--net", _sure_network(tmp_path),
                           "--evidence", "B=n", "--target", "A")
        assert (rc, out) == (3, "")
        assert err == "impossible evidence: the entered evidence has probability zero\n"

    def test_dependent_parameters(self, capsys):
        rc, _, err = run(capsys, "sens-n", "--net", R1,
                         "--params", "A:yes,B|A=yes:yes")
        assert rc == 4
        assert err.startswith("analysis error:")

    def test_degenerate_parameter(self, capsys, tmp_path):
        path = tmp_path / "sure.json"
        path.write_text(json.dumps(
            {"variables": [{"name": "A", "states": ["y", "n"]}],
             "cpts": [{"variable": "A", "parents": [], "rows": [[1.0, 0.0]]}]}))
        rc, _, err = run(capsys, "sens-param", "--net", str(path),
                         "--param", "A:y")
        assert rc == 4
        assert "value is 1" in err

    def test_report_write_failure(self, capsys, tmp_path):
        rc, _, err = run(capsys, "infer", "--net", R1, "--target", "A",
                         "--out", str(tmp_path / "no-such-dir" / "x.txt"))
        assert rc == 5
        assert err.startswith("report error:")
