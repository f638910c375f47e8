"""Network loading, validation, co-variation, and evidence containers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from bnsense import (DegenerateParameterError, Evidence, ImpossibleEvidenceError,
                     NetworkFormatError, ParameterRef, QueryRef, apply_parameter,
                     build_junction_tree, covary_row, enter_finding, enumerate_parameters,
                     format_parameter, infer_marginal, load_network, network_from_dict,
                     network_to_dict, one_output_all_params_m1)
from bnsense.oracle import random_network


def _doc(variables, cpts):
    return {"variables": variables, "cpts": cpts}


R1_DOC = _doc(
    [{"name": "A", "states": ["yes", "no"]},
     {"name": "B", "states": ["yes", "no"]}],
    [{"variable": "A", "parents": [], "rows": [[0.2, 0.8]]},
     {"variable": "B", "parents": ["A"], "rows": [[0.9, 0.1], [0.3, 0.7]]}])


class TestLoading:
    def test_reference_network_shape(self, r1):
        assert [v.name for v in r1.variables] == ["A", "B"]
        assert r1.variables[0].states == ("yes", "no")
        assert r1.parents == ((), (0,))
        assert sum(net_rows.shape[0] for net_rows in r1.cpts) == 3

    def test_variable_order_follows_file(self, r2):
        assert [v.name for v in r2.variables] == ["A", "B", "C"]

    def test_row_sum_error_names_location(self):
        doc = _doc([{"name": "A", "states": ["yes", "no"]}],
                   [{"variable": "A", "parents": [], "rows": [[0.2, 0.9]]}])
        with pytest.raises(NetworkFormatError, match="'A'.*row 0"):
            network_from_dict(doc)
        for offset in (2e-9, -2e-9):    # just outside the 1e-9 tolerance
            doc = _doc(R1_DOC["variables"],
                       [R1_DOC["cpts"][0],
                        {"variable": "B", "parents": ["A"],
                         "rows": [[0.9, 0.1], [0.3, 0.7 + offset]]}])
            with pytest.raises(NetworkFormatError, match="'B', row 1: sum"):
                network_from_dict(doc)

    @pytest.mark.parametrize("offset", [5e-10, -5e-10])
    def test_row_sum_just_inside_tolerance_is_accepted(self, offset):
        doc = _doc(R1_DOC["variables"],
                   [R1_DOC["cpts"][0],
                    {"variable": "B", "parents": ["A"],
                     "rows": [[0.9, 0.1], [0.3, 0.7 + offset]]}])
        net = network_from_dict(doc)
        assert net.cpts[1][1].sum() == pytest.approx(1.0, abs=1e-15)

    def test_first_offending_row_is_named(self):
        doc = _doc(R1_DOC["variables"],
                   [R1_DOC["cpts"][0],
                    {"variable": "B", "parents": ["A"], "rows": [[0.9, 0.2], [-0.3, 1.3]]}])
        with pytest.raises(NetworkFormatError, match="'B', row 0: sum 1.1"):
            network_from_dict(doc)
        doc["cpts"][1]["rows"] = [[0.9, 0.1], [float("nan"), 0.7]]
        with pytest.raises(NetworkFormatError, match="'B', row 1: entries must be finite"):
            network_from_dict(doc)
        # integers past the float range, of either sign
        for huge in (10 ** 400, -10 ** 400):
            doc["cpts"][1]["rows"] = [[0.9, 0.1], [huge, 0.7]]
            with pytest.raises(NetworkFormatError,
                               match="'B', row 1: entries must be finite and nonnegative"):
                network_from_dict(doc)

    @pytest.mark.parametrize("row", [["x", 0.7], [[0.3], 0.7], [None, [0.7]], [True, False],
                                     ["0.3", 0.7], [" 0.3 ", 0.7], [None, 0.7]])
    def test_non_numeric_entries_rejected(self, row):
        doc = _doc(R1_DOC["variables"],
                   [R1_DOC["cpts"][0],
                    {"variable": "B", "parents": ["A"], "rows": [[0.9, 0.1], row]}])
        with pytest.raises(NetworkFormatError, match="'B': cpt entries must be numbers"):
            network_from_dict(doc)

    def test_tables_match_row_by_row_normalization(self):
        """Each table is bit-identical to dividing every row by its own sum."""
        rng = np.random.default_rng(61)
        for _ in range(30):
            doc = network_to_dict(random_network(rng, n_vars=int(rng.integers(2, 12)),
                                                 max_states=6))
            for entry in doc["cpts"]:
                entry["rows"] = [[x * (1 + float(rng.uniform(-4e-10, 4e-10))) for x in row]
                                 for row in entry["rows"]]
            net = network_from_dict(doc)
            for entry, table in zip(doc["cpts"], net.cpts):
                rows = [np.asarray(row, dtype=float) for row in entry["rows"]]
                assert np.array_equal(table, [row / float(row.sum()) for row in rows])

    def test_cycle_error(self):
        doc = _doc(R1_DOC["variables"],
                   [{"variable": "A", "parents": ["B"], "rows": [[0.2, 0.8], [0.5, 0.5]]},
                    {"variable": "B", "parents": ["A"], "rows": [[0.9, 0.1], [0.3, 0.7]]}])
        with pytest.raises(NetworkFormatError, match="cycle"):
            network_from_dict(doc)

    def test_arity_mismatch_error(self):
        doc = _doc([{"name": "A", "states": ["yes", "no"]}],
                   [{"variable": "A", "parents": [], "rows": [[0.2, 0.3, 0.5]]}])
        with pytest.raises(NetworkFormatError):
            network_from_dict(doc)

    def test_missing_cpt_error(self):
        doc = _doc(R1_DOC["variables"],
                   [{"variable": "A", "parents": [], "rows": [[0.2, 0.8]]}])
        with pytest.raises(NetworkFormatError):
            network_from_dict(doc)

    def test_unknown_parent_error(self):
        doc = _doc([{"name": "A", "states": ["yes", "no"]}],
                   [{"variable": "A", "parents": ["Z"], "rows": [[0.2, 0.8]]}])
        with pytest.raises(NetworkFormatError):
            network_from_dict(doc)

    def test_wrong_row_count_error(self):
        doc = _doc(R1_DOC["variables"],
                   [{"variable": "A", "parents": [], "rows": [[0.2, 0.8]]},
                    {"variable": "B", "parents": ["A"], "rows": [[0.9, 0.1]]}])
        with pytest.raises(NetworkFormatError):
            network_from_dict(doc)

    def test_round_trip(self, r2):
        doc = network_to_dict(r2)
        again = network_from_dict(doc)
        for v in range(r2.n_variables):
            assert_allclose(again.cpts[v], r2.cpts[v])
        assert again.parents == r2.parents

    def test_bad_row_is_named_before_a_later_structural_fault(self):
        bad_row = {"variable": "A", "parents": [], "rows": [[0.2, 0.9]]}
        fault = {"variable": "B", "parents": ["Z"], "rows": [[0.9, 0.1], [0.3, 0.7]]}
        with pytest.raises(NetworkFormatError, match="'A', row 0: sum"):
            network_from_dict(_doc(R1_DOC["variables"], [bad_row, fault]))
        with pytest.raises(NetworkFormatError, match="'B': unknown parent 'Z'"):
            network_from_dict(_doc(R1_DOC["variables"], [fault, bad_row]))
        with pytest.raises(NetworkFormatError, match="'A', row 0: sum"):   # or a missing cpt
            network_from_dict(_doc(R1_DOC["variables"], [bad_row]))

    def test_mixed_arities_name_the_first_bad_cpt_in_file_order(self):
        variables = [{"name": n, "states": [f"s{i}" for i in range(k)]}
                     for n, k in (("A", 3), ("B", 2), ("C", 4))]
        rows = {"A": [[0.2, 0.3, 0.5]], "B": [[0.5, 0.5]] * 3, "C": [[0.1, 0.2, 0.3, 0.4]] * 2}
        parents = {"A": [], "B": ["A"], "C": ["B"]}

        def doc(**bad):
            return _doc(variables, [{"variable": n, "parents": parents[n], "rows": bad.get(n, r)}
                                    for n, r in rows.items()])
        net = network_from_dict(doc())
        assert [t.shape for t in net.cpts] == [(1, 3), (3, 2), (2, 4)]
        assert not any(t.flags.writeable for t in net.cpts)
        with pytest.raises(NetworkFormatError, match="'B', row 2: entries must be finite"):
            network_from_dict(doc(B=[[0.5, 0.5]] * 2 + [[-0.5, 1.5]],
                                  C=[[0.1, 0.2, 0.3, 0.5]] * 2))
        with pytest.raises(NetworkFormatError, match="'A', row 0: sum"):
            network_from_dict(doc(A=[[0.2, 0.3, 0.6]], B=[[0.5, 0.6]] * 3))
        with pytest.raises(NetworkFormatError, match="'C', row 1: sum 1.1"):
            network_from_dict(doc(C=[[0.1, 0.2, 0.3, 0.4], [0.2, 0.2, 0.3, 0.4]]))

    def test_loaded_tables_are_read_only_views_of_their_arity_block(self):
        doc = {"variables": [{"name": f"V{i}", "states": ["a", "b"]} for i in range(4)]
               + [{"name": "T", "states": ["x", "y", "z"]}],
               "cpts": [{"variable": "V0", "parents": [], "rows": [[0.3, 0.7]]}]
               + [{"variable": f"V{i}", "parents": [f"V{i - 1}"], "rows": [[0.4, 0.6], [0.9, 0.1]]}
                  for i in range(1, 4)]
               + [{"variable": "T", "parents": ["V3"], "rows": [[0.2, 0.3, 0.5]] * 2}]}
        net = network_from_dict(doc)
        for table in net.cpts:
            assert not table.flags.writeable
            assert table.base is not None        # a view, not a copy of its own
        binary = [t for t in net.cpts if t.shape[1] == 2]
        assert all(t.base is binary[0].base for t in binary[1:])

    def test_names_that_are_not_strings_are_unknown(self):
        cpts = [R1_DOC["cpts"][0], {"variable": "B", "parents": [["A"]], "rows": [[0.9, 0.1]]}]
        with pytest.raises(NetworkFormatError, match=r"'B': unknown parent \['A'\]"):
            network_from_dict(_doc(R1_DOC["variables"], cpts))
        cpts = [{"variable": ["A"], "parents": [], "rows": [[0.2, 0.8]]}]
        with pytest.raises(NetworkFormatError, match=r"unknown variable \['A'\]"):
            network_from_dict(_doc(R1_DOC["variables"], cpts))

    def test_with_cpt_copies_a_writable_table(self, r1):
        table = np.array([[0.5, 0.5], [0.1, 0.9]])
        net = r1.with_cpt(1, table)
        table[0, 0] = 0.7
        assert net.cpts[1][0, 0] == 0.5 and not net.cpts[1].flags.writeable
        assert r1.with_cpt(1, r1.cpts[1]).cpts[1] is r1.cpts[1]   # read-only: shared

    def test_unparseable_files_are_format_errors(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"variables": [{"name": "\xc4", "states": ["y"]}], "cpts": []}')
        for path, fragment in ((deep, "nests too deeply"), (latin1, "not valid JSON")):
            for source in (path, str(path)):
                with pytest.raises(NetworkFormatError, match=fragment):
                    load_network(source)

    def test_a_repeated_key_takes_its_last_value(self, tmp_path):
        """As in Python's `json`, the last occurrence of a repeated key wins."""
        text = ('{"variables": [{"name": "A", "states": ["y"]}], "cpts": [], '
                '"cpts": [{"variable": "A", "parents": [], "rows": [[1.0]], '
                '"rows": [[0.25, 0.75]]}], "variables": [{"name": "A", "states": ["y"], '
                '"states": ["t", "f"]}]}')
        path = tmp_path / "repeated.json"
        path.write_text(text)
        for source in (text, path):
            net = load_network(source)
            assert net.variables[0].states == ("t", "f")
            assert_allclose(net.cpts[0], [[0.25, 0.75]])

    def test_load_accepts_dict_and_string(self, r1):
        import json
        from_dict = load_network(R1_DOC)
        from_str = load_network(json.dumps(R1_DOC))
        assert_allclose(from_dict.cpts[1], from_str.cpts[1])
        assert_allclose(from_dict.cpts[1], r1.cpts[1])


class TestCovariation:
    def test_half_splits_binary_row(self):
        assert_allclose(covary_row(np.array([0.9, 0.1]), 0, 0.5), [0.5, 0.5])

    def test_endpoint_zero(self):
        assert_allclose(covary_row(np.array([0.3, 0.7]), 0, 0.0), [0.0, 1.0])

    def test_endpoint_one(self):
        assert_allclose(covary_row(np.array([0.3, 0.7]), 0, 1.0), [1.0, 0.0])

    def test_degenerate_row_rejected(self):
        with pytest.raises(DegenerateParameterError):
            covary_row(np.array([1.0, 0.0]), 0, 0.5)

    def test_value_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            covary_row(np.array([0.3, 0.7]), 0, 1.5)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
           st.floats(0.0, 1.0), st.data())
    def test_preserves_normalization_and_ratios(self, raw, x, data):
        row = np.array(raw) / np.sum(raw)
        i = data.draw(st.integers(0, len(row) - 1))
        if row[i] >= 1.0 - 1e-12:
            return
        out = covary_row(row, i, x)
        assert_allclose(out.sum(), 1.0, atol=1e-12)
        assert out[i] == pytest.approx(x, abs=1e-12)
        rest_old = np.delete(row, i)
        rest_new = np.delete(out, i)
        assert_allclose(rest_new, rest_old * (1.0 - x) / (1.0 - row[i]), atol=1e-12)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5))
    def test_identity_at_current_value(self, raw):
        row = np.array(raw) / np.sum(raw)
        if row[0] >= 1.0 - 1e-12:
            return
        assert_allclose(covary_row(row, 0, float(row[0])), row, atol=1e-12)

    def test_apply_parameter_leaves_original_untouched(self, r1):
        ref = r1.parameter(1, 0, (0,))
        before = r1.cpts[1].copy()
        changed = apply_parameter(r1, ref, 0.5)
        assert_allclose(r1.cpts[1], before)
        assert_allclose(changed.row(1, (0,)), [0.5, 0.5])


class TestParameterEnumeration:
    def test_counts(self, r1, r2):
        assert len(enumerate_parameters(r1)) == 6
        assert len(enumerate_parameters(r2)) == 10

    def test_order_is_variable_row_state(self, r1):
        labels = [format_parameter(r1, ref) for ref in enumerate_parameters(r1)]
        assert labels == ["A:yes", "A:no",
                          "B|A=yes:yes", "B|A=yes:no",
                          "B|A=no:yes", "B|A=no:no"]

    def test_initial_values_match_cpt(self, r1):
        for ref in enumerate_parameters(r1):
            assert ref.initial_value == pytest.approx(r1.parameter_value(ref))

    def test_refs_compare_ignoring_value(self, r1):
        ref = r1.parameter(1, 0, (0,))
        moved = apply_parameter(r1, ref, 0.4)
        assert moved.parameter(1, 0, (0,)) == ref

    def test_rows_are_c_order_over_the_listed_parents(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            net = random_network(rng)
            keys = []
            for ref in enumerate_parameters(net):
                arities = [net.arity(p) for p in net.parents[ref.variable]]
                row = int(np.ravel_multi_index(ref.parent_config, arities)) if arities else 0
                assert net.row_index(ref.variable, ref.parent_config) == row
                assert ref.initial_value == net.cpts[ref.variable][row, ref.state]
                keys.append((ref.variable, row, ref.state))
            assert keys == sorted(keys)
            assert len(keys) == sum(t.size for t in net.cpts)

    def test_out_of_range_indices_name_the_variable(self, r2):
        with pytest.raises(NetworkFormatError, match="'B': parent 'A' has no state 5"):
            r2.parameter(1, 0, (5,))
        with pytest.raises(NetworkFormatError, match="'B': parent 'A' has no state -1"):
            r2.parameter(1, 0, (-1,))
        with pytest.raises(NetworkFormatError, match="'B' has no state 7"):
            r2.parameter(1, 7, (0,))
        with pytest.raises(NetworkFormatError, match="'B': parent config has 2 entries"):
            r2.parameter(1, 0, (0, 0))

    def test_out_of_range_states_are_rejected(self, r2):
        for state in (2, -1):
            ref = ParameterRef(1, state, (0,), 0.5)
            with pytest.raises(NetworkFormatError, match="'B' has no state"):
                r2.parameter_value(ref)
            params = [ref, r2.parameter(2, 0, (0,))]   # state 2 of B must not read C's entry
            with pytest.raises(NetworkFormatError, match="'B' has no state"):
                one_output_all_params_m1(build_junction_tree(r2), QueryRef(0, 0), None, params)

    @pytest.mark.parametrize("var", [-1, 3, True])
    def test_bad_variable_ids_are_rejected(self, r2, var):
        with pytest.raises(NetworkFormatError, match=f"no variable with id {var}"):
            r2.parameter(var, 0, (0,))


class TestEvidence:
    def test_hard_finding_is_indicator(self, r1):
        ev = Evidence(r1).set_hard("B", "yes")
        assert_allclose(ev.vector("B"), [1.0, 0.0])

    def test_negative_finding_zeroes_one_state(self, r1):
        ev = Evidence(r1).set_negative("B", "no")
        assert_allclose(ev.vector("B"), [1.0, 0.0])

    def test_replace_semantics(self, r1):
        ev = Evidence(r1).set_hard("B", "yes").set_hard("B", "no")
        assert_allclose(ev.vector("B"), [0.0, 1.0])

    def test_all_zero_rejected(self, r1):
        with pytest.raises(ImpossibleEvidenceError):
            Evidence(r1).set_likelihood("B", [0.0, 0.0])

    def test_negative_entries_rejected(self, r1):
        with pytest.raises(NetworkFormatError):
            Evidence(r1).set_likelihood("B", [0.5, -0.1])

    def test_wrong_length_rejected(self, r1):
        with pytest.raises(NetworkFormatError):
            Evidence(r1).set_likelihood("B", [0.5, 0.2, 0.3])

    def test_items_sorted_and_copy_independent(self, r2):
        ev = Evidence(r2).set_hard("C", "yes").set_hard("A", "no")
        assert [v for v, _ in ev.items()] == [0, 2]
        dup = ev.copy().remove("A")
        assert "A" in ev and "A" not in dup

    def test_numpy_integer_ids_are_accepted(self, r2):
        ev = Evidence(r2).set_hard(np.int64(0), np.int64(1))
        assert ev.variables() == (0,)
        assert_allclose(ev.vector(0), [0.0, 1.0])

    @pytest.mark.parametrize("var, message", [(-1, "no variable with id -1"),
                                              (7, "no variable with id 7"),
                                              (True, "no variable with id True"),
                                              (1.0, "no variable with id 1.0")])
    def test_bad_variable_ids_are_rejected(self, r2, var, message):
        for setter in (Evidence(r2).set_hard, Evidence(r2).set_negative):
            with pytest.raises(NetworkFormatError, match=message):
                setter(var, 0)
        with pytest.raises(NetworkFormatError, match=message):
            Evidence(r2).set_likelihood(var, [1.0, 0.0])

    @pytest.mark.parametrize("state", [5, -1, True])
    def test_bad_state_indices_are_rejected(self, r2, state):
        for setter in (Evidence(r2).set_hard, Evidence(r2).set_negative):
            with pytest.raises(NetworkFormatError, match=f"'A' has no state {state}"):
                setter(0, state)

    def test_negative_id_is_not_a_silent_prior(self, r2):
        """An id of -1 once stored a finding that propagation never attached."""
        with pytest.raises(NetworkFormatError, match="no variable with id -1"):
            Evidence(r2).set_hard(-1, 0)
        tree = build_junction_tree(r2)
        with pytest.raises(NetworkFormatError, match="no variable with id -1"):
            enter_finding(tree, -1, [1.0, 0.0])
        joint = infer_marginal(tree, 0, Evidence(r2).set_hard(2, 0))
        assert_allclose(joint / joint.sum(), [4 / 11, 7 / 11], atol=1e-12)
