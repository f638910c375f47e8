"""Discrete Bayesian network model: variables, CPTs, parameters, evidence.

A network is loaded from a JSON document of the form::

    {
      "variables": [{"name": "A", "states": ["yes", "no"]}, ...],
      "cpts": [
        {"variable": "A", "parents": [], "rows": [[0.2, 0.8]]},
        {"variable": "B", "parents": ["A"], "rows": [[0.9, 0.1], [0.3, 0.7]]}
      ]
    }

Each CPT row is the conditional distribution of the variable given one
configuration of its parents.  Rows are ordered with the *last listed parent
varying fastest* (C order over the listed parent axes); that ordering is part
of the parameter-reference contract, not an implementation detail.

Row sums may deviate from 1 by at most ROW_SUM_TOLERANCE and are renormalized;
anything worse is rejected with the offending variable and row index named.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameterError, ImpossibleEvidenceError, NetworkFormatError

ROW_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with an ordered tuple of state labels."""

    name: str
    states: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class ParameterRef:
    """One CPT entry p(variable = state | parents in parent_config).

    parent_config holds state indices of the variable's parents in their
    listed order.  initial_value is carried for convenience and excluded from
    equality: two refs naming the same entry compare equal across co-varied
    copies of a network.
    """

    variable: int
    state: int
    parent_config: tuple[int, ...]
    initial_value: float = field(compare=False)

    def __repr__(self) -> str:  # compact, index-based; use format_parameter for labels
        return (
            f"ParameterRef(var={self.variable}, state={self.state}, "
            f"config={self.parent_config}, value={self.initial_value!r})"
        )


class Network:
    """An immutable DAG of discrete variables with one CPT per variable."""

    def __init__(self, variables: list[Variable], parents: list[tuple[int, ...]],
                 cpts: list[np.ndarray]):
        self.variables: tuple[Variable, ...] = tuple(variables)
        self.arities: tuple[int, ...] = tuple(v.arity for v in self.variables)
        self.parents: tuple[tuple[int, ...], ...] = tuple(tuple(p) for p in parents)
        self.cpts: tuple[np.ndarray, ...] = tuple(map(_frozen_table, cpts))
        self._ids = {v.name: i for i, v in enumerate(self.variables)}
        self._children = _children_of(self.parents)
        self._order = _topological_order(self.parents, self._children)
        self._strides = tuple(_row_strides(self.arities, pars) for pars in self.parents)

    # -- basic lookups ---------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    def variable_id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise NetworkFormatError(f"unknown variable {name!r}") from None

    def arity(self, var: int) -> int:
        return self.arities[var]

    def state_index(self, var: int, label: str) -> int:
        try:
            return self.variables[var].states.index(label)
        except ValueError:
            raise NetworkFormatError(
                f"variable {self.variables[var].name!r} has no state {label!r}"
            ) from None

    def family(self, var: int) -> tuple[int, ...]:
        """The variable together with its parents, sorted by id."""
        return tuple(sorted((var,) + self.parents[var]))

    def topological_order(self) -> tuple[int, ...]:
        return self._order

    def children(self, var: int) -> tuple[int, ...]:
        return self._children[var]

    # -- CPT row addressing ----------------------------------------------

    def row_index(self, var: int, parent_config: tuple[int, ...]) -> int:
        """Row number of a parent configuration (last listed parent fastest)."""
        pars = self.parents[var]
        if len(parent_config) != len(pars):
            raise NetworkFormatError(
                f"variable {self.variables[var].name!r}: parent config has "
                f"{len(parent_config)} entries, expected {len(pars)}")
        row = 0
        for p, s, stride in zip(pars, parent_config, self._strides[var]):
            if not 0 <= s < self.arities[p]:
                raise NetworkFormatError(
                    f"variable {self.variables[var].name!r}: parent "
                    f"{self.variables[p].name!r} has no state {s!r}")
            row += s * stride
        return row

    def row(self, var: int, parent_config: tuple[int, ...]) -> np.ndarray:
        return self.cpts[var][self.row_index(var, parent_config)]

    def parameter(self, var: int, state: int, parent_config: tuple[int, ...]) -> ParameterRef:
        var = check_variable(self, var)
        state = _check_state(self, var, state)
        value = float(self.cpts[var][self.row_index(var, parent_config), state])
        return ParameterRef(var, state, tuple(parent_config), value)

    def entry_index(self, ref: ParameterRef) -> int:
        """Position of the parameter's entry in its CPT read in C order: row, then state."""
        arity = self.arities[ref.variable]
        if not 0 <= ref.state < arity:
            raise NetworkFormatError(
                f"variable {self.variables[ref.variable].name!r} has no state {ref.state!r}")
        return self.row_index(ref.variable, ref.parent_config) * arity + ref.state

    def parameter_value(self, ref: ParameterRef) -> float:
        return float(self.cpts[ref.variable].flat[self.entry_index(ref)])

    # -- derived quantities ------------------------------------------------

    def joint_state_bits(self) -> float:
        """log2 of the joint state-space size (enumeration guard)."""
        return float(sum(math.log2(v.arity) for v in self.variables))

    def ancestors(self, seeds) -> set[int]:
        """The variable ids in `seeds` and all their ancestors.

        Every other variable is barren for a question about the seeds: it has
        no seed at or below it, so its CPT sums out of p(seeds) to one
        (Baker & Boult, UAI 1990).  Costs O(the result and its edges).
        """
        found: set[int] = set()
        stack = list(seeds)
        while stack:
            v = stack.pop()
            if v not in found:
                found.add(v)
                stack.extend(self.parents[v])
        return found

    def with_cpt(self, var: int, table: np.ndarray) -> "Network":
        """A copy with one CPT replaced; the structure and its order are shared."""
        out = copy.copy(self)
        out.cpts = self.cpts[:var] + (_frozen_table(table),) + self.cpts[var + 1:]
        return out


def _frozen_table(table) -> np.ndarray:
    """A read-only float CPT: the table itself if it is one already, else a copy."""
    if not (isinstance(table, np.ndarray) and table.dtype == float and not table.flags.writeable):
        table = np.array(table, dtype=float)
        table.setflags(write=False)
    return table


def _children_of(parents: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Each variable's children, in increasing id order."""
    children: list[list[int]] = [[] for _ in parents]
    for v, pars in enumerate(parents):
        for p in pars:
            children[p].append(v)
    return tuple(map(tuple, children))


def _row_strides(arities: tuple[int, ...], parents: tuple[int, ...]) -> tuple[int, ...]:
    """Row-number step of each listed parent's state (last listed parent fastest)."""
    strides = []
    step = 1
    for p in reversed(parents):
        strides.append(step)
        step *= arities[p]
    return tuple(reversed(strides))


def _topological_order(parents: tuple[tuple[int, ...], ...],
                       children: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Kahn's algorithm, lowest ready id first; raises on cycles naming the variables involved."""
    n = len(parents)
    waiting = [len(p) for p in parents]   # parents not yet placed; `children` lists each edge once
    ready = [v for v in range(n) if not waiting[v]]
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in children[v]:
            waiting[c] -= 1
            if not waiting[c]:
                heapq.heappush(ready, c)
    if len(order) != n:
        stuck = sorted(set(range(n)) - set(order))
        raise NetworkFormatError(f"cycle detected among variable ids {stuck}")
    return tuple(order)


# ---------------------------------------------------------------------------
# loading / validation


def load_network(source) -> Network:
    """Build a validated Network from a dict, a JSON string (a str that
    begins with "{") or the path of a JSON file, given as any other str or
    as an os.PathLike; a file that cannot be read or parsed is a
    NetworkFormatError."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        source = json.loads(source)
    if isinstance(source, dict):
        return network_from_dict(source)
    path = os.fspath(source)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise NetworkFormatError(f"cannot read network file {path!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise NetworkFormatError(f"network file {path!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise NetworkFormatError(f"network file {path!r} nests too deeply to parse") from None
    return network_from_dict(doc)


def network_from_dict(doc: dict) -> Network:
    """Validate a network document and build its Network.

    Each cpt's structure is checked in turn; the rows of all cpts of one
    arity are then checked and normalized at once (`_normalized`).  A bad
    row in a cpt is still reported before a structural fault in a later one.
    """
    if not isinstance(doc, dict):
        raise NetworkFormatError("network document must be a JSON object")
    for key in ("variables", "cpts"):
        if key not in doc or not isinstance(doc[key], list):
            raise NetworkFormatError(f"network document needs a {key!r} list")

    variables: list[Variable] = []
    ids: dict[str, int] = {}
    for i, entry in enumerate(doc["variables"]):
        if not isinstance(entry, dict) or "name" not in entry or "states" not in entry:
            raise NetworkFormatError(f"variables[{i}]: expected an object with name and states")
        name = entry["name"]
        states = entry["states"]
        if not isinstance(name, str) or not name:
            raise NetworkFormatError(f"variables[{i}]: name must be a nonempty string")
        if name in ids:
            raise NetworkFormatError(f"duplicate variable name {name!r}")
        if (not isinstance(states, list) or not states
                or any(not isinstance(s, str) for s in states)):
            raise NetworkFormatError(f"variable {name!r}: states must be a nonempty string list")
        if len(set(states)) != len(states):
            raise NetworkFormatError(f"variable {name!r}: duplicate state labels")
        ids[name] = i
        variables.append(Variable(name, tuple(states)))

    parents: list[tuple[int, ...] | None] = [None] * len(variables)
    stacks: dict[int, list] = {}           # arity -> the rows of every cpt of that arity
    spans: list[tuple[int, slice]] = []    # per cpt in file order: (variable, its rows there)
    try:
        for entry in doc["cpts"]:
            if not isinstance(entry, dict) or "variable" not in entry:
                raise NetworkFormatError("each cpt needs a variable name")
            name = entry["variable"]
            if not isinstance(name, str) or name not in ids:
                raise NetworkFormatError(f"cpt references unknown variable {name!r}")
            var = ids[name]
            if parents[var] is not None:
                raise NetworkFormatError(f"variable {name!r} has more than one cpt")
            par_names = entry.get("parents", [])
            if not isinstance(par_names, list):
                raise NetworkFormatError(f"variable {name!r}: parents must be a list")
            par_ids = []
            for p in par_names:
                if not isinstance(p, str) or p not in ids:
                    raise NetworkFormatError(f"variable {name!r}: unknown parent {p!r}")
                if p == name:
                    raise NetworkFormatError(f"variable {name!r} lists itself as a parent")
                par_ids.append(ids[p])
            if len(set(par_ids)) != len(par_ids):
                raise NetworkFormatError(f"variable {name!r}: duplicate parent")
            rows = entry.get("rows")
            arity = variables[var].arity
            expected_rows = 1
            for p in par_ids:
                expected_rows *= variables[p].arity
            if not isinstance(rows, list) or len(rows) != expected_rows:
                got = len(rows) if isinstance(rows, list) else "none"
                raise NetworkFormatError(
                    f"variable {name!r}: expected {expected_rows} cpt rows, got {got}")
            for r, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != arity:
                    raise NetworkFormatError(
                        f"variable {name!r}, row {r}: expected {arity} entries")
            entries = list(itertools.chain.from_iterable(rows))
            # JSON true and false are ints to Python; strings and null are not numbers
            if (not all(map(isinstance, entries, itertools.repeat((int, float))))
                    or bool in map(type, entries)):
                raise NetworkFormatError(f"variable {name!r}: cpt entries must be numbers")
            stack = stacks.setdefault(arity, [])
            spans.append((var, slice(len(stack), len(stack) + len(rows))))
            stack.extend(rows)
            parents[var] = tuple(par_ids)
    except NetworkFormatError:
        _normalized(variables, stacks, spans)   # raises for a bad row in an earlier cpt
        raise
    tables = _normalized(variables, stacks, spans)
    for var, pars in enumerate(parents):
        if pars is None:
            raise NetworkFormatError(f"variable {variables[var].name!r} has no cpt")
    return Network(variables, parents, tables)  # type: ignore[arg-type]


def _normalized(variables: list[Variable], stacks: dict[int, list],
                spans: list[tuple[int, slice]]) -> list[np.ndarray | None]:
    """Each cpt's table by variable, its rows divided by their own sums.

    The rows of each arity are checked and normalized as one stacked array,
    whose row blocks are the tables; the sums of a stack's rows are those of
    each table's rows.  The tables are sliced once the stack is read-only,
    so they are read-only views that `Network` keeps without a copy.  Raises
    `_row_error` for the first cpt, in file order, with a row whose entries
    are not finite and nonnegative or whose sum is more than
    ROW_SUM_TOLERANCE from 1.
    """
    blocks = {}
    for arity, rows in stacks.items():
        try:
            block = np.array(rows, dtype=float)
        except OverflowError:   # an integer past the float range stands as inf here
            block = np.array([[x if abs(x) <= sys.float_info.max else math.inf for x in row]
                              for row in rows])
        totals = block.sum(axis=1)
        # nonnegative entries with finite row sums are finite themselves
        blocks[arity] = block, totals, (block >= 0).all(axis=1) & (
            np.abs(totals - 1.0) <= ROW_SUM_TOLERANCE)
    if not all(good.all() for _, _, good in blocks.values()):
        for var, rows in spans:
            block, totals, good = blocks[variables[var].arity]
            if not good[rows].all():
                raise _row_error(variables[var].name, block[rows], totals[rows])
    for block, totals, _ in blocks.values():
        block /= totals[:, None]
        block.setflags(write=False)
    tables: list[np.ndarray | None] = [None] * len(variables)
    for var, rows in spans:
        tables[var] = blocks[variables[var].arity][0][rows]
    return tables


def _row_error(name: str, table: np.ndarray, totals: np.ndarray) -> NetworkFormatError:
    """The error for the first row of a cpt with bad entries or a bad sum."""
    bad_entries = (table < 0).any(axis=1) | ~np.isfinite(table).all(axis=1)
    r = int(np.argmax(bad_entries | (np.abs(totals - 1.0) > ROW_SUM_TOLERANCE)))
    if bad_entries[r]:
        return NetworkFormatError(
            f"variable {name!r}, row {r}: entries must be finite and nonnegative")
    return NetworkFormatError(
        f"variable {name!r}, row {r}: sum {float(totals[r])!r} outside tolerance")


def network_to_dict(net: Network) -> dict:
    """Inverse of network_from_dict (rows as plain floats)."""
    return {
        "variables": [{"name": v.name, "states": list(v.states)} for v in net.variables],
        "cpts": [
            {
                "variable": net.variables[v].name,
                "parents": [net.variables[p].name for p in net.parents[v]],
                "rows": [[float(x) for x in row] for row in net.cpts[v]],
            }
            for v in range(net.n_variables)
        ],
    }


# ---------------------------------------------------------------------------
# parameters and proportional co-variation


def covary_row(row: np.ndarray, state: int, x: float) -> np.ndarray:
    """Set row[state] to x and scale the other entries to keep the sum at 1.

    The remaining entries keep their mutual proportions (each is multiplied by
    (1 - x) / (1 - row[state])).  A row with row[state] == 1 has no mass left
    to redistribute and is rejected as degenerate.
    """
    row = np.asarray(row, dtype=float)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"parameter value {x!r} outside [0, 1]")
    current = float(row[state])
    if current >= 1.0:
        raise DegenerateParameterError(
            f"row entry {state} already has value 1; co-variation undefined")
    out = row * ((1.0 - x) / (1.0 - current))
    out[state] = x
    return out


def apply_parameter(net: Network, ref: ParameterRef, x: float) -> Network:
    """Return a copy of the network with one CPT row co-varied to value x."""
    table = np.array(net.cpts[ref.variable], dtype=float)
    r = net.row_index(ref.variable, ref.parent_config)
    table[r] = covary_row(table[r], ref.state, x)
    return net.with_cpt(ref.variable, table)


def enumerate_parameters(net: Network, variables=None) -> list[ParameterRef]:
    """Every CPT entry of `variables` (default: every variable, by id), in
    the order the variables are given, then by row, then by state."""
    out: list[ParameterRef] = []
    for var in range(net.n_variables) if variables is None else variables:
        configs = itertools.product(*(range(net.arities[p]) for p in net.parents[var]))
        for config, row in zip(configs, net.cpts[var].tolist()):
            out.extend(ParameterRef(var, s, config, x) for s, x in enumerate(row))
    return out


def format_parent_config(net: Network, ref: ParameterRef) -> str:
    """The parameter's parent configuration as "A=yes;C=no" ("" for a root)."""
    return ";".join(
        f"{net.variables[p].name}={net.variables[p].states[s]}"
        for p, s in zip(net.parents[ref.variable], ref.parent_config))


def format_parameter(net: Network, ref: ParameterRef) -> str:
    """Stable text form: "B|A=yes;C=no:yes" (root variables: "A:yes")."""
    vname = net.variables[ref.variable].name
    state = net.variables[ref.variable].states[ref.state]
    if not ref.parent_config:
        return f"{vname}:{state}"
    return f"{vname}|{format_parent_config(net, ref)}:{state}"


# ---------------------------------------------------------------------------
# evidence


def _index(value, count: int) -> int | None:
    """`value` as an int if it is an integral number, not a bool, in [0, count)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and 0 <= value < count:
        return int(value)
    return None


def check_variable(net: Network, var) -> int:
    """The id of the variable given by name or by integral id."""
    if isinstance(var, str):
        return net.variable_id(var)
    found = _index(var, net.n_variables)
    if found is None:
        raise NetworkFormatError(f"no variable with id {var!r}")
    return found


def _check_state(net: Network, var: int, state) -> int:
    """The index of the variable's state given by label or by integral index."""
    if isinstance(state, str):
        return net.state_index(var, state)
    found = _index(state, net.arity(var))
    if found is None:
        raise NetworkFormatError(f"variable {net.variables[var].name!r} has no state {state!r}")
    return found


def check_finding(net: Network, var, vector) -> tuple[int, np.ndarray]:
    """The variable's id and the vector as a float array, if it is a valid
    finding for the variable (`check_variable`).

    A finding needs one finite, nonnegative entry per state and at least one
    positive entry; an all-zero vector is impossible evidence.
    """
    var = check_variable(net, var)
    vec = np.asarray(vector, dtype=float)
    name = net.variables[var].name
    if vec.shape != (net.arity(var),):
        raise NetworkFormatError(
            f"finding for {name!r} has length {vec.size}, expected {net.arity(var)}")
    if np.any(vec < 0) or not np.all(np.isfinite(vec)):
        raise NetworkFormatError(f"finding for {name!r} must be finite and nonnegative")
    if not np.any(vec > 0):
        raise ImpossibleEvidenceError(f"finding for {name!r} is all-zero")
    return var, vec


class Evidence:
    """Per-variable likelihood vectors (findings).

    A hard finding is an indicator vector, a negative finding has a single
    zero at the excluded state, and a general likelihood vector may be any
    nonnegative vector with at least one positive entry.  Setting a finding
    for a variable that already has one replaces it.
    """

    def __init__(self, net: Network):
        self.net = net
        self._findings: dict[int, np.ndarray] = {}

    def copy(self) -> "Evidence":
        out = Evidence(self.net)
        out._findings = {v: vec.copy() for v, vec in self._findings.items()}
        return out

    def _resolve(self, var) -> int:
        return check_variable(self.net, var)

    def set_hard(self, var, state) -> "Evidence":
        v = self._resolve(var)
        vec = np.zeros(self.net.arity(v))
        vec[_check_state(self.net, v, state)] = 1.0
        return self.set_likelihood(v, vec)

    def set_negative(self, var, state) -> "Evidence":
        v = self._resolve(var)
        vec = np.ones(self.net.arity(v))
        vec[_check_state(self.net, v, state)] = 0.0
        return self.set_likelihood(v, vec)

    def set_likelihood(self, var, vector) -> "Evidence":
        v, vec = check_finding(self.net, var, vector)
        self._findings[v] = vec
        return self

    def remove(self, var) -> "Evidence":
        self._findings.pop(self._resolve(var), None)
        return self

    def variables(self) -> tuple[int, ...]:
        return tuple(sorted(self._findings))

    def items(self):
        return ((v, self._findings[v]) for v in sorted(self._findings))

    def vector(self, var) -> np.ndarray:
        return self._findings[self._resolve(var)]

    def __contains__(self, var) -> bool:
        return self._resolve(var) in self._findings

    def __len__(self) -> int:
        return len(self._findings)


@dataclass(frozen=True)
class QueryRef:
    """A posterior target p(variable = state | evidence)."""

    variable: int
    state: int
