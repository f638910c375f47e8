"""Report checks: every call's report against an independent reference.

One case is the five calls a workload makes on one network with one evidence
set (workloads._five_calls).  Its reports are checked together, so the two
sens-out methods can be held to each other and every y_at_x0 to the infer
posterior.  A reference answers three questions:

* posterior(var): p(var | e);
* line_problem(param, var, state, coeffs): does the reported quotient of
  lines (alpha, beta, gamma, delta) match?  None if it does;
* nway_problem(params, coeffs): does the reported multilinear p(e) match?

The checks run after the timed loop and never inside it.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import references as R
from workloads import Call, Model, Param, param_text

POSTERIOR_TOLERANCE = 1e-9      # infer prints 10 decimals
ONEWAY_TOLERANCE = 1e-9         # the acceptance suite's one-way tolerance
NWAY_TOLERANCE = 1e-8           # the acceptance suite's n-way tolerance
PRINTED_RELATIVE = 1e-9         # reports print 10 significant digits
METHOD_AGREEMENT = 1e-8         # m1 against m2, relative to the row's largest coefficient
POINT_TOLERANCE = 1e-8          # against a point reference, relative to the terms' size


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol + PRINTED_RELATIVE * abs(want)


def _all_params(model: Model) -> dict[str, Param]:
    out = {}
    for v in range(model.n):
        for r in range(model.n_rows(v)):
            for s in range(model.arities[v]):
                p = Param(v, s, model.config_of_row(v, r))
                out[param_text(model, p)] = p
    return out


# ---------------------------------------------------------------------------
# references


class OracleReference:
    """Small networks: the package's brute-force enumeration oracle, on every
    row and every variable.  A fitted line is kept, so the m2 report's rows
    reuse the fits made for m1's."""

    rows_checked = (None, None)   # every row of m1, m2
    variables_checked = None      # every variable

    def __init__(self, bnsense, model: Model, evidence):
        from bnsense.oracle import brute_query, fit_linear_sf, fit_multilinear
        self._query = brute_query
        self._fit1, self._fitn = fit_linear_sf, fit_multilinear
        self.net = bnsense.network_from_dict(model.to_doc())
        self.ev = bnsense.Evidence(self.net)
        for v, s, negated in evidence:
            (self.ev.set_negative if negated else self.ev.set_hard)(v, s)
        self._lines: dict = {}

    def _ref(self, p: Param):
        return self.net.parameter(p.variable, p.state, p.config)

    def posterior(self, var: int) -> np.ndarray:
        joint = [self._query(self.net, var, s, self.ev) for s in range(self.net.arity(var))]
        return np.array([j / total for j, total in joint])

    def line_problem(self, p: Param, var: int, state: int, coeffs) -> str | None:
        key = (p, var, state)
        if key not in self._lines:
            self._lines[key] = self._fit1(self.net, self._ref(p), var, state,
                                          self.ev).coefficients()
        want = self._lines[key]
        if all(_close(g, w, ONEWAY_TOLERANCE) for g, w in zip(coeffs, want)):
            return None
        return f"coefficients {coeffs} against oracle {want}"

    def nway_problem(self, params, coeffs: dict[int, float]) -> str | None:
        want = self._fitn(self.net, [self._ref(p) for p in params], self.ev).coefficients
        if set(want) == set(coeffs) and all(
                _close(coeffs[m], want[m], NWAY_TOLERANCE) for m in want):
            return None
        return f"coefficients {coeffs} against oracle {want}"


class _PointReference:
    """Shared logic for references that evaluate p(var, e) at given settings:
    a reported line pair must pass through the reference values at the
    operating point and at one co-varied point."""

    def __init__(self, model: Model, evidence, rng: np.random.Generator):
        self.model, self.evidence, self.rng = model, evidence, rng
        self._cache: dict = {}

    def joint(self, var: int, settings=()) -> tuple[np.ndarray, float]:
        raise NotImplementedError

    def pe(self, settings=()) -> float:
        raise NotImplementedError

    def posterior(self, var: int) -> np.ndarray:
        vec, pe = self.joint(var)
        return vec / pe

    def _x0(self, p: Param) -> float:
        row = self.model.row_of_config(p.variable, p.config)
        return float(self.model.cpts[p.variable][row][p.state])

    def line_problem(self, p: Param, var: int, state: int, coeffs) -> str | None:
        alpha, beta, gamma, delta = coeffs
        x0 = self._x0(p)
        for x in (x0, R.second_value(x0)):
            vec, pe = self.joint(var, () if x == x0 else ((p, x),))
            for name, got, want, terms in (
                    ("numerator", alpha * x + beta, vec[state], abs(alpha * x) + abs(beta)),
                    ("denominator", gamma * x + delta, pe, abs(gamma * x) + abs(delta))):
                if abs(got - want) > POINT_TOLERANCE * (terms + abs(want)):
                    return f"{name} {got!r} at x={x!r} against reference {want!r}"
        return None

    def nway_problem(self, params, coeffs: dict[int, float]) -> str | None:
        n = len(params)
        if set(coeffs) != set(range(1 << n)):
            return f"coefficient subsets {sorted(coeffs)} are not all {1 << n}"
        operating = [self._x0(p) for p in params]
        settings = [operating] + [list(self.rng.uniform(0.05, 0.95, size=n))
                                  for _ in range(self.random_settings)]
        for k, xs in enumerate(settings):
            terms = [c * math.prod(xs[i] for i in range(n) if m >> i & 1)
                     for m, c in coeffs.items()]
            want = self.pe(tuple(zip(params, xs)) if k else ())
            got = sum(terms)
            if abs(got - want) > POINT_TOLERANCE * (sum(map(abs, terms)) + abs(want)):
                return f"p(e) {got!r} at {xs} against reference {want!r}"
        return None


class ChainReference(_PointReference):
    """Long chain: log-scaled forward-backward, cheap enough to check every
    row and every variable."""

    rows_checked = (None, None)   # every row of m1, m2
    variables_checked = None      # every variable
    random_settings = 2

    def joint(self, var: int, settings=()) -> tuple[np.ndarray, float]:
        key = tuple((p, float(x)) for p, x in settings)
        if key not in self._cache:
            self._cache[key] = R.chain_joint(self.model, self.evidence, settings)
        joint, pe = self._cache[key]
        return joint[var], pe

    def pe(self, settings=()) -> float:
        return self.joint(0, settings)[1]


class EliminationReference(_PointReference):
    """Wide DAG: bucket elimination, on a seeded sample of parameters."""

    rows_checked = (2, 1)
    variables_checked = 2
    random_settings = 1

    def __init__(self, model: Model, evidence, rng: np.random.Generator):
        super().__init__(model, evidence, rng)
        self.eliminator = R.Eliminator(model)

    def joint(self, var: int, settings=()) -> tuple[np.ndarray, float]:
        key = (var, tuple((p, float(x)) for p, x in settings))
        if key not in self._cache:
            vec = self.eliminator.eliminate(self.evidence, var, settings)
            self._cache[key] = (vec, float(vec.sum()))
        return self._cache[key]

    def pe(self, settings=()) -> float:
        key = tuple((p, float(x)) for p, x in settings)
        for (_, cached), (_, pe) in self._cache.items():
            if cached == key:
                return pe
        return float(self.eliminator.eliminate(self.evidence, None, settings))


# ---------------------------------------------------------------------------
# report parsing


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _sample(rng: np.random.Generator, items: list, k: int | None) -> list:
    if k is None or k >= len(items):
        return list(items)
    return [items[int(i)] for i in sorted(rng.choice(len(items), size=k, replace=False))]


class CaseChecker:
    """Checks the five reports of one case; returns one problem list per call."""

    def __init__(self, model: Model, ref, rng: np.random.Generator):
        self.model, self.ref, self.rng = model, ref, rng
        self.params = _all_params(model)

    def check(self, calls: list[Call], reports: list[str]) -> list[list[str]]:
        out = []
        sens_out_rows = None
        for call, text in zip(calls, reports):
            problems: list[str] = []
            try:
                if call.kind == "infer":
                    self._infer(call, text, problems)
                elif call.kind.startswith("sens_out"):
                    rows = self._sens_out(call, text, problems)
                    if sens_out_rows is not None and rows is not None:
                        self._agree(sens_out_rows, rows, problems)
                    sens_out_rows = rows
                elif call.kind == "sens_param":
                    self._sens_param(call, text, problems)
                else:
                    self._sens_n(call, text, problems)
            except (ValueError, KeyError, IndexError) as exc:
                problems.append(f"malformed report: {exc!r}")
            out.append(problems)
        return out

    def _infer(self, call: Call, text: str, problems: list[str]) -> None:
        var, _ = call.target
        want = self.ref.posterior(var)
        lines = [line.split() for line in text.splitlines()]
        expected = [[self.model.name(var), self.model.state(var, s)] for s in range(len(want))]
        if [line[:2] for line in lines] != expected:
            problems.append(f"infer rows {lines} are not {expected}")
            return
        for s, line in enumerate(lines):
            if not _close(float(line[2]), want[s], POSTERIOR_TOLERANCE):
                problems.append(f"posterior {line} against reference {want[s]!r}")

    def _sens_out(self, call: Call, text: str, problems: list[str]):
        var, state = call.target
        rows = _csv_rows(text)
        if not rows or rows[0][:4] != ["parameter", "variable", "state", "parent_config"]:
            problems.append("sens-out report has no header")
            return None
        body = {row[0]: [float(x) for x in row[4:10]] for row in rows[1:]}
        posterior = self.ref.posterior(var)[state]
        for name, values in body.items():
            if name not in self.params:
                problems.append(f"unknown parameter {name!r}")
            elif not _close(values[4], posterior, ONEWAY_TOLERANCE):
                problems.append(f"{name}: y_at_x0 {values[4]!r} against posterior {posterior!r}")
        if problems:
            return body
        k = self.ref.rows_checked[call.kind == "sens_out_m2"]
        for name in _sample(self.rng, sorted(body), k):
            problem = self.ref.line_problem(self.params[name], var, state, body[name][:4])
            if problem:
                problems.append(f"{name}: {problem}")
        # the screen may keep parameters that cannot matter, but must not drop one that can
        influencing = R.influencing_variables(self.model, var, [v for v, _, _ in call.evidence])
        missing = [name for name, p in self.params.items()
                   if p.variable in influencing and name not in body]
        if missing:
            problems.append(f"{len(missing)} parameters that can move the posterior are "
                            f"missing, e.g. {missing[0]}")
        return body

    def _agree(self, m1: dict, m2: dict, problems: list[str]) -> None:
        if list(m1) != list(m2):
            problems.append("sens-out methods report different parameter rows")
            return
        for name, a in m1.items():
            b = m2[name]
            scale = max(abs(x) for x in a[:4] + b[:4])
            if any(abs(x - y) > METHOD_AGREEMENT * scale for x, y in zip(a[:4], b[:4])):
                problems.append(f"{name}: methods disagree, {a[:4]} against {b[:4]}")

    def _sens_param(self, call: Call, text: str, problems: list[str]) -> None:
        (p,) = call.params
        rows = _csv_rows(text)
        states = [(v, s) for v in range(self.model.n) for s in range(self.model.arities[v])]
        if [row[:2] for row in rows[1:]] != [[self.model.name(v), self.model.state(v, s)]
                                             for v, s in states]:
            problems.append("sens-param rows do not list every variable state in order")
            return
        values = {vs: [float(x) for x in row[2:8]] for vs, row in zip(states, rows[1:])}
        if len({tuple(vals[2:4]) for vals in values.values()}) != 1:
            problems.append("sens-param rows disagree on the denominator line")
        for v in range(self.model.n):
            total = sum(values[(v, s)][4] for s in range(self.model.arities[v]))
            if not _close(total, 1.0, ONEWAY_TOLERANCE * self.model.arities[v]):
                problems.append(f"{self.model.name(v)}: y_at_x0 sums to {total!r}")
        for v in _sample(self.rng, list(range(self.model.n)), self.ref.variables_checked):
            for s in range(self.model.arities[v]):
                problem = self.ref.line_problem(p, v, s, values[(v, s)][:4])
                if problem:
                    problems.append(f"{self.model.name(v)}={self.model.state(v, s)}: {problem}")

    def _sens_n(self, call: Call, text: str, problems: list[str]) -> None:
        doc = json.loads(text)
        names = [param_text(self.model, p) for p in call.params]
        if doc["params"] != names:
            problems.append(f"sens-n params {doc['params']} are not {names}")
            return
        coeffs = {}
        for key, value in doc["coefficients"].items():
            inner = key.strip("{}")
            mask = sum(1 << int(i) for i in inner.split(",")) if inner else 0
            coeffs[mask] = float(value)
        problem = self.ref.nway_problem(list(call.params), coeffs)
        if problem:
            problems.append(problem)
