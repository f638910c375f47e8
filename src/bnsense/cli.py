"""Command-line frontend: parse arguments, dispatch, emit reports.

Subcommands
    infer       posterior marginals under evidence
    sens-out    one posterior's sensitivity to every relevant parameter (CSV)
    sens-param  every posterior's sensitivity to one parameter (CSV)
    sens-n      joint n-parameter analysis (JSON, multilinear coefficients)
    check       randomized engine-vs-enumeration comparison
    stats       propagation counters for one full propagation
    dump-jtree  compiled junction tree as JSON

Each command parses its arguments once, on the network it loaded, and ids
stay that network's from file to report.  `infer`, `sens-out` and `sens-n`
compile only the requisite variables: the target, the finding variables,
the parameters' variables and their ancestors (`build_junction_tree(net,
requisite)`).  Every other variable is barren, its CPT sums out to one, and
leaving it out changes no answer; `--stats` counts the messages of the
smaller tree.  `sens-param` reports the posterior of every variable, so it
compiles the whole network, as `stats` and `dump-jtree` do, but for its
evidence (`build_junction_tree(net, evidence=evidence)`): the edges out of
each variable a finding fixes at one state are cut, and `--stats` counts the
messages of that tree.  It reads no family, so no read crosses a cut edge.
`check` runs its engine on the requisite variables and its oracle on the
whole network.

`sens-out` reads the lines of every CPT entry of the relevant variables as
arrays (`oneway.one_output_lines`) and builds no `ParameterRef` per row.
`sens-out` and `sens-param` share one row formatter (`_report`): a row's six
numbers are one `%` format, and its label cells are CSV text, quoted as
`csv.writer` quotes them and built once per (variable, parent
configuration).

Exit codes: 0 success, 1 usage, 2 invalid network file, 3 impossible
evidence, 4 analysis error (degenerate or dependent parameters,
rank deficiency, `check --net` past the oracle's enumeration limit),
5 report write failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .errors import BnsenseError, ImpossibleEvidenceError, NetworkFormatError
from .functions import at_point
from .jtree import build_junction_tree
from .network import Evidence, Network, ParameterRef, QueryRef, format_parameter, load_network
from .nway import general_nway, same_clique_nway
from .oneway import (VALUE_ONE, all_outputs_one_param, entry_parameter,
                     one_output_all_params_m1, one_output_lines, relevant_parameters,
                     relevant_variables)
from .oracle import (MAX_STATE_BITS, brute_evidence_probability, fit_linear_sf,
                     random_evidence, random_network)
from .propagation import infer_marginal, propagate_full

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NETWORK = 2
EXIT_EVIDENCE = 3
EXIT_ANALYSIS = 4
EXIT_REPORT = 5

REAL = "%.9e"          # 10 significant digits, scientific
POSTERIOR = "%.10f"
CROSS_CHECK_TOLERANCE = 1e-9


class _UsageError(Exception):
    pass


class _ReportError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit status 2 for usage; this CLI uses 1."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# argument grammar


@functools.cache
def _parser() -> _Parser:
    """The argument grammar, built on first use and shared by every later call."""
    top = _Parser(prog="bnsense",
                  description="Exact inference and parameter sensitivity "
                              "analysis for discrete Bayesian networks.")
    sub = top.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def cmd(name, help_text, net_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--net", required=net_required,
                       help="network JSON file")
        return p

    def analysis_options(p, evidence=True):
        if evidence:
            p.add_argument("--evidence", default="",
                           help='findings, e.g. "B=yes,C!=no" '
                                "(= hard, != negative; repeats multiply)")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--stats", action="store_true",
                       help="print propagation counters to stderr")

    p = cmd("infer", "posterior marginals under evidence")
    p.add_argument("--target", required=True,
                   help='variable ("A") or single state ("A=yes")')
    analysis_options(p)

    p = cmd("sens-out", "one posterior vs. every relevant parameter")
    p.add_argument("--target", required=True,
                   help='posterior of interest, e.g. "A=yes"')
    p.add_argument("--method", choices=["1", "2", "both"], default="1",
                   help="local extraction (1), two-point fit (2), "
                        "or both with cross-check")
    analysis_options(p)

    p = cmd("sens-param", "every posterior vs. one parameter")
    p.add_argument("--param", required=True,
                   help='parameter, e.g. "B|A=yes:yes" or "A:yes"')
    analysis_options(p)

    p = cmd("sens-n", "joint analysis of n parameters")
    p.add_argument("--params", required=True,
                   help='comma-separated parameters, e.g. '
                        '"B|A=yes:yes,B|A=no:yes"')
    analysis_options(p)

    p = cmd("check", "randomized comparison against brute-force enumeration",
            net_required=False)
    p.add_argument("--trials", type=int, default=50,
                   help="number of randomized trials (default 50)")

    p = cmd("stats", "propagation counters for one full propagation")
    p.add_argument("--evidence", default="")

    p = cmd("dump-jtree", "compiled junction tree as JSON")
    p.add_argument("--out", help="write the report to this file")

    return top


# ---------------------------------------------------------------------------
# input parsing


def _load_net(path: str) -> Network:
    """The network in the file at `path`, even one whose name begins with "{"."""
    return load_network(Path(path))


def _variable(net: Network, name: str) -> int:
    try:
        return net.variable_id(name)
    except NetworkFormatError:
        raise _UsageError(f"unknown variable {name!r}") from None


def _state(net: Network, var: int, label: str) -> int:
    try:
        return net.state_index(var, label)
    except NetworkFormatError:
        raise _UsageError(
            f"variable {net.variables[var].name!r} has no state {label!r}") from None


def _evidence(net: Network, text: str) -> Evidence:
    """Grammar: comma-separated findings, `V=s` hard, `V!=s` negative.

    Repeated findings on one variable multiply elementwise, so contradictory
    findings collapse to an all-zero vector and surface as impossible
    evidence.
    """
    vectors: dict[int, np.ndarray] = {}
    for token in filter(None, (t.strip() for t in text.split(","))):
        if "!=" in token:
            name, _, label = token.partition("!=")
        elif "=" in token:
            name, _, label = token.partition("=")
        else:
            raise _UsageError(f"finding {token!r} is not VAR=state or VAR!=state")
        var = _variable(net, name.strip())
        vec = np.zeros(net.arity(var))
        vec[_state(net, var, label.strip())] = 1.0
        if "!=" in token:
            vec = 1.0 - vec
        vectors[var] = vectors[var] * vec if var in vectors else vec
    ev = Evidence(net)
    for var in sorted(vectors):
        ev.set_likelihood(var, vectors[var])
    return ev


def _parse_target(net: Network, text: str) -> tuple[int, int | None]:
    if "=" in text:
        name, _, label = text.partition("=")
        var = _variable(net, name.strip())
        return var, _state(net, var, label.strip())
    return _variable(net, text.strip()), None


def _split_params(text: str) -> list[str]:
    """Split a parameter list on commas, keeping multi-parent configurations
    (which may themselves contain commas) glued to their parameter: a
    parameter is complete once its `:state` suffix has been seen.  Empty
    pieces between parameters are skipped, as `--evidence` skips them."""
    out: list[str] = []
    buffer: list[str] = []
    for piece in text.split(","):
        if not buffer and not piece.strip():
            continue
        buffer.append(piece)
        if ":" in piece:
            out.append(",".join(buffer).strip())
            buffer = []
    if buffer:
        raise _UsageError(
            f"parameter {','.join(buffer)!r} is missing its ':state' suffix")
    return out


def _parse_param(net: Network, text: str) -> ParameterRef:
    """Grammar: `VAR|P1=s1;P2=s2:state` (configuration entries may use `;`
    or `,`), or `VAR:state` for a root variable."""
    head, sep, state_label = text.rpartition(":")
    if not sep:
        raise _UsageError(f"parameter {text!r} is missing its ':state' suffix")
    name, _, config_text = head.partition("|")
    var = _variable(net, name.strip())
    assigned: dict[int, int] = {}
    if config_text:
        for entry in filter(None, (e.strip() for e in re.split("[;,]", config_text))):
            pname, eq, plabel = entry.partition("=")
            if not eq:
                raise _UsageError(f"configuration entry {entry!r} is not PARENT=state")
            parent = _variable(net, pname.strip())
            if parent in assigned:
                raise _UsageError(f"configuration assigns parent {pname.strip()!r} twice")
            assigned[parent] = _state(net, parent, plabel.strip())
    parents = net.parents[var]
    if set(assigned) != set(parents):
        want = ", ".join(net.variables[p].name for p in parents) or "none"
        raise _UsageError(
            f"parameter for {net.variables[var].name!r} must assign exactly "
            f"its parents ({want})")
    config = tuple(assigned[p] for p in parents)
    return net.parameter(var, _state(net, var, state_label.strip()), config)


# ---------------------------------------------------------------------------
# report emission


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ReportError(f"cannot write report to {out_path!r}: {exc}") from exc


def _stats_line(counts: tuple[int, int, int]) -> str:
    """(inward, outward, messages) as the `stats` report line."""
    return "inward={} outward={} messages={}".format(*counts)


def _print_stats(args, counts: tuple[int, int, int]) -> None:
    if getattr(args, "stats", False):
        print(_stats_line(counts), file=sys.stderr)


# the characters that make csv.writer (QUOTE_MINIMAL, "\n" line ends) quote a
# cell in a row of several cells; tests hold `_quoted` to csv.writer
_CSV_SPECIAL = re.compile('[,"\n]')


def _quoted(cell: str) -> str:
    """The cell as `csv.writer` writes it in a row of several cells."""
    return '"%s"' % cell.replace('"', '""') if _CSV_SPECIAL.search(cell) else cell


def _report(header: list[str], labels, coefficients: np.ndarray, x0) -> str:
    """A CSV report: the header, then per row of (alpha, beta, gamma, delta)
    coefficients its label cells (CSV text), the four, and the function's
    value and derivative at x0 (one, or one per row; `at_point`), each REAL."""
    values = np.column_stack([coefficients, *at_point(coefficients, x0)]).tolist()
    row = "%s," + ",".join([REAL] * 6) + "\n"
    return ",".join(header) + "\n" + "".join([row % (label, *cells)
                                               for label, cells in zip(labels, values)])


def _parameter_labels(net: Network, variables) -> list[str]:
    """The parameter, variable, state and parent_config cells of every CPT
    entry of the variables, in CPT order, as CSV text: built once per
    (variable, parent configuration)."""
    labels: list[str] = []
    for var in variables:
        name, states = net.variables[var].name, net.variables[var].states
        cells = [f",{_quoted(name)},{_quoted(state)}," for state in states]
        pairs = ([f"{net.variables[p].name}={s}" for s in net.variables[p].states]
                 for p in net.parents[var])
        for config in map(";".join, itertools.product(*pairs)):
            head, tail = (f"{name}|{config}:" if config else f"{name}:"), _quoted(config)
            labels += [_quoted(head + state) + cell + tail for state, cell in zip(states, cells)]
    return labels


# ---------------------------------------------------------------------------
# subcommands


def _run_infer(args) -> int:
    net = _load_net(args.net)
    evidence = _evidence(net, args.evidence)
    var, state = _parse_target(net, args.target)
    tree = build_junction_tree(net, {var, *evidence.variables()})
    dist = infer_marginal(tree, var, evidence)
    dist = dist / dist.sum()
    states = range(len(dist)) if state is None else [state]
    name = net.variables[var].name
    lines = [f"{name} {net.variables[var].states[s]} {POSTERIOR % dist[s]}"
             for s in states]
    _emit("".join(line + "\n" for line in lines), getattr(args, "out", None))
    _print_stats(args, tree.stats.snapshot())
    return EXIT_OK


SENS_OUT_HEADER = ["parameter", "variable", "state", "parent_config",
                   "alpha", "beta", "gamma", "delta", "y_at_x0", "dy_dx_at_x0"]


def _run_sens_out(args) -> int:
    net = _load_net(args.net)
    evidence = _evidence(net, args.evidence)
    var, state = _parse_target(net, args.target)
    if state is None:
        raise _UsageError("sens-out needs a single output state, e.g. --target A=yes")
    query = QueryRef(var, state)
    variables = relevant_variables(net, query, evidence)

    tree = build_junction_tree(net, {var, *evidence.variables()})
    coefficients, x0 = one_output_lines(tree, query, evidence, variables,
                                        two_point=args.method == "2")
    counts = tree.stats.snapshot()
    kept = x0 < 1.0
    if args.method == "both":   # m2 resets the tree; --stats reports m1's passes
        other, _ = one_output_lines(tree, query, evidence, variables, two_point=True)
        gaps = np.abs(coefficients[kept] - other[kept]).max(axis=1)
        bad = np.flatnonzero(gaps > CROSS_CHECK_TOLERANCE)
        if bad.size:
            ref = entry_parameter(net, variables, int(np.flatnonzero(kept)[bad[0]]))
            raise BnsenseError(f"methods disagree on {format_parameter(net, ref)}: "
                               f"max coefficient gap {float(gaps[bad[0]]):.3e}")
    for flat in np.flatnonzero(~kept).tolist():
        ref = entry_parameter(net, variables, flat)
        print(f"skipped {format_parameter(net, ref)}: {VALUE_ONE}", file=sys.stderr)

    labels = itertools.compress(_parameter_labels(net, variables), kept.tolist())
    _emit(_report(SENS_OUT_HEADER, labels, coefficients[kept], x0[kept]), args.out)
    _print_stats(args, counts)
    return EXIT_OK


SENS_PARAM_HEADER = ["variable", "state", "alpha", "beta", "gamma", "delta",
                     "y_at_x0", "dy_dx_at_x0"]


def _run_sens_param(args) -> int:
    net = _load_net(args.net)
    evidence = _evidence(net, args.evidence)
    refs = [_parse_param(net, text) for text in _split_params(args.param)]
    if len(refs) != 1:
        raise _UsageError("sens-param analyzes exactly one parameter")
    ref = refs[0]
    tree = build_junction_tree(net, evidence=evidence)
    analysis = all_outputs_one_param(tree, ref, evidence)
    labels = [f"{_quoted(var.name)},{_quoted(state)}"
              for var in net.variables for state in var.states]
    _emit(_report(SENS_PARAM_HEADER, labels, analysis.coefficients, net.parameter_value(ref)),
          args.out)
    _print_stats(args, tree.stats.snapshot())
    return EXIT_OK


def _subset_key(mask: int) -> str:
    return "{" + ",".join(str(i) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def _run_sens_n(args) -> int:
    net = _load_net(args.net)
    evidence = _evidence(net, args.evidence)
    refs = [_parse_param(net, text) for text in _split_params(args.params)]
    if not refs:
        raise _UsageError("sens-n needs at least one parameter")

    tree = build_junction_tree(net, {*(ref.variable for ref in refs), *evidence.variables()})
    needed = sorted({v for ref in refs for v in net.family(ref.variable)})
    if tree.clique_containing(tuple(needed)) is not None:
        mf = same_clique_nway(tree, refs, evidence)
        counts = tree.stats.snapshot()
    else:
        result = general_nway(tree, refs, evidence)
        mf, counts = result.function, result.stats
    _print_stats(args, counts)

    ordered = sorted(mf.coefficients,
                     key=lambda m: (bin(m).count("1"),
                                    tuple(i for i in range(m.bit_length()) if m >> i & 1)))
    doc = {"params": [format_parameter(net, ref) for ref in refs],
           "coefficients": {_subset_key(m): mf.coefficients[m] for m in ordered}}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def _run_check(args) -> int:
    seed = os.environ.get("BN_SENSE_SEED", "0")
    if not re.fullmatch("[0-9]+", seed):
        raise _UsageError("BN_SENSE_SEED must be a nonnegative integer")
    rng = np.random.default_rng(int(seed))
    fixed = _load_net(args.net) if args.net else None
    if args.trials < 1:
        raise _UsageError("--trials must be positive")
    if fixed is not None and fixed.joint_state_bits() > MAX_STATE_BITS:
        raise BnsenseError(
            f"check enumerates the joint state space, which the oracle limits to "
            f"2^{MAX_STATE_BITS:g} states; this network has 2^{fixed.joint_state_bits():.1f}")

    worst = 0.0
    for _ in range(args.trials):
        net = fixed if fixed is not None else random_network(rng)
        evidence = None
        for _attempt in range(50):
            candidate = random_evidence(rng, net)
            if brute_evidence_probability(net, candidate) > 1e-12:
                evidence = candidate
                break
        if evidence is None:
            evidence = Evidence(net)
        var = int(rng.integers(net.n_variables))
        query = QueryRef(var, int(rng.integers(net.arity(var))))
        # the engine compiles the requisite network, as sens-out does; the
        # oracle enumerates the whole one
        params = relevant_parameters(net, query, evidence)
        analysis = one_output_all_params_m1(
            build_junction_tree(net, {var, *evidence.variables()}), query, evidence, params)
        for ref, sf in analysis.functions.items():
            expected = fit_linear_sf(net, ref, query.variable, query.state, evidence)
            gap = np.abs(np.array(sf.coefficients()) - np.array(expected.coefficients()))
            worst = max(worst, float(gap.max()))

    print(f"max deviation {worst:.3e}")
    return EXIT_OK if worst <= CROSS_CHECK_TOLERANCE else EXIT_ANALYSIS


def _run_stats(args) -> int:
    net = _load_net(args.net)
    evidence = _evidence(net, args.evidence)
    tree = build_junction_tree(net)
    propagate_full(tree, evidence)
    print(_stats_line(tree.stats.snapshot()))
    return EXIT_OK


def _run_dump_jtree(args) -> int:
    net = _load_net(args.net)
    tree = build_junction_tree(net)
    _emit(tree.to_json() + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "infer": _run_infer,
    "sens-out": _run_sens_out,
    "sens-param": _run_sens_param,
    "sens-n": _run_sens_n,
    "check": _run_check,
    "stats": _run_stats,
    "dump-jtree": _run_dump_jtree,
}


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        # argparse stores [] for `--option=--`
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise _UsageError(f"argument --{name}: expected one argument")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NetworkFormatError as exc:
        print(f"invalid network: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except ImpossibleEvidenceError as exc:
        print(f"impossible evidence: {exc}", file=sys.stderr)
        return EXIT_EVIDENCE
    except _ReportError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_REPORT
    except BnsenseError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
