"""Layer spans from outside the package.

The tracer wraps the package's public functions and the methods of Potential
and JunctionTree with timing wrappers, installed by rebinding attributes: a
function is rebound in every bnsense module that holds it (so both
`propagation.distribute` and the copy `oneway` imported are traced), a method
on its class.  Nothing in src/ changes.

A span is (name, start, end, parent span, call id, self time).  Spans stay
in memory and are written out once, at the end of a run.  A span's self time
is its duration minus the durations of its child spans; a layer's self time
is the sum over its spans.  The layer of a span is the module that defines
the function: network, potentials, jtree, propagation, oneway, nway, cli.

Hooks on some wrappers also record deterministic work counters (builds,
table entries, relevant parameters, lines, extra propagations), and at the
end of each call the tracer reads the propagation counters and the shape of
every junction tree the call built.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("network", "potentials", "jtree", "propagation", "oneway", "nway", "cli")


def _loaded(tracer, args, net):
    tracer.add("network.variables", net.n_variables)
    tracer.add("network.cpt_entries", sum(t.size for t in net.cpts))


def _built(tracer, args, tree):
    tracer.trees.append(tree)


def _produced(tracer, args, result):
    size = result.table.size
    tracer.add("potentials.bytes_computed", result.table.nbytes)
    if size > tracer.current["potentials.peak_entries"]:
        tracer.current["potentials.peak_entries"] = size


def _multiplied(tracer, args, result):
    tracer.add("potentials.multiply_entries", result.table.size)
    _produced(tracer, args, result)


def _marginalized(tracer, args, result):
    tracer.add("potentials.marginalize_entries", args[0].table.size)
    _produced(tracer, args, result)


def _screened(tracer, args, params):
    net = args[0]
    tracer.add("oneway.relevant_parameters", len(params))
    tracer.add("oneway.all_parameters", sum(t.size for t in net.cpts))


def _lines(tracer, args, analysis):
    tracer.add("oneway.lines", len(analysis.functions))


def _param_lines(tracer, args, analysis):
    tracer.add("oneway.lines", sum(len(fs) for fs in analysis.functions.values()))


def _solved(tracer, args, result):
    tracer.add("nway.extra_propagations", result.extra_propagations)
    tracer.add("nway.budget", result.budget)


# (defining module, function, hook)
FUNCTIONS = (
    ("network", "load_network", _loaded),
    ("jtree", "build_junction_tree", _built),
    ("jtree", "moralize", None),
    ("jtree", "triangulate", None),
    ("propagation", "propagate_full", None),
    ("propagation", "enter_finding", None),
    ("propagation", "collect", None),
    ("propagation", "distribute", None),
    ("propagation", "marginal", None),
    ("propagation", "retract_finding", None),
    ("oneway", "relevant_parameters", _screened),
    ("oneway", "one_output_all_params_m1", _lines),
    ("oneway", "one_output_all_params_m2", _lines),
    ("oneway", "all_outputs_one_param", _param_lines),
    ("nway", "same_clique_nway", None),
    ("nway", "general_nway", _solved),
)
# (defining module, class, method, hook)
METHODS = (
    ("jtree", "JunctionTree", "charge", None),
    ("jtree", "JunctionTree", "local_product", None),
    ("jtree", "JunctionTree", "clique_potential", None),
    ("jtree", "JunctionTree", "sepset_potential", None),
    ("jtree", "JunctionTree", "set_parameter", None),
    ("jtree", "JunctionTree", "inject_finding", None),
    ("potentials", "Potential", "ones", _produced),
    ("potentials", "Potential", "from_cpt", _produced),
    ("potentials", "Potential", "copy", _produced),
    ("potentials", "Potential", "multiply", _multiplied),
    ("potentials", "Potential", "multiply_vector", _produced),
    ("potentials", "Potential", "divide", _produced),
    ("potentials", "Potential", "marginalize", _marginalized),
)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, call id, self)
        self._stack: list = []         # [span index, summed child durations]
        self.call_id = -1
        self.call_pass: list[int] = []  # call id -> pass index
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.current = Counter()
        self.trees: list = []
        self.shapes: dict[int, dict[int, tuple]] = defaultdict(dict)  # pass -> net -> shape
        self._net = 0
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[idx] = (name, start, end, parent, tracer.call_id, end - start - frame[1])
            return result

        return traced

    def prepare(self) -> None:
        """Build the wrappers and find every attribute they replace."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "bnsense" or n.startswith("bnsense.")]
        for mod, fn_name, hook in FUNCTIONS:
            original = getattr(sys.modules[f"bnsense.{mod}"], fn_name)
            wrapped = self.wrap(f"{mod}.{fn_name}", original, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original, wrapped))
        for mod, cls_name, meth, hook in METHODS:
            cls = getattr(sys.modules[f"bnsense.{mod}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(f"{mod}.{meth}", raw.__func__, hook))
            else:
                wrapped = self.wrap(f"{mod}.{meth}", raw, hook)
            self._patches.append((cls, meth, raw, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- calls ---------------------------------------------------------------

    def add(self, key: str, value) -> None:
        self.current[key] += value

    def call(self, fn, pass_index: int, net: int, *args):
        """Run fn(*args) as one traced call under a cli.main span."""
        self.call_id += 1
        self.call_pass.append(pass_index)
        self.current = self.counts[pass_index]
        self.trees = []
        self._net = net
        self.install()
        try:
            return self.wrap("cli.main", fn)(*args)
        finally:
            self.uninstall()
            self._end_call(pass_index)

    def _end_call(self, pass_index: int) -> None:
        for tree in self.trees:
            self.add("jtree.builds", 1)
            s = tree.stats
            self.add("propagation.inward", s.inward_propagations)
            self.add("propagation.outward", s.outward_propagations)
            self.add("propagation.messages", s.messages_passed)
        if self.trees and self._net not in self.shapes[pass_index]:
            tree = self.trees[0]
            sizes = [math.prod(tree.net.arity(v) for v in c.members) for c in tree.cliques]
            self.shapes[pass_index][self._net] = (
                len(tree.cliques), max(len(c.members) for c in tree.cliques) - 1,
                max(sizes), sum(sizes))

    # -- results ---------------------------------------------------------------

    def counters(self, pass_index: int) -> dict[str, int]:
        """Deterministic counts of one pass: they repeat exactly for the same inputs."""
        out = {k: int(v) for k, v in self.counts[pass_index].items()}
        calls = Counter(s[0] for s in self.spans if self.call_pass[s[4]] == pass_index)
        out["jtree.charge_calls"] = calls["jtree.charge"]
        out["jtree.local_products"] = calls["jtree.local_product"]
        out["potentials.multiply_calls"] = calls["potentials.multiply"]
        out["potentials.marginalize_calls"] = calls["potentials.marginalize"]
        out["propagation.marginal_calls"] = calls["propagation.marginal"]
        out["nway.same_clique_calls"] = calls["nway.same_clique_nway"]
        out["nway.general_calls"] = calls["nway.general_nway"]
        shapes = list(self.shapes[pass_index].values())
        out["jtree.cliques"] = sum(s[0] for s in shapes)
        out["jtree.treewidth"] = max((s[1] for s in shapes), default=0)
        out["jtree.max_clique_entries"] = max((s[2] for s in shapes), default=0)
        out["jtree.total_clique_entries"] = sum(s[3] for s in shapes)
        return dict(sorted(out.items()))

    def pass_times(self, pass_index: int) -> tuple[Counter, Counter, Counter]:
        """(inclusive seconds by span name, self seconds by span name,
        self seconds by layer) for one pass."""
        inclusive, own, layer = Counter(), Counter(), Counter()
        for name, start, end, _, call, self_s in self.spans:
            if self.call_pass[call] != pass_index:
                continue
            inclusive[name] += end - start
            own[name] += self_s
            layer[name.split(".", 1)[0]] += self_s
        return inclusive, own, layer

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "call", "self"]})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
