"""bnsense benchmark: one workload per process, closed loop, one client.

    python3 benchmarks/run.py --workload small-corpus --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --seed 1          # all three workloads, one process each

Run from the root of a checkout; the package is imported from ./src.  The
run generates its inputs from the seed (benchmarks/workloads.py), times the
set-up, then runs the workload's pass of CLI calls, `bnsense.cli.main(argv)`
in-process with --out pointing at a scratch file, one call after another,
whole passes until --seconds have elapsed.  After the timed loop every
report of the first pass is checked against an independent reference
(benchmarks/checks.py) and every later report must repeat it byte for byte.

--trace 0 prints the end-to-end metrics; --trace 1 runs every call twice,
untraced then traced (benchmarks/tracer.py), for at least two passes, and
prints the per-layer metrics and the deterministic work counters of pass 0
with their sha256.  A traced run is incorrect unless every pass repeats
pass 0's counters; to hold two runs or two commits to each other, compare
their counters_sha256 lines.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: the box has two cores, and the benchmark is one client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
WORK_DIR = Path(".bench_work")


def _tail(values):
    """(percentile, value) of the highest percentile with 10 samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


# ---------------------------------------------------------------------------
# set-up


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == "bnsense" or n.startswith("bnsense.")]:
        del sys.modules[name]


def set_up(net_paths: list[str]):
    """Import the package and load and compile every network, from a fresh
    import each time, at least SETUP_REPEATS times and for at least
    SETUP_SECONDS; returns (bnsense.cli, seconds per repeat)."""
    seconds = []
    while len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_SECONDS:
        _purge_package()
        start = perf_counter()
        bnsense = importlib.import_module("bnsense")
        cli = importlib.import_module("bnsense.cli")
        for path in net_paths:
            bnsense.build_junction_tree(bnsense.load_network(path))
        seconds.append(perf_counter() - start)
    return cli, seconds


# ---------------------------------------------------------------------------
# the timed loop


class Loop:
    """Runs whole passes of the workload's calls and keeps what the checks need."""

    def __init__(self, wl, argvs, out_dir: Path, tracer: Tracer | None):
        self.wl, self.argvs, self.out_dir, self.tracer = wl, argvs, out_dir, tracer
        self.latency = {kind: [] for kind in workloads.KINDS}
        self.pass_seconds: list[float] = []
        self.first_reports: list[str | None] = []   # pass 0, one per call
        self.attempts: list[tuple[int, bool]] = []  # (call index, exit 0 and report as in pass 0)
        self.paired = [0.0, 0.0]                    # summed untraced, traced seconds
        self._errors_shown = 0

    def _invoke(self, main, index: int, argv, traced: bool, pass_index: int):
        out = self.out_dir / f"{index}.out"
        if out.exists():
            out.unlink()
        start = perf_counter()
        try:
            argv = argv + ["--out", str(out)]
            if traced:
                code = self.tracer.call(main, pass_index, self.wl.calls[index].net, argv)
            else:
                code = main(argv)
        except Exception:  # a crash is a failed call; the loop goes on
            code = None
            if self._errors_shown < 3:
                traceback.print_exc(file=sys.stderr)
                self._errors_shown += 1
        seconds = perf_counter() - start
        report = out.read_text(encoding="utf-8") if out.exists() else None
        return code, seconds, report

    def _record(self, index: int, code, report, pass_index: int) -> None:
        if pass_index == 0 and len(self.first_reports) == index:
            self.first_reports.append(report if code == 0 else None)
        self.attempts.append((index, code == 0 and report == self.first_reports[index]))

    def run(self, main, seconds: float) -> None:
        # a traced run needs a second pass to check that the counters repeat
        min_passes = 1 if self.tracer is None else 2
        start = perf_counter()
        pass_index = 0
        while pass_index < min_passes or perf_counter() - start < seconds:
            pass_start = perf_counter()
            for index, argv in enumerate(self.argvs):
                code, took, report = self._invoke(main, index, argv, False, pass_index)
                self.latency[self.wl.calls[index].kind].append(took)
                self._record(index, code, report, pass_index)
                if self.tracer is not None:
                    code_t, took_t, report_t = self._invoke(main, index, argv, True, pass_index)
                    self.paired[0] += took
                    self.paired[1] += took_t
                    self._record(index, code_t, report_t, pass_index)
            self.pass_seconds.append(perf_counter() - pass_start)
            pass_index += 1


# ---------------------------------------------------------------------------
# checks


def check_first_pass(bnsense, wl, reports, seed: int) -> dict[int, list[str]]:
    """Problems per call index, for the calls of pass 0."""
    rng = np.random.default_rng([seed, 1])
    problems: dict[int, list[str]] = {}
    for first in range(0, len(wl.calls), 5):
        calls = wl.calls[first:first + 5]
        model = wl.models[calls[0].net]
        evidence = calls[0].evidence
        if wl.name == "small-corpus":
            ref = checks.OracleReference(bnsense, model, evidence)
        elif wl.name == "long-chain":
            ref = checks.ChainReference(model, evidence, rng)
        else:
            ref = checks.EliminationReference(model, evidence, rng)
        texts = reports[first:first + 5]
        found = checks.CaseChecker(model, ref, rng).check(
            calls, [t if t is not None else "" for t in texts])
        for offset, (text, issues) in enumerate(zip(texts, found)):
            if text is None:
                issues = ["call exited non-zero or wrote no report"]
            if issues:
                problems[first + offset] = issues
    return problems


# ---------------------------------------------------------------------------
# metrics


def end_to_end(loop: Loop, setup_seconds, rss_mb: float):
    metrics = {"setup_s": (statistics.median(setup_seconds), "s", len(setup_seconds))}
    for kind in workloads.KINDS:
        samples = loop.latency[kind]
        metrics[f"{kind}_s"] = (statistics.median(samples), "s", len(samples))
    metrics["wall_s"] = (statistics.median(loop.pass_seconds), "s", len(loop.pass_seconds))
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
    tails = {f"{kind}_tail_s": (_tail(loop.latency[kind]), len(loop.latency[kind]))
             for kind in workloads.KINDS}
    return metrics, tails


# Per-layer metric -> (span names, inclusive or self time).  The two n-way
# routes share their metrics: each single-network workload takes only one
# route, and a per-route time would read 0 on every run of the other.
TIMED_SPANS = {
    "network.load_s": (("network.load_network",), "inclusive"),
    "jtree.build_s": (("jtree.build_junction_tree",), "inclusive"),
    "jtree.moralize_s": (("jtree.moralize",), "inclusive"),
    "jtree.triangulate_s": (("jtree.triangulate",), "inclusive"),
    "jtree.build_self_s": (("jtree.build_junction_tree",), "self"),
    "jtree.charge_s": (("jtree.charge",), "inclusive"),
    "jtree.local_product_s": (("jtree.local_product",), "inclusive"),
    "potentials.multiply_s": (("potentials.multiply",), "inclusive"),
    "potentials.marginalize_s": (("potentials.marginalize",), "inclusive"),
    "propagation.collect_s": (("propagation.collect",), "inclusive"),
    "propagation.distribute_s": (("propagation.distribute",), "inclusive"),
    "propagation.marginal_s": (("propagation.marginal",), "inclusive"),
    "oneway.relevance_s": (("oneway.relevant_parameters",), "inclusive"),
    "oneway.m1_self_s": (("oneway.one_output_all_params_m1",), "self"),
    "oneway.m2_self_s": (("oneway.one_output_all_params_m2",), "self"),
    "oneway.param_self_s": (("oneway.all_outputs_one_param",), "self"),
    "nway.solve_s": (("nway.same_clique_nway", "nway.general_nway"), "inclusive"),
    "nway.solve_self_s": (("nway.same_clique_nway", "nway.general_nway"), "self"),
}
COUNTED = {   # per-layer metric -> unit, read from the pass-0 counters
    "cli.report_bytes": "B",
    "network.variables": "count",
    "network.cpt_entries": "count",
    "jtree.builds": "count",
    "jtree.cliques": "count",
    "jtree.treewidth": "count",
    "jtree.max_clique_entries": "count",
    "jtree.total_clique_entries": "count",
    "jtree.charge_calls": "count",
    "jtree.local_products": "count",
    "potentials.multiply_calls": "count",
    "potentials.multiply_entries": "count",
    "potentials.marginalize_calls": "count",
    "potentials.marginalize_entries": "count",
    "potentials.peak_entries": "count",
    "potentials.bytes_computed": "B",
    "propagation.inward": "count",
    "propagation.outward": "count",
    "propagation.messages": "count",
    "propagation.marginal_calls": "count",
    "oneway.lines": "count",
    "nway.same_clique_calls": "count",
    "nway.general_calls": "count",
    "nway.extra_propagations": "count",
    "nway.budget": "count",
}


def per_layer(loop: Loop, tracer: Tracer):
    """Times are seconds per pass (median over passes); counts are pass 0's."""
    passes = range(len(loop.pass_seconds))
    timed = [tracer.pass_times(p) for p in passes]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median([t[2][layer] for t in timed]), "s")
    for name, (spans, how) in TIMED_SPANS.items():
        column = 0 if how == "inclusive" else 1
        per_pass = [sum(t[column][span] for span in spans) for t in timed]
        metrics[name] = (statistics.median(per_pass), "s")
    counts = tracer.counters(0)
    counts["cli.report_bytes"] = sum(len(r.encode("utf-8")) for r in loop.first_reports if r)
    for name, unit in COUNTED.items():
        metrics[name] = (counts.get(name, 0), unit)
    relevant = counts.get("oneway.relevant_parameters", 0)
    screened = max(counts.get("oneway.all_parameters", 0), 1)
    metrics["oneway.relevant_ratio"] = (relevant / screened, "ratio")
    untraced, traced = loop.paired
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    repeat = all(tracer.counters(p) == tracer.counters(0) for p in passes)
    return dict(sorted(metrics.items())), counts, repeat


# ---------------------------------------------------------------------------
# entry point


def _inputs_digest(docs: list[str], argvs_template) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(doc.encode("utf-8"))
        h.update(b"\0")
    for argv in argvs_template:
        h.update("\x1f".join(argv).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = workloads.GENERATORS[name](seed)
    run_dir = WORK_DIR / f"run-{name}-{seed}-{os.getpid()}"
    try:
        (run_dir / "out").mkdir(parents=True, exist_ok=True)
        docs = [json.dumps(m.to_doc()) for m in wl.models]
        paths = []
        for i, doc in enumerate(docs):
            path = run_dir / f"net{i}.json"
            path.write_text(doc, encoding="utf-8")
            paths.append(str(path))
        argvs = [workloads.argv(c, wl.models[c.net], paths[c.net]) for c in wl.calls]
        template = [workloads.argv(c, wl.models[c.net], f"NET{c.net}") for c in wl.calls]
        print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
        print(f"inputs_sha256 {_inputs_digest(docs, template)} "
              f"({len(docs)} networks, {len(argvs)} calls per pass)")

        cli, setup_seconds = set_up(paths)
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.prepare()
        loop = Loop(wl, argvs, run_dir / "out", tracer)
        loop.run(cli.main, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = check_first_pass(sys.modules["bnsense"], wl, loop.first_reports, seed)
        attempted = len(loop.attempts)
        failed = sum(1 for index, ok in loop.attempts if not ok or index in problems)
        for index in sorted(problems)[:5]:
            print(f"FAILED call {index} ({wl.calls[index].kind}): {problems[index][0]}",
                  file=sys.stderr)
        print(f"failed {failed} of {attempted} calls ({100.0 * failed / attempted:.3f}%)"
              f" over {len(loop.pass_seconds)} passes")

        correct = failed == 0
        if not trace:
            metrics, tails = end_to_end(loop, setup_seconds, rss_mb)
            for metric, (value, unit, n) in metrics.items():
                print(f"{metric} {value:.6g} {unit} (median of {n})")
            for metric, (tail, n) in tails.items():
                if tail is not None:
                    print(f"{metric} {tail[1]:.6g} s (p{tail[0]:.2f} of {n}, 10 beyond)")
            result = {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()}
        else:
            metrics, counts, repeat = per_layer(loop, tracer)
            for metric, (value, unit) in metrics.items():
                print(f"{metric} {value:.6g} {unit}")
            digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
            print(f"counters_sha256 {digest}")
            print(f"counters {json.dumps(counts, sort_keys=True)}")
            print("determinism: counters " + ("repeat" if repeat else "DIFFER")
                  + f" across {len(loop.pass_seconds)} passes")
            correct = correct and repeat
            spans = WORK_DIR / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans)
            print(f"spans written to {spans}")
            result = {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": result}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.GENERATORS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "bnsense" / "__init__.py").is_file():
        print("run from the root of a bnsense checkout: no src/bnsense here", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.GENERATORS]
        return max(codes)
    sys.path.insert(0, str(src))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
