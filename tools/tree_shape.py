"""Shape of the junction tree each benchmark call compiles, and the work it does there.

    python3 tools/tree_shape.py --seeds 1 2 3

Run from the root of a checkout; the package is imported from ./src.  For
each seed and each workload of benchmarks/workloads.py, the script writes
the workload's networks to a temporary directory and runs every call of one
pass in process through `bnsense.cli.main`, as tools/report_digest.py does,
with `bnsense.cli.build_junction_tree` wrapped so that each tree a call
compiles is kept.  Per workload and call kind it prints one line: the calls,
the trees they compiled, and over those trees the cliques, the total clique
entries, the largest clique's entries, and the `entries_touched` and
messages of the calls' propagations.  Every figure is summed over the calls
of the kind but the largest clique, which is their maximum.  Nothing is
written under benchmarks/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
FIELDS = ("calls", "trees", "cliques", "entries", "largest", "touched", "messages")


def shapes(cli, workloads, name: str, seed: int) -> dict[str, dict[str, int]]:
    """{call kind: FIELDS} for one pass of one workload."""
    wl = workloads.GENERATORS[name](seed)
    built = []
    compile_tree = cli.build_junction_tree

    def keeping(*args, **kwargs):
        built.append(compile_tree(*args, **kwargs))
        return built[-1]

    out: dict[str, dict[str, int]] = {}
    cli.build_junction_tree = keeping
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, model in enumerate(wl.models):
                paths.append(str(Path(tmp) / f"net{i}.json"))
                Path(paths[-1]).write_text(json.dumps(model.to_doc()), encoding="utf-8")
            for call in wl.calls:
                built.clear()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(workloads.argv(call, wl.models[call.net], paths[call.net]))
                row = out.setdefault(call.kind, dict.fromkeys(FIELDS, 0))
                row["calls"] += 1
                for tree in built:
                    row["trees"] += 1
                    row["cliques"] += len(tree.cliques)
                    row["entries"] += sum(tree._sizes)
                    row["largest"] = max(row["largest"], max(tree._sizes))
                    row["touched"] += tree.stats.entries_touched
                    row["messages"] += tree.stats.messages_passed
    finally:
        cli.build_junction_tree = compile_tree
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bnsense" / "__init__.py").is_file():
        print("run from the root of a bnsense checkout: no src/bnsense here", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    sys.dont_write_bytecode = True      # no __pycache__ under benchmarks/
    import workloads
    from bnsense import cli

    for seed in args.seeds:
        for name in workloads.GENERATORS:
            for kind, row in shapes(cli, workloads, name, seed).items():
                print(f"seed {seed} {name} {kind} "
                      + " ".join(f"{field} {row[field]}" for field in FIELDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
