"""Digest of every benchmark call's outputs, to hold two commits to each other.

    python3 tools/report_digest.py --seeds 1 2 3

Run from the root of a checkout; the package is imported from ./src.  For
each seed and each workload of benchmarks/workloads.py, the script writes
the workload's networks to a temporary directory and runs every call of one
pass in process through `bnsense.cli.main` with `--stats`, the report going
to stdout.  Per workload it prints the number of calls and the sha256 of
their records: call kind, argv with the network paths templated, exit code,
report and stderr; then the same for the calls of each kind alone, one line
per kind, so that a difference names the kinds that moved.  Two checkouts
give the same lines exactly when every call gives the same report,
`--stats` line, stderr notes and exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def digest(main, workloads, name: str, seed: int) -> dict[str, tuple[int, str]]:
    """{"": (calls, sha256 of their records)} for one pass of one workload,
    and the same under each call kind for the calls of that kind."""
    wl = workloads.GENERATORS[name](seed)
    hashes: dict[str, list] = {"": [0, hashlib.sha256()]}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, model in enumerate(wl.models):
            paths.append(str(Path(tmp) / f"net{i}.json"))
            Path(paths[-1]).write_text(json.dumps(model.to_doc()), encoding="utf-8")
        for call in wl.calls:
            model = wl.models[call.net]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(workloads.argv(call, model, paths[call.net]) + ["--stats"])
            record = [call.kind, workloads.argv(call, model, f"NET{call.net}"), code,
                      out.getvalue(), err.getvalue()]
            line = json.dumps(record).encode("utf-8") + b"\n"
            for key in ("", call.kind):
                count_and_hash = hashes.setdefault(key, [0, hashlib.sha256()])
                count_and_hash[0] += 1
                count_and_hash[1].update(line)
    return {key: (calls, h.hexdigest()) for key, (calls, h) in hashes.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bnsense" / "__init__.py").is_file():
        print("run from the root of a bnsense checkout: no src/bnsense here", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import workloads
    from bnsense.cli import main as cli_main

    for seed in args.seeds:
        for name in workloads.GENERATORS:
            for kind, (calls, sha) in digest(cli_main, workloads, name, seed).items():
                print(f"seed {seed} {name}{kind and ' ' + kind} calls {calls} sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
