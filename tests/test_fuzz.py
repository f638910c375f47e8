"""Seeded mutation fuzz of the network file and the argument grammar.

Each case runs one `infer`, `sens-out`, `sens-param` or `sens-n` call on a
mutant of r2.json (a structural edit of the document, or a character edit
of its text), with `--evidence`, `--target` and `--param(s)` values that are
valid texts with characters inserted, deleted or replaced.  Every call must
end in one of the documented exit codes 0-5 with no exception escaping
`cli.main`, and exit 1 must always print `usage error:`.  The seed and the
case count are fixed.
"""

import contextlib
import copy
import io
import json
import random

from bnsense.cli import main
from tests.conftest import FIXTURES

SEED = 26
CASES = 8000

VALUES = [None, True, False, 0, 1, -1, 2, 0.5, 1.5, -0.25, 1e-320, 1e308, float("inf"),
          float("nan"), 10 ** 400, "", "A", "yes", "B|A", [], {}, [[]], [0.5, 0.5],
          [[0.5, 0.5]], ["yes", "yes"], {"name": "A"}, {"variable": "A"}, [[[0.2]]]]
TEXT_CHARS = '{}[]",:.-+eE0123456789 \\ABCyesnoé\x00'
ARG_CHARS = "=!,|:; ABCDyesno-_.é\t\x00"
TARGETS = ["A=yes", "B", "C=no", "B=yes"]
EVIDENCE = ["", "C=yes", "B!=no,C=yes", "A=no,A!=yes", "C=yes,C=yes"]
PARAMS = ["B|A=yes:yes", "A:no", "C|B=no:yes", "B|A=no:no"]


def _nodes(doc, path=()):
    """(path, node) of every node of a JSON document."""
    yield path, doc
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate_doc(rng, doc):
    doc = copy.deepcopy(doc)
    path, node = rng.choice([(p, n) for p, n in _nodes(doc) if p])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    edit = rng.randrange(4)
    if edit == 0:
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    elif edit == 1:
        del parent[key]
    elif edit == 2 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    elif isinstance(node, (dict, list)) and node:
        parent[key] = list(node.values()) if isinstance(node, dict) else node[::-1]
    return doc


def _mutate_text(rng, text, alphabet):
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + rng.choice(alphabet) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(alphabet) + text[at + 1:]
    return text


def _argv(rng, net_path):
    def value(pool):
        text = rng.choice(pool)
        return _mutate_text(rng, text, ARG_CHARS) if rng.random() < 0.6 else text

    evidence = f"--evidence={value(EVIDENCE)}"
    command = rng.choice(["infer", "sens-out", "sens-param", "sens-n"])
    if command == "infer":
        return [command, "--net", net_path, f"--target={value(TARGETS)}", evidence]
    if command == "sens-out":
        return [command, "--net", net_path, f"--target={value(TARGETS)}",
                f"--method={rng.choice('12') if rng.random() < 0.8 else 'both'}", evidence]
    if command == "sens-param":
        return [command, "--net", net_path, f"--param={value(PARAMS)}", evidence]
    params = ",".join(value(PARAMS) for _ in range(rng.randrange(1, 4)))
    return [command, "--net", net_path, f"--params={params}", evidence]


def test_mutants_end_in_documented_exit_codes(tmp_path):
    rng = random.Random(SEED)
    base = json.loads((FIXTURES / "r2.json").read_text(encoding="utf-8"))
    net_path = tmp_path / "net.json"
    seen = set()
    for case in range(CASES):
        kind = rng.randrange(3)
        doc = _mutate_doc(rng, base) if kind == 1 else base
        text = json.dumps(doc)
        if kind == 2:
            text = _mutate_text(rng, text, TEXT_CHARS)
        net_path.write_text(text, encoding="utf-8")
        argv = _argv(rng, str(net_path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:
                raise AssertionError(f"case {case}: {argv} on {text!r} raised {exc!r}") from exc
        assert code in range(6), (case, argv, text, code)
        if code == 1:
            assert err.getvalue().startswith("usage error:"), (case, argv, err.getvalue())
        seen.add(code)
    assert {0, 1, 2} <= seen
