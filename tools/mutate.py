"""Integer-literal mutation probe for godeaux3.

Each mutant raises one integer literal of one module of ``src/godeaux3`` by
one.  A fresh interpreter then runs the proof tree through ``verify run`` and
``verify run --format json`` (``godeaux3.cli.main``) on a copy of the package
holding the mutant, and the mutant is counted under one of three outcomes:

- ``verdict``: the exit code or the report's ``verdict:`` line changed, or the
  run raised or timed out;
- ``report``: the verdict held, but the text or the JSON report changed;
- ``nothing``: both reports are byte for byte those of the unmutated package.

The counts are printed as JSON, per module and per function (a nested
function counts under the function it sits in, a method as ``Class.method``),
with the location of every ``nothing`` mutant.  Literals inside f-strings are
skipped: they only shape trace text.  Standard library only; this is not part
of the test suite.

    python tools/mutate.py [--src DIR] [--module NAME [--module NAME ...]]

Repeat ``--module`` once per module: ``--module plane --module ruled``.

Mutants run two at a time, each stopped after 60 s; a full sweep of
``fibration`` and ``ruled`` takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTCOMES = ("verdict", "report", "nothing")
MEMORY_LIMIT = 2 << 30  # bytes of address space per mutant run
JOBS = 2  # mutant runs at a time
TIMEOUT = 60.0  # seconds per mutant run, counted as a verdict change when exceeded

PROBE = f"""
import contextlib, hashlib, io, json, resource
resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT}))
from godeaux3.cli import main
out = {{}}
for fmt in ("text", "json"):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["run", "--format", fmt])
    text = buf.getvalue()
    out[fmt] = [code, hashlib.sha256(text.encode()).hexdigest()]
    if fmt == "text":
        out["verdict"] = [line for line in text.splitlines() if line.startswith("verdict:")]
print(json.dumps(out))
"""


class Literal:
    __slots__ = ("module", "function", "line", "col", "end_col", "value")

    def __init__(self, module, function, line, col, end_col, value):
        self.module, self.function = module, function
        self.line, self.col, self.end_col, self.value = line, col, end_col, value

    def where(self) -> str:
        return f"{self.module}.py:{self.line}:{self.col} {self.value}->{self.value + 1}"


def literals(module: str, source: str) -> list[Literal]:
    """Every int literal of a module on one line, outside f-strings, in source order."""
    found = []

    def visit(node, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.JoinedStr):
                continue
            name, inner = scope, in_function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not in_function:
                    name = child.name if scope == "<module>" else f"{scope}.{child.name}"
                inner = in_function or not isinstance(child, ast.ClassDef)
            if (isinstance(child, ast.Constant) and type(child.value) is int
                    and child.lineno == child.end_lineno):
                found.append(Literal(module, scope, child.lineno, child.col_offset,
                                     child.end_col_offset, child.value))
            visit(child, name, inner)

    visit(ast.parse(source), "<module>", False)
    return sorted(found, key=lambda lit: (lit.line, lit.col))


def mutate(source: str, lit: Literal) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[lit.line - 1].encode()
    lines[lit.line - 1] = (text[:lit.col] + str(lit.value + 1).encode()
                           + text[lit.end_col:]).decode()
    return "".join(lines)


def probe(src: Path):
    """The reports of one run on the package under ``src``, or None if it fails."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONHASHSEED": "0"}
    try:
        done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                              env=env, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0:
        return None
    return json.loads(done.stdout)


def classify(base: dict, got: dict | None) -> str:
    if got is None or got["verdict"] != base["verdict"] \
            or got["text"][0] != base["text"][0] or got["json"][0] != base["json"][0]:
        return "verdict"
    return "nothing" if got == base else "report"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the godeaux3 package (default: this repo's src)")
    parser.add_argument("--module", action="append", default=None,
                        help="module to mutate, e.g. fibration (repeatable; default: all)")
    args = parser.parse_args(argv)

    package = args.src / "godeaux3"
    modules = args.module or sorted(p.stem for p in package.glob("*.py"))
    missing = [m for m in modules if not (package / f"{m}.py").is_file()]
    if missing:
        parser.error(f"no such module in {package}: {missing}")
    sources = {m: (package / f"{m}.py").read_text() for m in modules}
    mutants = [lit for m in modules for lit in literals(m, sources[m])]

    base = probe(args.src)
    if base is None or base["text"][0] != 0:
        print(f"the unmutated package under {args.src} does not verify", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="godeaux3-mutants-") as tmp:
        copies: queue.Queue[Path] = queue.Queue()
        for i in range(JOBS):
            copy = Path(tmp) / f"w{i}"
            shutil.copytree(args.src / "godeaux3", copy / "godeaux3",
                            ignore=shutil.ignore_patterns("__pycache__"))
            copies.put(copy)

        def judge(lit: Literal) -> str:
            copy = copies.get()
            target = copy / "godeaux3" / f"{lit.module}.py"
            try:
                target.write_text(mutate(sources[lit.module], lit))
                return classify(base, probe(copy))
            finally:
                target.write_text(sources[lit.module])
                copies.put(copy)

        with ThreadPoolExecutor(JOBS) as pool:
            outcomes = list(pool.map(judge, mutants))

    per_module: dict[str, Counter] = defaultdict(Counter)
    per_function: dict[str, Counter] = defaultdict(Counter)
    for lit, outcome in zip(mutants, outcomes):
        for counter in (per_module[lit.module], per_function[f"{lit.module}.{lit.function}"]):
            counter["literals"] += 1
            counter[outcome] += 1

    def table(counters: dict[str, Counter]) -> dict:
        return {k: {f: c[f] for f in ("literals", *OUTCOMES)} for k, c in sorted(counters.items())}

    json.dump({
        "src": str(args.src),
        "totals": {f: sum(c[f] for c in per_module.values()) for f in ("literals", *OUTCOMES)},
        "modules": table(per_module),
        "functions": table(per_function),
        "nothing_changed": [lit.where() for lit, o in zip(mutants, outcomes) if o == "nothing"],
    }, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
