"""The functions of ``src/kframelab`` that the command line never enters.

    python tools/reach.py

Run it from the repository root. With the interpreter's profiler on, it
runs, in process, ``kframelab verify --config ... --report ...`` on every
golden scenario (``tests/golden``, each with its property selection) and
on each benchmark workload (``perfbench/workloads.py``) at seed 42, and
``kframelab fixtures --name ...`` for each fixture. It then prints every
function and method defined in ``src/kframelab`` whose code was never
entered, with its line count (decorators included), and the totals. A
function nested in one that was never entered is counted with it, not
on its own line.
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from typing import Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "kframelab")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]

import golden  # noqa: E402
from kframelab import cli  # noqa: E402
from kframelab.fixtures import FIXTURE_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 42

Function = Tuple[str, int, int, str]  # (file, first line, last line, qualified name)


def functions(path: str) -> Iterator[Function]:
    """The outermost functions and methods of a source file; nested ones
    are left in their parent's span."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)

    def walk(node, prefix: str) -> Iterator[Function]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield path, first, child.end_lineno, prefix + child.name
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    yield from walk(tree, "")


def runs(workdir: str) -> List[List[str]]:
    """The command lines: verify on each golden scenario and workload, then
    fixtures on each fixture."""
    cases = [(name, doc, golden.PROPERTIES.get(name)) for name, doc in golden.SCENARIOS.items()]
    cases += [(name, w.scenario_doc(SEED), w.properties) for name, w in WORKLOADS.items()]
    out = []
    for j, (name, doc, props) in enumerate(cases):
        config = os.path.join(workdir, f"{j:02d}-{name}.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        argv = ["verify", "--config", config, "--report", os.path.join(workdir, f"{j:02d}-report.json")]
        if props is not None:
            argv += ["--properties", ",".join(props)]
        out.append(argv)
    return out + [["fixtures", "--name", name] for name in FIXTURE_NAMES]


def main() -> int:
    entered: Set[Tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as workdir:
        argvs, codes = runs(workdir), []
        # Only the command lines run under the profiler, not the imports.
        sys.setprofile(profile)
        try:
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    codes.append(cli.main(argv))
        finally:
            sys.setprofile(None)
    print(f"runs: {len(argvs)} ({', '.join(f'{codes.count(c)} exit {c}' for c in sorted(set(codes)))})")
    unreached = []
    total_functions = total_lines = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        for path, first, last, qualname in functions(os.path.join(SRC, name)):
            total_functions += 1
            total_lines += last - first + 1
            if (path, first) not in entered:
                unreached.append((name, first, qualname, last - first + 1))
    for name, first, qualname, lines in unreached:
        print(f"{name}:{first} {qualname} {lines}")
    print(
        f"unreached: {len(unreached)} of {total_functions} functions, "
        f"{sum(lines for *_, lines in unreached)} of {total_lines} lines"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
