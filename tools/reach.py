"""The code of ``src/kframelab`` that the command line never runs.

    python tools/reach.py

Run it from the repository root. With the interpreter's line tracer on,
it runs, in process, ``kframelab verify --config ... --report ...`` on
every golden scenario (``tests/golden``, each with its property
selection) and on each benchmark workload (``perfbench/workloads.py``) at
seed 42, and ``kframelab fixtures --name ...`` for each fixture. It then
prints:

- every function and method defined in ``src/kframelab`` whose code was
  never entered, with its line count (decorators included), and the
  totals. A function nested in one that was never entered is counted
  with it, not on its own line;
- inside the functions that were entered, every statement that never
  ran, with its line count and its first line, and the totals. A
  statement inside one that never ran is counted with it. A statement
  with no code of its own (``try:``, ``else:``) is judged by the
  statements it holds.
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import types
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "kframelab")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]

import golden  # noqa: E402
from kframelab import cli  # noqa: E402
from kframelab.fixtures import FIXTURE_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 42

Function = Tuple[str, int, int, str, ast.FunctionDef]  # (file, first line, last line, qualified name, node)
# The fields of a statement that hold statements (or except clauses).
BLOCKS = ("body", "orelse", "handlers", "finalbody")


def functions(path: str) -> Iterator[Function]:
    """The outermost functions and methods of a source file; nested ones
    are left in their parent's span."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)

    def walk(node, prefix: str) -> Iterator[Function]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield path, first, child.end_lineno, prefix + child.name, child
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    yield from walk(tree, "")


def code_lines(code: types.CodeType) -> Set[int]:
    """The lines that hold code of ``code`` or of the code nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def own_lines(stmt: ast.stmt) -> range:
    """The lines of a statement that are not those of the statements it holds."""
    inner = [child.lineno for field in BLOCKS for child in getattr(stmt, field, ())]
    return range(stmt.lineno, min(inner) if inner else stmt.end_lineno + 1)


def unrun(stmts, code: Set[int], ran: Set[int]) -> Iterator[ast.stmt]:
    """The outermost statements of ``stmts`` that never ran: those with code
    on their own lines, none of which ran."""
    for stmt in stmts:
        mine = code.intersection(own_lines(stmt))
        if mine and not mine & ran:
            yield stmt
            continue
        for field in BLOCKS:
            yield from unrun(getattr(stmt, field, ()), code, ran)


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
    ran: Dict[str, Set[int]] = {}

    def line_events(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line_events

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))
        if code.co_filename.startswith(SRC + os.sep):
            ran.setdefault(code.co_filename, set())
            return line_events
        return None

    with tempfile.TemporaryDirectory() as workdir:
        argvs, codes = runs(workdir), []
        # Only the command lines run under the tracer, not the imports.
        sys.settrace(trace)
        try:
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    codes.append(cli.main(argv))
        finally:
            sys.settrace(None)
    print(f"runs: {len(argvs)} ({', '.join(f'{codes.count(c)} exit {c}' for c in sorted(set(codes)))})")
    unreached, unrun_stmts = [], []
    total_functions = total_lines = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        code, text = code_lines(compile(source, path, "exec")), source.splitlines()
        for path, first, last, qualname, node in functions(path):
            total_functions += 1
            total_lines += last - first + 1
            if (path, first) not in entered:
                unreached.append((name, first, qualname, last - first + 1))
                continue
            for stmt in unrun(node.body, code, ran.get(path, set())):
                lines = stmt.end_lineno - stmt.lineno + 1
                unrun_stmts.append((name, stmt.lineno, qualname, lines, text[stmt.lineno - 1].strip()))
    for name, first, qualname, lines in unreached:
        print(f"{name}:{first} {qualname} {lines}")
    print(
        f"unreached: {len(unreached)} of {total_functions} functions, "
        f"{sum(lines for *_, lines in unreached)} of {total_lines} lines"
    )
    for name, first, qualname, lines, line in unrun_stmts:
        print(f"{name}:{first} {qualname} {lines}: {line}")
    print(
        f"unrun in entered functions: {len(unrun_stmts)} statements, "
        f"{sum(lines for _, _, _, lines, _ in unrun_stmts)} lines"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
