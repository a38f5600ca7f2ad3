#!/usr/bin/env python
"""Dead-surface audit: the functions in ``src/`` that no registered run calls.

Traces, in one process under ``sys.setprofile``:

* every registered experiment (``repro-experiments all --scale 0.03``);
* every registered scenario (``repro.api.run`` at scale 0.05);
* a budgeted ``navigator-halving`` search, whose budget is small enough
  that the analytic prefilter ranks the candidates it cannot simulate;
* a replicated ``fig05`` sweep (two replicates, collapsed);
* a streamed ``w-1m`` cell and its reductions.

It then prints every function or method of ``src/`` that never ran, with
its line count and its number of references outside ``tests/`` (name
tokens, plus string literals equal to the name, in every other Python
file of the repository; the definitions of that name are not counted).
The reference count decides what can go: worker-only code (the pool
initializer, shared-memory transport) never runs in this one-process
trace but is referenced, while a function with zero references is
reached only from tests.  Dunder methods show ``-``: the language calls
them without spelling their names.  Code that runs at import time
(registries, calibration tables) runs before the trace starts and also
shows up here.  The whole trace takes about 100 s on a 2-vCPU host.

Usage::

    python scripts/unreached.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import time
import tokenize
from collections import Counter
from pathlib import Path
from typing import List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: Directories whose files are not references (the audit asks what
#: anything other than a test reaches).
EXCLUDED_DIRS = {"tests", ".git", "__pycache__", ".bench_build"}


class Function(NamedTuple):
    """One ``def`` in ``src/``."""

    path: Path
    qualname: str
    first_line: int
    def_line: int
    lines: int

    @property
    def name(self) -> str:
        """The bare name a reference spells."""
        return self.qualname.rsplit(".", 1)[-1]


def source_functions() -> List[Function]:
    """Every function and method defined in ``src/``, nested ones too."""
    functions = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno
                                                  for decorator
                                                  in child.decorator_list])
                    qualname = prefix + child.name
                    functions.append(Function(
                        path, qualname, first, child.lineno,
                        child.end_lineno - child.lineno + 1))
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


def reference_counts() -> Counter:
    """Name tokens and exact-name string literals outside ``tests/``."""
    counts: Counter = Counter()
    for directory, subdirs, files in os.walk(ROOT):
        subdirs[:] = [name for name in subdirs
                      if name not in EXCLUDED_DIRS
                      and not name.startswith(".")]
        for file_name in files:
            if not file_name.endswith(".py"):
                continue
            with open(os.path.join(directory, file_name), "rb") as handle:
                for token in tokenize.tokenize(handle.readline):
                    if token.type == tokenize.NAME:
                        counts[token.string] += 1
                    elif token.type == tokenize.STRING:
                        text = token.string.strip("'\"")
                        if text.isidentifier():
                            counts[text] += 1
    return counts


def traced_runs() -> Set[Tuple[str, int]]:
    """Run the traced workloads; the ``(file, first line)`` of each call."""
    from repro.api import ScenarioSpec, Sweep, run, run_study
    from repro.core.scenario import list_scenarios
    from repro.experiments import runner

    seen: Set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def streamed_cell() -> None:
        spec = ScenarioSpec(name="w-1m", provider="aws", model="mobilenet",
                            workload="w-1m")
        run_study(Sweep.from_specs("w-1m", [spec]), scale=0.01)

    steps = [
        ("experiments (all x0.03)",
         lambda: runner.main(["all", "--scale", "0.03"])),
        ("scenarios (x0.05)",
         lambda: [run(name, scale=0.05) for name in list_scenarios()]),
        ("navigator-halving (budget 16)",
         lambda: runner.main(["sweep", "navigator-halving", "--budget",
                              "16", "--scale", "0.05"])),
        ("fig05 replicated (K=2)",
         lambda: runner.main(["sweep", "fig05", "--replicates", "2",
                              "--scale", "0.03"])),
        ("streamed w-1m (x0.01)", streamed_cell),
    ]
    for label, step in steps:
        started = time.time()
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                step()
        finally:
            sys.setprofile(None)
        print(f"traced {label}: {time.time() - started:.1f} s",
              file=sys.stderr)
    return {(code.co_filename, code.co_firstlineno) for code in seen}


def main() -> int:
    """Trace, then print the unreached functions and the totals."""
    functions = source_functions()
    called = traced_runs()
    counts = reference_counts()
    unreached = [function for function in functions
                 if (str(function.path), function.first_line) not in called
                 and (str(function.path), function.def_line) not in called]
    # Every def spells its own name once.
    definitions = Counter(function.name for function in functions)
    rows: List[Tuple[str, int, Optional[int]]] = []
    for function in unreached:
        name = function.name
        # The language calls dunders (len(), [], repr(), dataclass
        # hooks) without spelling their names.
        implicit = name.startswith("__") and name.endswith("__")
        references = (None if implicit
                      else counts[name] - definitions[name])
        location = (f"{function.path.relative_to(SRC)}:{function.def_line}"
                    f" {function.qualname}")
        rows.append((location, function.lines, references))
    width = max((len(location) for location, _, _ in rows), default=0)
    print(f"{'function':<{width}}  lines  refs")
    for location, lines, references in rows:
        shown = "-" if references is None else references
        print(f"{location:<{width}}  {lines:>5}  {shown:>4}")
    dead = [lines for _, lines, references in rows if references == 0]
    print(f"\n{len(unreached)} of {len(functions)} functions in src/ never "
          f"ran ({sum(lines for _, lines, _ in rows)} lines); "
          f"{len(dead)} of them ({sum(dead)} lines) have no reference "
          f"outside tests/ (refs '-': a dunder the language calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
