#!/usr/bin/env python
"""Build and validate the documentation site.

The docs subsystem has two halves:

* **Generation** — ``docs/reference/api.md`` is generated from the
  docstrings of the public :mod:`repro.api` surface (classes with their
  public methods and properties, functions with their signatures).  The
  generated file is committed; ``--write`` refreshes it.
* **Validation** — the default mode checks that the committed reference
  is current (regenerates in memory and diffs), that every page in the
  ``mkdocs.yml`` nav exists, and that every relative markdown link in
  ``docs/`` resolves.  If ``mkdocs`` is importable the site is also
  built with ``mkdocs build --strict``; otherwise that step is skipped
  with a note (``--strict`` turns the skip into a failure — the CI docs
  job installs mkdocs and passes it).

Usage::

    python scripts/build_docs.py            # validate (CI-safe, no deps)
    python scripts/build_docs.py --write    # refresh docs/reference/api.md
    python scripts/build_docs.py --strict   # validate + require mkdocs

Exit status 0 on success.
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import subprocess
import sys
import tempfile
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

DOCS_DIR = os.path.join(ROOT, "docs")
MKDOCS_YML = os.path.join(ROOT, "mkdocs.yml")
REFERENCE_PATH = os.path.join(DOCS_DIR, "reference", "api.md")

#: Sphinx cross-reference roles -> plain inline code with the last
#: dotted segment (``:class:`~repro.core.study.Sweep``` -> ```Sweep```).
_ROLE = re.compile(r":(?:class|meth|func|mod|attr|data|exc):`~?([^`]+)`")


def _clean(doc: str) -> str:
    """Docstring -> markdown: strip roles, fence ``::`` literal blocks."""
    doc = _ROLE.sub(lambda m: f"`{m.group(1).split('.')[-1]}`", doc)
    lines = doc.splitlines()
    out: List[str] = []
    fence_at: int | None = None  # indent of the open literal block
    for index, line in enumerate(lines):
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if fence_at is not None and stripped and indent <= fence_at:
            out.append("```")
            fence_at = None
        if fence_at is None and stripped.endswith("::"):
            text = stripped[:-2].rstrip()
            out.append(line[:indent] + (text + ":" if text else ""))
            # Open a fence at this line's indent when a literal block
            # (deeper-indented code) actually follows.
            for probe in lines[index + 1:]:
                if not probe.strip():
                    continue
                if len(probe) - len(probe.lstrip()) > indent:
                    out.append("```python")
                    fence_at = indent
                break
            continue
        out.append(line)
    if fence_at is not None:
        out.append("```")
    return "\n".join(out)


#: A postponed annotation that typing wrapped (a ``NamedTuple`` field's)
#: -> the quoted string every other postponed annotation renders as.
_FORWARD_REF = re.compile(r"ForwardRef\(('[^']*')[^)]*\)")


def _signature(obj) -> str:
    try:
        signature = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    return _FORWARD_REF.sub(r"\1", signature)


def _class_section(name: str, cls) -> List[str]:
    lines = [f"## `{name}`", ""]
    lines.append(f"```python\nclass {name}{_signature(cls)}\n```")
    lines.append("")
    lines.append(_clean(inspect.getdoc(cls) or "*(undocumented)*"))
    lines.append("")
    members = []
    for member_name, member in vars(cls).items():
        if member_name.startswith("_"):
            continue
        kind = "method"
        fn = member
        if isinstance(member, (staticmethod, classmethod)):
            fn = member.__func__
            kind = ("staticmethod" if isinstance(member, staticmethod)
                    else "classmethod")
        elif isinstance(member, property):
            fn = member.fget
            kind = "property"
        elif not inspect.isfunction(member):
            continue
        members.append((member_name, kind, fn))
    for member_name, kind, fn in members:
        qualifier = f" *({kind})*" if kind != "method" else ""
        lines.append(f"### `{name}.{member_name}`{qualifier}")
        lines.append("")
        if kind != "property":
            lines.append(f"```python\n{member_name}{_signature(fn)}\n```")
            lines.append("")
        lines.append(_clean(inspect.getdoc(fn) or "*(undocumented)*"))
        lines.append("")
    return lines


def _function_section(name: str, fn) -> List[str]:
    return [
        f"## `{name}`",
        "",
        f"```python\n{name}{_signature(fn)}\n```",
        "",
        _clean(inspect.getdoc(fn) or "*(undocumented)*"),
        "",
    ]


def generate_reference() -> str:
    """The API reference page, generated from ``repro.api`` docstrings."""
    import repro.api as api

    lines = [
        "# API reference: `repro.api`",
        "",
        "*Generated from the docstrings by `scripts/build_docs.py"
        " --write`; do not edit by hand.*",
        "",
        _clean(inspect.getdoc(api) or ""),
        "",
    ]
    for export in api.__all__:
        obj = getattr(api, export)
        if inspect.isclass(obj):
            lines.extend(_class_section(export, obj))
        else:
            lines.extend(_function_section(export, obj))
    return "\n".join(lines).rstrip() + "\n"


def _nav_pages() -> List[str]:
    """Page paths named in the mkdocs nav (regex parse, no yaml dep)."""
    with open(MKDOCS_YML, "r", encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(r":\s*([\w\-/]+\.md)\s*$", text, re.MULTILINE)


_LINK = re.compile(r"\[[^\]]*\]\(([^)#]+)(?:#[^)]*)?\)")


def validate(require_mkdocs: bool) -> List[str]:
    """Validate the docs tree; returns a list of problems."""
    problems: List[str] = []
    pages = _nav_pages()
    if not pages:
        problems.append(f"no nav pages found in {MKDOCS_YML}")
    for page in pages:
        if not os.path.exists(os.path.join(DOCS_DIR, page)):
            problems.append(f"nav page missing: docs/{page}")
    # Relative links between pages must resolve.
    for directory, _subdirs, files in os.walk(DOCS_DIR):
        for filename in files:
            if not filename.endswith(".md"):
                continue
            path = os.path.join(directory, filename)
            with open(path, "r", encoding="utf-8") as handle:
                body = handle.read()
            for target in _LINK.findall(body):
                if "://" in target or target.startswith("mailto:"):
                    continue
                resolved = os.path.normpath(
                    os.path.join(directory, target))
                if not os.path.exists(resolved):
                    rel = os.path.relpath(path, ROOT)
                    problems.append(f"broken link in {rel}: {target}")
    # The committed reference must match a fresh regeneration.
    expected = generate_reference()
    try:
        with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
            committed = handle.read()
    except FileNotFoundError:
        committed = None
    if committed != expected:
        problems.append(
            "docs/reference/api.md is stale; run "
            "`python scripts/build_docs.py --write` and commit the result")
    # Build the site when the toolchain is present.
    try:
        import mkdocs  # noqa: F401
        has_mkdocs = True
    except ImportError:
        has_mkdocs = False
    if has_mkdocs:
        with tempfile.TemporaryDirectory(prefix="repro-docs-") as site_dir:
            completed = subprocess.run(
                [sys.executable, "-m", "mkdocs", "build", "--strict",
                 "--site-dir", site_dir],
                cwd=ROOT, capture_output=True, text=True)
        if completed.returncode != 0:
            problems.append("mkdocs build --strict failed:\n"
                            + completed.stdout + completed.stderr)
    elif require_mkdocs:
        problems.append("mkdocs is not installed but --strict was given")
    else:
        print("note: mkdocs not installed; skipping the site build "
              "(structure and reference still validated)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate / validate the documentation site.")
    parser.add_argument("--write", action="store_true",
                        help="regenerate docs/reference/api.md from the "
                             "repro.api docstrings")
    parser.add_argument("--strict", action="store_true",
                        help="fail (rather than skip) when mkdocs is "
                             "unavailable for the site build")
    args = parser.parse_args(argv)

    if args.write:
        os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
        with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
            handle.write(generate_reference())
        print(f"wrote {os.path.relpath(REFERENCE_PATH, ROOT)}")
        return 0

    problems = validate(require_mkdocs=args.strict)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        print("build_docs: FAIL", file=sys.stderr)
        return 1
    print("build_docs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
