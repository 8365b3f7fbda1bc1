"""The ``repro lint`` subcommand.

Exit codes follow pre-commit conventions: 0 clean, 1 violations found,
2 usage error (unknown rule code, missing path).

Beyond the per-file rules the CLI runs the whole-program pass
(:mod:`repro.lint.graph`) over every parsed file at once, and supports
``--graph`` to dump the call graph / taint facts as JSON instead of
linting.
"""

from __future__ import annotations

import ast
import json
import sys
from typing import List, Optional, Sequence, TextIO, Tuple

from repro.lint.engine import (check_sources, iter_python_files,
                               render_human, render_json)
from repro.lint.graph import PROJECT_RULES, build_index
from repro.lint.rules import RULES, all_codes


def _all_known_codes() -> List[str]:
    return sorted(set(RULES) | set(PROJECT_RULES))


def list_rules(out: TextIO) -> None:
    for code in _all_known_codes():
        rule = RULES.get(code) or PROJECT_RULES[code]
        scope = "src/repro only" if rule.library_only else "all code"
        kind = "project" if code in PROJECT_RULES else "file"
        out.write(f"  {code}  {rule.name:<24} {rule.summary} "
                  f"[{scope}; {kind}]\n")


def _read_pairs(paths: Sequence[str]) -> Tuple[List[Tuple[str, str]], int]:
    pairs: List[Tuple[str, str]] = []
    unreadable = 0
    for f in iter_python_files(paths):
        try:
            pairs.append((str(f), f.read_text(encoding="utf-8")))
        except OSError:
            unreadable += 1
    return pairs, unreadable


def dump_graph(paths: Sequence[str], out: Optional[TextIO] = None) -> int:
    """``repro lint --graph``: emit the project index as JSON."""
    out = out if out is not None else sys.stdout
    pairs, _ = _read_pairs(paths)
    if not pairs:
        out.write(f"no python files found under: {', '.join(paths)}\n")
        return 2
    entries = []
    for path, source in pairs:
        try:
            entries.append((path.replace("\\", "/"), source,
                            ast.parse(source, filename=path)))
        except SyntaxError:
            continue                     # the lint run reports these as E999
    index = build_index(entries)
    out.write(json.dumps(index.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def run_lint(paths: Sequence[str], json_output: bool = False,
             select: Optional[str] = None,
             out: Optional[TextIO] = None) -> int:
    """Lint ``paths``; print a report; return the process exit code."""
    out = out if out is not None else sys.stdout
    selected = None
    if select:
        selected = [c.strip().upper() for c in select.split(",") if c.strip()]
        unknown = sorted(set(selected) - set(_all_known_codes()))
        if unknown:
            out.write(f"unknown rule code(s): {', '.join(unknown)} "
                      f"(known: {', '.join(_all_known_codes())})\n")
            return 2
    pairs, unreadable = _read_pairs(paths)
    if not pairs and not unreadable:
        out.write(f"no python files found under: {', '.join(paths)}\n")
        return 2
    violations = check_sources(pairs, select=selected)
    if json_output:
        out.write(render_json(violations, len(pairs)) + "\n")
    else:
        out.write(render_human(violations, len(pairs)) + "\n")
    return 1 if violations else 0
