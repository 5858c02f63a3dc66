"""The checkers stay apart from the searches they check.

Imports are read from the source with ``ast``, so the test sees what a
module asks for, not what happens to be loaded already.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "defcolor"
SEARCHES = {
    "minors", "depth", "coloring",
    "scheme.steps", "scheme.homogeneous", "scheme.split", "scheme.build",
}


def imported(module: str) -> set[str]:
    """The defcolor modules that ``module`` (dotted, below defcolor)
    imports anywhere in its source, named below defcolor as well."""
    parts = module.split(".")
    tree = ast.parse((SRC.joinpath(*parts[:-1]) / f"{parts[-1]}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ["defcolor", *parts[: len(parts) - node.level]]
                stem = ".".join(base + ([node.module] if node.module else []))
            else:
                stem = node.module
            # ``from . import x`` may name a module
            names = [stem] + [f"{stem}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            if name == "defcolor" or not name.startswith("defcolor."):
                continue
            name = name[len("defcolor."):]
            if SRC.joinpath(*name.split(".")).with_suffix(".py").exists():
                out.add(name)
    return out


def test_checker_imports_only_graphs_and_errors():
    assert imported("check") <= {"graphs", "errors"}


@pytest.mark.parametrize("module", ["scheme.certify", "scheme.colorer"])
def test_certifier_and_colorer_import_no_search(module):
    assert not imported(module) & SEARCHES


def test_relative_imports_resolve():
    # the reader above must see the imports it is meant to police
    assert imported("scheme.colorer") >= {"check", "scheme.certify", "graphs"}
    assert "check" in imported("minors")
