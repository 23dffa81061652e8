"""DESIGN.md §4's experiment index names only files and modules that
exist, so a renamed test, benchmark or module cannot leave it stale."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _index_tokens() -> list[str]:
    """Every backticked token in the table rows of DESIGN.md §4."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("\n## 4.", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return [token for row in rows for token in re.findall(r"`([^`]+)`", row)]


def _resolves(module: str) -> bool:
    try:
        return importlib.util.find_spec(module) is not None
    except ModuleNotFoundError:  # a parent is a plain module, or absent
        return False


def test_every_indexed_path_exists():
    paths = [token for token in _index_tokens() if "/" in token]
    assert len(paths) >= 15, paths
    missing = [path for path in paths if not (ROOT / path).exists()]
    assert not missing, f"DESIGN.md §4 names missing paths: {missing}"


def test_every_indexed_module_resolves():
    modules = [token for token in _index_tokens()
               if re.fullmatch(r"repro(\.\w+)+", token)]
    assert len(modules) >= 15, modules
    missing = [module for module in modules if not _resolves(module)]
    assert not missing, f"DESIGN.md §4 names missing modules: {missing}"
