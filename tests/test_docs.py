"""Documentation is part of the contract: snippets run, links resolve,
public API docstrings exist.

* every ```python block in README.md and docs/*.md is executed top to
  bottom (blocks within one file share a namespace, tutorial-style);
* every intra-repo markdown link in README.md, DESIGN.md, and docs/*.md
  must point at an existing file (and an existing heading, when it has a
  ``#fragment``);
* every public ``repro.api`` symbol — and every public method/property of
  the public classes — must carry a non-empty docstring.

Tier-1 collects this module like any other.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

SNIPPET_FILES = sorted([REPO_ROOT / "README.md", *DOCS_DIR.glob("*.md")])
LINKED_FILES = sorted(
    [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md", *DOCS_DIR.glob("*.md")]
)

_FENCE = re.compile(r"^```(\w*)\s*$")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _python_blocks(path: Path):
    """Yield (starting_line, source) for every ```python fence in ``path``."""
    blocks = []
    language, start, lines = None, 0, []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        fence = _FENCE.match(line)
        if fence and language is None:
            language, start, lines = fence.group(1), number + 1, []
        elif line.strip() == "```" and language is not None:
            if language == "python":
                blocks.append((start, "\n".join(lines)))
            language = None
        elif language is not None:
            lines.append(line)
    return blocks


def _headings(path: Path):
    """GitHub-style anchor slugs for every markdown heading in ``path``."""
    slugs = set()
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            title = line.lstrip("#").strip()
            slug = re.sub(r"[^\w\- ]", "", title.lower()).replace(" ", "-")
            slugs.add(slug)
    return slugs


class TestDocSnippets:
    @pytest.mark.parametrize(
        "path", SNIPPET_FILES, ids=[p.relative_to(REPO_ROOT).as_posix() for p in SNIPPET_FILES]
    )
    def test_every_python_block_runs(self, path):
        blocks = _python_blocks(path)
        assert blocks, f"{path.name} has no runnable python snippets"
        namespace = {"__name__": f"doc_snippet_{path.stem}"}
        for line, source in blocks:
            try:
                exec(compile(source, f"{path.name}:{line}", "exec"), namespace)
            except Exception as error:  # pragma: no cover - failure reporting
                pytest.fail(
                    f"snippet at {path.name}:{line} failed: "
                    f"{type(error).__name__}: {error}"
                )


class TestIntraRepoLinks:
    @pytest.mark.parametrize(
        "path", LINKED_FILES, ids=[p.relative_to(REPO_ROOT).as_posix() for p in LINKED_FILES]
    )
    def test_relative_links_resolve(self, path):
        broken = []
        for target in _LINK.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            location, _, fragment = target.partition("#")
            resolved = (path.parent / location).resolve() if location else path
            if not resolved.exists():
                broken.append(f"{target} -> missing file {location}")
                continue
            if fragment and resolved.suffix == ".md":
                if fragment not in _headings(resolved):
                    broken.append(f"{target} -> no heading #{fragment}")
        assert not broken, f"broken links in {path.name}: {broken}"


class TestPublicDocstrings:
    def test_no_public_api_symbol_lacks_a_docstring(self):
        import repro.api as api

        undocumented = []
        for name in api.__all__:
            symbol = getattr(api, name)
            if not (inspect.getdoc(symbol) or "").strip():
                undocumented.append(name)
            if not inspect.isclass(symbol):
                continue
            for attr, member in vars(symbol).items():
                if attr.startswith("_"):
                    continue
                if not (callable(member) or isinstance(member, property)):
                    continue
                if not (inspect.getdoc(getattr(symbol, attr)) or "").strip():
                    undocumented.append(f"{name}.{attr}")
        assert not undocumented, f"public repro.api surface missing docstrings: {undocumented}"
