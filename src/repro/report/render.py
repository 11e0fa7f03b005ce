"""Deterministic markdown rendering for the report site.

A page is a title plus a flat list of typed blocks (headings, prose, text
tables, link lists, metric series); :func:`render_markdown` turns it into
markdown.  The renderer is **byte-deterministic**: number formatting goes
through the same :func:`~repro.analysis.tables._format_cell` the text
tables use (fixed precision, no locale), nothing reads the clock, the
environment or the filesystem, and dict-ordered inputs are rendered in the
order given -- so the golden-file tests in ``tests/test_report.py`` can pin
entire pages byte-for-byte and any accidental nondeterminism shows up as a
diff.

The only machine-varying value a page may carry is the git SHA in its
footer, and that is *injected* by the caller (``site.py``), never read
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, Union

from ..analysis.tables import _format_cell

__all__ = [
    "Heading",
    "Paragraph",
    "Pre",
    "TableBlock",
    "LinkList",
    "Spark",
    "Page",
    "render_markdown",
]


@dataclass(frozen=True)
class Heading:
    text: str
    level: int = 2


@dataclass(frozen=True)
class Paragraph:
    text: str


@dataclass(frozen=True)
class Pre:
    """Verbatim text (the figure tables render exactly as the CLI prints
    them, so a page and ``repro-wsn figure`` can be eyeballed against each
    other)."""

    text: str


@dataclass(frozen=True)
class TableBlock:
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]
    precision: int = 5


@dataclass(frozen=True)
class LinkList:
    """Bulleted ``(label, href)`` links (hrefs are site-relative)."""

    items: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class Spark:
    """One metric's values across trajectory entries, rendered inline."""

    label: str
    values: Tuple[float, ...]
    precision: int = 4


Block = Union[Heading, Paragraph, Pre, TableBlock, LinkList, Spark]


@dataclass
class Page:
    """One output page: ``name`` is the file stem (``index``, ``figure4``)."""

    name: str
    title: str
    blocks: List[Block] = field(default_factory=list)

    def add(self, block: Block) -> "Page":
        self.blocks.append(block)
        return self


def _cell(value: object, precision: int) -> str:
    return _format_cell(value, precision)


def _md_table(block: TableBlock) -> List[str]:
    header = "| " + " | ".join(str(h) for h in block.headers) + " |"
    rule = "| " + " | ".join("---" for _ in block.headers) + " |"
    lines = [header, rule]
    for row in block.rows:
        lines.append(
            "| " + " | ".join(_cell(v, block.precision) for v in row) + " |"
        )
    return lines


def _md_spark(block: Spark) -> str:
    series = " -> ".join(_cell(v, block.precision) for v in block.values)
    return f"- `{block.label}`: {series}"


def render_markdown(page: Page, footer: str = "") -> str:
    lines: List[str] = [f"# {page.title}", ""]
    for block in page.blocks:
        if isinstance(block, Heading):
            lines.extend([f"{'#' * block.level} {block.text}", ""])
        elif isinstance(block, Paragraph):
            lines.extend([block.text, ""])
        elif isinstance(block, Pre):
            lines.extend(["```", block.text, "```", ""])
        elif isinstance(block, TableBlock):
            lines.extend(_md_table(block) + [""])
        elif isinstance(block, LinkList):
            lines.extend(
                [f"- [{label}]({href})" for label, href in block.items] + [""]
            )
        elif isinstance(block, Spark):
            lines.extend([_md_spark(block), ""])
        else:  # pragma: no cover - the Block union is closed
            raise TypeError(f"unknown block type {type(block).__name__}")
    if footer:
        lines.extend(["---", "", footer, ""])
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"
