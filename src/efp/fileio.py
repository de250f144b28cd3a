"""Versioned text format for market instances.

Layout, newline-terminated and space-separated with no trailing whitespace:

    EFP 1
    items <m>
    bidders <n>
    edge <item> <bidder> <value>

Indices are 1-based in the file and 0-based in memory.  Values carry up to
nine fractional decimal digits, which keeps the parse/serialize round-trip
error below every tolerance used in the package.
"""

from __future__ import annotations

from pathlib import Path

from .core import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    Instance,
    InstanceError,
    NonPositiveValueError,
    validate_instance,
)

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed instance file."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _format_value(v: float) -> str:
    s = f"{v:.9f}".rstrip("0").rstrip(".")
    if s == "0" or s.startswith("-"):
        raise FormatError(0, f"valuation {v} is below the format's resolution")
    return s


def serialize_instance(inst: Instance) -> str:
    lines = [
        f"EFP {FORMAT_VERSION}",
        f"items {inst.num_items}",
        f"bidders {inst.num_bidders}",
    ]
    for i, b, v in inst.sorted_edges():
        lines.append(f"edge {i + 1} {b + 1} {_format_value(v)}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty document")
    if lines[0] != f"EFP {FORMAT_VERSION}":
        raise FormatError(1, f"expected header 'EFP {FORMAT_VERSION}', got {lines[0]!r}")

    def field(line_no: int, prefix: str) -> int:
        if line_no > len(lines):
            raise FormatError(line_no, f"missing '{prefix}' line")
        parts = lines[line_no - 1].split(" ")
        if len(parts) != 2 or parts[0] != prefix:
            raise FormatError(line_no, f"expected '{prefix} <count>', got {lines[line_no - 1]!r}")
        try:
            count = int(parts[1])
        except ValueError:
            raise FormatError(line_no, f"bad {prefix} count {parts[1]!r}") from None
        if count < 1:
            raise FormatError(line_no, f"{prefix} count {count} is below 1")
        return count

    num_items = field(2, "items")
    num_bidders = field(3, "bidders")
    edges, edge_lines = [], []
    for line_no, line in enumerate(lines[3:], start=4):
        if not line:
            raise FormatError(line_no, "blank line")
        parts = line.split(" ")
        if len(parts) != 4 or parts[0] != "edge":
            raise FormatError(line_no, f"expected 'edge <i> <b> <v>', got {line!r}")
        try:
            i, b = int(parts[1]), int(parts[2])
            v = float(parts[3])
        except ValueError:
            raise FormatError(line_no, f"bad edge fields in {line!r}") from None
        if i < 1 or b < 1:
            raise FormatError(line_no, "file indices are 1-based")
        edges.append((i - 1, b - 1, v))
        edge_lines.append(line_no)
    at = 0  # the line of the edge validate_instance read last

    def numbered():
        nonlocal at
        for at, edge in zip(edge_lines, edges):
            yield edge

    try:
        return validate_instance(num_items, num_bidders, numbered())
    except InstanceError as exc:
        raise FormatError(at, _in_file_indices(exc, num_items, num_bidders)) from exc


def _in_file_indices(exc: InstanceError, num_items: int, num_bidders: int) -> str:
    """The message of a validation error, with the file's 1-based indices."""
    if isinstance(exc, IndexOutOfRangeError):
        exc = IndexOutOfRangeError(exc.item + 1, exc.bidder + 1, num_items, num_bidders)
    elif isinstance(exc, DuplicateEdgeError):
        exc = DuplicateEdgeError(exc.item + 1, exc.bidder + 1)
    elif isinstance(exc, NonPositiveValueError):
        exc = NonPositiveValueError(exc.item + 1, exc.bidder + 1, exc.value)
    return str(exc)


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(serialize_instance(inst))


def load_instance(path: str | Path) -> Instance:
    return parse_instance(Path(path).read_text())
