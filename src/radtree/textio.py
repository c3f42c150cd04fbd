"""The text format of every file radtree reads or writes: UTF-8 with ``\\n``
line ends.  numbered_lines ignores a leading byte-order mark and also ends a
line at ``\\r\\n`` or ``\\r``; which lines to skip is each reader's policy."""

from itertools import chain, repeat

from .errors import MalformedLine


def numbered_lines(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from enumerate(map(str.rstrip, fh, repeat("\n")), 1)
    except UnicodeDecodeError as exc:  # its offset counts from the chunk being decoded
        raise MalformedLine(f"{path}: not UTF-8 text ({exc.reason})") from None


def two_fields(path, lineno: int, line: str, layout: str, maxsplit: int = -1) -> list[str]:
    fields = line.split("\t", maxsplit)
    if len(fields) != 2:
        raise MalformedLine(f"{path}:{lineno}: expected {layout}")
    return fields


def utf8(text: str) -> bool:
    """Whether UTF-8 holds ``text``: encoding drops only a lone surrogate."""
    return text.encode("utf-8", "ignore").decode("utf-8") == text


def write_lines(path, lines) -> None:
    lines = iter(lines)
    first = next(lines, "")
    first.encode("utf-8")  # before the open: a failed first line leaves the path as it was
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chain((first,), lines))
