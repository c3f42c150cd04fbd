"""Corpus statistics: character occurrence counts and complexity distributions."""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .errors import EmptyCharset
from .metrics import DEFAULT_BUCKETS, RSSL_BUCKETS, BucketSpec, bucket_rssl
from .table import DecompositionTable
from .textio import numbered_lines, two_fields


def count_occurrences(lines: Iterable[str]) -> Counter:
    """Count every Unicode scalar over all label lines, whitespace included."""
    return Counter("".join(lines))


def rssl_distribution(chars: Iterable[str], table: DecompositionTable,
                      buckets: BucketSpec = DEFAULT_BUCKETS) -> dict[str, dict]:
    """Bucketed histogram of character classes by decomposition-tree size.

    Returns ``{bucket: {"count": n, "fraction": n/total}}`` over the three
    complexity buckets; fractions sum to 1.
    """
    charset = set(chars)
    if not charset:
        raise EmptyCharset("no characters to bucket")
    counts = {name: 0 for name in RSSL_BUCKETS}
    for char in charset:
        counts[bucket_rssl(len(table.tokens(char)), buckets)] += 1
    total = len(charset)
    return {name: {"count": n, "fraction": n / total} for name, n in counts.items()}


def read_labels(path, fmt: str = "plain") -> list[str]:
    """Load training label lines.

    ``plain`` takes each line as one label; ``tsv`` takes the text column
    of ``<id><TAB><text>`` lines (duplicate ids are fine here, only the
    text matters).
    """
    if fmt not in ("plain", "tsv"):
        raise ValueError(f"format must be 'plain' or 'tsv', got {fmt!r}")
    if fmt == "plain":
        return [line for _, line in numbered_lines(path)]
    return [two_fields(path, lineno, line, "<id><TAB><text>", 1)[1]
            for lineno, line in numbered_lines(path) if line]
