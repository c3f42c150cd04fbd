"""Character-to-tree decomposition tables loaded from TSV files.

File format: one entry per line, ``<char><TAB><token> <token> ...`` where
the token field is the space-separated preorder sequence of the character's
radical tree.  Lines starting with ``#`` and blank lines are ignored.
Tokens are space-separated so multi-codepoint radical names stay
representable.
"""

from __future__ import annotations

from .errors import DuplicateEntry, MalformedLine, TableParseError, TrailingTokens, Underflow
from .tree import ArityTable, RadicalTree, iter_preorder, leaf, parse_sequence, to_preorder, validate_tree


class DecompositionTable:
    """Maps characters to radical trees.

    Lookup is total: a character without an entry resolves to a synthesized
    single-leaf tree of the character itself, so every metric stays defined
    over arbitrary text.  Immutable after construction; concurrent lookups
    are safe.
    """

    def __init__(self, entries: dict[str, RadicalTree] | None = None,
                 arities: ArityTable | None = None):
        self.arities = arities if arities is not None else ArityTable.default()
        self._entries = dict(entries) if entries else {}
        for char, tree in self._entries.items():
            try:
                validate_tree(tree, self.arities)
            except ValueError as exc:
                raise ValueError(f"entry {char!r}: {exc}") from None

    @classmethod
    def load(cls, path, arities: ArityTable | None = None) -> DecompositionTable:
        """Parse a decomposition TSV file into a table."""
        arities = arities if arities is not None else ArityTable.default()
        entries: dict[str, RadicalTree] = {}
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise MalformedLine(f"{path}:{lineno}: expected <char><TAB><token sequence>")
                char, seq = fields
                if len(char) != 1:
                    raise MalformedLine(f"{path}:{lineno}: key {char!r} must be a single character")
                if char in entries:
                    raise DuplicateEntry(f"{path}:{lineno}: duplicate entry for {char!r}")
                tokens = seq.split()
                if not tokens:
                    raise MalformedLine(f"{path}:{lineno}: empty token sequence")
                try:
                    entries[char] = parse_sequence(tokens, arities)
                except (Underflow, TrailingTokens) as exc:
                    raise TableParseError(f"{path}:{lineno}: {exc}") from exc
        # parse_sequence already enforced the arities that __init__ checks.
        table = cls.__new__(cls)
        table.arities, table._entries = arities, entries
        return table

    def save(self, path) -> None:
        """Write the table back out in the same TSV format, entry order preserved."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for char, tree in self._entries.items():
                fh.write(f"{char}\t{' '.join(to_preorder(tree))}\n")

    def lookup(self, char: str) -> RadicalTree:
        """Stored tree if present, otherwise a single leaf of the character."""
        tree = self._entries.get(char)
        return tree if tree is not None else leaf(char)

    def chars(self) -> list[str]:
        """Tabulated characters in entry (file) order."""
        return list(self._entries)

    def radical_inventory(self) -> set[str]:
        """All distinct radical and structure tokens used by stored trees."""
        tokens: set[str] = set()
        for tree in self._entries.values():
            for node in iter_preorder(tree):
                tokens.add(node.symbol)
        return tokens

    def __contains__(self, char: str) -> bool:
        return char in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"DecompositionTable({len(self._entries)} entries)"
