"""Character-to-tree decomposition tables loaded from TSV files.

File format: one entry per line, ``<char><TAB><token> <token> ...`` where
the token field is the space-separated preorder sequence of the character's
radical tree.  Lines starting with ``#`` and blank lines are ignored.
Tokens are space-separated so multi-codepoint radical names stay
representable.
"""

from __future__ import annotations

from typing import Collection, Sequence

from .errors import DuplicateEntry, MalformedLine, TableParseError, TrailingTokens, Underflow
from .textio import numbered_lines, two_fields, write_lines
from .tree import ArityTable, RadicalTree, build_checked, check_sequence


def _shape(seen: dict, tokens: Sequence[str], counts: tuple[int, ...]) -> tuple:
    """``(counts, subtree ends)``, one per distinct shape in ``seen``, checked when new."""
    shape = seen.get(counts)
    if shape is None:
        shape = seen[counts] = counts, check_sequence(tokens, counts)
    return shape


class DecompositionTable:
    """Maps characters to radical trees.

    An entry is given, stored and saved as its preorder token sequence, kept
    as a tuple with its shape (child counts and subtree ends, checked and
    computed once per distinct shape and shared).  The constructor and
    ``load`` check each entry with the same ``_shape`` call; ``load`` fills
    the two dicts of an empty table line by line and stores each distinct
    token string once.  The table holds no tree: ``lookup`` builds one.
    ``tokens()`` serves save, the inventory, rssl and export's records;
    similarity, weights, export's plan and the CLI's ``parse`` read
    ``_preorder()``; neither builds a tree.

    Lookup is total: a character without an entry resolves to a synthesized
    single-leaf tree of the character itself, so every metric stays defined
    over arbitrary text.  The entries never change after construction.
    """

    def __init__(self, entries: dict[str, Sequence[str]] | None = None,
                 arities: ArityTable | None = None):
        self.arities = arities if arities is not None else ArityTable()
        self._entries, self._shapes, seen = {}, {}, {}
        for char, tokens in (entries or {}).items():
            tokens = tuple(tokens)
            if not tokens or "" in tokens:  # a shared shape is not checked again
                where = f"at position {tokens.index('')}" if tokens else "sequence"
                raise MalformedLine(f"entry {char!r}: empty token {where}")
            try:
                shape = _shape(seen, tokens, self.arities.child_counts(tokens))
            except (Underflow, TrailingTokens) as exc:
                raise TableParseError(f"entry {char!r}: {exc}") from exc
            self._entries[char], self._shapes[char] = tokens, shape

    @classmethod
    def load(cls, path, arities: ArityTable | None = None, *,
             keep: Collection[str] | None = None) -> DecompositionTable:
        """Read a decomposition TSV file into a table, checking every entry.

        With ``keep``, only the entries whose key is in it are stored, and any
        other character looks untabulated.  Every line is checked alike, so a
        table loads, or fails with the same error, whatever ``keep`` holds; a
        bit set of one bit per code point marks every key read and so catches
        every duplicate.
        """
        table = cls(arities=arities)
        entries, shapes, seen = table._entries, table._shapes, {}  # seen: counts -> shape
        canon = {}  # token -> its first string, so a table holds one str per distinct token
        read = bytearray(0x110000 >> 3)
        for lineno, line in numbered_lines(path):
            if not line.strip() or line.startswith("#"):
                continue
            char, seq = two_fields(path, lineno, line, "<char><TAB><token sequence>")
            if len(char) != 1:
                raise MalformedLine(f"{path}:{lineno}: key {char!r} must be a single character")
            byte, bit = ord(char) >> 3, 1 << (ord(char) & 7)
            if read[byte] & bit:
                raise DuplicateEntry(f"{path}:{lineno}: duplicate entry for {char!r}")
            read[byte] |= bit
            tokens = seq.split()
            if not tokens:
                raise MalformedLine(f"{path}:{lineno}: empty token sequence")
            try:  # split() leaves no empty token, so an equal shape passes alike
                shape = _shape(seen, tokens, table.arities.child_counts(tokens))
            except (Underflow, TrailingTokens) as exc:
                raise TableParseError(f"{path}:{lineno}: {exc}") from exc
            if keep is None or char in keep:
                entries[char], shapes[char] = tuple(map(canon.setdefault, tokens, tokens)), shape
        return table

    def save(self, path) -> None:
        """Write the table back out in the same TSV format, entry order preserved;
        ValueError first for a key ``#``, tab, CR, LF or not one char, or a token
        that is empty or holds whitespace: such an entry would not load back."""
        for char, tokens in self._entries.items():
            if len(char) != 1 or char in "#\t\n\r" or " ".join(tokens).split() != list(tokens):
                raise ValueError(f"key {char!r} cannot be saved in the table format")
        # load strips a leading U+FEFF as a byte-order mark; a first key U+FEFF needs one
        bom = "\ufeff" if next(iter(self._entries), None) == "\ufeff" else ""
        write_lines(path, (bom, *(f"{char}\t{' '.join(tokens)}\n"
                                  for char, tokens in self._entries.items())))

    def lookup(self, char: str) -> RadicalTree:
        """A new tree of the stored entry if present, otherwise a single leaf of the character."""
        tokens = self._entries.get(char)
        return RadicalTree(char) if tokens is None else build_checked(tokens, self._shapes[char][0])

    def tokens(self, char: str) -> tuple[str, ...]:
        """Preorder tokens of the stored tree, or ``(char,)`` for its fallback leaf."""
        return self._entries.get(char) or (char,)

    def _preorder(self, char: str) -> tuple[tuple[str, ...], tuple[int, ...], list[int]]:
        """Preorder tokens, child counts, subtree ends; ``((char,), (0,), [1])`` if untabulated."""
        tokens = self._entries.get(char)
        return (tokens, *self._shapes[char]) if tokens else ((char,), (0,), [1])

    def chars(self) -> list[str]:
        """Tabulated characters in entry (file) order."""
        return list(self._entries)

    def radical_inventory(self) -> set[str]:
        """All distinct radical and structure tokens used by stored trees."""
        return set().union(*self._entries.values())

    def __contains__(self, char: str) -> bool:
        return char in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"DecompositionTable({len(self._entries)} entries)"
