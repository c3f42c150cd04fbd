"""Radical trees: preorder parsing, serialization, and structural measures.

A character decomposes into an ordered tree whose leaves are radicals and
whose internal nodes are structure symbols with a fixed child count.  The
preorder traversal of the tree is the flat sequence used in label files;
because every structure has a known arity, parsing the sequence back into
a tree is unambiguous.

Tokens are compared by exact string equality.  No Unicode normalization is
applied; inputs are expected to be NFC-normalized upfront.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import DuplicateEntry, MalformedLine, TrailingTokens, Underflow
from .textio import numbered_lines, two_fields

# The twelve ideographic description characters (U+2FF0..U+2FFB).
# U+2FF2 and U+2FF3 combine three parts, the others two.
_IDC_ARITIES = {
    "⿰": 2,  # ⿰ left to right
    "⿱": 2,  # ⿱ above to below
    "⿲": 3,  # ⿲ left to middle to right
    "⿳": 3,  # ⿳ above to middle to below
    "⿴": 2,  # ⿴ full surround
    "⿵": 2,  # ⿵ surround from above
    "⿶": 2,  # ⿶ surround from below
    "⿷": 2,  # ⿷ surround from left
    "⿸": 2,  # ⿸ surround from upper left
    "⿹": 2,  # ⿹ surround from upper right
    "⿺": 2,  # ⿺ surround from lower left
    "⿻": 2,  # ⿻ overlaid
}


class ArityTable:
    """Maps structure tokens to their child counts.

    Membership decides a token's kind everywhere in the toolkit: a token in
    the table is a structure (internal node), anything else is a radical
    (leaf).  Arities must be integers >= 2.
    """

    def __init__(self, entries: dict[str, int] | None = None):
        entries = dict(entries) if entries is not None else dict(_IDC_ARITIES)
        for token, arity in entries.items():
            if not token:
                raise ValueError("empty structure token")
            if not isinstance(arity, int) or arity < 2:
                raise ValueError(f"arity of {token!r} must be an integer >= 2, got {arity!r}")
        self._entries = entries

    @classmethod
    def from_file(cls, path) -> ArityTable:
        """Load ``<token><TAB><arity>`` lines; ``#`` lines and blanks are skipped."""
        entries: dict[str, int] = {}
        for lineno, line in numbered_lines(path):
            if not line.strip() or line.startswith("#"):
                continue
            token, text = two_fields(path, lineno, line, "<token><TAB><arity>")
            if not token:
                raise MalformedLine(f"{path}:{lineno}: empty structure token")
            try:
                arity = int(text)
            except ValueError:
                raise MalformedLine(f"{path}:{lineno}: arity {text!r} is not an integer") from None
            if arity < 2:
                raise MalformedLine(f"{path}:{lineno}: arity must be >= 2, got {arity}")
            if token in entries:
                raise DuplicateEntry(f"{path}:{lineno}: duplicate structure token {token!r}")
            entries[token] = arity
        return cls(entries)

    def arity(self, token: str) -> int:
        """Child count of a structure token; KeyError for radicals."""
        return self._entries[token]

    def child_counts(self, tokens: Sequence[str]) -> tuple[int, ...]:
        """Each token's arity, 0 for a radical: the shape of a preorder sequence."""
        # tuple(map(get, tokens, repeat(0))) measured slower here and +1.0-1.2 MB in peak RSS.
        get = self._entries.get
        return tuple([get(token, 0) for token in tokens])

    def items(self):
        return self._entries.items()

    def __contains__(self, token: str) -> bool:
        return token in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"ArityTable({len(self._entries)} structures)"


class RadicalTree:
    """One node of an ordered radical tree.

    Leaves carry radical symbols and have no children; internal nodes carry
    structure symbols and exactly as many children as the structure's arity.
    Instances are immutable and safe to share: assignment raises AttributeError.
    """

    __slots__ = ("symbol", "children")

    def __init__(self, symbol: str, children: tuple[RadicalTree, ...] = ()):
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "children", children)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not by assignment
        return self.__class__, (self.symbol, self.children)

    # ==, hash and repr as a frozen dataclass defines them, but from one
    # preorder walk instead of recursion, so trees of any depth work.

    def _shape(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """Preorder symbols and child counts, which determine an ordered tree."""
        nodes = list(iter_preorder(self))
        return tuple(node.symbol for node in nodes), tuple(len(node.children) for node in nodes)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash(self._shape())

    def __repr__(self) -> str:
        out: list[str] = []
        todo: list = [self]  # nodes, or literal text
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(f"{item.__class__.__qualname__}(symbol={item.symbol!r}, children=(")
            todo.append(",))" if len(item.children) == 1 else "))")
            for n in range(len(item.children) - 1, -1, -1):
                todo.append(item.children[n])
                if n:
                    todo.append(", ")
        return "".join(out)


def check_sequence(tokens: Sequence[str], counts: Sequence[int]) -> list[int]:
    """Check that ``tokens`` with child counts ``counts`` form exactly one tree,
    and return its subtree ends: for each preorder index, the index one past
    the end of its subtree.

    One pass keeps a stack of the open subtrees, each with the children it
    still awaits: a token with n children (0 for a radical) opens one, and a
    subtree that awaits none closes and counts as its parent's child.  Raises
    MalformedLine on an empty token, Underflow if the sequence ends while a
    subtree is still open, TrailingTokens if tokens remain after the root
    subtree closed.
    """
    ends = [0] * len(counts)
    open_subtrees: list[list[int]] = []  # [index, children still to come], innermost last
    for pos, n in enumerate(counts):
        if not tokens[pos]:
            raise MalformedLine(f"empty token at position {pos}")
        open_subtrees.append([pos, n])
        while not open_subtrees[-1][1]:
            ends[open_subtrees.pop()[0]] = pos + 1
            if not open_subtrees:
                if pos + 1 < len(tokens):
                    raise TrailingTokens(
                        f"{len(tokens) - pos - 1} token(s) left over at position {pos + 1} "
                        "after the tree closed"
                    )
                return ends
            open_subtrees[-1][1] -= 1
    raise Underflow(
        f"sequence ended at token {len(tokens)} while a subtree was still incomplete"
    )


def build_checked(tokens: Sequence[str], counts: Sequence[int]) -> RadicalTree:
    """The tree of a sequence that check_sequence accepted, given its child counts.

    Reads right to left, keeping the finished subtrees on a stack: a
    structure with n children takes the top n, the topmost as its first.
    """
    stack: list[RadicalTree] = []
    for token, n in zip(reversed(tokens), reversed(counts)):
        if n:
            children = tuple(reversed(stack[-n:]))
            del stack[-n:]
            stack.append(RadicalTree(token, children))
        else:
            stack.append(RadicalTree(token))
    return stack[0]


def parse_sequence(tokens: Sequence[str], arities: ArityTable) -> RadicalTree:
    """Rebuild the unique tree whose preorder traversal equals ``tokens``.

    Raises the errors of check_sequence.
    """
    counts = arities.child_counts(tokens)
    check_sequence(tokens, counts)
    return build_checked(tokens, counts)


def iter_preorder(tree: RadicalTree) -> Iterator[RadicalTree]:
    """Yield nodes in preorder (node first, then children left to right)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def to_preorder(tree: RadicalTree) -> list[str]:
    """Flatten a tree back into its preorder token sequence."""
    return [node.symbol for node in iter_preorder(tree)]


def rssl(tree: RadicalTree) -> int:
    """Radical structure sequence length: total node count of the tree."""
    return sum(1 for _ in iter_preorder(tree))
