"""Node weighting and the tree-similarity score between radical trees.

Weighting rule: a tree carries a total weight of 1.  A leaf absorbs its
whole budget; an internal node with n children keeps budget/(n+1) for
itself and hands budget/(n+1) to each child subtree.  Every node weight is
therefore 1/k for the integer k = ∏(nᵢ+1), the product taken over the
node's internal ancestors and, if it is internal, the node itself.  Upper
nodes weigh more than lower ones, and a node's weight depends only on the
arities along its root path, not on how deep sibling subtrees are.

Similarity between two trees is the sum, over nodes that match, of the
matching nodes' weights.  A node matches when all of its ancestors match,
the other tree has a node at the same child-index path, and the two symbols
are equal; a mismatch prunes the whole subtree below it.  Matched nodes
have equal symbols, hence equal arities, hence equal weights in either
tree, so the score is the same no matter which tree supplies the weights.

One walk, yielding the integer k of each matched node, computes both
functions, the evaluation sums in metrics.py and the loss weights in
targets.py; a tree's weights are those of its nodes matched against itself.
It reads each tree as preorder arrays of symbols, child counts and subtree
ends, pairs children left to right (the surplus of the longer list unpaired)
and steps over a subtree by the index where it ends.  It keeps an explicit
stack, so trees of any depth work.  Results are exact Fractions; float() them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .tree import RadicalTree, check_sequence


def _arrays(tree: RadicalTree) -> tuple:
    """A tree's preorder symbols, child counts and subtree ends."""
    symbols, counts = tree._shape()
    return symbols, counts, check_sequence(symbols, counts)


def _matched_denominators(a: tuple, b: tuple) -> Iterator[int]:
    """The k of the weight 1/k of each node of ``a`` that matches ``b``, in preorder,
    each tree given as its preorder arrays; see _arrays and DecompositionTable._preorder."""
    (sym_a, cnt_a, end_a), (sym_b, cnt_b, end_b) = a, b
    stack = [(0, 0, 1)]
    while stack:
        i, j, k = stack.pop()
        if sym_a[i] != sym_b[j]:
            continue
        n = cnt_a[i]
        if n:
            k *= n + 1
            pairs, ci, cj = [], i + 1, j + 1  # from the first children ...
            for _ in range(min(n, cnt_b[j])):
                pairs.append((ci, cj, k))
                ci, cj = end_a[ci], end_b[cj]  # ... to their next siblings
            stack.extend(reversed(pairs))
        yield k


def tree_weights(tree: RadicalTree) -> list[Fraction]:
    """Per-node weights in preorder order; always sums to exactly 1."""
    nodes = _arrays(tree)
    return [Fraction(1, k) for k in _matched_denominators(nodes, nodes)]


def tree_sim(a: RadicalTree, b: RadicalTree) -> Fraction:
    """Similarity in [0, 1] between two trees built over the same arity table."""
    ks = _matched_denominators(_arrays(a), _arrays(b))
    return sum((Fraction(1, k) for k in ks), Fraction(0))


def char_sim(c1: str, c2: str, table) -> Fraction:
    """Similarity of two characters via their decomposition trees.

    Characters absent from the table compare as single-leaf trees of
    themselves, so the result is defined for any pair.
    """
    ks = _matched_denominators(table._preorder(c1), table._preorder(c2))
    return sum((Fraction(1, k) for k in ks), Fraction(0))
