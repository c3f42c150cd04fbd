"""Node weighting and the tree-similarity score between radical trees.

Weighting rule: a tree carries a total weight of 1.  A leaf absorbs its
whole budget; an internal node with n children keeps budget/(n+1) for
itself and hands budget/(n+1) to each child subtree.  Every node weight is
therefore the unit fraction 1/∏(nᵢ+1), the product taken over the node's
internal ancestors and, if it is internal, the node itself.  Upper nodes
weigh more than lower ones, and a node's weight depends only on the arities
along its root path, not on how deep sibling subtrees are.

Similarity between two trees is the sum, over nodes that match, of the
matching nodes' weights.  A node matches when all of its ancestors match,
the other tree has a node at the same child-index path, and the two symbols
are equal; a mismatch prunes the whole subtree below it.  Matched nodes
have equal symbols, hence equal arities, hence equal weights in either
tree, so the score is the same no matter which tree supplies the weights.

One walk computes both functions: the weights of a tree are the weights of
its nodes matched against the tree itself.  The walk keeps an explicit
stack, so trees of any depth work.

All arithmetic is exact (fractions.Fraction); call float() on results for
a numeric score.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .tree import RadicalTree


def _matched_weights(a: RadicalTree, b: RadicalTree) -> Iterator[Fraction]:
    """Weights of the nodes of ``a`` that match ``b``, in preorder."""
    stack = [(a, b, Fraction(1))]
    while stack:
        x, y, budget = stack.pop()
        if x.symbol != y.symbol:
            continue
        if x.children:
            budget /= len(x.children) + 1
            pairs = [(cx, cy, budget) for cx, cy in zip(x.children, y.children)]
            stack.extend(reversed(pairs))
        yield budget


def tree_weights(tree: RadicalTree) -> list[Fraction]:
    """Per-node weights in preorder order; always sums to exactly 1."""
    return list(_matched_weights(tree, tree))


def tree_sim(a: RadicalTree, b: RadicalTree) -> Fraction:
    """Similarity in [0, 1] between two trees built over the same arity table."""
    return sum(_matched_weights(a, b), Fraction(0))


def char_sim(c1: str, c2: str, table) -> Fraction:
    """Similarity of two characters via their decomposition trees.

    Characters absent from the table compare as single-leaf trees of
    themselves, so the result is defined for any pair.
    """
    return tree_sim(table.lookup(c1), table.lookup(c2))
