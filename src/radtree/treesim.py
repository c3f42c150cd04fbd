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
functions and the loss weights in targets.py; a tree's weights are those
of its nodes matched against itself.  It keeps an explicit stack, so trees
of any depth work.  Results are exact Fractions; float() them for a score.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .tree import RadicalTree


def _matched_denominators(a: RadicalTree, b: RadicalTree) -> Iterator[int]:
    """The k of the weight 1/k of each node of ``a`` that matches ``b``, in preorder."""
    stack = [(a, b, 1)]
    while stack:
        x, y, k = stack.pop()
        if x.symbol != y.symbol:
            continue
        if x.children:
            k *= len(x.children) + 1
            pairs = [(cx, cy, k) for cx, cy in zip(x.children, y.children)]
            stack.extend(reversed(pairs))
        yield k


def tree_weights(tree: RadicalTree) -> list[Fraction]:
    """Per-node weights in preorder order; always sums to exactly 1."""
    return [Fraction(1, k) for k in _matched_denominators(tree, tree)]


def tree_sim(a: RadicalTree, b: RadicalTree) -> Fraction:
    """Similarity in [0, 1] between two trees built over the same arity table."""
    return sum((Fraction(1, k) for k in _matched_denominators(a, b)), Fraction(0))


def char_sim(c1: str, c2: str, table) -> Fraction:
    """Similarity of two characters via their decomposition trees.

    Characters absent from the table compare as single-leaf trees of
    themselves, so the result is defined for any pair.
    """
    return tree_sim(table.lookup(c1), table.lookup(c2))
