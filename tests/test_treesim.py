import random
from fractions import Fraction

import pytest
from hypothesis import given

from helpers import (
    all_paths,
    mutate,
    node,
    random_tree,
    replace_at,
    sim_oracle,
    subtree_at,
)
from radtree.errors import MalformedLine
from radtree.table import DecompositionTable
from radtree.tree import RadicalTree, parse_sequence, rssl, to_preorder
from radtree.treesim import char_sim, tree_sim, tree_weights
from test_tree import trees


class TestTreeWeights:
    def test_leaf_takes_full_budget(self):
        assert tree_weights(RadicalTree("A")) == [Fraction(1)]

    def test_pair_splits_into_thirds(self):
        tree = node("⿰", RadicalTree("A"), RadicalTree("B"))
        assert tree_weights(tree) == [Fraction(1, 3)] * 3

    def test_nested_subtree_shares_again(self):
        tree = node("⿰", RadicalTree("A"), node("⿱", RadicalTree("B"), RadicalTree("C")))
        assert tree_weights(tree) == [
            Fraction(1, 3), Fraction(1, 3),
            Fraction(1, 9), Fraction(1, 9), Fraction(1, 9),
        ]

    def test_three_children_split_into_quarters(self):
        tree = node("⿳", RadicalTree("A"), RadicalTree("B"), RadicalTree("C"))
        assert tree_weights(tree) == [Fraction(1, 4)] * 4

    @given(trees())
    def test_sums_to_one_exactly(self, tree):
        weights = tree_weights(tree)
        assert sum(weights) == 1
        assert all(w > 0 for w in weights)

    def test_float_sum_within_tolerance(self):
        rng = random.Random(23)
        for _ in range(200):
            total = sum(float(w) for w in tree_weights(random_tree(rng)))
            assert abs(total - 1.0) <= 1e-12

    def test_depth_independence(self):
        # Swapping a leaf for a deeper subtree must not move any weight
        # outside the replaced position.
        rng = random.Random(31)
        for _ in range(50):
            tree = random_tree(rng, max_depth=4)
            leaf_paths = [p for p in all_paths(tree) if not subtree_at(tree, p).children]
            path = rng.choice(leaf_paths)
            deeper = node("⿰", RadicalTree("X"),
                          node("⿱", RadicalTree("Y"),
                               node("⿰", RadicalTree("Z"), RadicalTree("W"))))
            swapped = replace_at(tree, path, deeper)
            before = dict(zip(all_paths(tree), tree_weights(tree)))
            after = dict(zip(all_paths(swapped), tree_weights(swapped)))
            for p, w in before.items():
                if p != path and p[: len(path)] != path:
                    assert after[p] == w


class TestEmptySymbol:
    """An empty symbol is no tree: it does not parse back, and the scores reject it."""

    @pytest.mark.parametrize("tree, position", [
        (RadicalTree(""), 0),
        (node("⿰", RadicalTree("A"), RadicalTree("")), 2),
        (node("⿰", node("⿱", RadicalTree(""), RadicalTree("B")), RadicalTree("")), 2),
    ])
    def test_tree_sim_and_tree_weights_raise_malformed_line(self, tree, position):
        message = f"^empty token at position {position}$"
        for score in (tree_weights, lambda t: tree_sim(t, t),
                      lambda t: tree_sim(RadicalTree("A"), t),
                      lambda t: tree_sim(t, RadicalTree("A"))):
            with pytest.raises(MalformedLine, match=message):
                score(tree)


class TestTreeSim:
    def test_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            tree = random_tree(rng)
            assert tree_sim(tree, tree) == 1

    def test_single_substitution_in_pair(self):
        a = node("⿰", RadicalTree("A"), RadicalTree("B"))
        b = node("⿰", RadicalTree("A"), RadicalTree("C"))
        assert tree_sim(a, b) == Fraction(2, 3)

    def test_root_mismatch_scores_zero(self):
        a = node("⿰", RadicalTree("A"), RadicalTree("B"))
        b = node("⿱", RadicalTree("A"), RadicalTree("B"))
        assert tree_sim(a, b) == 0

    def test_deep_substitution(self):
        a = node("⿰", RadicalTree("A"), node("⿱", RadicalTree("B"), RadicalTree("C")))
        b = node("⿰", RadicalTree("A"), node("⿱", RadicalTree("B"), RadicalTree("D")))
        assert tree_sim(a, b) == Fraction(8, 9)

    def test_mismatch_prunes_whole_subtree(self):
        # Children below a substituted structure must not count even if equal.
        a = node("⿰", RadicalTree("A"), node("⿱", RadicalTree("B"), RadicalTree("C")))
        b = node("⿰", RadicalTree("A"), node("⿻", RadicalTree("B"), RadicalTree("C")))
        assert tree_sim(a, b) == Fraction(2, 3)

    def test_symmetry_exact(self):
        rng = random.Random(13)
        for _ in range(200):
            a = random_tree(rng, max_depth=4)
            b = mutate(rng, a) if rng.random() < 0.5 else random_tree(rng, max_depth=4)
            assert tree_sim(a, b) == tree_sim(b, a)

    def test_range(self):
        rng = random.Random(17)
        for _ in range(200):
            a = random_tree(rng, max_depth=4)
            b = random_tree(rng, max_depth=4)
            assert 0 <= tree_sim(a, b) <= 1

    @given(trees(max_depth=2), trees(max_depth=2))
    def test_matches_path_enumeration_oracle(self, a, b):
        assert tree_sim(a, b) == sim_oracle(a, b)

    def test_malformed_child_counts(self):
        # Hand-built trees that break the arity table: children pair left to
        # right and the unpaired ones count for nothing.
        short = RadicalTree("⿰", (RadicalTree("A"),))
        full = node("⿰", RadicalTree("A"), RadicalTree("B"))
        assert tree_weights(short) == [Fraction(1, 2), Fraction(1, 2)]
        assert tree_sim(short, full) == 1
        assert tree_sim(full, short) == Fraction(2, 3)

    def test_deeper_than_recursion_limit(self, arities):
        depth = 3000
        tokens = ["⿰"] * depth + ["A"] * (depth + 1)
        x = parse_sequence(tokens, arities)
        y = parse_sequence(tokens[:-1] + ["B"], arities)
        weights = tree_weights(x)
        assert sum(weights) == 1
        assert weights[depth - 1:depth + 2] == [Fraction(1, 3 ** depth)] * 3
        assert weights[-1] == Fraction(1, 3)
        assert tree_sim(x, y) == tree_sim(y, x) == Fraction(2, 3)

    def test_matches_oracle_on_mutated_pairs(self):
        rng = random.Random(19)
        for _ in range(200):
            a = random_tree(rng, max_depth=3)
            b = mutate(rng, a)
            assert tree_sim(a, b) == sim_oracle(a, b)


class TestLargeTrees:
    """Random trees of up to about 10^4 nodes, against the oracle."""

    @staticmethod
    def large_trees(rng, count=6):
        out = []
        while len(out) < count:
            tree = random_tree(rng, max_depth=12, structure_prob=0.88)
            if rssl(tree) >= 1000:
                out.append(tree)
        return out

    def test_weights_are_unit_fractions_summing_to_one(self):
        trees = self.large_trees(random.Random(53))
        assert max(rssl(t) for t in trees) >= 5000
        for tree in trees:
            weights = tree_weights(tree)
            assert len(weights) == rssl(tree)
            assert all(w.numerator == 1 for w in weights)
            assert sum(weights) == 1

    def test_sim_matches_oracle(self):
        rng = random.Random(59)
        trees = self.large_trees(rng)
        assert max(rssl(t) for t in trees) >= 5000
        for a, other in zip(trees, trees[1:]):
            b = a
            for _ in range(rng.randint(1, 20)):
                b = mutate(rng, b)
            assert tree_sim(a, b) == sim_oracle(a, b) < 1
            assert tree_sim(a, other) == sim_oracle(a, other)
            assert tree_sim(a, a) == sim_oracle(a, a) == 1


class TestCharSim:
    def test_same_character(self, sample_table):
        assert char_sim("好", "好", sample_table) == 1
        assert char_sim("@", "@", sample_table) == 1

    def test_untabulated_distinct_characters(self, sample_table):
        assert char_sim("@", "%", sample_table) == 0

    def test_tabulated_pair_equals_tree_sim(self, sample_table, arities):
        expected = tree_sim(
            parse_sequence(["⿰", "女", "子"], arities),
            parse_sequence(["⿰", "女", "马"], arities),
        )
        assert char_sim("好", "妈", sample_table) == expected == Fraction(2, 3)

    def test_tabulated_vs_fallback(self):
        table = DecompositionTable()
        assert char_sim("a", "b", table) == 0
        assert char_sim("a", "a", table) == 1


class TestCharSimOnRandomTables:
    """char_sim reads the table's preorder arrays; the oracle scores the
    trees that lookup builds."""

    # Untabulated: two structure tokens, whose fallback leaves are radicals
    # with a structure's symbol, and two radicals, "A" also a tree leaf.
    UNTABULATED = ("⿰", "⿲", "@", "A")

    def test_matches_oracle_in_both_orders(self):
        rng = random.Random(83)
        for _ in range(8):
            bases = [random_tree(rng, max_depth=rng.randint(0, 4)) for _ in range(3)]
            bases.append(node("⿰", random_tree(rng, max_depth=2), random_tree(rng, max_depth=2)))
            trees = bases + [mutate(rng, rng.choice(bases)) for _ in range(6)]
            chars = [chr(0x4E00 + i) for i in range(len(trees))]
            table = DecompositionTable(dict(zip(chars, map(to_preorder, trees))))
            pool = chars + list(self.UNTABULATED)
            for c1 in pool:
                for c2 in pool:
                    assert char_sim(c1, c2, table) == sim_oracle(table.lookup(c1),
                                                                 table.lookup(c2))

    def test_matches_oracle_below_3000_level_chains(self, tmp_path):
        # Each tree is a chain of 3000 structure nodes, each with a radical
        # as its second child, over a small random tree.  The chain is
        # scored in closed form and the tree below it by the oracle.
        depth = 3000
        rng = random.Random(89)

        def chain_tokens(chain):
            structures, radicals, bottom = chain
            return [*structures, *to_preorder(bottom), *reversed(radicals)]

        def chain_sim(a, b):
            total, w = Fraction(0), Fraction(1)
            for sa, sb, ra, rb in zip(a[0], b[0], a[1], b[1]):
                if sa != sb:
                    return total
                w /= 3
                total += w * (1 + (ra == rb))
            return total + w * sim_oracle(a[2], b[2])

        base = (["⿰"] * depth, rng.choices("AB", k=depth), random_tree(rng, max_depth=3))
        chains = [base]
        for _ in range(3):
            structures, radicals, bottom = list(base[0]), list(base[1]), base[2]
            if rng.random() < 0.5:
                structures[rng.randrange(depth // 2, depth)] = "⿱"
            for t in rng.sample(range(depth), 3):
                radicals[t] = "C"
            chains.append((structures, radicals, mutate(rng, bottom)))
        chars = [chr(0x4E00 + i) for i in range(len(chains))]
        path = tmp_path / "deep.tsv"
        path.write_text("".join(f"{c}\t{' '.join(chain_tokens(ch))}\n"
                                for c, ch in zip(chars, chains)), encoding="utf-8")
        table = DecompositionTable.load(path)
        for c1, a in zip(chars, chains):
            for c2, b in zip(chars, chains):
                assert char_sim(c1, c2, table) == chain_sim(a, b)
            assert char_sim("⿰", c1, table) == 1  # the fallback leaf has no children
            assert char_sim(c1, "⿰", table) == Fraction(1, 3)
