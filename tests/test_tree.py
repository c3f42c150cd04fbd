import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from helpers import (
    DEFAULT_ARITIES,
    STRUCTURES,
    all_paths,
    node,
    parse_cases,
    parse_oracle,
    random_tree,
    replace_at,
    subtree_at,
    subtree_ends_oracle,
)
from radtree.errors import (
    DuplicateEntry,
    MalformedLine,
    RadtreeError,
    TableParseError,
    TrailingTokens,
    Underflow,
)
from radtree.table import DecompositionTable
from radtree.tree import (
    ArityTable,
    RadicalTree,
    check_sequence,
    iter_preorder,
    parse_sequence,
    rssl,
    to_preorder,
)


def leaves():
    return st.sampled_from("ABCDE").map(RadicalTree)


def trees(max_depth=3):
    if max_depth == 0:
        return leaves()
    return st.one_of(
        leaves(),
        st.sampled_from(STRUCTURES).flatmap(
            lambda s: st.tuples(
                *[trees(max_depth - 1)] * DEFAULT_ARITIES.arity(s)
            ).map(lambda cs: RadicalTree(s, cs))
        ),
    )


class TestArityTable:
    def test_default_has_the_twelve_description_characters(self, arities):
        assert len(arities) == 12
        assert arities.arity("⿲") == 3
        assert arities.arity("⿳") == 3
        for token, arity in arities.items():
            if token not in ("⿲", "⿳"):
                assert arity == 2

    def test_membership_decides_kind(self, arities):
        assert "⿰" in arities and "⿱" in arities
        assert "A" not in arities and "木" not in arities

    def test_repr_counts_the_structures(self, arities):
        assert repr(arities) == "ArityTable(12 structures)"
        assert repr(ArityTable({"P": 2})) == "ArityTable(1 structures)"

    def test_rejects_arity_below_two(self):
        with pytest.raises(ValueError):
            ArityTable({"x": 1})

    def test_rejects_an_empty_token(self):
        with pytest.raises(ValueError) as info:
            ArityTable({"P": 2, "": 2})
        assert str(info.value) == "empty structure token"

    def test_from_file(self, tmp_path):
        path = tmp_path / "arities.tsv"
        path.write_text("# custom operators\nPAIR\t2\n\nTRIPLE\t3\n", encoding="utf-8")
        table = ArityTable.from_file(path)
        assert table.arity("PAIR") == 2
        assert table.arity("TRIPLE") == 3
        assert len(table) == 2

    def test_from_file_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "arities.tsv"
        path.write_text("PAIR 2\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            ArityTable.from_file(path)
        path.write_text("PAIR\ttwo\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            ArityTable.from_file(path)
        path.write_text("PAIR\t1\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            ArityTable.from_file(path)
        path.write_text("PAIR\t2\nPAIR\t3\n", encoding="utf-8")
        with pytest.raises(DuplicateEntry):
            ArityTable.from_file(path)

    def test_from_file_names_the_line_of_an_empty_token(self, tmp_path):
        path = tmp_path / "arities.tsv"
        path.write_text("PAIR\t2\n\t2\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=r"arities\.tsv:2: empty structure token$"):
            ArityTable.from_file(path)


class TestParseSequence:
    def test_single_radical_is_its_own_tree(self, arities):
        tree = parse_sequence(["A"], arities)
        assert tree == RadicalTree("A")
        assert rssl(tree) == 1

    def test_nested_structure(self, arities):
        tree = parse_sequence(["⿰", "A", "⿱", "B", "C"], arities)
        assert tree == node("⿰", RadicalTree("A"),
                            node("⿱", RadicalTree("B"), RadicalTree("C")))

    def test_underflow_on_missing_child(self, arities):
        with pytest.raises(Underflow, match="^sequence ended at token 2 while a subtree"):
            parse_sequence(["⿰", "A"], arities)

    def test_trailing_tokens_after_complete_tree(self, arities):
        with pytest.raises(TrailingTokens,
                           match=r"^2 token\(s\) left over at position 3 after the tree closed$"):
            parse_sequence(["⿰", "A", "B", "C", "D"], arities)

    def test_empty_sequence_underflows(self, arities):
        with pytest.raises(Underflow):
            parse_sequence([], arities)

    def test_empty_token_rejected(self, arities):
        with pytest.raises(MalformedLine):
            parse_sequence(["⿰", "", "B"], arities)

    def test_deterministic(self, arities):
        tokens = ["⿳", "A", "⿰", "B", "C", "D"]
        assert parse_sequence(tokens, arities) == parse_sequence(tokens, arities)

    def test_a_wrong_child_count_does_not_reparse_to_the_tree(self, arities):
        """``parse_sequence(to_preorder(tree), arities) == tree`` is the check of a
        hand-built tree: a node with a child too few or too many, or a radical
        with children, fails to parse back or parses to another tree."""
        bad = [
            RadicalTree("⿰", (RadicalTree("A"),)),
            RadicalTree("⿲", (RadicalTree("A"),) * 4),
            RadicalTree("A", (RadicalTree("B"), RadicalTree("C"))),
            node("⿰", RadicalTree("⿱", (RadicalTree("C"),)),
                 RadicalTree("A", (RadicalTree("B"),))),
        ]
        rng = random.Random(23)
        for _ in range(200):
            tree = random_tree(rng, max_depth=4)
            assert parse_sequence(to_preorder(tree), arities) == tree
            path = rng.choice(all_paths(tree))
            target = subtree_at(tree, path)
            children = target.children[:-1] if target.children and rng.random() < 0.5 else (
                *target.children, random_tree(rng, max_depth=2))
            bad.append(replace_at(tree, path, RadicalTree(target.symbol, children)))
        for tree in bad:
            try:
                assert parse_sequence(to_preorder(tree), arities) != tree
            except (Underflow, TrailingTokens):
                pass

    def test_every_strict_prefix_underflows(self, arities):
        rng = random.Random(7)
        for _ in range(50):
            tokens = to_preorder(random_tree(rng, max_depth=4))
            if len(tokens) < 2:
                continue
            for cut in range(len(tokens)):
                with pytest.raises(Underflow):
                    parse_sequence(tokens[:cut], arities)


class TestCheckSequence:
    def test_returns_the_subtree_ends(self, arities):
        tokens = ["⿳", "A", "⿰", "B", "C", "D"]
        assert check_sequence(tokens, arities.child_counts(tokens)) == [6, 2, 5, 4, 5, 6]

    def test_ends_equal_the_forward_count_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            symbols, counts = random_tree(rng, max_depth=5)._shape()
            assert check_sequence(symbols, counts) == subtree_ends_oracle(counts)

    def test_one_child_nodes_of_a_hand_built_tree(self):
        tree = node("A", RadicalTree("B", (RadicalTree("C"),)), RadicalTree("D"))
        symbols, counts = tree._shape()
        assert counts == (2, 1, 0, 0)
        assert check_sequence(symbols, counts) == [4, 3, 3, 4] == subtree_ends_oracle(counts)


def outcome(parse, tokens, arities):
    """The parsed tree, or the (type, message) of the error it raised."""
    try:
        return parse(tokens, arities)
    except RadtreeError as exc:
        return type(exc), str(exc)


class TestParseOracle:
    def test_matches_open_node_parser(self):
        rng = random.Random(11)
        kinds = set()
        for arities, tokens in parse_cases(rng, 1500):
            want = outcome(parse_oracle, tokens, arities)
            assert outcome(parse_sequence, tokens, arities) == want, tokens
            kinds.add(want[0] if isinstance(want, tuple) else RadicalTree)
        assert kinds == {RadicalTree, Underflow, TrailingTokens, MalformedLine}

    def test_child_counts(self, arities):
        assert arities.child_counts(["⿲", "A", "⿰", "B", "C", "D"]) == (3, 0, 2, 0, 0, 0)
        assert arities.child_counts([]) == ()


class TestSerialization:
    def test_leaf(self):
        assert to_preorder(RadicalTree("A")) == ["A"]

    def test_nested(self):
        tree = node("⿰", RadicalTree("A"), node("⿱", RadicalTree("B"), RadicalTree("C")))
        assert to_preorder(tree) == ["⿰", "A", "⿱", "B", "C"]

    def test_arity_three(self):
        tree = node("⿲", RadicalTree("A"), RadicalTree("B"), RadicalTree("C"))
        assert to_preorder(tree) == ["⿲", "A", "B", "C"]

    @given(trees())
    def test_round_trip(self, tree):
        assert parse_sequence(to_preorder(tree), DEFAULT_ARITIES) == tree

    def test_round_trip_deep_left_spine(self, arities):
        # 10001 nodes, 5000 levels: far past the interpreter's recursion limit.
        tokens = ["⿰"] * 5000 + ["A"] * 5001
        tree = parse_sequence(tokens, arities)
        assert to_preorder(tree) == tokens
        assert rssl(tree) == 10001
        depth = 0
        while tree.children:
            assert tree.children[1] == RadicalTree("A")
            tree = tree.children[0]
            depth += 1
        assert depth == 5000

    def test_round_trip_random(self, arities):
        rng = random.Random(11)
        for _ in range(200):
            tree = random_tree(rng, max_depth=5)
            assert parse_sequence(to_preorder(tree), arities) == tree


class TestRssl:
    def test_examples(self):
        assert rssl(RadicalTree("A")) == 1
        assert rssl(node("⿰", RadicalTree("A"),
                         node("⿱", RadicalTree("B"), RadicalTree("C")))) == 5
        assert rssl(node("⿳", RadicalTree("A"), RadicalTree("B"),
                         node("⿰", RadicalTree("C"), RadicalTree("D")))) == 6
        assert rssl(node("⿰", node("⿱", RadicalTree("A"), RadicalTree("B")),
                         node("⿱", RadicalTree("C"), RadicalTree("D")))) == 7

    def test_matches_sequence_length(self):
        rng = random.Random(3)
        for _ in range(100):
            tree = random_tree(rng, max_depth=5)
            assert rssl(tree) == len(to_preorder(tree))

    @given(trees())
    def test_recursion(self, tree):
        assert rssl(tree) == 1 + sum(rssl(c) for c in tree.children)


# What a hand-built tree's preorder meets: (error class, message) from
# parse_sequence, or None where it parses back to another tree; and the same
# from DecompositionTable({"X": preorder}), or None where the table accepts it.
LONE_VIOLATIONS = [
    (RadicalTree(""), (MalformedLine, "empty token at position 0"),
     (MalformedLine, "entry 'X': empty token at position 0")),
    (RadicalTree("⿰", (RadicalTree("A"),)),
     (Underflow, "sequence ended at token 2 while a subtree was still incomplete"),
     (TableParseError,
      "entry 'X': sequence ended at token 2 while a subtree was still incomplete")),
    (RadicalTree("⿲", (RadicalTree("A"),) * 4),
     (TrailingTokens, "1 token(s) left over at position 4 after the tree closed"),
     (TableParseError, "entry 'X': 1 token(s) left over at position 4 after the tree closed")),
    (RadicalTree("A", (RadicalTree("B"), RadicalTree("C"))),
     (TrailingTokens, "2 token(s) left over at position 1 after the tree closed"),
     (TableParseError, "entry 'X': 2 token(s) left over at position 1 after the tree closed")),
]

NESTED_VIOLATIONS = [
    (RadicalTree("⿰", (RadicalTree("A", (RadicalTree("B"),)),)), None, None),
    (node("⿰", RadicalTree("A", (RadicalTree("B"),)), RadicalTree("⿱", (RadicalTree("C"),))),
     (TrailingTokens, "2 token(s) left over at position 3 after the tree closed"),
     (TableParseError, "entry 'X': 2 token(s) left over at position 3 after the tree closed")),
    (node("⿰", RadicalTree("⿱", (RadicalTree("C"),)), RadicalTree("A", (RadicalTree("B"),))),
     None, None),
    (node("⿰", RadicalTree(""), RadicalTree("A", (RadicalTree("B"),))),
     (MalformedLine, "empty token at position 1"),
     (MalformedLine, "entry 'X': empty token at position 1")),
    (node("⿰", RadicalTree("A", (RadicalTree("B"),)), RadicalTree("")),
     (TrailingTokens, "1 token(s) left over at position 3 after the tree closed"),
     (MalformedLine, "entry 'X': empty token at position 3")),
    (node("⿰", node("⿱", RadicalTree("X"), RadicalTree("A", (RadicalTree(""),))),
          RadicalTree("⿲", (RadicalTree("C"),))),
     (MalformedLine, "empty token at position 4"),
     (MalformedLine, "entry 'X': empty token at position 4")),
]


def check_hand_built(tree, arities, parsed, tabled):
    tokens = to_preorder(tree)
    if parsed is None:
        assert parse_sequence(tokens, arities) != tree
    else:
        with pytest.raises(parsed[0]) as info:
            parse_sequence(tokens, arities)
        assert str(info.value) == parsed[1]
    if tabled is None:
        table = DecompositionTable({"X": tokens}, arities)
        assert table.tokens("X") == tuple(tokens) and table.lookup("X") != tree
    else:
        with pytest.raises(tabled[0]) as info:
            DecompositionTable({"X": tokens}, arities)
        assert str(info.value) == tabled[1]


class TestHandBuiltTrees:
    """``parse_sequence(to_preorder(tree), arities) == tree`` checks a hand-built
    tree, and ``DecompositionTable`` checks its preorder as it checks a table
    line: each rejects a node with the wrong child count or a radical with
    children, or sees that the preorder stands for another tree."""

    def test_accepts_valid(self, arities):
        tree = node("⿰", RadicalTree("A"), RadicalTree("B"))
        assert parse_sequence(to_preorder(tree), arities) == tree
        assert DecompositionTable({"X": to_preorder(tree)}, arities).lookup("X") == tree

    def test_the_preorder_and_its_child_counts_are_the_trees_shape(self, arities):
        tree = node("⿰", RadicalTree("A"),
                    node("⿲", RadicalTree("B"), RadicalTree("C"), RadicalTree("D")))
        tokens = to_preorder(tree)
        assert (tuple(tokens), arities.child_counts(tokens)) == (
            ("⿰", "A", "⿲", "B", "C", "D"), (2, 0, 3, 0, 0, 0))
        rng = random.Random(23)
        for tree in (random_tree(rng, max_depth=4) for _ in range(50)):
            tokens = to_preorder(tree)
            assert (tuple(tokens), arities.child_counts(tokens)) == tree._shape()

    def test_rejects_wrong_child_count(self, arities):
        with pytest.raises(TableParseError):
            DecompositionTable({"X": to_preorder(RadicalTree("⿰", (RadicalTree("A"),)))}, arities)

    def test_rejects_radical_with_children(self, arities):
        tree = RadicalTree("A", (RadicalTree("B"), RadicalTree("C")))
        with pytest.raises(TableParseError):
            DecompositionTable({"X": to_preorder(tree)}, arities)

    @pytest.mark.parametrize("tree, parsed, tabled", LONE_VIOLATIONS)
    def test_messages(self, arities, tree, parsed, tabled):
        check_hand_built(tree, arities, parsed, tabled)

    @pytest.mark.parametrize("tree, parsed, tabled", NESTED_VIOLATIONS)
    def test_nested_violations(self, arities, tree, parsed, tabled):
        check_hand_built(tree, arities, parsed, tabled)


# A plain frozen dataclass with RadicalTree's name and fields: its generated
# __eq__, __hash__ and __repr__ are the recursive ones RadicalTree replaced.
GeneratedTree = dataclasses.make_dataclass(
    "RadicalTree", [("symbol", str), ("children", tuple, dataclasses.field(default=()))],
    frozen=True)


def generated(tree):
    return GeneratedTree(tree.symbol, tuple(generated(c) for c in tree.children))


class TestIdentity:
    @given(trees(), trees())
    def test_matches_generated_methods(self, a, b):
        assert repr(a) == repr(generated(a))
        assert (a == b) == (generated(a) == generated(b))
        if a == b:
            assert hash(a) == hash(b)

    def test_malformed_child_counts(self):
        one = RadicalTree("⿰", (RadicalTree("A"),))
        two = node("⿰", RadicalTree("A"), RadicalTree("B"))
        for tree in (one, two, RadicalTree("A", (RadicalTree("B"),))):
            assert repr(tree) == repr(generated(tree))
        assert one != two and one != node("⿰", node("A", RadicalTree("B")))
        assert RadicalTree("⿰", (RadicalTree("A"),)) == one

    def test_immutable_and_rebuilt_by_pickle_and_copy(self):
        tree = node("⿰", RadicalTree("A"), node("⿱", RadicalTree("B"), RadicalTree("C")))
        for name in ("symbol", "children", "other"):
            with pytest.raises(AttributeError):
                setattr(tree, name, RadicalTree("X"))
            with pytest.raises(AttributeError):
                delattr(tree, name)
        for copied in (pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
            assert copied == tree and repr(copied) == repr(tree)

    def test_not_equal_to_other_types(self):
        assert RadicalTree("A") != "A"
        assert RadicalTree("A") != GeneratedTree("A")

    def test_spine_of_ten_thousand_nodes(self, arities):
        tokens = ["⿰"] * 5000 + ["A"] * 5001
        tree = parse_sequence(tokens, arities)
        same = parse_sequence(tokens, arities)
        other = parse_sequence(tokens[:-1] + ["B"], arities)
        assert tree == same and hash(tree) == hash(same)
        assert tree != other
        assert len({tree, same, other}) == 2

        def spine_repr(depth):
            a = "RadicalTree(symbol='A', children=())"
            return "RadicalTree(symbol='⿰', children=(" * depth + a + (", " + a + "))") * depth

        small = parse_sequence(["⿰"] * 3 + ["A"] * 4, arities)
        assert repr(generated(small)) == spine_repr(3)
        assert repr(tree) == spine_repr(5000)


def test_iter_preorder_order():
    tree = node("⿰", node("⿱", RadicalTree("A"), RadicalTree("B")), RadicalTree("C"))
    assert [n.symbol for n in iter_preorder(tree)] == ["⿰", "⿱", "A", "B", "C"]
