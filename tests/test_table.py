import random
import re
from pathlib import Path

import pytest

from helpers import parse_cases, parse_oracle, random_tree, subtree_ends_oracle
from radtree.errors import DuplicateEntry, MalformedLine, RadtreeError, TableParseError
from radtree.metrics import evaluate
from radtree.table import DecompositionTable
from radtree.targets import export_targets, radical_weights
from radtree.tree import (
    ArityTable,
    RadicalTree,
    check_sequence,
    iter_preorder,
    parse_sequence,
    rssl,
    to_preorder,
)
from radtree.treesim import char_sim

SAMPLE_TABLE = Path(__file__).resolve().parent.parent / "data" / "sample_table.tsv"


def write(tmp_path, text, name="table.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_basic_entry(self, tmp_path):
        table = DecompositionTable.load(write(tmp_path, "好\t⿰ 女 子\n"))
        assert len(table) == 1
        assert rssl(table.lookup("好")) == 3

    def test_single_leaf_entry(self, tmp_path):
        table = DecompositionTable.load(write(tmp_path, "A\tA\n"))
        assert table.lookup("A") == RadicalTree("A")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        table = DecompositionTable.load(write(tmp_path, "# header\n\n好\t⿰ 女 子\n"))
        assert len(table) == 1

    def test_duplicate_character_rejected(self, tmp_path):
        path = write(tmp_path, "好\t⿰ 女 子\n好\t好\n")
        with pytest.raises(DuplicateEntry):
            DecompositionTable.load(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        with pytest.raises(MalformedLine):
            DecompositionTable.load(write(tmp_path, "好 ⿰ 女 子\n"))
        with pytest.raises(MalformedLine):
            DecompositionTable.load(write(tmp_path, "好\t⿰ 女\t子\n"))

    def test_leading_byte_order_mark_ignored(self, tmp_path):
        table = DecompositionTable.load(write(tmp_path, "\ufeff好\t⿰ 女 子\n"))
        assert table.chars() == ["好"]

    def test_multichar_key_rejected(self, tmp_path):
        with pytest.raises(MalformedLine):
            DecompositionTable.load(write(tmp_path, "好的\t好\n"))

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write(tmp_path, "好\t⿰ 女 子\n\n妈\t⿰ 女\n")
        with pytest.raises(TableParseError, match=":3:"):
            DecompositionTable.load(path)

    def test_trailing_tokens_reported(self, tmp_path):
        with pytest.raises(TableParseError):
            DecompositionTable.load(write(tmp_path, "好\t女 子\n"))

    def test_custom_arities(self, tmp_path):
        arities = ArityTable({"PAIR": 2})
        table = DecompositionTable.load(write(tmp_path, "x\tPAIR a b\n"), arities)
        assert rssl(table.lookup("x")) == 3

    @pytest.mark.parametrize("entries, error, message", [
        ({"x": ["⿰", "A"]}, TableParseError,
         "entry 'x': sequence ended at token 2 while a subtree was still incomplete"),
        ({"好": ["⿰", "女", "子"], "x": ["⿰", "A", "B", "C"]}, TableParseError,
         "entry 'x': 1 token(s) left over at position 3 after the tree closed"),
        ({"x": []}, MalformedLine, "entry 'x': empty token sequence"),
        ({"x": ["⿰", "", "B"]}, MalformedLine, "entry 'x': empty token at position 1"),
        # The shape of "y" was checked with "x", and its empty token is still caught.
        ({"x": ["⿰", "A", "B"], "y": ["⿰", "A", ""]}, MalformedLine,
         "entry 'y': empty token at position 2"),
    ])
    def test_invalid_direct_entry_rejected(self, arities, entries, error, message):
        with pytest.raises(error) as caught:
            DecompositionTable(entries, arities)
        assert type(caught.value) is error and str(caught.value) == message

    def test_load_relies_on_parse_sequence_alone(self, tmp_path):
        table = DecompositionTable.load(write(tmp_path, "好\t⿰ 女 子\n林\t⿰ 木 木\n"))
        assert table.chars() == ["好", "林"]
        assert table.lookup("林") == parse_sequence(["⿰", "木", "木"], table.arities)

    def test_accepts_and_rejects_like_the_parser_oracle(self, tmp_path):
        """``load`` of a line and the constructor given its token sequence decide
        alike, with the same error but for its prefix, and as the parser oracle."""
        path = tmp_path / "table.tsv"
        rng = random.Random(18)
        for arities, tokens in parse_cases(rng, 400):
            path.write_text(f"X\t{' '.join(tokens)}\n", encoding="utf-8")
            split = " ".join(tokens).split()
            outcomes = []
            for prefix, make in ((f"{path}:1: ", lambda: DecompositionTable.load(path, arities)),
                                 ("entry 'X': ", lambda: DecompositionTable({"X": split},
                                                                            arities))):
                try:
                    table = make()
                except RadtreeError as exc:
                    assert str(exc).startswith(prefix)
                    outcomes.append((type(exc), str(exc)[len(prefix):], type(exc.__cause__)))
                else:
                    outcomes.append((table.tokens("X"), table._preorder("X"), table.lookup("X")))
            assert outcomes[0] == outcomes[1]
            if not split:
                assert outcomes[0] == (MalformedLine, "empty token sequence", type(None))
                continue
            try:
                want = parse_oracle(split, arities)
            except RadtreeError as exc:
                assert outcomes[0] == (TableParseError, str(exc), type(exc))
                continue
            assert outcomes[0][0] == tuple(split) and outcomes[0][2] == want


class TestLookup:
    def test_tabulated(self, sample_table):
        assert rssl(sample_table.lookup("森")) == 5

    def test_fallback_leaf_for_unknown(self, sample_table):
        assert sample_table.lookup("@") == RadicalTree("@")
        assert rssl(sample_table.lookup("@")) == 1

    def test_lookup_is_total(self, sample_table):
        for char in ["", " ", "\t", "好", "𠀀"]:
            if char:
                assert sample_table.lookup(char) is not None

    def test_contains_and_len(self, sample_table):
        assert "好" in sample_table
        assert "@" not in sample_table
        assert len(sample_table) == 6

    def test_repr_counts_the_entries(self, sample_table):
        assert repr(sample_table) == "DecompositionTable(6 entries)"
        assert repr(DecompositionTable()) == "DecompositionTable(0 entries)"


class TestTokenEntries:
    @pytest.fixture
    def tables(self, tmp_path, sample_table):
        rng = random.Random(5)
        path = tmp_path / "random.tsv"
        path.write_text("".join(
            f"{chr(0x4E00 + n)}\t{' '.join(to_preorder(random_tree(rng)))}\n"
            for n in range(60)), encoding="utf-8")
        return [DecompositionTable.load(SAMPLE_TABLE), DecompositionTable.load(path), sample_table]

    def test_lookup_builds_a_fresh_parsed_tree(self, tables):
        for table in tables:
            for char in table.chars():
                tree = table.lookup(char)
                assert tree == parse_sequence(table.tokens(char), table.arities)
                assert table.lookup(char) == tree
                assert table.lookup(char) is not tree

    def test_token_count_is_rssl(self, tables):
        for table in tables:
            for char in table.chars():
                assert len(table.tokens(char)) == rssl(table.lookup(char))

    def test_untabulated_tokens_are_the_character(self, tables):
        for table in tables:
            assert table.tokens("@") == ("@",)
            assert table.tokens("⿰") == ("⿰",)

    def test_save_then_load_round_trips(self, tmp_path, tables):
        for n, table in enumerate(tables):
            path = tmp_path / f"saved{n}.tsv"
            table.save(path)
            reloaded = DecompositionTable.load(path, table.arities)
            assert reloaded.chars() == table.chars()
            for char in table.chars():
                assert reloaded.tokens(char) == table.tokens(char)
                assert reloaded.lookup(char) == table.lookup(char)

    def test_inventory_is_every_node_symbol(self, tables):
        for table in tables:
            walked = {node.symbol for char in table.chars()
                      for node in iter_preorder(table.lookup(char))}
            assert table.radical_inventory() == walked

    def test_load_keeps_one_string_per_distinct_token(self, tmp_path):
        rng = random.Random(23)
        path = tmp_path / "random.tsv"
        lines = [(chr(0x4E00 + n), to_preorder(random_tree(rng))) for n in range(200)]
        path.write_text("".join(f"{char}\t{'  '.join(tokens)} \n" for char, tokens in lines),
                        encoding="utf-8")
        sample = [line.split("\t") for line in SAMPLE_TABLE.read_text("utf-8").splitlines()
                  if not line.startswith("#")]
        for source, entries in ((SAMPLE_TABLE, [(c, seq.split()) for c, seq in sample]),
                                (path, lines)):
            table, first, occurrences = DecompositionTable.load(source), {}, 0
            for char, tokens in entries:
                stored = table.tokens(char)
                assert stored == tuple(tokens)
                counts = table.arities.child_counts(stored)
                assert table._preorder(char) == (stored, counts, subtree_ends_oracle(counts))
                for token in stored:
                    assert first.setdefault(token, token) is token
                occurrences += len(stored)
            assert occurrences > len(first)  # tokens repeat, so sharing is tested
            saved = tmp_path / "saved.tsv"
            table.save(saved)
            assert saved.read_text(encoding="utf-8") == "".join(
                f"{char}\t{' '.join(tokens)}\n" for char, tokens in entries)

    def test_constructor_stores_the_callers_sequences(self, arities):
        entries = {"好": ["⿰", "女", "子"], "A": ("A",), "森": ["⿱", "木", "⿰", "木", "木"]}
        table = DecompositionTable(entries, arities)
        assert table.chars() == ["好", "A", "森"]
        assert table.tokens("好") == ("⿰", "女", "子") and table.tokens("A") == ("A",)
        assert table.tokens("森") == ("⿱", "木", "⿰", "木", "木")
        for char in table.chars():
            assert table.lookup(char) == parse_sequence(table.tokens(char), arities)

    def test_load_builds_no_tree(self, tmp_path, monkeypatch):
        built = []
        init = RadicalTree.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RadicalTree, "__init__", counting_init)
        table = DecompositionTable.load(SAMPLE_TABLE)
        assert len(table) == 10
        table.save(tmp_path / "saved.tsv")
        table.radical_inventory()
        assert [len(table.tokens(c)) for c in table.chars()] == [3, 3, 3, 5, 5, 3, 4, 3, 3, 3]
        assert built == []
        table.lookup("森")
        assert len(built) == 5
        for char in (*table.chars(), "@"):  # a lookup builds each node once, every call
            for _ in range(2):
                built.clear()
                assert rssl(table.lookup(char)) == len(built)


class TestInventory:
    def test_example(self, tmp_path):
        table = DecompositionTable.load(write(tmp_path, "好\t⿰ 女 子\n"))
        assert table.radical_inventory() == {"⿰", "女", "子"}

    def test_empty_table(self):
        assert DecompositionTable().radical_inventory() == set()

    def test_shared_tokens_not_double_counted(self, tmp_path):
        table = DecompositionTable.load(write(tmp_path, "好\t⿰ 女 子\n字\t⿰ 女 子\n"))
        assert len(table.radical_inventory()) == 3

    def test_invariant_under_entry_order(self, tmp_path):
        a = DecompositionTable.load(write(tmp_path, "好\t⿰ 女 子\n林\t⿰ 木 木\n", "a.tsv"))
        b = DecompositionTable.load(write(tmp_path, "林\t⿰ 木 木\n好\t⿰ 女 子\n", "b.tsv"))
        assert a.radical_inventory() == b.radical_inventory()


class TestRoundTrip:
    def test_save_then_load_reproduces_entries(self, tmp_path, sample_table):
        path = tmp_path / "out.tsv"
        sample_table.save(path)
        reloaded = DecompositionTable.load(path)
        assert reloaded.chars() == sample_table.chars()
        for char in sample_table.chars():
            assert reloaded.lookup(char) == sample_table.lookup(char)

    def test_saved_bytes_are_stable(self, tmp_path, sample_table):
        p1, p2 = tmp_path / "one.tsv", tmp_path / "two.tsv"
        sample_table.save(p1)
        DecompositionTable.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestShapeCache:
    """Child counts are stored per entry at load and subtree ends kept per shape."""

    @staticmethod
    def make_tables(tmp_path):
        rng = random.Random(31)
        trees = [random_tree(rng, max_depth=3) for _ in range(80)]
        path = tmp_path / "random.tsv"
        path.write_text("".join(f"{chr(0x4E00 + n)}\t{' '.join(to_preorder(tree))}\n"
                                for n, tree in enumerate(trees)), encoding="utf-8")
        return [DecompositionTable.load(SAMPLE_TABLE), DecompositionTable.load(path),
                DecompositionTable({chr(0x4E00 + n): to_preorder(tree)
                                    for n, tree in enumerate(trees)})]

    @pytest.fixture
    def tables(self, tmp_path):
        return self.make_tables(tmp_path)

    @pytest.fixture
    def child_counts_calls(self, monkeypatch):
        calls = []
        original = ArityTable.child_counts

        def counting(self, tokens):
            calls.append(tuple(tokens))
            return original(self, tokens)

        monkeypatch.setattr(ArityTable, "child_counts", counting)
        return calls

    def use_every_entry(self, table):
        chars = table.chars()
        gt = {f"s{n}": "".join(chars[n:n + 5]) for n in range(len(chars))}
        pred = {sid: text[::-1] for sid, text in gt.items()}
        evaluate(gt, pred, table, occn={chars[0]: 3})
        for a, b in zip(chars, chars[1:] + chars[:1]):
            char_sim(a, b, table)
        for char in chars:
            radical_weights(char, table, "treesim")
        export_targets(chars, table, max(len(table.tokens(c)) for c in chars) + 1, "treesim")

    def test_load_computes_child_counts_once_per_entry(self, child_counts_calls):
        table = DecompositionTable.load(SAMPLE_TABLE)
        assert sorted(child_counts_calls) == sorted(table.tokens(c) for c in table.chars())
        child_counts_calls.clear()
        rows = {char: list(table.tokens(char)) for char in table.chars()}
        built = DecompositionTable(rows)
        assert child_counts_calls == [tuple(tokens) for tokens in rows.values()]
        assert [built._preorder(c) for c in rows] == [table._preorder(c) for c in rows]

    def test_readers_never_recompute_child_counts(self, tables, child_counts_calls):
        for table in tables:
            self.use_every_entry(table)
        assert child_counts_calls == []

    def test_subtree_ends_once_per_distinct_shape_per_table(self, tmp_path, monkeypatch):
        seen = []

        def counting(tokens, counts):
            seen.append(counts)
            return check_sequence(tokens, counts)

        monkeypatch.setattr("radtree.table.check_sequence", counting)
        tables = self.make_tables(tmp_path)
        for table in tables:
            self.use_every_entry(table)
            self.use_every_entry(table)
        shapes = [{table._preorder(c)[1] for c in table.chars()} for table in tables]
        assert sorted(seen) == sorted(counts for per_table in shapes for counts in per_table)

    def test_equal_shapes_share_one_counts_tuple(self, tables):
        for table in tables:
            by_shape = {}
            for char in table.chars():
                tokens, counts, ends = table._preorder(char)
                assert counts == table.arities.child_counts(tokens)
                assert ends == subtree_ends_oracle(counts)
                assert by_shape.setdefault(counts, counts) is counts
            assert len(by_shape) < len(table)
        assert tables[0]._preorder("好")[1] is tables[0]._preorder("林")[1]

    def test_constructor_checks_each_distinct_shape_once(self, monkeypatch):
        rng = random.Random(37)
        entries = {chr(0x4E00 + n): to_preorder(random_tree(rng, max_depth=4)) for n in range(50)}
        seen = []

        def counting(tokens, counts):
            seen.append(counts)
            return check_sequence(tokens, counts)

        monkeypatch.setattr("radtree.table.check_sequence", counting)
        table = DecompositionTable(entries)
        shapes = list(dict.fromkeys(table._preorder(c)[1] for c in entries))
        assert seen == shapes and len(shapes) < len(entries)
        for char, tokens in entries.items():
            counts = table.arities.child_counts(tokens)
            assert table._preorder(char) == (tuple(tokens), counts, subtree_ends_oracle(counts))

    def test_fallback_leaf_arrays(self, sample_table):
        assert sample_table._preorder("@") == (("@",), (0,), [1])

    @pytest.mark.parametrize("bad, message", [
        ("女 子 马", "2 token(s) left over at position 1 after the tree closed"),
        ("⿰ ⿰ 木", "sequence ended at token 3 while a subtree was still incomplete"),
        ("⿰ 木", "sequence ended at token 2 while a subtree was still incomplete"),
    ])
    def test_first_bad_line_reported_when_its_length_repeats(self, tmp_path, bad, message):
        # Line 3 has as many tokens as the valid entries before it, but another shape.
        text = f"好\t⿰ 女 子\n林\t⿰ 木 木\n妈\t{bad}\n国\t⿴ 囗 玉\n字\t{bad}\n"
        path = write(tmp_path, text)
        with pytest.raises(TableParseError) as caught:
            DecompositionTable.load(path)
        assert str(caught.value) == f"{path}:3: {message}"
        with pytest.raises(type(caught.value.__cause__), match=f"^{re.escape(message)}$"):
            parse_sequence(bad.split(), ArityTable())


class TestKeep:
    """``load(keep=...)`` stores only the kept entries and checks every line alike."""

    def test_kept_entries_are_those_of_a_full_load(self, tmp_path):
        rng = random.Random(1801)
        # Neighbouring code points share a byte of the dropped-key bit set.
        pool = [chr(0x4E00 + n) for n in range(200)] + ["é", "𠀀", "𠀁", "\U0010FFFF"]
        path = tmp_path / "table.tsv"
        for _ in range(60):
            keys = rng.sample(pool, rng.randint(0, 80))
            DecompositionTable({k: to_preorder(random_tree(rng, max_depth=4))
                                for k in keys}).save(path)
            full = DecompositionTable.load(path)
            keep = set(rng.sample(pool, rng.randint(0, len(pool)))) | {"@", "xy"}
            kept = DecompositionTable.load(path, keep=keep)
            assert kept.chars() == [c for c in full.chars() if c in keep]
            for char in pool:
                if char in keep:
                    assert kept.tokens(char) == full.tokens(char)
                    assert kept._preorder(char) == full._preorder(char)
                else:
                    assert char not in kept
                    assert kept.tokens(char) == (char,)
                    assert kept._preorder(char) == ((char,), (0,), [1])

    def test_keep_none_and_every_key_store_the_whole_table(self, sample_table_path):
        full = DecompositionTable.load(sample_table_path)
        for keep in (None, set(full.chars()), full.chars()):
            table = DecompositionTable.load(sample_table_path, keep=keep)
            assert table.chars() == full.chars()
            assert [table._preorder(c) for c in full.chars()] == [
                full._preorder(c) for c in full.chars()]

    def test_empty_keep_stores_nothing(self, sample_table_path):
        table = DecompositionTable.load(sample_table_path, keep=set())
        assert len(table) == 0 and table.radical_inventory() == set()

    @pytest.mark.parametrize("text", [
        "好 ⿰ 女 子\n",
        "好\t⿰ 女\t子\n",
        "好的\t好\n",
        "\t好\n",
        "好\t⿰ 女 子\n好\t好\n",
        "好\t⿰ 女 子\n林\t⿰ 木 木\n好\t好\n",
        "𠀀\tA\n林\t⿰ 木 木\n𠀀\tB\n",
        "\U0010FFFF\tA\n\U0010FFFE\tA\n\U0010FFFF\tA\n",
        "好\t\n",
        "好\t  \n",
        "好\t⿰ 女\n",
        "好\t女 子\n",
        "好\t⿰ 女 子\n\n妈\t⿰ 女\n",
        "好\t⿰ 女 子\n林\t⿰ 木 木\n妈\t⿰ ⿰ 木\n国\t⿴ 囗 玉\n字\t⿰ ⿰ 木\n",
        "好\t⿰ 女 子\n林\t⿰ 木 木\n妈\t女 子 马\n字\t女 子 马\n",
        "好\t⿰ 女 子\n妈\t⿰ 女 子\n妈\t⿰ 女\n",
    ])
    def test_a_malformed_table_fails_alike_whatever_is_kept(self, tmp_path, text):
        path = write(tmp_path, text)
        keys = {line.split("\t")[0] for line in text.splitlines()}
        with pytest.raises(RadtreeError) as full:
            DecompositionTable.load(path)
        rng = random.Random(text)
        for keep in (set(), keys, {rng.choice(sorted(keys))}, keys - {rng.choice(sorted(keys))}):
            with pytest.raises(RadtreeError) as kept:
                DecompositionTable.load(path, keep=keep)
            assert type(kept.value) is type(full.value)
            assert str(kept.value) == str(full.value)
            assert type(kept.value.__cause__) is type(full.value.__cause__)

    @pytest.mark.parametrize("text, key", [
        ("好\t⿰ 女 子\n林\t⿰ 木 木\n𠀀\tA\n好\t好\n𠀀\tB\n", "好"),
        ("好\t⿰ 女 子\n林\t⿰ 木 木\n𠀀\tA\n𠀀\tB\n", "𠀀"),  # above U+FFFF
    ])
    def test_a_duplicate_of_a_dropped_key_is_named(self, tmp_path, text, key):
        path = write(tmp_path, text)
        with pytest.raises(DuplicateEntry) as caught:
            DecompositionTable.load(path, keep={"林"})
        assert str(caught.value) == f"{path}:4: duplicate entry for {key!r}"

    def test_keys_at_the_bit_sets_edges_and_sharing_its_bytes(self, tmp_path):
        # U+0000 and U+0007 share the first byte, U+0008 opens the next; 好 and
        # U+597E share a byte; U+10FFFF is the last bit.
        keys = ["\x00", "\x07", "\x08", "好", chr(ord("好") + 1), "\U0010FFFF"]
        text = "".join(f"{key}\t⿰ 女 子\n" for key in keys)
        path = write(tmp_path, text)
        for keep in (None, set(), set(keys)):
            table = DecompositionTable.load(path, keep=keep)
            assert table.chars() == ([] if keep == set() else keys)
        for key in keys:
            path = write(tmp_path, f"{text}{key}\t女\n")
            for keep in (None, set(), set(keys)):
                with pytest.raises(DuplicateEntry) as caught:
                    DecompositionTable.load(path, keep=keep)
                assert str(caught.value) == f"{path}:{len(keys) + 1}: duplicate entry for {key!r}"

    def test_a_file_that_is_not_utf8_fails_alike(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_bytes("好\t⿰ 女 子\n".encode("utf-8") + b"\xe5\xa5\n")
        messages = set()
        for keep in (None, set(), {"好"}):
            with pytest.raises(MalformedLine) as caught:
                DecompositionTable.load(path, keep=keep)
            messages.add(str(caught.value))
        assert len(messages) == 1
