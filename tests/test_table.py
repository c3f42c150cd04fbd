import pytest

from radtree.errors import DuplicateEntry, MalformedLine, TableParseError
from radtree.table import DecompositionTable
from radtree.tree import ArityTable, RadicalTree, leaf, parse_sequence, rssl


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
        assert table.lookup("A") == leaf("A")

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

    def test_invalid_direct_entry_rejected(self, arities):
        bad = RadicalTree("⿰", (leaf("A"),))
        with pytest.raises(ValueError):
            DecompositionTable({"x": bad}, arities)

    def test_load_relies_on_parse_sequence_alone(self, tmp_path, monkeypatch):
        def fail(tree, arities):
            raise AssertionError("loaded trees are validated again")

        monkeypatch.setattr("radtree.table.validate_tree", fail)
        table = DecompositionTable.load(write(tmp_path, "好\t⿰ 女 子\n林\t⿰ 木 木\n"))
        assert table.chars() == ["好", "林"]
        assert table.lookup("林") == parse_sequence(["⿰", "木", "木"], table.arities)
        with pytest.raises(AssertionError):
            DecompositionTable({"好": table.lookup("好")})


class TestLookup:
    def test_tabulated(self, sample_table):
        assert rssl(sample_table.lookup("森")) == 5

    def test_fallback_leaf_for_unknown(self, sample_table):
        assert sample_table.lookup("@") == leaf("@")
        assert rssl(sample_table.lookup("@")) == 1

    def test_lookup_is_total(self, sample_table):
        for char in ["", " ", "\t", "好", "𠀀"]:
            if char:
                assert sample_table.lookup(char) is not None

    def test_contains_and_len(self, sample_table):
        assert "好" in sample_table
        assert "@" not in sample_table
        assert len(sample_table) == 6


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
