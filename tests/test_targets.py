import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import dumps_lines, random_tree, weighted_ce_oracle
from radtree.errors import (
    DuplicateEntry,
    InvalidDistribution,
    MalformedLine,
    SequenceTooLong,
    ShapeMismatch,
    UnknownToken,
)
from radtree import table as table_module
from radtree.table import DecompositionTable
from radtree.targets import (
    EOS_INDEX,
    EOS_TOKEN,
    MAX_LEN_LIMIT,
    PAD_INDEX,
    PAD_TOKEN,
    RadicalVocab,
    TargetRecord,
    _plan,
    build_vocab,
    export_lines,
    export_targets,
    radical_weights,
    weighted_ce,
)
from radtree.textio import write_lines
from radtree.tree import rssl, to_preorder
from radtree.treesim import tree_weights


class TestVocab:
    def test_size_is_inventory_plus_reserved(self, tmp_path, arities):
        path = tmp_path / "t.tsv"
        path.write_text("好\t⿰ 女 子\n", encoding="utf-8")
        vocab = build_vocab(DecompositionTable.load(path))
        assert len(vocab) == 5

    def test_empty_table_keeps_reserved_only(self):
        vocab = build_vocab(DecompositionTable())
        assert len(vocab) == 2
        assert vocab.tokens == (PAD_TOKEN, EOS_TOKEN)

    def test_reserved_indices(self, sample_table):
        vocab = build_vocab(sample_table)
        assert vocab.encode([PAD_TOKEN])[0] == PAD_INDEX == 0
        assert vocab.encode([EOS_TOKEN])[0] == EOS_INDEX == 1

    def test_data_tokens_sorted_from_two(self, sample_table):
        vocab = build_vocab(sample_table)
        data = vocab.tokens[2:]
        assert list(data) == sorted(data)
        assert set(data) == sample_table.radical_inventory()

    def test_rebuild_is_identical(self, sample_table):
        assert build_vocab(sample_table) == build_vocab(sample_table)

    def test_equality_with_another_type_is_left_to_it(self, sample_table):
        vocab = build_vocab(sample_table)
        assert vocab.__eq__(object()) is NotImplemented
        assert (vocab == object()) is False and vocab != (PAD_TOKEN, EOS_TOKEN)

    def test_repr_counts_the_tokens(self):
        assert repr(RadicalVocab(["A", "B"])) == "RadicalVocab(4 tokens)"

    def test_unknown_token(self, sample_table):
        with pytest.raises(UnknownToken):
            build_vocab(sample_table).encode(["nope"])

    def test_chars_add_the_leaf_token_of_each_untabulated_one(self, sample_table):
        vocab = build_vocab(sample_table, ["@", "好", "@", "\n"])
        want = sorted(sample_table.radical_inventory() | {"@", "\n"})
        assert vocab.tokens == (PAD_TOKEN, EOS_TOKEN, *want)
        assert "好" not in vocab.tokens  # tabulated: its tokens are the table's

    def test_save_load_round_trip(self, tmp_path, sample_table):
        vocab = build_vocab(sample_table)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert RadicalVocab.load(path) == vocab

    def test_encode(self, sample_table):
        vocab = build_vocab(sample_table)
        tokens = to_preorder(sample_table.lookup("好"))
        assert vocab.encode(tokens) == [vocab.encode([t])[0] for t in tokens]

    def test_reserved_collision_rejected(self):
        with pytest.raises(ValueError):
            RadicalVocab([PAD_TOKEN])

    @pytest.mark.parametrize("text, error, message", [
        ("<pad>\t0\n<eos>\tone\n", MalformedLine, "vocab.tsv:2: index 'one' is not an integer"),
        # int() reads each of these as the right index; save writes none of them.
        ("<pad>\t0\n<eos>\t+1\n", MalformedLine, "vocab.tsv:2: index '+1' is not an integer"),
        ("<pad>\t0\n<eos>\t01\n", MalformedLine, "vocab.tsv:2: index '01' is not an integer"),
        ("<pad>\t0\n<eos>\t1\na\t 0_2\n", MalformedLine,
         "vocab.tsv:3: index ' 0_2' is not an integer"),
        ("<pad>\t0\n<eos>\t1\na\t2\nb\t\u0663\n", MalformedLine,
         "vocab.tsv:4: index '\u0663' is not an integer"),
        ("<pad>\t0\n<eos>\t1\na\t2 \n", MalformedLine,
         "vocab.tsv:3: index '2 ' is not an integer"),
        ("<pad>\t0\n<eos>\t1\nA\t1\n", DuplicateEntry, "vocab.tsv:3: duplicate index 1"),
    ])
    def test_load_rejections(self, tmp_path, text, error, message):
        path = tmp_path / "vocab.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error) as info:
            RadicalVocab.load(path)
        assert type(info.value) is error
        assert str(info.value) == f"{tmp_path}{os.sep}{message}"

    @pytest.mark.parametrize("text", [
        "",
        "<pad>\t0\n",
        "<pad>\t0\n<eos>\t1\nA\t3\n",  # a gap
        "<pad>\t1\n<eos>\t2\nA\t3\n",  # no index 0
        "<pad>\t0\n<eos>\t1\nA\t-1\n",
        "<eos>\t0\n<pad>\t1\n",
        "<pad>\t0\nA\t1\n<eos>\t2\n",
        "<pad>\t0\n<eos>\t1\n<pad>\t2\n",  # a repeated token
        "<pad>\t0\n<eos>\t1\nA\t2\nA\t3\n",
        "<pad>\t0\n<eos>\t1\nb\t2\na\t3\n",  # data tokens out of order
    ], ids=ascii)
    def test_load_refuses_a_file_save_would_not_write(self, tmp_path, text):
        path = tmp_path / "vocab.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedLine) as info:
            RadicalVocab.load(path)
        assert str(info.value) == (f"{path}: expected <pad> 0, <eos> 1, then sorted distinct "
                                   "data tokens from 2 with no gap")

    def test_load_orders_tokens_by_index_not_by_line(self, tmp_path, sample_table):
        vocab = build_vocab(sample_table)
        lines = [f"{token}\t{i}\n" for i, token in enumerate(vocab.tokens)]
        random.Random(0).shuffle(lines)
        assert lines[:2] != [f"{PAD_TOKEN}\t0\n", f"{EOS_TOKEN}\t1\n"]
        path = tmp_path / "vocab.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        assert RadicalVocab.load(path) == vocab


class TestRadicalWeights:
    def test_leaf_naive(self, sample_table):
        assert radical_weights("@", sample_table, "naive") == [Fraction(1)]

    def test_pair_treesim(self, sample_table):
        assert radical_weights("好", sample_table, "treesim", 1) == [Fraction(4, 3)] * 3

    def test_nested_treesim(self, arities):
        table = DecompositionTable({"X": ["⿰", "A", "⿱", "B", "C"]}, arities)
        assert radical_weights("X", table, "treesim", 1) == [
            Fraction(4, 3), Fraction(4, 3),
            Fraction(10, 9), Fraction(10, 9), Fraction(10, 9),
        ]

    def test_lambda_zero_reduces_to_naive(self, sample_table):
        for char in ["好", "森", "@"]:
            assert radical_weights(char, sample_table, "treesim", 0) == \
                radical_weights(char, sample_table, "naive")

    def test_difference_is_lambda_times_tree_weights(self, sample_table):
        for lam in (0, 0.5, 1):
            for char in ["好", "森", "街", "@"]:
                naive = radical_weights(char, sample_table, "naive", lam)
                enhanced = radical_weights(char, sample_table, "treesim", lam)
                expected = [Fraction(lam) * w for w in tree_weights(sample_table.lookup(char))]
                assert [e - n for e, n in zip(enhanced, naive)] == expected

    def test_data_sum_is_rssl_plus_lambda(self, sample_table):
        for lam in (0, 0.5, 1):
            for char in ["好", "森", "街"]:
                weights = radical_weights(char, sample_table, "treesim", lam)
                assert sum(weights) == rssl(sample_table.lookup(char)) + Fraction(lam)

    def test_mode_validation(self, sample_table):
        with pytest.raises(ValueError):
            radical_weights("好", sample_table, "fancy")
        with pytest.raises(ValueError):
            radical_weights("好", sample_table, "treesim", -1)
        for lam in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="lambda must be a finite number"):
                radical_weights("好", sample_table, "treesim", lam)


class TestExportTargets:
    def test_leaf_naive_padding(self, sample_table):
        (record,) = export_targets(["@"], sample_table, 4, "naive")
        assert record.tokens == ("@",)
        assert record.indices[1:] == (EOS_INDEX, PAD_INDEX, PAD_INDEX)
        assert record.weights == (1.0, 1.0, 0.0, 0.0)

    def test_pair_treesim_weights(self, sample_table):
        (record,) = export_targets(["好"], sample_table, 4, "treesim", 1)
        third = float(Fraction(4, 3))
        assert record.weights == (third, third, third, 1.0)

    def test_record_length_is_max_len(self, sample_table):
        for record in export_targets(list("好妈林森品街@x"), sample_table, 9, "treesim"):
            assert len(record.indices) == len(record.weights) == 9

    def test_unpadded_length_is_rssl_plus_one(self, sample_table):
        for record in export_targets(list("好森@"), sample_table, 9, "naive"):
            data = [i for i in record.indices if i != PAD_INDEX]
            assert len(data) == rssl(sample_table.lookup(record.char)) + 1
            assert data[-1] == EOS_INDEX

    def test_too_long_reports_character_and_length(self, sample_table):
        with pytest.raises(SequenceTooLong, match="森"):
            export_targets(["好", "森"], sample_table, 5, "naive")

    @pytest.mark.parametrize("max_len", [MAX_LEN_LIMIT + 1, 10**19])
    def test_max_len_above_the_limit_is_refused(self, sample_table, max_len):
        with pytest.raises(ValueError, match=f"at most {MAX_LEN_LIMIT}, got {max_len}$"):
            export_targets(["好"], sample_table, max_len, "naive")

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_max_len_below_one_is_refused_for_any_charset(self, sample_table, max_len):
        with pytest.raises(ValueError, match=f"^max_len must be at least 1, got {max_len}$"):
            export_targets([], sample_table, max_len, "naive")
        with pytest.raises(ValueError, match=f"^max_len must be at least 1, got {max_len}$"):
            export_lines([], sample_table, max_len, "treesim", 1, build_vocab(sample_table))

    def test_charset_order_preserved(self, sample_table):
        records = export_targets(["妈", "好"], sample_table, 4, "naive")
        assert [r.char for r in records] == ["妈", "好"]

    def test_explicit_vocab_must_cover_tokens(self, sample_table):
        vocab = build_vocab(sample_table)
        with pytest.raises(UnknownToken):
            export_targets(["@"], sample_table, 4, "naive", vocab=vocab)

    def test_callers_vocab_lacking_a_tabulated_token(self, sample_table):
        vocab = RadicalVocab(["⿰", "女", "马"])  # 好 is ⿰ 女 子
        assert len(export_targets(["妈"], sample_table, 4, "naive", vocab=vocab)) == 1
        with pytest.raises(UnknownToken, match="^token '子' is not in the vocabulary$"):
            export_targets(["妈", "好", "妈"], sample_table, 4, "naive", vocab=vocab)
        with pytest.raises(UnknownToken, match="^token '子' is not in the vocabulary$"):
            export_lines(["妈", "好"], sample_table, 4, "naive", 1, vocab)

    def test_jsonl_round_trip(self, tmp_path, sample_table):
        records = export_targets(list("好妈@"), sample_table, 6, "treesim")
        path = tmp_path / "targets.jsonl"
        write_lines(path, export_lines(list("好妈@"), sample_table, 6, "treesim", 1,
                                       build_vocab(sample_table, ["@"])))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        for record, line in zip(records, lines):
            payload = json.loads(line)
            assert payload == json.loads(json.dumps(record._asdict()))  # tuples as arrays
            assert tuple(payload["weights"]) == record.weights

    def test_mode_and_lambda_checked_before_any_character(self, sample_table):
        with pytest.raises(ValueError, match="mode"):
            export_targets([], sample_table, 4, "bogus")
        with pytest.raises(ValueError, match="lambda"):
            export_targets([], sample_table, 4, "treesim", -1)
        # 森 is too long for max_len 2, but the bad lambda is reported first.
        with pytest.raises(ValueError, match="lambda"):
            export_targets(["森"], sample_table, 2, "treesim", -1)

    def test_a_lambda_past_the_float_range_is_a_value_error(self, sample_table):
        huge, vocab = Fraction(10 ** 400), build_vocab(sample_table)
        for export in (export_targets, lambda *args: "".join(export_lines(*args, vocab))):
            with pytest.raises(ValueError, match="too large for a float"):
                export(["好"], sample_table, 5, "treesim", huge)
            with pytest.raises(ValueError, match="too large for a float"):  # before max_len
                export(["森"], sample_table, 2, "treesim", huge)
            assert export(["好"], sample_table, 5, "naive", huge)  # naive ignores lambda
        # The largest float lambda still exports: 1 + lambda rounds to a finite float.
        # A lone leaf has node weight 1, so its data weight 1 + lambda bounds every other.
        [leaf_record] = export_targets(["@"], sample_table, 5, "treesim", sys.float_info.max)
        assert leaf_record.weights[0] == sys.float_info.max
        exact = radical_weights("好", sample_table, "treesim", huge)
        assert exact == [1 + huge / 3] * 3
        assert sum(exact) == 3 + huge

    def test_weights_are_floats_of_radical_weights(self, arities):
        rng = random.Random(61)
        trees = [random_tree(rng, max_depth=5) for _ in range(40)]
        chars = [chr(0x4E00 + i) for i in range(len(trees))]
        table = DecompositionTable(dict(zip(chars, map(to_preorder, trees))), arities)
        max_len = max(rssl(t) for t in trees) + 1
        lams = (0, 0.1, 0.5, 1, 3, 1e-300, 1e300, 2 ** 70, Fraction(1, 3))
        for lam in lams:
            for mode in ("naive", "treesim"):
                records = export_targets(chars, table, max_len, mode, lam)
                for record, tree in zip(records, trees):
                    expected = [float(w) for w in radical_weights(record.char, table, mode, lam)]
                    assert list(record.weights[:rssl(tree)]) == expected
        naive = export_targets(chars, table, max_len, "naive", 0.5)
        assert export_targets(chars, table, max_len, "treesim", 0) == naive

    def test_jsonl_bytes_deterministic(self, tmp_path, sample_table):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (p1, p2):
            write_lines(path, export_lines(list("好妈@"), sample_table, 6, "treesim", 1,
                                           build_vocab(sample_table, ["@"])))
        assert p1.read_bytes() == p2.read_bytes()


class TestShapeRows:
    """export_targets computes one weight row per tree shape and shares it."""

    ROWS = {
        "甲": "⿰ A B",
        "乙": "⿰ C D",        # the shape of 甲, other symbols
        "丙": "⿰ A ⿱ B C",    # five tokens ...
        "丁": "⿱ ⿰ A B C",    # ... in another shape
        "戊": '⿱ " \\',       # radicals that JSON escapes
        "己": "口",
    }

    @pytest.fixture
    def table(self, tmp_path):
        path = tmp_path / "shapes.tsv"
        path.write_text("".join(f"{c}\t{seq}\n" for c, seq in self.ROWS.items()),
                        encoding="utf-8")
        return DecompositionTable.load(path)

    def test_rows_are_floats_of_radical_weights(self, table):
        chars = [*self.ROWS, "@", "⿰"]  # two untabulated, one a structure token
        for mode in ("naive", "treesim"):
            for lam in (1, 0.5, Fraction(1, 3)):
                for max_len in (6, 7, 12, 40):
                    for record in export_targets(chars, table, max_len, mode, lam):
                        data = [float(w) for w in radical_weights(record.char, table, mode, lam)]
                        pad = max_len - len(data) - 1
                        assert record.weights == (*data, 1.0, *[0.0] * pad)
                        assert record.tokens == table.tokens(record.char)

    def test_same_shape_shares_one_row(self, table):
        by_char = {r.char: r for r in export_targets([*self.ROWS, "@"], table, 8, "treesim")}
        assert by_char["甲"].weights is by_char["乙"].weights
        assert by_char["己"].weights is by_char["@"].weights
        assert by_char["丙"].weights != by_char["丁"].weights
        assert by_char["丙"].weights[:5] == (4 / 3, 4 / 3, 10 / 9, 10 / 9, 10 / 9)

    def test_plan_shares_one_entry_per_shape(self, table):
        chars = [*self.ROWS, "@"]
        plan = _plan(chars, table, 8, "treesim", 1, build_vocab(table, chars))
        entry = dict(zip(chars, plan, strict=True))
        assert entry["甲"] is entry["乙"] is entry["戊"]  # child counts (2, 0, 0)
        assert entry["己"] is entry["@"]
        assert entry["丙"] is not entry["丁"]
        assert len(set(map(id, plan))) == 4

    def test_builds_one_tree_per_shape(self, table, monkeypatch):
        built = []
        build = table_module.build_checked

        def counting_build(tokens, arities):
            built.append(tuple(tokens))
            return build(tokens, arities)

        monkeypatch.setattr(table_module, "build_checked", counting_build)
        export_targets(list(self.ROWS) * 3, table, 8, "treesim")
        assert built == []  # rows come from the preorder arrays

    # A table token holds no whitespace, so "\n" and "\u2028" come as untabulated
    # characters, which reach the same escaping as ``char`` and as their leaf token.
    POOL, ODD_CHARS = ['"', "\\", "A", "\x00", "𠀀"], ["\n", "\u2028"]

    def test_jsonl_bytes_equal_json_dumps(self, tmp_path, table):
        rng = random.Random(200)
        trees = [random_tree(rng, max_depth=4, leaf_pool=self.POOL) for _ in range(200)]
        chars = [chr(0x4E00 + i) for i in range(len(trees))]
        big = DecompositionTable(dict(zip(chars, map(to_preorder, trees))))
        max_len = max(rssl(t) for t in trees) + 3
        path = tmp_path / "out.jsonl"
        for tab, charset in ((big, [*chars, *self.ODD_CHARS]),
                             (table, [*self.ROWS, "@", '"', *self.ODD_CHARS])):
            vocab = build_vocab(tab, charset)
            for mode in ("naive", "treesim"):
                records = export_targets(charset, tab, max_len, mode)
                write_lines(path, export_lines(charset, tab, max_len, mode, 1, vocab))
                assert path.read_bytes() == dumps_lines(records).encode("utf-8")

    LAMS = (0, 0.1, Fraction(1, 3), 1e-300, 1e300, 2 ** 70)

    def test_joined_pieces_equal_json_dumps_at_every_lambda(self, table):
        rng = random.Random(200)
        trees = [random_tree(rng, max_depth=4, leaf_pool=self.POOL) for _ in range(200)]
        chars = [chr(0x4E00 + i) for i in range(len(trees))]
        big = DecompositionTable(dict(zip(chars, map(to_preorder, trees))))
        max_len = max(rssl(t) for t in trees) + 3
        for tab, charset in ((big, [*chars, *self.ODD_CHARS]),
                             (table, [*self.ROWS, "@", '"', *self.ODD_CHARS])):
            vocab = build_vocab(tab, charset)
            for lam in self.LAMS:
                for mode in ("naive", "treesim"):
                    records = export_targets(charset, tab, max_len, mode, lam)
                    joined = "".join(export_lines(charset, tab, max_len, mode, lam, vocab))
                    assert joined == dumps_lines(records)

    def test_records_equal_the_parsed_lines(self, arities):
        """export_targets' records are export_lines' lines read back with tuples for
        lists, value and type alike, and records of one shape share one row object."""
        rng = random.Random(3131)
        for _ in range(6):
            n = rng.randint(1, 80)
            trees = [random_tree(rng, max_depth=rng.randint(1, 5), leaf_pool=self.POOL)
                     for _ in range(n)]
            chars = [chr(0x4E00 + i) for i in range(n)]
            table = DecompositionTable(dict(zip(chars, map(to_preorder, trees))), arities)
            charset = [*rng.sample(chars, rng.randint(0, n)), "@", chars[0], *self.ODD_CHARS]
            max_len = max(map(rssl, trees)) + rng.randint(1, 3)
            vocab = build_vocab(table, charset)
            for lam in (0, Fraction(1, 3), 1e-300, 2 ** 70):
                for mode in ("naive", "treesim"):
                    records = export_targets(charset, table, max_len, mode, lam, vocab)
                    text = "".join(export_lines(charset, table, max_len, mode, lam, vocab))
                    parsed = [TargetRecord(**{key: tuple(v) if type(v) is list else v
                                              for key, v in json.loads(line).items()})
                              for line in text.split("\n")[:-1]]
                    assert list(map(repr, records)) == list(map(repr, parsed))
                    rows = {}
                    for record in records:
                        shape = table._preorder(record.char)[1]
                        assert rows.setdefault(shape, record.weights) is record.weights

    def test_export_lines_yields_a_head_and_its_shapes_ascii_tail(self, table):
        chars = [*self.ROWS, "@", '"', "甲"]
        vocab = build_vocab(table, chars)
        pieces = list(export_lines(chars, table, 8, "treesim", 1, vocab))
        assert len(pieces) == 2 * len(chars) and all(type(p) is str for p in pieces)
        lines = dumps_lines(export_targets(chars, table, 8, "treesim")).splitlines(keepends=True)
        assert [head + tail for head, tail in zip(pieces[::2], pieces[1::2])] == lines
        tail = dict(zip(chars, pieces[1::2]))
        assert all(t.isascii() for t in tail.values())
        assert not all(head.isascii() for head in pieces[::2])
        assert tail["甲"] is tail["乙"] is tail["戊"]  # child counts (2, 0, 0)
        assert tail["己"] is tail["@"] is tail['"']
        assert tail["丙"] is not tail["丁"]
        assert pieces[-1] is tail["甲"]

    def test_export_lines_raises_before_yielding_a_piece(self, table):
        chars = [*self.ROWS, "@"]  # 丙 and 丁 need length 6; the characters before fit in 4
        vocab = build_vocab(table, chars)
        with pytest.raises(SequenceTooLong, match="^character '丙' needs length 6"):
            export_lines(chars, table, 4, "treesim", 1, vocab)
        with pytest.raises(UnknownToken, match="^token '@' is not in the vocabulary$"):
            export_lines(chars, table, 8, "treesim", 1, build_vocab(table))
        with pytest.raises(ValueError, match="lambda"):
            export_lines(chars, table, 8, "treesim", float("nan"), vocab)

    @pytest.mark.parametrize("existing", [None, b"kept\n"])
    def test_a_charset_with_a_lone_surrogate_writes_nothing(self, tmp_path, sample_table,
                                                             existing):
        # The leaf token of "\udcff" is not UTF-8, so no vocabulary holds it.
        chars, path = ["好", "\udcff"], tmp_path / "targets.jsonl"
        if existing is not None:
            path.write_bytes(existing)
        refused = r"^token '\\udcff' is not UTF-8$"
        with pytest.raises(ValueError, match=refused):
            write_lines(path, export_lines(chars, sample_table, 8, "treesim", 1,
                                           build_vocab(sample_table, chars)))
        with pytest.raises(ValueError, match=refused):
            write_lines(path, (json.dumps(record._asdict(), ensure_ascii=False) + "\n"
                               for record in export_targets(chars, sample_table, 8, "treesim")))
        with pytest.raises(UnknownToken, match=r"^token '\\udcff' is not in the vocabulary$"):
            write_lines(path, export_lines(chars, sample_table, 8, "treesim", 1,
                                           build_vocab(sample_table, ["好"])))
        assert (path.read_bytes() if path.exists() else None) == existing


class TestWeightedCe:
    def test_one_hot_correct_is_zero(self):
        rows = np.eye(5)[[0, 3, 2]]
        assert weighted_ce(rows, [0, 3, 2], [1.0, 2.5, 0.1]) == 0.0

    def test_uniform_over_four(self):
        loss = weighted_ce([[0.25] * 4], [2], [1.0])
        assert abs(loss - math.log(4)) <= 1e-12

    def test_all_zero_weights(self):
        assert weighted_ce([[0.5, 0.5]], [0], [0.0]) == 0.0

    def test_empty_inputs(self):
        assert weighted_ce([], [], []) == 0.0

    def test_doubling_weights_doubles_loss(self):
        rng = np.random.default_rng(83)
        rows = rng.dirichlet(np.ones(6), size=10)
        targets = rng.integers(0, 6, size=10)
        weights = rng.uniform(0.1, 2.0, size=10)
        assert weighted_ce(rows, targets, 2 * weights) == 2 * weighted_ce(rows, targets, weights)

    def test_linearity_random_factor(self):
        rng = np.random.default_rng(89)
        rows = rng.dirichlet(np.ones(4), size=8)
        targets = rng.integers(0, 4, size=8)
        weights = rng.uniform(0.1, 2.0, size=8)
        factor = 1.7
        assert abs(weighted_ce(rows, targets, factor * weights)
                   - factor * weighted_ce(rows, targets, weights)) <= 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            rows = rng.dirichlet(np.ones(5), size=6)
            targets = rng.integers(0, 5, size=6)
            weights = rng.uniform(0, 2, size=6)
            assert weighted_ce(rows, targets, weights) >= 0.0

    def test_pad_positions_cost_nothing(self):
        rows = [[1.0, 0.0], [0.7, 0.3]]
        # Second row is wrong but weighted 0, as a PAD slot would be.
        assert weighted_ce(rows, [0, 1], [1.0, 0.0]) == 0.0

    def test_mean_reduction(self):
        rows = [[0.25] * 4, [0.25] * 4, [1.0, 0, 0, 0]]
        total = weighted_ce(rows, [0, 1, 2], [1.0, 1.0, 0.0])
        mean = weighted_ce(rows, [0, 1, 2], [1.0, 1.0, 0.0], reduction="mean")
        assert abs(mean - total / 2) <= 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            weighted_ce([[0.5, 0.5]], [0, 1], [1.0])
        with pytest.raises(ShapeMismatch):
            weighted_ce([[0.5, 0.5]], [7], [1.0])
        with pytest.raises(ShapeMismatch):  # one row, no target
            weighted_ce([[]], [], [])

    def test_invalid_distribution(self):
        with pytest.raises(InvalidDistribution):
            weighted_ce([[0.5, 0.6]], [0], [1.0])
        with pytest.raises(InvalidDistribution):
            weighted_ce([[1.5, -0.5]], [0], [1.0])

    def test_non_finite_probabilities_refused(self):
        with pytest.raises(InvalidDistribution):
            weighted_ce([[math.nan, 1.0]], [1], [1.0])
        with pytest.raises(InvalidDistribution):  # even in a zero-weight row
            weighted_ce([[1.0, 0.0], [math.nan, math.nan]], [0, 1], [1.0, 0.0])

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weights_refused(self, weight):
        for row in ([0.5, 0.5], [1.0, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                weighted_ce([row, [0.5, 0.5]], [0, 1], [weight, 1.0])

    @pytest.mark.parametrize("targets", [[0.7], [0.0], np.array([1.0]), ["0"], [True],
                                         np.array([True])])
    def test_non_integer_targets_refused(self, targets):
        with pytest.raises(ShapeMismatch):
            weighted_ce([[0.5, 0.5]], targets, [1.0])

    def test_empty_targets_stay_valid(self):
        assert weighted_ce(np.zeros((0, 3)), [], []) == 0.0
        assert weighted_ce([], np.array([], dtype=np.int64), np.array([])) == 0.0

    @pytest.mark.parametrize("rows", [[[0.5, 0.5], [1.0]], [["a", "b"]], [[0.5, 0.5], 1.0]])
    def test_ragged_or_non_numeric_rows_refused(self, rows):
        targets, weights = [0] * len(rows), [1.0] * len(rows)
        with pytest.raises(ShapeMismatch):
            weighted_ce(rows, targets, weights)

    def test_reduction_validation(self):
        with pytest.raises(ValueError):
            weighted_ce([[1.0]], [0], [1.0], reduction="median")

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(101)
        for size in (1, 7, 40, 300):
            rows = rng.dirichlet(np.ones(6), size=size)
            targets = rng.integers(0, 6, size=size)
            weights = rng.uniform(0.0, 2.0, size=size)
            expected = weighted_ce_oracle(rows, targets, weights)
            assert abs(weighted_ce(rows, targets, weights) - expected) <= 1e-12 * expected

    def test_order_of_positions_does_not_change_the_loss(self):
        rng = np.random.default_rng(103)
        rows = rng.dirichlet(np.ones(5), size=200)
        targets = rng.integers(0, 5, size=200)
        weights = rng.uniform(0.0, 3.0, size=200)
        loss = weighted_ce(rows, targets, weights)
        for _ in range(10):
            order = rng.permutation(200)
            assert weighted_ce(rows[order], targets[order], weights[order]) == loss

    def test_needs_no_numpy(self):
        script = ("import math, sys\n"
                  "sys.modules['numpy'] = None\n"  # any import of numpy now fails
                  "from radtree import weighted_ce\n"
                  "print(abs(weighted_ce([[0.25] * 4], [2], [1.0]) - math.log(4)) <= 1e-12)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True)
        assert (done.returncode, done.stdout) == (0, "True\n"), done.stderr


def test_generated_weights_feed_reference_loss(sample_table):
    # End-to-end: exported weights drive the reference loss to zero on
    # one-hot-correct predictions and above zero otherwise.
    vocab = build_vocab(sample_table, ["@"])
    (record,) = export_targets(["好"], sample_table, 5, "treesim", vocab=vocab)
    n, v = len(record.indices), len(vocab)
    perfect = np.zeros((n, v))
    perfect[np.arange(n), record.indices] = 1.0
    assert weighted_ce(perfect, record.indices, record.weights) == 0.0
    uniform = np.full((n, v), 1.0 / v)
    assert weighted_ce(uniform, record.indices, record.weights) > 0.0


def test_random_trees_keep_weight_identities(arities):
    rng = random.Random(101)
    for _ in range(50):
        tree = random_tree(rng, max_depth=4)
        table = DecompositionTable({"x": to_preorder(tree)}, arities)
        enhanced = radical_weights("x", table, "treesim", 1)
        assert sum(enhanced) == rssl(tree) + 1
        assert all(w > 1 for w in enhanced)
