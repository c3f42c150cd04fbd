import random

import pytest

from radtree.errors import EmptyCharset, MalformedLine
from radtree.stats import count_occurrences, read_labels, rssl_distribution


class TestCountOccurrences:
    def test_basic(self):
        assert count_occurrences(["aab"]) == {"a": 2, "b": 1}

    def test_empty(self):
        assert count_occurrences([]) == {}

    def test_order_independent(self):
        assert count_occurrences(["ab", "ba"]) == {"a": 2, "b": 2}

    def test_chunking_invariant(self):
        rng = random.Random(79)
        text = "".join(rng.choice("好妈林ab ") for _ in range(500))
        cut = rng.randint(1, len(text) - 1)
        assert count_occurrences([text]) == count_occurrences([text[:cut], text[cut:]])

    def test_whitespace_counts(self):
        assert count_occurrences(["a b"])[" "] == 1


class TestRsslDistribution:
    def test_untabulated_chars_are_all_simple(self, sample_table):
        dist = rssl_distribution({"@", "%", "#"}, sample_table)
        assert dist["simple"] == {"count": 3, "fraction": 1.0}
        assert dist["sub_complex"]["count"] == 0
        assert dist["complex"]["count"] == 0

    def test_one_char_per_bucket(self, sample_table):
        # One entry each with 1, 5, and 7 nodes.
        from radtree.table import DecompositionTable

        table = DecompositionTable({
            "s": ["A"],
            "m": ["⿱", "木", "⿰", "木", "木"],
            "c": ["⿰", "⿱", "A", "B", "⿱", "C", "D"],
        }, sample_table.arities)
        dist = rssl_distribution({"s", "m", "c"}, table)
        for bucket in ("simple", "sub_complex", "complex"):
            assert dist[bucket]["count"] == 1
            assert abs(dist[bucket]["fraction"] - 1 / 3) < 1e-12

    def test_fractions_sum_to_one(self, sample_table):
        dist = rssl_distribution(set("好妈林森品街@xyz"), sample_table)
        assert abs(sum(row["fraction"] for row in dist.values()) - 1.0) <= 1e-12

    def test_empty_charset(self, sample_table):
        with pytest.raises(EmptyCharset):
            rssl_distribution(set(), sample_table)


class TestReadLabels:
    def test_plain(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("好妈\n\nab c\n", encoding="utf-8")
        assert read_labels(path) == ["好妈", "", "ab c"]

    def test_tsv_takes_text_column(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("id1\t好妈\nid2\tab\tc\n", encoding="utf-8")
        assert read_labels(path, "tsv") == ["好妈", "ab\tc"]

    def test_tsv_malformed(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("no tab here\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            read_labels(path, "tsv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            read_labels(tmp_path / "x", "csv")
