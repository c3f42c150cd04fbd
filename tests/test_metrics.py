import pickle
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest

from helpers import (
    brute_align,
    brute_levenshtein,
    evaluate_oracle,
    mutate,
    random_text,
    random_tree,
)
from radtree import metrics
from radtree.errors import DuplicateEntry, EmptyCorpus, MalformedLine, MissingId
from radtree.metrics import (
    DEFAULT_BUCKETS,
    DELETE,
    INSERT,
    OCCN_BUCKETS,
    RSSL_BUCKETS,
    SUBSTITUTE,
    BucketSpec,
    _edits,
    bucket_occn,
    bucket_rssl,
    evaluate,
    levenshtein,
    one_minus_ned,
    read_corpus_tsv,
)
from radtree.table import DecompositionTable
from radtree.tree import parse_sequence, to_preorder

ALPHABET = "ab好妈林森x"
# Around one and two 64-bit words, where the kernel's ints gain a digit.
BOUNDARY_LENGTHS = (0, 1, 63, 64, 65, 127, 128, 129)


def edited(rng: random.Random, text: str, rate: float = 0.15, alphabet: str = ALPHABET) -> str:
    """``text`` with random substitutions, deletions and insertions."""
    out = []
    for char in text:
        roll = rng.random()
        if roll < rate / 3:
            out.append(rng.choice(alphabet))
        elif roll < 2 * rate / 3:
            continue
        elif roll < rate:
            out += [char, rng.choice(alphabet)]
        else:
            out.append(char)
    return "".join(out)


def random_pairs(rng: random.Random, count: int, max_len: int):
    """Unrelated and near-identical pairs, plus pairs at word-boundary lengths."""
    for _ in range(count):
        a = random_text(rng, ALPHABET, max_len)
        yield a, random_text(rng, ALPHABET, max_len)
        yield a, edited(rng, a)
    for n in BOUNDARY_LENGTHS:
        for m in BOUNDARY_LENGTHS:
            a = random_text(rng, ALPHABET, n, n)
            b = random_text(rng, ALPHABET, m, m)
            yield a, b
            yield a, edited(rng, a)
            yield edited(rng, b), b


class TestLevenshtein:
    def test_known_values(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "abd") == 1
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_matches_brute_force(self):
        for a, b in random_pairs(random.Random(41), 300, 12):
            assert levenshtein(a, b) == brute_levenshtein(a, b), (a, b)

    def test_symmetric(self):
        rng = random.Random(43)
        for _ in range(100):
            a = random_text(rng, ALPHABET, 10)
            b = random_text(rng, ALPHABET, 10)
            assert levenshtein(a, b) == levenshtein(b, a)

    def test_memory_stays_flat_on_long_strings(self):
        # All DP rows of two 8k-char strings would take about 18 MB; one row is 2 kB.
        rng = random.Random(47)
        a, b = (random_text(rng, ALPHABET, 8000, 8000) for _ in range(2))
        tracemalloc.start()
        try:
            distance = levenshtein(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert distance > 4000


class TestOneMinusNed:
    def test_known_values(self):
        assert one_minus_ned("abc", "abc") == 1.0
        assert one_minus_ned("abc", "abd") == float(Fraction(2, 3))
        assert one_minus_ned("a", "") == 0.0
        assert one_minus_ned("", "") == 1.0

    def test_symmetric_and_bounded(self):
        rng = random.Random(53)
        for _ in range(100):
            a = random_text(rng, ALPHABET, 10)
            b = random_text(rng, ALPHABET, 10)
            v = one_minus_ned(a, b)
            assert v == one_minus_ned(b, a)
            assert 0.0 <= v <= 1.0


def non_matches(gt: str, pred: str) -> list[tuple[str, int | None, int | None]]:
    """brute_align's alignment without its matches, first first."""
    return [op for op in brute_align(gt, pred) if op[0] != "match"]


class TestAlign:
    """_edits is the one traceback: its edits, last first, fix the alignment."""

    def test_all_match(self):
        assert _edits("ab", "ab") == []

    def test_leading_deletion(self):
        assert _edits("ab", "b") == [(DELETE, 0, None)]

    def test_trailing_insertion(self):
        assert _edits("a", "ab") == [(INSERT, None, 1)]

    def test_cost_equals_distance(self):
        rng = random.Random(59)
        for _ in range(300):
            a = random_text(rng, ALPHABET, 12)
            b = random_text(rng, ALPHABET, 12)
            assert len(_edits(a, b)) == levenshtein(a, b)

    def test_the_gaps_between_edits_pair_up_in_order(self):
        rng = random.Random(61)
        for _ in range(100):
            a = random_text(rng, ALPHABET, 10)
            b = random_text(rng, ALPHABET, 10)
            edits = _edits(a, b)
            gt_free = sorted(set(range(len(a))) - {i for _, i, _ in edits})
            pred_free = sorted(set(range(len(b))) - {j for _, _, j in edits})
            assert len(gt_free) == len(pred_free)
            assert all(a[i] == b[j] for i, j in zip(gt_free, pred_free)), (a, b)
            # Between two edits the free indices of both sides advance together.
            i = j = 0
            for kind, gi, pj in reversed(edits):
                run = gi - i if gi is not None else pj - j
                assert gt_free[:run] == list(range(i, i + run))
                assert pred_free[:run] == list(range(j, j + run))
                del gt_free[:run], pred_free[:run]
                i += run + (kind != INSERT)
                j += run + (kind != DELETE)
            assert gt_free == list(range(i, len(a))) and pred_free == list(range(j, len(b)))

    def test_deterministic(self):
        assert _edits("abc", "cab") == _edits("abc", "cab")

    def test_matches_brute_force_oracle(self):
        for a, b in random_pairs(random.Random(57), 300, 12):
            assert list(reversed(_edits(a, b))) == non_matches(a, b), (a, b)

    def test_edits_are_the_oracle_non_matches(self):
        # Two- and three-letter alphabets make ties common; empty sides included.
        rng = random.Random(131)
        for alphabet in ("ab", "abc", "好妈林"):
            for _ in range(400):
                a = random_text(rng, alphabet, 12)
                b = random_text(rng, alphabet, 12) if rng.random() < 0.5 else edited(
                    rng, a, 0.3, alphabet)
                assert list(reversed(_edits(a, b))) == non_matches(a, b), (a, b)

    def test_tie_break_order(self):
        # "ab" -> "ba": substitute twice, delete+insert, or insert+delete all cost 2.
        assert brute_align("ab", "ba") == [("substitute", 0, 0), ("substitute", 1, 1)]
        assert _edits("ab", "ba") == [(SUBSTITUTE, 1, 1), (SUBSTITUTE, 0, 0)]
        # "a" -> "ba": match the a, insert the b; delete-first paths cost more.
        assert _edits("a", "ba") == [(INSERT, None, 0)]
        assert _edits("ab", "") == [(DELETE, 1, None), (DELETE, 0, None)]
        assert _edits("", "ab") == [(INSERT, None, 1), (INSERT, None, 0)]


class TestCheckpointedEdits:
    """_edits holds its DP rows in blocks; a small row table is one block."""

    @staticmethod
    def pairs(rng):
        # Two- to four-letter alphabets make ties common; empty sides included.
        for alphabet in ("ab", "abc", "abcd"):
            for _ in range(120):
                a = random_text(rng, alphabet, 30)
                b = random_text(rng, alphabet, 30) if rng.random() < 0.5 else edited(
                    rng, a, 0.3, alphabet)
                yield a, b
            for n in range(36, 49):  # blocks of isqrt(n) + 1 = 7 rows
                a = random_text(rng, alphabet, n, n)
                yield a, edited(rng, a, 0.3, alphabet)
            for _ in range(4):
                a = random_text(rng, alphabet, 200, 100)
                yield a, edited(rng, a, 0.3, alphabet)
        yield from (("", ""), ("ab", ""), ("", "ab"), ("a", "b"))

    def test_whole_table_edits_are_the_oracle_non_matches(self):
        for a, b in self.pairs(random.Random(1803)):
            assert list(reversed(_edits(a, b))) == non_matches(a, b), (a, b)

    def test_a_large_row_table_is_read_in_blocks_of_about_sqrt_rows(self, monkeypatch):
        pairs = list(self.pairs(random.Random(1804)))
        assert {isqrt(len(a)) + 1 for a, _ in pairs} >= {1, 2, 3, 7}  # the block sizes met
        want = [_edits(a, b) for a, b in pairs]
        monkeypatch.setattr(metrics, "_WHOLE_TABLE_BITS", 0)  # every table counts as large
        assert [_edits(a, b) for a, b in pairs] == want

    def test_memory_is_bounded_on_a_long_pair_that_differs_throughout(self):
        # All 20,001 DP rows of this pair take about 110 MB; 2·√20,000 of them about 1 MB.
        rng = random.Random(1805)
        a, b = (random_text(rng, "abcd", 20000, 20000) for _ in range(2))
        tracemalloc.start()
        try:
            edits = _edits(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert len(edits) == levenshtein(a, b) > 8000


class TestBuckets:
    def test_rssl_boundaries(self):
        assert bucket_rssl(1) == "simple"
        assert bucket_rssl(4) == "simple"
        assert bucket_rssl(5) == "sub_complex"
        assert bucket_rssl(6) == "sub_complex"
        assert bucket_rssl(7) == "complex"
        assert bucket_rssl(33) == "complex"

    def test_occn_boundaries(self):
        assert bucket_occn(100) == "head"
        assert bucket_occn(99) == "mid"
        assert bucket_occn(50) == "mid"
        assert bucket_occn(49) == "low"
        assert bucket_occn(20) == "low"
        assert bucket_occn(19) == "tail"
        assert bucket_occn(0) == "tail"

    def test_rssl_requires_positive(self):
        with pytest.raises(ValueError):
            bucket_rssl(0)

    def test_occn_requires_non_negative(self):
        with pytest.raises(ValueError):
            bucket_occn(-1)

    def test_custom_boundaries(self):
        spec = BucketSpec(rssl_simple_max=2, rssl_complex_min=5,
                          occn_head_min=10, occn_mid_min=5, occn_low_min=2)
        assert bucket_rssl(3, spec) == "sub_complex"
        assert bucket_occn(9, spec) == "mid"

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            BucketSpec(rssl_simple_max=7, rssl_complex_min=4)
        with pytest.raises(ValueError):
            BucketSpec(occn_head_min=10, occn_mid_min=10, occn_low_min=2)


class TestEvaluate:
    def test_perfect_predictions(self, sample_table):
        gt = {"a": "好妈", "b": "林森"}
        report = evaluate(gt, dict(gt), sample_table)
        assert report.line_accuracy == 1.0
        assert report.mean_one_minus_ned == 1.0
        assert report.char_accuracy == 1.0
        assert report.mean_treesim == 1.0
        for row in report.rssl_buckets.values():
            assert row["mean_treesim"] in (1.0, None)

    def test_two_line_corpus(self, sample_table):
        report = evaluate({"1": "abc", "2": "abc"}, {"1": "abc", "2": "abd"}, sample_table)
        assert report.line_accuracy == 0.5
        assert report.mean_one_minus_ned == float(Fraction(5, 6))

    def test_substitution_scores_tree_similarity(self, arities):
        from radtree.table import DecompositionTable

        table = DecompositionTable({
            "X": ["⿰", "A", "⿱", "B", "C"],
            "Y": ["⿰", "A", "⿱", "B", "D"],
        }, arities)
        report = evaluate({"1": "X"}, {"1": "Y"}, table)
        assert report.char_correct == 0
        assert report.mean_treesim == float(Fraction(8, 9))
        assert report.rssl_buckets["sub_complex"]["count"] == 1

    def test_deletions_score_zero_in_all_scope(self, sample_table):
        report = evaluate({"1": "ab"}, {"1": "b"}, sample_table)
        assert report.char_count == 2
        assert report.char_correct == 1
        assert report.mean_treesim == 0.5

    def test_aligned_scope_skips_deletions(self, sample_table):
        report = evaluate({"1": "ab"}, {"1": "b"}, sample_table, treesim_scope="aligned")
        assert report.char_count == 2
        assert report.mean_treesim == 1.0

    def test_insertions_only_affect_line_metrics(self, sample_table):
        report = evaluate({"1": "a"}, {"1": "ab"}, sample_table)
        assert report.char_count == 1
        assert report.char_accuracy == 1.0
        assert report.line_accuracy == 0.0
        assert report.mean_one_minus_ned == 0.5

    def test_missing_prediction_counts_as_empty(self, sample_table):
        report = evaluate({"1": "ab", "2": "cd"}, {"1": "ab"}, sample_table)
        assert report.missing_ids == ["2"]
        assert report.line_accuracy == 0.5
        assert report.char_correct == 2

    def test_strict_mode_raises_on_missing_id(self, sample_table):
        with pytest.raises(MissingId):
            evaluate({"1": "ab", "2": "cd"}, {"1": "ab"}, sample_table, strict=True)

    def test_empty_corpus(self, sample_table):
        with pytest.raises(EmptyCorpus):
            evaluate({}, {}, sample_table)

    def test_bucket_counts_partition_characters(self, sample_table):
        rng = random.Random(67)
        gt = {f"s{i}": random_text(rng, ALPHABET, 8) for i in range(50)}
        pred = {k: random_text(rng, ALPHABET, 8) for k in gt}
        occn = {c: rng.randint(0, 200) for c in ALPHABET}
        report = evaluate(gt, pred, sample_table, occn=occn)
        total_gt_chars = sum(len(t) for t in gt.values())
        assert report.char_count == total_gt_chars
        assert sum(report.rssl_buckets[b]["count"] for b in RSSL_BUCKETS) == total_gt_chars
        assert sum(report.occn_buckets[b]["count"] for b in OCCN_BUCKETS) == total_gt_chars

    def test_matches_positional_comparison_on_pure_match_sub_alignments(self, sample_table):
        rng = random.Random(71)
        checked = 0
        while checked < 50:
            n = rng.randint(1, 8)
            a = random_text(rng, ALPHABET, n, n)
            b = random_text(rng, ALPHABET, n, n)
            if any(kind != SUBSTITUTE for kind, _, _ in _edits(a, b)):
                continue
            checked += 1
            report = evaluate({"1": a}, {"1": b}, sample_table)
            expected = sum(x == y for x, y in zip(a, b))
            assert report.char_correct == expected

    def test_occn_buckets_only_with_frequency_map(self, sample_table):
        gt = {"1": "好"}
        assert evaluate(gt, gt, sample_table).occn_buckets is None
        report = evaluate(gt, gt, sample_table, occn={})
        assert report.occn_buckets is not None
        assert report.occn_buckets["tail"]["count"] == 1  # absent chars count 0

    def test_report_is_reproducible(self, sample_table):
        rng = random.Random(73)
        gt = {f"s{i}": random_text(rng, ALPHABET, 6) for i in range(20)}
        pred = {k: random_text(rng, ALPHABET, 6) for k in gt}
        first = evaluate(gt, pred, sample_table).to_dict()
        second = evaluate(gt, pred, sample_table).to_dict()
        assert first == second

    def test_report_record(self, sample_table):
        gt = {"a": "好妈", "b": "林"}
        report = evaluate(gt, {"a": "好"}, sample_table)
        assert report == evaluate(gt, {"a": "好"}, sample_table)
        assert report != evaluate(gt, gt, sample_table)
        assert repr(report).startswith("EvalReport(line_count=2, line_correct=0, ")
        out = report.to_dict()
        assert list(out) == ["line_count", "line_correct", "line_accuracy", "mean_one_minus_ned",
                             "char_count", "char_correct", "char_accuracy", "mean_treesim",
                             "treesim_scope", "rssl_buckets", "occn_buckets", "missing_ids"]
        out["rssl_buckets"]["simple"]["count"] = -1
        out["missing_ids"].append("c")
        assert report.to_dict() == evaluate(gt, {"a": "好"}, sample_table).to_dict()
        with pytest.raises(TypeError):
            hash(report)

    @pytest.mark.parametrize("scope", ["all", "aligned"])
    @pytest.mark.parametrize("with_occn", [False, True])
    def test_matches_per_character_oracle(self, sample_table, scope, with_occn):
        rng = random.Random(79)
        for _ in range(10):
            gt = {f"s{i}": random_text(rng, ALPHABET, 15) for i in range(30)}
            gt["long"] = random_text(rng, ALPHABET, 140, 60)
            pred = {k: edited(rng, v, rng.choice((0.0, 0.2, 0.6))) for k, v in gt.items()
                    if rng.random() > 0.1}
            pred["not-in-gt"] = "x"
            occn = {c: rng.randint(0, 150) for c in ALPHABET[:-1]} if with_occn else None
            report = evaluate(gt, pred, sample_table, occn=occn, treesim_scope=scope)
            assert report.to_dict() == evaluate_oracle(gt, pred, sample_table, occn, scope)

    @pytest.mark.parametrize("scope", ["all", "aligned"])
    def test_matches_per_character_oracle_on_deep_trees(self, arities, scope):
        # Large random trees, their mutants and 40-level chains, so that
        # substitutions match many nodes at many weights; "⿰", "x" untabulated.
        rng = random.Random(97)
        trees = [random_tree(rng, max_depth=9, structure_prob=0.85) for _ in range(3)]
        trees += [mutate(rng, rng.choice(trees)) for _ in range(3)]
        chain = ["⿰"] * 40 + ["A"] * 41
        trees += [parse_sequence(chain, arities), parse_sequence(chain[:-3] + ["B"] * 3, arities)]
        chars = "甲乙丙丁戊己庚辛"
        table = DecompositionTable(dict(zip(chars, map(to_preorder, trees))), arities)
        alphabet = chars + "⿰x"
        for _ in range(4):
            gt = {f"s{i}": random_text(rng, alphabet, 12) for i in range(15)}
            pred = {k: edited(rng, v, 0.4, alphabet) for k, v in gt.items()}
            occn = {c: rng.randint(0, 150) for c in alphabet}
            report = evaluate(gt, pred, table, occn=occn, treesim_scope=scope)
            assert report.to_dict() == evaluate_oracle(gt, pred, table, occn, scope)

    @pytest.mark.parametrize("scope", ["all", "aligned"])
    def test_matches_oracle_on_one_char_corpora_with_custom_buckets(self, sample_table, scope):
        # Single-character samples: equal, substituted, empty, missing, or
        # predicted as 2-4 characters that may keep the gt character at an end;
        # "x" and "y" are untabulated and "y" has no occn entry.
        spec = BucketSpec(rssl_simple_max=2, rssl_complex_min=4, occn_head_min=30,
                          occn_mid_min=20, occn_low_min=10)
        alphabet = "好妈林森品字街国问这xy"
        rng = random.Random(131)
        for _ in range(20):
            gt, pred = {}, {}
            for n in range(40):
                char = gt[f"s{n}"] = rng.choice(alphabet)
                kind = rng.randrange(6)
                if kind == 0:
                    pred[f"s{n}"] = char
                elif kind == 1:
                    pred[f"s{n}"] = rng.choice(alphabet.replace(char, ""))
                elif kind == 2:
                    pred[f"s{n}"] = ""
                elif kind == 4:
                    extra = random_text(rng, alphabet, 3, 1)
                    pred[f"s{n}"] = rng.choice((char + extra, extra + char))
                elif kind == 5:
                    pred[f"s{n}"] = random_text(rng, alphabet, 4, 2)
            pred["not-in-gt"] = rng.choice(alphabet)
            order = rng.sample(alphabet[:-1], len(alphabet) - 1)
            occn = {c: (35, 25, 15, 5)[n % 4] for n, c in enumerate(order)}
            report = evaluate(gt, pred, sample_table, occn=occn, buckets=spec,
                              treesim_scope=scope)
            assert report.to_dict() == evaluate_oracle(gt, pred, sample_table, occn, scope, spec)
            assert all(row["count"] for row in report.occn_buckets.values())
            assert all(row["count"] for row in report.rssl_buckets.values())

    @pytest.mark.parametrize("scope", ["all", "aligned"])
    def test_a_table_keeping_the_texts_chars_gives_the_full_tables_report(self, tmp_path,
                                                                          scope):
        # The kept table is loaded as the CLI loads it.  The texts use 40 of the 60
        # tabulated chars and the untabulated "x", "y" and "@"; some gt ids have no
        # prediction, and an extra prediction id holds chars of the other 20 only.
        rng = random.Random(1807)
        chars = [chr(0x4E00 + n) for n in range(60)]
        path = tmp_path / "table.tsv"
        rows = {c: to_preorder(random_tree(rng, max_depth=4)) for c in chars}
        DecompositionTable(rows).save(path)
        full = DecompositionTable.load(path)
        alphabet = "".join(chars[:40]) + "xy@"
        for _ in range(10):
            gt = {f"s{i}": random_text(rng, alphabet, 12) for i in range(30)}
            pred = {k: edited(rng, v, rng.choice((0.0, 0.3, 0.8)), alphabet)
                    for k, v in gt.items() if rng.random() > 0.1}
            pred["not-in-gt"] = random_text(rng, "".join(chars[40:]), 4, 1)
            kept = DecompositionTable.load(path, keep=set().union(*gt.values(), *pred.values()))
            assert len(kept) < len(full)
            occn = {c: rng.randint(0, 150) for c in alphabet[::2]}
            for table in (kept, full):
                report = evaluate(gt, pred, table, occn=occn, treesim_scope=scope).to_dict()
                assert report == evaluate_oracle(gt, pred, full, occn, scope)

    def test_scope_validation(self, sample_table):
        with pytest.raises(ValueError):
            evaluate({"1": "a"}, {"1": "a"}, sample_table, treesim_scope="bogus")


class TestTrimmedAlignment:
    """evaluate aligns only the middle between a line's common prefix and suffix."""

    CUTS = {"xx": "x", "abca": "aca", "aab": "ab", "好妈好": "好好", "林林": "林林森林",
            "same": "same", "ab": "", "": "ab", "abab": "baba"}

    @staticmethod
    def recorded_edits(monkeypatch):
        calls = []

        def recording(gt_text, pred_text):
            calls.append((gt_text, pred_text))
            return _edits(gt_text, pred_text)

        monkeypatch.setattr("radtree.metrics._edits", recording)
        return calls

    @staticmethod
    def assert_trimmed(calls):
        for gt_text, pred_text in calls:
            assert gt_text != pred_text
            if gt_text and pred_text:
                assert gt_text[0] != pred_text[0] and gt_text[-1] != pred_text[-1]

    def test_align_receives_only_the_middle(self, sample_table, monkeypatch):
        calls = self.recorded_edits(monkeypatch)
        gt = {"aab": "aab", "cut": "xx", "equal": "好妈林", "mid": "abcXdef", "missing": "ab",
              "rep": "abca"}
        pred = {"aab": "ab", "cut": "x", "equal": "好妈林", "mid": "abcYYdef", "rep": "aca"}
        report = evaluate(gt, pred, sample_table)
        assert calls == [("X", "YY")]  # the other middles have an empty side
        assert report.to_dict() == evaluate_oracle(gt, pred, sample_table)
        self.assert_trimmed(calls)

    def test_trivial_middles_are_not_aligned(self, sample_table, monkeypatch):
        calls = self.recorded_edits(monkeypatch)
        gt = {"sub": "好", "sub2": "森", "empty": "林", "missing": "妈", "ins-after": "好",
              "ins-before": "字", "ins-both": "x", "del": "好妈好", "mid-sub": "好x妈",
              "mid-del": "好林林妈", "mid-ins": "国问", "untabulated": "y"}
        pred = {"sub": "妈", "sub2": "品", "empty": "", "ins-after": "好妈林", "ins-before": "xy字",
                "ins-both": "xx", "del": "好", "mid-sub": "好y妈", "mid-del": "好林妈",
                "mid-ins": "国这这问", "untabulated": "z", "not-in-gt": "好"}
        occn = {"好": 120, "妈": 60, "林": 30, "x": 5}
        for scope in ("all", "aligned"):
            report = evaluate(gt, pred, sample_table, occn=occn, treesim_scope=scope)
            assert report.to_dict() == evaluate_oracle(gt, pred, sample_table, occn, scope)
        assert calls == []

    @pytest.mark.parametrize("scope", ["all", "aligned"])
    @pytest.mark.parametrize("with_occn", [False, True])
    def test_matches_oracle_on_edited_shared_text(self, sample_table, monkeypatch, scope,
                                                   with_occn):
        # Few letters, so a cut often falls between repeats of one character.
        alphabet = "好妈林森ab"
        calls = self.recorded_edits(monkeypatch)
        rng = random.Random(113)
        for _ in range(20):
            shared = random_text(rng, alphabet, 24, 8)
            gt, pred = {}, {}
            for n in range(12):
                gt[f"e{n}"] = edited(rng, shared, 0.05, alphabet)
                pred[f"e{n}"] = edited(rng, gt[f"e{n}"], rng.choice((0.0, 0.05, 0.2)), alphabet)
            for n, (gt_text, pred_text) in enumerate(self.CUTS.items()):
                gt[f"c{n}"], pred[f"c{n}"] = shared + gt_text + shared, shared + pred_text + shared
            gt["empty-prediction"], pred["empty-prediction"] = shared, ""
            gt["missing"] = shared[::-1]
            occn = {c: rng.randint(0, 150) for c in alphabet} if with_occn else None
            report = evaluate(gt, pred, sample_table, occn=occn, treesim_scope=scope)
            assert report.to_dict() == evaluate_oracle(gt, pred, sample_table, occn, scope)
        self.assert_trimmed(calls)


class TestReadCorpusTsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("a\t好妈\nb\t\nc\tx\ty\n", encoding="utf-8")
        corpus = read_corpus_tsv(path)
        assert corpus == {"a": "好妈", "b": "", "c": "x\ty"}

    def test_leading_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("\ufeffa\t好\n", encoding="utf-8")
        assert read_corpus_tsv(path) == {"a": "好"}

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("a\tx\na\ty\n", encoding="utf-8")
        with pytest.raises(DuplicateEntry):
            read_corpus_tsv(path)

    def test_malformed(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("just text\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            read_corpus_tsv(path)


class TestSharedCorpusStrings:
    """A gt/pred pair read through one ``strings`` dict holds one str per distinct value."""

    @pytest.fixture
    def pair(self, tmp_path):
        gt, pred = tmp_path / "gt.tsv", tmp_path / "pred.tsv"
        gt.write_text("id-1\t好妈\nid-2\t林林\nid-3\t好妈\n", encoding="utf-8")
        pred.write_text("id-2\t好妈\nid-1\t好妈\nid-4\t林林\nid-3\t森\n", encoding="utf-8")
        return gt, pred

    def test_equals_unshared_reads(self, pair):
        strings = {}
        shared = [read_corpus_tsv(path, strings=strings) for path in pair]
        assert shared == [read_corpus_tsv(path) for path in pair]
        assert shared[1] == {"id-2": "好妈", "id-1": "好妈", "id-4": "林林", "id-3": "森"}

    def test_pred_ids_are_gt_objects_and_equal_texts_one_object(self, pair):
        strings = {}
        gt, pred = (read_corpus_tsv(path, strings=strings) for path in pair)
        gt_ids = {sid: sid for sid in gt}  # lookup by value, gt's own key object back
        assert all(gt_ids[sid] is sid for sid in pred if sid in gt)
        texts = [*gt.values(), *pred.values()]
        assert len({id(text) for text in texts}) == len(set(texts)) == 3

    def test_unshared_reads_keep_their_own_ids(self, pair):
        gt, pred = (read_corpus_tsv(path) for path in pair)
        gt_ids = {sid: sid for sid in gt}
        assert not any(gt_ids[sid] is sid for sid in pred if sid in gt)
        assert gt["id-1"] is gt["id-3"]  # one read still shares within its file

    @pytest.mark.parametrize("text, message", [
        ("id-1\tx\nid-1\ty\n", ":2: duplicate sample id 'id-1'"),
        ("id-1\tx\nno tab\n", ":2: expected <id><TAB><text>"),
    ])
    def test_errors_keep_path_and_line(self, pair, tmp_path, text, message):
        strings = {}
        read_corpus_tsv(pair[0], strings=strings)
        path = tmp_path / "bad.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises((DuplicateEntry, MalformedLine)) as info:
            read_corpus_tsv(path, strings=strings)
        assert str(info.value) == f"{path}{message}"

    def test_memory_held_by_a_shared_pair_is_well_under_unshared(self, tmp_path):
        # 20k single-character samples, 40% substituted: most texts repeat and every
        # pred id is a gt id.  Measured: 2.3 MB held shared, 3.8 MB unshared.
        rng = random.Random(61)
        chars = [chr(0x4E00 + i) for i in range(5000)]
        gt = [rng.choice(chars) for _ in range(20000)]
        pred = [rng.choice(chars) if rng.random() < 0.4 else char for char in gt]
        paths = tmp_path / "gt.tsv", tmp_path / "pred.tsv"
        for path, texts in zip(paths, (gt, pred)):
            path.write_text("".join(f"s{n:06d}\t{t}\n" for n, t in enumerate(texts)),
                            encoding="utf-8")

        def held(strings):
            tracemalloc.start()
            try:
                corpora = [read_corpus_tsv(path, strings=strings) for path in paths]
                del strings
                current, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert corpora == [dict(zip((f"s{n:06d}" for n in range(20000)), texts))
                               for texts in (gt, pred)]
            return current

        shared, unshared = held({}), held(None)
        assert shared < 0.7 * unshared
        assert unshared - shared > 2**20


def test_default_bucket_spec_values():
    assert DEFAULT_BUCKETS == BucketSpec(4, 7, 100, 50, 20)


def test_bucket_spec_is_an_immutable_checked_value():
    spec = BucketSpec(occn_low_min=10)
    assert hash(spec) == hash(BucketSpec(4, 7, 100, 50, 10))
    assert repr(spec) == ("BucketSpec(rssl_simple_max=4, rssl_complex_min=7, occn_head_min=100, "
                          "occn_mid_min=50, occn_low_min=10)")
    with pytest.raises(AttributeError):
        spec.occn_low_min = 60
    with pytest.raises(ValueError):
        spec._replace(occn_low_min=60)
    assert pickle.loads(pickle.dumps(spec)) == spec
