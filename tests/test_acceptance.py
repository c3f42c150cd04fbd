"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).  Every
tolerance is pinned here; the whole module is budgeted to finish in well
under a minute on a laptop.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    DEFAULT_ARITIES,
    STRUCTURES,
    all_paths,
    brute_levenshtein,
    mutate,
    node,
    random_text,
    random_tree,
    replace_at,
    sim_oracle,
    subtree_at,
)
from radtree.cli import main
from radtree.metrics import bucket_occn, bucket_rssl, evaluate, levenshtein
from radtree.table import DecompositionTable
from radtree.targets import build_vocab, radical_weights, weighted_ce
from radtree.tree import RadicalTree, parse_sequence, rssl, to_preorder
from radtree.treesim import tree_sim, tree_weights

_MODULE_START = time.perf_counter()


def _report(number, description):
    print(f"criterion {number:02d} PASS: {description}")


def _random_deep_subtree(rng, depth=3):
    if depth == 0:
        return RadicalTree(rng.choice("VWXYZ"))
    symbol = rng.choice(STRUCTURES)
    n = DEFAULT_ARITIES.arity(symbol)
    deep_slot = rng.randrange(n)
    children = tuple(
        _random_deep_subtree(rng, depth - 1) if i == deep_slot
        else RadicalTree(rng.choice("VWXYZ"))
        for i in range(n)
    )
    return node(symbol, *children)


def test_criterion_01_weight_normalization():
    start = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(1000):
        tree = random_tree(rng, max_depth=6)
        weights = tree_weights(tree)
        assert sum(weights) == Fraction(1)
        assert abs(sum(float(w) for w in weights) - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"1000 random trees sum to exactly 1 ({elapsed:.2f}s)")


def test_criterion_02_pair_weight_anchor():
    tree = node("⿰", RadicalTree("A"), RadicalTree("B"))
    assert tree_weights(tree) == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    _report(2, "two-radical tree weights are exactly [1/3, 1/3, 1/3]")


def test_criterion_03_similarity_properties_and_oracle():
    start = time.perf_counter()
    rng = random.Random(1003)
    oracle_checked = 0
    for i in range(1000):
        a = random_tree(rng, max_depth=4)
        b = mutate(rng, a) if i % 2 else random_tree(rng, max_depth=4)
        ab, ba = tree_sim(a, b), tree_sim(b, a)
        assert ab == ba
        assert 0 <= ab <= 1
        assert tree_sim(a, a) == 1
        if rssl(a) <= 9 and rssl(b) <= 9:
            assert ab == sim_oracle(a, b)
            oracle_checked += 1
    # Root mismatches prune everything.
    for _ in range(200):
        a = random_tree(rng, max_depth=3)
        b = random_tree(rng, max_depth=3)
        while b.symbol == a.symbol:
            b = random_tree(rng, max_depth=3)
        assert tree_sim(a, b) == 0
    # Extra small pairs so the oracle sees plenty of <= 9-node trees.
    for _ in range(300):
        a = random_tree(rng, max_depth=2)
        b = mutate(rng, a) if rng.random() < 0.5 else random_tree(rng, max_depth=2)
        if rssl(a) <= 9 and rssl(b) <= 9:
            assert tree_sim(a, b) == sim_oracle(a, b)
            oracle_checked += 1
    assert oracle_checked >= 300
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"symmetry/identity/range/pruning on 1200 pairs, "
               f"{oracle_checked} oracle-checked ({elapsed:.2f}s)")


def test_criterion_04_depth_independence():
    rng = random.Random(1004)
    for _ in range(100):
        tree = random_tree(rng, max_depth=4)
        leaf_paths = [p for p in all_paths(tree) if not subtree_at(tree, p).children]
        path = rng.choice(leaf_paths)
        swapped = replace_at(tree, path, _random_deep_subtree(rng))
        before = dict(zip(all_paths(tree), tree_weights(tree)))
        after = dict(zip(all_paths(swapped), tree_weights(swapped)))
        for p, w in before.items():
            if p != path and p[: len(path)] != path:
                assert after[p] == w
    _report(4, "100 leaf-to-deep-subtree swaps left outside weights unchanged")


def test_criterion_05_weight_mode_identities(sample_table):
    chars = ["好", "妈", "林", "森", "品", "街", "@"]
    for lam in (0, 0.5, 1):
        flam = Fraction(lam)
        for char in chars:
            naive = radical_weights(char, sample_table, "naive", lam)
            enhanced = radical_weights(char, sample_table, "treesim", lam)
            base = tree_weights(sample_table.lookup(char))
            assert [e - n for e, n in zip(enhanced, naive)] == [flam * w for w in base]
            assert sum(enhanced) == rssl(sample_table.lookup(char)) + flam
    _report(5, "enhanced minus naive equals lambda*tree_weights for lambda in {0, 0.5, 1}")


def test_criterion_06_weighted_ce_reference():
    rows = np.eye(6)[[0, 2, 5]]
    assert weighted_ce(rows, [0, 2, 5], [1.0, 0.5, 2.0]) == 0.0
    assert abs(weighted_ce([[0.25] * 4], [2], [1.0]) - math.log(4)) <= 1e-12
    rng = np.random.default_rng(1006)
    for _ in range(20):
        p = rng.dirichlet(np.ones(5), size=7)
        t = rng.integers(0, 5, size=7)
        w = rng.uniform(0.0, 2.0, size=7)
        assert weighted_ce(p, t, 2 * w) == 2 * weighted_ce(p, t, w)
        factor = float(rng.uniform(0.1, 3.0))
        assert abs(weighted_ce(p, t, factor * w) - factor * weighted_ce(p, t, w)) <= 1e-12
    _report(6, "reference loss: zero at one-hot, ln4 at uniform-4, linear in weights")


def test_criterion_07_metrics(sample_table):
    rng = random.Random(1007)
    alphabet = "ab好妈林森xy"
    for _ in range(1000):
        a = random_text(rng, alphabet, 12)
        b = random_text(rng, alphabet, 12)
        assert levenshtein(a, b) == brute_levenshtein(a, b)
    report = evaluate({"1": "abc", "2": "abc"}, {"1": "abc", "2": "abd"}, sample_table)
    assert report.line_accuracy == 0.5
    assert abs(report.mean_one_minus_ned - 5 / 6) <= 1e-12
    assert bucket_rssl(4) == "simple"
    assert bucket_rssl(5) == "sub_complex"
    assert bucket_rssl(7) == "complex"
    assert bucket_occn(100) == "head"
    assert bucket_occn(50) == "mid"
    assert bucket_occn(20) == "low"
    assert bucket_occn(0) == "tail"
    _report(7, "1000 distances match brute force; 2-line corpus and bucket bounds exact")


def test_criterion_08_round_trips(tmp_path, sample_table, arities):
    rng = random.Random(1008)
    for _ in range(1000):
        tree = random_tree(rng, max_depth=5)
        assert parse_sequence(to_preorder(tree), arities) == tree
    table_path = tmp_path / "table.tsv"
    sample_table.save(table_path)
    reloaded = DecompositionTable.load(table_path)
    assert reloaded.chars() == sample_table.chars()
    for char in sample_table.chars():
        assert reloaded.lookup(char) == sample_table.lookup(char)
    v1, v2 = build_vocab(sample_table), build_vocab(reloaded)
    assert v1 == v2
    p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
    v1.save(p1)
    v2.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    _report(8, "1000 parse/serialize round trips; table and vocab reload identically")


def test_criterion_09_cli_determinism(tmp_path, sample_table, capsys):
    rng = random.Random(1009)
    alphabet = "好妈林森品街abcdef"
    table_path = tmp_path / "table.tsv"
    sample_table.save(table_path)

    gt_lines, pred_lines = [], []
    for i in range(1000):
        text = random_text(rng, alphabet, 12, 1)
        out = []
        for ch in text:
            r = rng.random()
            if r < 0.08:
                out.append(rng.choice(alphabet))       # substitution
            elif r < 0.12:
                pass                                   # deletion
            else:
                out.append(ch)
            if rng.random() < 0.04:
                out.append(rng.choice(alphabet))       # insertion
        gt_lines.append(f"s{i:04d}\t{text}")
        pred_lines.append(f"s{i:04d}\t{''.join(out)}")
    gt_path = tmp_path / "gt.tsv"
    pred_path = tmp_path / "pred.tsv"
    train_path = tmp_path / "train.txt"
    gt_path.write_text("\n".join(gt_lines) + "\n", encoding="utf-8")
    pred_path.write_text("\n".join(pred_lines) + "\n", encoding="utf-8")
    train_path.write_text(
        "\n".join(random_text(rng, alphabet, 20, 1) for _ in range(300)) + "\n",
        encoding="utf-8",
    )

    start = time.perf_counter()
    outputs = []
    for name in ("r1.json", "r2.json"):
        out_path = tmp_path / name
        code = main(["eval", "--gt", str(gt_path), "--pred", str(pred_path),
                     "--table", str(table_path), "--train", str(train_path),
                     "--output", str(out_path)])
        assert code == 0
        outputs.append(out_path.read_bytes())
    elapsed = time.perf_counter() - start
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["line_count"] == 1000
    capsys.readouterr()
    _report(9, f"two eval runs over 1000 lines byte-identical ({elapsed:.2f}s)")


def test_criterion_10_external_bucket_shares():
    import os

    table_path = os.environ.get("RADTREE_BENCH_TABLE")
    charset_path = os.environ.get("RADTREE_BENCH_CHARSET")
    if not table_path or not charset_path:
        pytest.skip("external benchmark table not provided "
                    "(set RADTREE_BENCH_TABLE and RADTREE_BENCH_CHARSET)")
    from radtree.stats import rssl_distribution

    table = DecompositionTable.load(table_path)
    with open(charset_path, encoding="utf-8") as fh:
        chars = {line.rstrip("\n") for line in fh if line.strip()}
    dist = rssl_distribution(chars, table)
    expected = {"simple": 0.34, "sub_complex": 0.38, "complex": 0.28}
    for bucket, share in expected.items():
        assert abs(dist[bucket]["fraction"] - share) <= 0.05
    _report(10, "external charset bucket shares within 5 points of 34/38/28")


def test_suite_runtime_under_budget():
    elapsed = time.perf_counter() - _MODULE_START
    assert elapsed < 60.0
    print(f"acceptance suite total: {elapsed:.2f}s")
