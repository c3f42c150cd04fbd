import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import dumps_lines, json_text, parse_output_oracle, random_tree
from radtree.cli import main
from radtree.table import DecompositionTable
from radtree.targets import export_targets
from radtree.tree import ArityTable, RadicalTree, parse_sequence, to_preorder

SAMPLE_TABLE = Path(__file__).resolve().parent.parent / "data" / "sample_table.tsv"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_tabulated_character(self, capsys, sample_table_path):
        code, out, _ = run(capsys, "parse", "好", "--table", str(sample_table_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["rssl"] == 3
        assert payload["tokens"] == ["⿰", "女", "子"]
        assert payload["tree"]["kind"] == "structure"
        assert [c["kind"] for c in payload["tree"]["children"]] == ["radical", "radical"]

    def test_untabulated_falls_back_to_leaf(self, capsys, sample_table_path):
        code, out, _ = run(capsys, "parse", "@", "--table", str(sample_table_path))
        assert code == 0
        assert json.loads(out)["rssl"] == 1

    def test_sequence(self, capsys):
        code, out, _ = run(capsys, "parse", "--seq", "⿳ A B C")
        assert code == 0
        assert json.loads(out)["rssl"] == 4

    def test_underflow_exits_2(self, capsys):
        code, _, err = run(capsys, "parse", "--seq", "⿰ A")
        assert code == 2
        assert "error" in err

    def test_trailing_exits_2(self, capsys):
        code, _, _ = run(capsys, "parse", "--seq", "A B")
        assert code == 2

    def test_requires_exactly_one_input(self, capsys):
        assert run(capsys, "parse")[0] == 2
        assert run(capsys, "parse", "好", "--seq", "A")[0] == 2

    def test_multichar_rejected(self, capsys):
        assert run(capsys, "parse", "好的")[0] == 2

    def test_output_equals_the_tree_walk_oracle(self, capsys, tmp_path):
        rng = random.Random(410)
        pool = ['"', "\\", "A", "B", "é", "𠀀", "\x00"]
        trees = [random_tree(rng, max_depth=5, leaf_pool=pool) for _ in range(60)]
        chars = [chr(0x4E00 + i) for i in range(len(trees))]
        path = tmp_path / "table.tsv"
        path.write_text("".join(f"{c}\t{' '.join(to_preorder(t))}\n" for c, t in zip(chars, trees)),
                        encoding="utf-8")
        arities = ArityTable()
        for char, tree in [*zip(chars, trees), ("@", RadicalTree("@"))]:
            for pretty in (False, True):
                flags = ["--pretty"] if pretty else []
                code, out, err = run(capsys, "parse", char, "--table", str(path), *flags)
                assert (code, err) == (0, "")
                assert out == parse_output_oracle(tree, arities, char, pretty)
                code, out, err = run(capsys, "parse", "--seq", " ".join(to_preorder(tree)), *flags)
                assert (code, err) == (0, "")
                assert out == parse_output_oracle(tree, arities, pretty=pretty)

    @pytest.mark.parametrize("depth, pretty", [(3000, False), (300, True)])
    def test_deep_entry_equals_the_tree_walk_oracle(self, capsys, tmp_path, depth, pretty):
        # The deep child alternates between first (⿰) and last (⿲) position.
        tree = RadicalTree("A")
        for level in range(depth):
            tree = (RadicalTree("⿰", (tree, RadicalTree("B"))) if level % 2
                    else RadicalTree("⿲", (RadicalTree("C"), RadicalTree("D"), tree)))
        path = tmp_path / "deep.tsv"
        path.write_text(f"X\t{' '.join(to_preorder(tree))}\n", encoding="utf-8")
        code, out, _ = run(capsys, "parse", "X", "--table", str(path),
                           *(["--pretty"] if pretty else []))
        assert code == 0
        assert out == parse_output_oracle(tree, ArityTable(), "X", pretty)

    @pytest.mark.parametrize("pretty", [False, True])
    def test_structure_symbol_without_table_is_a_structure_leaf(self, capsys, pretty):
        code, out, _ = run(capsys, "parse", "⿰", *(["--pretty"] if pretty else []))
        assert code == 0
        assert out == parse_output_oracle(RadicalTree("⿰"), ArityTable(), "⿰", pretty)
        assert json.loads(out)["tree"] == {"symbol": "⿰", "kind": "structure"}

    def test_builds_no_tree(self, capsys, monkeypatch, sample_table_path):
        built = []
        init = RadicalTree.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RadicalTree, "__init__", counting_init)
        for argv in (["森"], ["@"], ["--seq", "⿰ A ⿲ B C D"]):
            assert run(capsys, "parse", *argv, "--table", str(sample_table_path))[0] == 0
        assert built == []
        parse_sequence(["⿰", "A", "B"], ArityTable())
        assert len(built) == 3

    def test_sequence_deeper_than_recursion_limit(self, capsys):
        depth = 3000
        tokens = ["⿰"] * depth + ["A"] * (depth + 1)
        code, out, _ = run(capsys, "parse", "--seq", " ".join(tokens))
        assert code == 0
        leaf = '{"symbol": "A", "kind": "radical"}'
        tree = ('{"symbol": "⿰", "kind": "structure", "children": [' * depth + leaf
                + (", " + leaf + "]}") * depth)
        assert out == (f'{{"tokens": {json.dumps(tokens, ensure_ascii=False)}, '
                       f'"rssl": {2 * depth + 1}, "tree": {tree}}}\n')


class TestTreesim:
    def test_identical(self, capsys, sample_table_path):
        code, out, _ = run(capsys, "treesim", "好", "好", "--table", str(sample_table_path))
        assert code == 0
        assert out.strip() == "1.000000000000"

    def test_sibling_characters(self, capsys, sample_table_path):
        code, out, _ = run(capsys, "treesim", "好", "妈", "--table", str(sample_table_path))
        assert code == 0
        assert out.strip() == "0.666666666667"

    def test_untabulated_distinct(self, capsys, sample_table_path):
        code, out, _ = run(capsys, "treesim", "@", "%", "--table", str(sample_table_path))
        assert code == 0
        assert out.strip() == "0.000000000000"


class TestWeights:
    def test_treesim_mode(self, capsys, sample_table_path):
        code, out, _ = run(capsys, "weights", "--char", "好", "--mode", "treesim",
                           "--table", str(sample_table_path))
        assert code == 0
        assert json.loads(out) == [4 / 3] * 3

    def test_naive_mode(self, capsys, sample_table_path):
        code, out, _ = run(capsys, "weights", "--char", "好", "--mode", "naive",
                           "--table", str(sample_table_path))
        assert code == 0
        assert json.loads(out) == [1.0, 1.0, 1.0]

    def test_lambda_flag(self, capsys, sample_table_path):
        code, out, _ = run(capsys, "weights", "--char", "@", "--mode", "treesim",
                           "--lambda", "0.5", "--table", str(sample_table_path))
        assert code == 0
        assert json.loads(out) == [1.5]

    @pytest.mark.parametrize("command", [
        ("weights", "--char", "好"),
        ("export-targets", "--from-table", "--max-len", "8"),
    ])
    @pytest.mark.parametrize("lam", ["inf", "nan", "-inf"])
    def test_non_finite_lambda_exits_2(self, capsys, sample_table_path, command, lam):
        code, out, err = run(capsys, *command, f"--lambda={lam}",
                             "--table", str(sample_table_path))
        assert code == 2
        assert out == ""
        assert err == f"radtree: error: lambda must be a finite number, got {float(lam)!r}\n"

    @pytest.mark.parametrize("command", [
        ("weights", "--char", "好"),
        ("export-targets", "--from-table", "--max-len", "8"),
    ])
    @pytest.mark.parametrize("lam, message", [
        ("-inf", "lambda must be a finite number, got -inf"),
        ("-nan", "lambda must be a finite number, got nan"),
        ("-Infinity", "lambda must be a finite number, got -inf"),
        ("-1e3", "lambda must be >= 0"),
    ])
    def test_space_separated_negative_lambda_reaches_the_check(self, capsys, sample_table_path,
                                                               command, lam, message):
        # argparse alone would read these as options and fail with "expected one argument".
        code, out, err = run(capsys, *command, "--lambda", lam, "--table", str(sample_table_path))
        assert (code, out, err) == (2, "", f"radtree: error: {message}\n")


class TestStats:
    def test_empty_corpus_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "stats", "--input", str(empty))
        assert code == 2
        assert "error" in err

    def test_report(self, capsys, tmp_path, sample_table_path):
        train = tmp_path / "train.txt"
        train.write_text("好好妈\nab\n", encoding="utf-8")
        code, out, _ = run(capsys, "stats", "--input", str(train),
                           "--table", str(sample_table_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["line_count"] == 2
        assert payload["char_total"] == 5
        assert payload["occn"]["好"] == 2
        assert payload["rssl_distribution"]["simple"]["count"] == 4

    def test_tsv_input(self, capsys, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text("id1\tab\nid2\tba\n", encoding="utf-8")
        code, out, _ = run(capsys, "stats", "--input", str(train), "--input-format", "tsv")
        assert code == 0
        assert json.loads(out)["occn"] == {"a": 2, "b": 2}

    def test_rssl_buckets_and_pretty(self, capsys, tmp_path, sample_table_path):
        train = tmp_path / "train.txt"
        train.write_text("好好妈\nab\n", encoding="utf-8")
        code, out, _ = run(capsys, "stats", "--input", str(train), "--table",
                           str(sample_table_path), "--rssl-buckets", "2,5", "--pretty")
        assert code == 0
        assert out.startswith('{\n  "line_count": 2,')
        assert json.loads(out)["rssl_distribution"]["sub_complex"]["count"] == 2

    def test_bad_rssl_buckets_exits_2(self, capsys, tmp_path):
        train = tmp_path / "train.txt"
        train.write_text("ab\n", encoding="utf-8")
        code, _, err = run(capsys, "stats", "--input", str(train), "--rssl-buckets", "4")
        assert code == 2
        assert err == "radtree: error: --rssl-buckets expects SIMPLE_MAX,COMPLEX_MIN, got '4'\n"


@pytest.fixture
def eval_files(tmp_path):
    gt = tmp_path / "gt.tsv"
    pred = tmp_path / "pred.tsv"
    train = tmp_path / "train.txt"
    gt.write_text("a\t好妈\nb\t林林\n", encoding="utf-8")
    pred.write_text("a\t好妈\nb\t林木\n", encoding="utf-8")
    train.write_text("好妈林林\n", encoding="utf-8")
    return gt, pred, train


class TestEval:
    def test_report_file(self, capsys, tmp_path, sample_table_path, eval_files):
        gt, pred, train = eval_files
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                         "--table", str(sample_table_path), "--train", str(train),
                         "--output", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["line_count"] == 2
        assert report["line_accuracy"] == 0.5
        assert report["occn_buckets"] is not None

    def test_occn_buckets_absent_without_train(self, capsys, sample_table_path, eval_files):
        gt, pred, _ = eval_files
        code, out, _ = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                           "--table", str(sample_table_path))
        assert code == 0
        assert json.loads(out)["occn_buckets"] is None

    def test_memory_error_is_one_line_and_exit_2(self, capsys, monkeypatch, eval_files):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("radtree.cli.evaluate", exhausted)
        gt, pred, _ = eval_files
        code, _, err = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred))
        assert code == 2
        assert err.startswith("radtree: error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_identical_files_score_one(self, capsys, sample_table_path, eval_files):
        gt, _, _ = eval_files
        code, out, _ = run(capsys, "eval", "--gt", str(gt), "--pred", str(gt),
                           "--table", str(sample_table_path))
        assert code == 0
        report = json.loads(out)
        assert report["line_accuracy"] == 1.0
        assert report["mean_one_minus_ned"] == 1.0

    def test_strict_missing_id_nonzero(self, capsys, tmp_path, eval_files):
        gt, _, _ = eval_files
        pred = tmp_path / "short.tsv"
        pred.write_text("a\t好妈\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred), "--strict")
        assert code == 2
        assert "prediction" in err

    def test_byte_identical_reruns(self, capsys, tmp_path, sample_table_path, eval_files):
        gt, pred, train = eval_files
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out_path in (out1, out2):
            assert run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                       "--table", str(sample_table_path), "--train", str(train),
                       "--output", str(out_path))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pretty_prints_summary(self, capsys, tmp_path, sample_table_path, eval_files):
        gt, pred, _ = eval_files
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                           "--table", str(sample_table_path), "--output", str(out_path),
                           "--pretty")
        assert code == 0
        assert "bucket" in out

    def test_bucket_overrides(self, capsys, sample_table_path, eval_files):
        gt, pred, train = eval_files
        code, out, _ = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                           "--table", str(sample_table_path), "--train", str(train),
                           "--rssl-buckets", "2,5", "--occn-buckets", "4,3,2")
        assert code == 0
        report = json.loads(out)
        # 好/妈/林 have 3 nodes: above simple_max=2, below complex_min=5.
        assert report["rssl_buckets"]["sub_complex"]["count"] == 4
        assert report["occn_buckets"]["head"]["count"] == 0

    def test_occn_tail_is_exactly_the_characters_unseen_in_training(self, capsys, tmp_path,
                                                                      sample_table_path):
        # --occn-buckets H,M,1: tail is occn 0, the zero-shot set.
        rng = random.Random(29)
        alphabet, seen = "好妈林森品街口木ab", "好林品口a"
        train_lines = ["".join(rng.choice(seen) for _ in range(rng.randint(1, 9)))
                       for _ in range(30)]
        gt_lines = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
                    for _ in range(40)]
        gt, pred, train = tmp_path / "gt.tsv", tmp_path / "pred.tsv", tmp_path / "train.txt"
        gt.write_text("".join(f"s{n}\t{t}\n" for n, t in enumerate(gt_lines)), encoding="utf-8")
        pred.write_text("".join(f"s{n}\t{t[::-1]}\n" for n, t in enumerate(gt_lines)),
                        encoding="utf-8")
        train.write_text("\n".join(train_lines) + "\n", encoding="utf-8")
        trained = set("".join(train_lines))
        unseen = sum(char not in trained for text in gt_lines for char in text)
        code, out, _ = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                           "--table", str(sample_table_path), "--train", str(train),
                           "--occn-buckets", "100,50,1")
        assert code == 0
        report = json.loads(out)
        assert 0 < unseen < report["char_count"]
        assert report["occn_buckets"]["tail"]["count"] == unseen

    def test_bad_bucket_spec_exits_2(self, capsys, eval_files):
        gt, pred, _ = eval_files
        code, _, _ = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                         "--rssl-buckets", "9,4")
        assert code == 2

    @pytest.mark.parametrize("flag, spec, form", [
        ("--rssl-buckets", "4", "SIMPLE_MAX,COMPLEX_MIN"),
        ("--rssl-buckets", "4,7,9", "SIMPLE_MAX,COMPLEX_MIN"),
        ("--rssl-buckets", "4,seven", "SIMPLE_MAX,COMPLEX_MIN"),
        ("--rssl-buckets", "4.0,7", "SIMPLE_MAX,COMPLEX_MIN"),
        ("--occn-buckets", "100,50", "HEAD,MID,LOW"),
        ("--occn-buckets", "100,50,20,10", "HEAD,MID,LOW"),
        ("--occn-buckets", "100,,20", "HEAD,MID,LOW"),
    ])
    def test_malformed_bucket_spec_exits_2(self, capsys, eval_files, flag, spec, form):
        gt, pred, train = eval_files
        code, out, err = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                             "--train", str(train), flag, spec)
        assert code == 2
        assert out == ""
        assert err == f"radtree: error: {flag} expects {form}, got {spec!r}\n"


class TestExportTargets:
    def test_jsonl_and_vocab(self, capsys, tmp_path, sample_table_path):
        charset = tmp_path / "charset.txt"
        charset.write_text("好\n@\n", encoding="utf-8")
        out_path = tmp_path / "targets.jsonl"
        vocab_path = tmp_path / "vocab.tsv"
        code, _, _ = run(capsys, "export-targets", "--charset", str(charset),
                         "--table", str(sample_table_path), "--max-len", "6",
                         "--mode", "treesim", "--output", str(out_path),
                         "--vocab-out", str(vocab_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(l)["char"] for l in lines] == ["好", "@"]
        first = json.loads(lines[0])
        assert len(first["indices"]) == 6
        vocab_lines = vocab_path.read_text(encoding="utf-8").splitlines()
        assert vocab_lines[0] == "<pad>\t0"
        assert vocab_lines[1] == "<eos>\t1"
        assert any(l.startswith("@\t") for l in vocab_lines)

    @pytest.mark.parametrize("max_len", ["1000001", "10000000000000000000"])
    def test_max_len_above_the_limit_exits_2(self, capsys, sample_table_path, max_len):
        code, out, err = run(capsys, "export-targets", "--from-table", "--max-len", max_len,
                             "--table", str(sample_table_path))
        assert (code, out) == (2, "")
        assert err == f"radtree: error: max_len must be at most 1000000, got {max_len}\n"

    def test_charset_tab_line_cannot_be_saved_as_a_vocabulary_token(self, capsys, tmp_path,
                                                                     sample_table_path):
        charset = tmp_path / "charset.txt"
        charset.write_text("好\n\t\n", encoding="utf-8")
        vocab_path, targets_path = tmp_path / "vocab.tsv", tmp_path / "targets.jsonl"
        code, _, err = run(capsys, "export-targets", "--charset", str(charset),
                           "--table", str(sample_table_path), "--max-len", "6",
                           "-o", str(targets_path), "--vocab-out", str(vocab_path))
        assert code == 2
        assert err == "radtree: error: token '\\t' cannot be saved in the vocabulary format\n"
        assert not vocab_path.exists() and not targets_path.exists()

    def test_from_table(self, capsys, sample_table_path):
        code, out, _ = run(capsys, "export-targets", "--from-table",
                           "--table", str(sample_table_path), "--max-len", "8")
        assert code == 0
        assert len(out.splitlines()) == 6

    @pytest.mark.parametrize("mode", ["naive", "treesim"])
    def test_stdout_equals_output_file(self, capsys, tmp_path, mode):
        out_path = tmp_path / "targets.jsonl"
        argv = ["export-targets", "--from-table", "--table", str(SAMPLE_TABLE),
                "--max-len", "9", "--mode", mode, "--lambda", "0.5"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "-o", str(out_path)) == (0, "", "")
        assert out.encode("utf-8") == out_path.read_bytes()
        assert len(out.splitlines()) == 10

    def test_sequence_too_long_exits_2(self, capsys, sample_table_path):
        code, _, err = run(capsys, "export-targets", "--from-table",
                           "--table", str(sample_table_path), "--max-len", "3")
        assert code == 2
        assert "length" in err

    def test_mirrors_common_padded_length(self, capsys, sample_table_path):
        # 33 is a realistic padded length for web-style corpora.
        code, out, _ = run(capsys, "export-targets", "--from-table",
                           "--table", str(sample_table_path), "--max-len", "33")
        assert code == 0
        for line in out.splitlines():
            assert len(json.loads(line)["indices"]) == 33

    # The rows of test_targets.TestShapeRows, plus an astral radical.
    SHAPE_ROWS = {"甲": "⿰ A B", "乙": "⿰ C D", "丙": "⿰ A ⿱ B C", "丁": "⿱ ⿰ A B C",
                  "戊": '⿱ " \\', "己": "口", "庚": "⿲ 𠀀 \\ A"}
    # Untabulated characters that JSON escapes or that are astral, and repeats.
    CHARSET = [*SHAPE_ROWS, "@", '"', "\\", " ", "𠀀", "甲", "@", "丙"]

    @pytest.mark.parametrize("mode", ["naive", "treesim"])
    @pytest.mark.parametrize("lam", ["1", "0.5"])
    def test_output_equals_json_dumps_of_export_targets(self, capsys, tmp_path, mode, lam):
        table_path, charset = tmp_path / "shapes.tsv", tmp_path / "charset.txt"
        table_path.write_text("".join(f"{c}\t{seq}\n" for c, seq in self.SHAPE_ROWS.items()),
                              encoding="utf-8")
        charset.write_text("".join(f"{c}\n" for c in self.CHARSET), encoding="utf-8")
        table = DecompositionTable.load(table_path)
        expected = dumps_lines(export_targets(self.CHARSET, table, 9, mode, float(lam)))
        argv = ["export-targets", "--charset", str(charset), "--table", str(table_path),
                "--max-len", "9", "--mode", mode, "--lambda", lam]
        assert run(capsys, *argv) == (0, expected, "")
        out_path = tmp_path / "targets.jsonl"
        assert run(capsys, *argv, "-o", str(out_path)) == (0, "", "")
        assert out_path.read_bytes() == expected.encode("utf-8")
        assert len(expected.splitlines()) == len(self.CHARSET)

    @pytest.mark.parametrize("mode", ["naive", "treesim"])
    @pytest.mark.parametrize("lam", ["0", "0.1", "1e-300", "1e300"])
    def test_output_equals_json_dumps_at_edge_lambdas(self, capsys, tmp_path, mode, lam):
        self.test_output_equals_json_dumps_of_export_targets(capsys, tmp_path, mode, lam)

    def test_closed_pipe_exits_3_with_one_line(self, tmp_path):
        rng = random.Random(1107)
        trees = [random_tree(rng, max_depth=4) for _ in range(600)]
        table_path = tmp_path / "table.tsv"
        rows = {chr(0x5000 + i): to_preorder(t) for i, t in enumerate(trees)}
        DecompositionTable(rows).save(table_path)
        max_len = str(max(len(to_preorder(t)) for t in trees) + 1)
        argv = [sys.executable, "-m", "radtree.cli", "export-targets", "--from-table",
                "--table", str(table_path), "--max-len", max_len]
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        whole = subprocess.run(argv, env=env, check=True, capture_output=True).stdout
        assert len(whole) > 1 << 16  # more than a pipe buffer holds
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(100) == whole[:100]
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (3, b"radtree: io error: [Errno 32] Broken pipe\n")

    def test_too_long_in_the_middle_of_the_charset_writes_no_file(self, capsys, tmp_path,
                                                                   sample_table_path):
        charset = tmp_path / "charset.txt"
        charset.write_text("好\n@\n森\n妈\n", encoding="utf-8")  # 森 needs 6, the others 4 or 2
        out_path, vocab_path = tmp_path / "targets.jsonl", tmp_path / "vocab.tsv"
        code, out, err = run(capsys, "export-targets", "--charset", str(charset),
                             "--table", str(sample_table_path), "--max-len", "5",
                             "-o", str(out_path), "--vocab-out", str(vocab_path))
        assert (code, out) == (2, "")
        assert err == ("radtree: error: character '森' needs length 6 (rssl 5 + EOS) "
                       "but max_len is 5\n")
        assert not out_path.exists() and not vocab_path.exists()

    def test_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        rng = random.Random(1103)
        pool = [chr(0x4E00 + i) for i in range(300)] + ['"', "\\", "𠀀", "é"]
        trees = [random_tree(rng, max_depth=4, leaf_pool=pool) for _ in range(300)]
        table_path = tmp_path / "table.tsv"
        rows = {chr(0x5000 + i): to_preorder(t) for i, t in enumerate(trees)}
        DecompositionTable(rows).save(table_path)
        charset = tmp_path / "charset.txt"
        charset.write_text("".join(f"{chr(0x5000 + i)}\n@\n" for i in range(0, 300, 7)),
                           encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        max_len = str(max(len(to_preorder(t)) for t in trees) + 1)
        outputs = []
        for seed in ("0", "1"):
            out, vocab = tmp_path / f"targets{seed}.jsonl", tmp_path / f"vocab{seed}.tsv"
            for source in (["--from-table"], ["--charset", str(charset)]):
                env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
                subprocess.run([sys.executable, "-m", "radtree.cli", "export-targets", *source,
                                "--table", str(table_path), "--max-len", max_len, "-o", str(out),
                                "--vocab-out", str(vocab)], env=env, check=True)
                outputs.append((out.read_bytes(), vocab.read_bytes()))
        assert outputs[:2] == outputs[2:]
        assert all(out and vocab for out, vocab in outputs)


DEEP = 3000  # levels, past the interpreter's default recursion limit


@pytest.fixture
def deep_table(tmp_path):
    # X is a left spine ⿰×3000 A×3001; Y differs only in its last token,
    # the root's right child, so their similarity is 2/3.
    x = ["⿰"] * DEEP + ["A"] * (DEEP + 1)
    path = tmp_path / "deep.tsv"
    path.write_text(f"X\t{' '.join(x)}\nY\t{' '.join(x[:-1] + ['B'])}\n", encoding="utf-8")
    return path


class TestDeepTable:
    def test_export_targets(self, capsys, deep_table):
        code, out, _ = run(capsys, "export-targets", "--from-table", "--table", str(deep_table),
                           "--max-len", "7000")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["char"] for r in records] == ["X", "Y"]
        for record in records:
            assert len(record["weights"]) == 7000
            assert record["weights"][0] == pytest.approx(1 + 1 / 3)
            assert sum(record["weights"]) == pytest.approx(2 * DEEP + 1 + 1 + 1)

    def test_weights(self, capsys, deep_table):
        code, out, _ = run(capsys, "weights", "--char", "X", "--table", str(deep_table))
        assert code == 0
        weights = json.loads(out)
        assert len(weights) == 2 * DEEP + 1
        assert weights[-1] == pytest.approx(1 + 1 / 3)

    def test_treesim(self, capsys, deep_table):
        code, out, _ = run(capsys, "treesim", "X", "Y", "--table", str(deep_table))
        assert code == 0
        assert out == "0.666666666667\n"

    def test_eval(self, capsys, tmp_path, deep_table):
        gt, pred = tmp_path / "gt.tsv", tmp_path / "pred.tsv"
        gt.write_text("1\tX\n", encoding="utf-8")
        pred.write_text("1\tY\n", encoding="utf-8")
        code, out, _ = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                           "--table", str(deep_table))
        assert code == 0
        report = json.loads(out)
        assert report["char_accuracy"] == 0.0
        assert report["mean_treesim"] == pytest.approx(2 / 3)
        assert report["rssl_buckets"]["complex"]["count"] == 1


class TestPlumbing:
    @pytest.mark.parametrize("argv", [
        ["parse", "好", "--strict"],
        ["parse", "好", "--rssl-buckets", "4,7"],
        ["treesim", "好", "妈", "--pretty"],
        ["treesim", "好", "妈", "--strict"],
        ["weights", "--char", "好", "--strict"],
        ["stats", "--input", "train.txt", "--strict"],
        ["stats", "--input", "train.txt", "--occn-buckets", "100,50,20"],
        ["export-targets", "--from-table", "--max-len", "8", "--pretty"],
        ["export-targets", "--from-table", "--max-len", "8", "--strict"],
        ["export-targets", "--from-table", "--max-len", "8", "--rssl-buckets", "4,7"],
    ])
    def test_flag_a_command_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # One argv that succeeds and one that fails per command; {name} is a file below.
    @pytest.mark.parametrize("ok, bad", [
        ("parse 好", "parse --seq ⿰"),
        ("treesim 好 妈", "treesim 好 妈妈"),
        ("weights --char 好", "weights --char 好 --lambda -1"),
        ("stats --input {train} -o {out}", "stats --input {missing}"),
        ("eval --gt {gt} --pred {pred} -o {out}",
         "eval --gt {gt} --pred {pred} --train {train} --occn-buckets 1"),
        ("export-targets --charset {charset} --max-len 8 -o {out}",
         "export-targets --charset {charset} --from-table --max-len 8"),
    ], ids=["parse", "treesim", "weights", "stats", "eval", "export-targets"])
    def test_environment_is_not_read(self, capsys, monkeypatch, tmp_path, sample_table_path,
                                     eval_files, ok, bad):
        gt, pred, train = eval_files
        gt.write_text("a\t好妈\nb\t林林\nc\t森\n", encoding="utf-8")  # c: no prediction
        charset = tmp_path / "charset.txt"
        charset.write_text("好\n@\n", encoding="utf-8")
        files = dict(gt=gt, pred=pred, train=train, charset=charset,
                     out=tmp_path / "out", missing=tmp_path / "missing.tsv")
        env_paths = {name: tmp_path / f"env_{name}" for name in
                     ("ARITIES", "OUTPUT", "TRAIN", "VOCAB_OUT")}
        hostile = {name: str(path) for name, path in env_paths.items()}
        hostile.update(TABLE=str(sample_table_path), PRETTY="1", RSSL_BUCKETS="9",
                       MODE="bogus", LAMBDA="heavy", INPUT_FORMAT="tsv", TRAIN_FORMAT="tsv",
                       TREESIM_SCOPE="aligned", OCCN_BUCKETS="1,2", STRICT="False")
        assert len(hostile) == 14

        def outcome(argv):
            files["out"].unlink(missing_ok=True)
            try:
                code = main([arg.format(**files) for arg in argv.split()])
            except SystemExit as exc:  # argparse rejected argv
                code = exc.code
            captured = capsys.readouterr()
            out = files["out"].read_bytes() if files["out"].exists() else None
            return code, captured.out, captured.err, out

        for name in [n for n in os.environ if n.startswith("RADTREE_")]:
            monkeypatch.delenv(name)
        clean = [outcome(ok), outcome(bad)]
        assert clean[0][0] == 0 and clean[1][0] != 0
        for name, value in hostile.items():
            monkeypatch.setenv(f"RADTREE_{name}", value)
        assert [outcome(ok), outcome(bad)] == clean
        assert [path for path in env_paths.values() if path.exists()] == []

    @pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"], ids=ascii)
    def test_path_with_a_line_break_fails_in_one_line(self, capsys, tmp_path, brk):
        path = tmp_path / f"a{brk}b.tsv"
        path.write_text("x\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", "--gt", str(path), "--pred", str(path))
        assert code == 2
        assert err.count("\n") == 1 and len(err.splitlines()) == 1
        assert err.startswith("radtree: error: ") and ascii(brk)[1:-1] + "b.tsv:1:" in err

    def test_rejected_argument_with_a_line_break_fails_in_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["treesim", "a", "b", "c\nd"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == "radtree: error: unrecognized arguments: c\\nd\n"

    @pytest.mark.parametrize("argv, message", [
        (["parse"], "give exactly one of CHAR or --seq"),
        (["parse", "好", "--seq", "A"], "give exactly one of CHAR or --seq"),
        (["export-targets", "--max-len", "8"], "give exactly one of --charset or --from-table"),
        (["export-targets", "--max-len", "8", "--from-table", "--charset", "c.txt"],
         "give exactly one of --charset or --from-table"),
        (["weights", "--char", "好", "--lambda", "-1"], "lambda must be >= 0"),
        (["export-targets", "--from-table", "--max-len", "1000001"],
         "max_len must be at most 1000000, got 1000001"),
        (["export-targets", "--from-table", "--max-len", "0"], "max_len must be at least 1, got 0"),
        (["export-targets", "--charset", "c.txt", "--max-len", "-3"],
         "max_len must be at least 1, got -3"),
        (["export-targets", "--from-table", "--max-len", "5", "--lambda", "nan"],
         "lambda must be a finite number, got nan"),
        (["stats", "--input", "t.txt", "--rssl-buckets", "4"],
         "--rssl-buckets expects SIMPLE_MAX,COMPLEX_MIN, got '4'"),
        (["eval", "--gt", "gt.tsv", "--pred", "pred.tsv", "--occn-buckets", "1"],
         "--occn-buckets expects HEAD,MID,LOW, got '1'"),
        (["eval", "--gt", "gt.tsv", "--pred", "pred.tsv", "--rssl-buckets", "9,4"],
         "need 1 <= rssl_simple_max < rssl_complex_min"),
        (["eval", "--gt", "gt.tsv", "--pred", "pred.tsv", "--occn-buckets", "100,50,20"],
         "--occn-buckets needs --train"),
        (["eval", "--gt", "gt.tsv", "--pred", "pred.tsv", "--train-format", "plain"],
         "--train-format needs --train"),
        (["parse", "", "--seq", "⿰ 女 子"], "give exactly one of CHAR or --seq"),
        (["parse", "--seq", ""], "--seq has no tokens, got ''"),
        (["parse", "--seq", " \t"], "--seq has no tokens, got ' \\t'"),
        (["stats", "--input", "t.txt", "--rssl-buckets", ""],
         "--rssl-buckets expects SIMPLE_MAX,COMPLEX_MIN, got ''"),
        (["eval", "--gt", "gt.tsv", "--pred", "pred.tsv", "--rssl-buckets", ""],
         "--rssl-buckets expects SIMPLE_MAX,COMPLEX_MIN, got ''"),
        (["eval", "--gt", "gt.tsv", "--pred", "pred.tsv", "--train", "t.txt", "--occn-buckets", ""],
         "--occn-buckets expects HEAD,MID,LOW, got ''"),
    ])
    @pytest.mark.parametrize("table", ["missing", "underflow"])
    def test_usage_is_checked_before_the_table_is_read(self, capsys, tmp_path, argv, message,
                                                      table):
        path = tmp_path / "table.tsv"
        if table == "underflow":
            path.write_text("好\t⿰ 女\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, "--table", str(path))
        assert (code, out, err) == (2, "", f"radtree: error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["parse", "好的"], "CHAR must be a single character, got '好的'"),
        (["treesim", "好好", "妈"], "CHAR1 must be a single character, got '好好'"),
        (["treesim", "好", "妈妈"], "CHAR2 must be a single character, got '妈妈'"),
        (["weights", "--char", "好好"], "--char must be a single character, got '好好'"),
        (["parse", ""], "CHAR must be a single character, got ''"),
    ])
    @pytest.mark.parametrize("table", ["missing", "underflow"])
    def test_characters_are_checked_before_the_table_is_read(self, capsys, tmp_path, argv,
                                                             message, table):
        path = tmp_path / "table.tsv"
        if table == "underflow":
            path.write_text("好\t⿰ 女\n", encoding="utf-8")
        code, out, err = run(capsys, *argv, "--table", str(path))
        assert (code, out, err) == (2, "", f"radtree: error: {message}\n")

    # Each flag given "", an empty path: it fails to open like any other missing file.
    @pytest.mark.parametrize("argv", [
        ["treesim", "好", "妈", "--table", ""],
        ["parse", "好", "--arities", ""],
        ["eval", "--gt", "{gt}", "--pred", "{pred}", "--train", ""],
        ["eval", "--gt", "{gt}", "--pred", "{pred}", "--train", "", "--occn-buckets", "3,2,1"],
        ["export-targets", "--charset", "", "--max-len", "8"],
        ["export-targets", "--from-table", "--max-len", "8", "--vocab-out", ""],
        ["treesim", "好", "妈", "-o", ""],
        ["eval", "--gt", "{gt}", "--pred", "{pred}", "-o", ""],
        ["export-targets", "--from-table", "--max-len", "8", "-o", ""],
    ], ids=["table", "arities", "train", "train-occn-buckets", "charset", "vocab-out",
            "output-treesim", "output-eval", "output-export-targets"])
    def test_empty_path_is_a_missing_file(self, capsys, sample_table_path, eval_files, argv):
        gt, pred, _ = eval_files
        argv = [arg.format(gt=gt, pred=pred) for arg in argv]
        if "--table" not in argv:
            argv += ["--table", str(sample_table_path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("radtree: io error: ") and err.endswith(" ''\n")
        assert err.count("\n") == 1

    def test_empty_charset_with_from_table_is_two_sources(self, capsys, sample_table_path):
        code, out, err = run(capsys, "export-targets", "--charset", "", "--from-table",
                             "--max-len", "8", "--table", str(sample_table_path))
        assert (code, out, err) == (
            2, "", "radtree: error: give exactly one of --charset or --from-table\n")

    def test_eval_reads_the_training_labels_before_the_table(self, capsys, tmp_path, eval_files):
        gt, pred, _ = eval_files
        table, train = tmp_path / "table.tsv", tmp_path / "missing_train.txt"
        table.write_text("好\t⿰ 女\n", encoding="utf-8")  # underflows
        code, out, err = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                             "--train", str(train), "--table", str(table))
        assert (code, out) == (3, "")
        assert err.startswith("radtree: io error: ") and err.endswith(f"{str(train)!r}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("role", ["--gt", "--pred"])
    def test_eval_reads_the_corpora_before_the_table(self, capsys, tmp_path, eval_files, role):
        gt, pred, _ = eval_files
        table, missing = tmp_path / "table.tsv", tmp_path / "missing.tsv"
        table.write_text("好\t⿰ 女\n", encoding="utf-8")  # underflows
        gt, pred = (missing, pred) if role == "--gt" else (gt, missing)
        code, out, err = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred),
                             "--table", str(table))
        assert (code, out) == (3, "")
        assert err.startswith("radtree: io error: ") and err.endswith(f"{str(missing)!r}\n")
        assert err.count("\n") == 1

    def test_stats_reads_its_input_before_the_table(self, capsys, tmp_path):
        table, missing = tmp_path / "table.tsv", tmp_path / "missing.txt"
        table.write_text("好\t⿰ 女\n", encoding="utf-8")  # underflows
        code, out, err = run(capsys, "stats", "--input", str(missing), "--table", str(table))
        assert (code, out) == (3, "")
        assert err.startswith("radtree: io error: ") and err.endswith(f"{str(missing)!r}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, kept", [
        (["parse", "好"], "好"),
        (["parse", "--seq", "⿰ 女 子"], ""),
        (["treesim", "林", "好"], "好林"),
        (["weights", "--char", "森"], "森"),
        (["stats", "--input", "{train}"], "好妈林"),
        (["eval", "--gt", "{gt}", "--pred", "{pred}"], "好妈林"),  # 木 is untabulated
        (["export-targets", "--from-table", "--max-len", "8"], "好妈林森品街"),
    ])
    def test_each_command_keeps_only_the_entries_it_reads(self, capsys, monkeypatch,
                                                          sample_table_path, eval_files,
                                                          argv, kept):
        gt, pred, train = eval_files
        loaded, load = [], DecompositionTable.load.__func__

        def recording(cls, *args, **kwargs):
            loaded.append(load(cls, *args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(DecompositionTable, "load", classmethod(recording))
        argv = [arg.format(gt=gt, pred=pred, train=train) for arg in argv]
        code, _, err = run(capsys, *argv, "--table", str(sample_table_path))
        assert (code, err) == (0, "")
        assert [table.chars() for table in loaded] == [list(kept)]

    @pytest.mark.parametrize("role, line", [("--table", "{}\t⿰ 女 子\n"), ("--charset", "{}\n"),
                                            ("--gt", "{}\t好\n"), ("--pred", "{}\t好\n")])
    def test_file_that_is_not_utf8_is_named(self, capsys, tmp_path, sample_table_path, role,
                                            line):
        # A cut-off character after the first 8 KiB, so in a later chunk of the decoder.
        bad = tmp_path / "bad.txt"
        bad.write_bytes("".join(line.format(chr(0x4E00 + i)) for i in range(2000)).encode("utf-8")
                        + b"\xe5\xa5\n")
        good = tmp_path / "good.tsv"
        good.write_text("a\t好\n", encoding="utf-8")
        if role == "--table":
            argv = ["export-targets", "--from-table", "--max-len", "8", f"--table={bad}"]
        elif role == "--charset":
            argv = ["export-targets", "--max-len", "8", f"--table={sample_table_path}",
                    f"--charset={bad}"]
        else:
            gt, pred = (bad, good) if role == "--gt" else (good, bad)
            argv = ["eval", f"--gt={gt}", f"--pred={pred}"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"radtree: error: {bad}: not UTF-8 text (invalid continuation byte)\n"

    def test_eval_and_stats_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Substitutions between many distinct characters, tabulated or not, several
        # missing ids and a training file that fills every occn bucket.
        rng = random.Random(1109)
        pool = [chr(0x4E00 + i) for i in range(40)] + ['"', "\\", "𠀀", "é"]
        trees = [random_tree(rng, max_depth=3, leaf_pool=pool) for _ in range(120)]
        table_path = tmp_path / "table.tsv"
        rows = {chr(0x5000 + i): to_preorder(t) for i, t in enumerate(trees)}
        DecompositionTable(rows).save(table_path)
        alphabet = [chr(0x5000 + i) for i in range(120)] + list("@#")
        gt, pred, train = tmp_path / "gt.tsv", tmp_path / "pred.tsv", tmp_path / "train.txt"
        gt_lines, pred_lines = [], []
        for n in range(200):
            text = "".join(rng.choices(alphabet, k=rng.randint(1, 8)))
            gt_lines.append(f"s{n}\t{text}\n")
            if n % 17:  # every 17th id has no prediction
                edited = [rng.choice(alphabet) if rng.random() < 0.3 else c for c in text]
                pred_lines.append(f"s{n}\t{''.join(edited[:rng.randint(0, len(edited))])}\n")
        gt.write_text("".join(gt_lines), encoding="utf-8")
        pred.write_text("".join(pred_lines), encoding="utf-8")
        train.write_text("".join(c * rng.randint(1, 12) + "\n" for c in alphabet),
                         encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        commands = [
            ["eval", "--gt", str(gt), "--pred", str(pred), "--train", str(train),
             "--occn-buckets", "9,5,2", "--rssl-buckets", "3,6"],
            ["stats", "--input", str(train), "--rssl-buckets", "3,6"],
        ]
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            for command in commands:
                out = tmp_path / f"{command[0]}{seed}.json"
                subprocess.run([sys.executable, "-m", "radtree.cli", *command,
                                "--table", str(table_path), "-o", str(out)], env=env, check=True)
                outputs.append(out.read_bytes())
        assert outputs[:2] == outputs[2:]
        report = json.loads(outputs[0])
        assert len(report["missing_ids"]) > 1 and 0 < report["mean_treesim"] < 1
        assert all(row["count"] for row in report["occn_buckets"].values())

    def test_no_subcommand_imports_numpy(self, tmp_path):
        # The package imports no numpy; a run that loaded it, or dataclasses and the
        # inspect module that comes with it, would pay for them at every start-up.
        # Only modules loaded after the interpreter's own start-up (site hooks) count.
        gt = tmp_path / "gt.tsv"
        gt.write_text("a\t好妈\nb\t林森\n", encoding="utf-8")
        out, table = str(tmp_path / "out"), str(SAMPLE_TABLE)
        commands = [
            ["parse", "森"], ["treesim", "好", "妈"], ["weights", "--char", "森"],
            ["stats", "--input", str(gt), "--input-format", "tsv"],
            ["eval", "--gt", str(gt), "--pred", str(gt), "--train", str(gt)],
            ["export-targets", "--from-table", "--max-len", "8", "--vocab-out", out + ".tsv"],
        ]
        script = ("import sys\n"
                  "before = set(sys.modules)\n"
                  "from radtree.cli import main\n"
                  f"extra = ['--table', {table!r}, '-o', {out!r}]\n"
                  f"codes = [main([*argv, *extra]) for argv in {commands!r}]\n"
                  "added = set(sys.modules) - before\n"
                  "print(codes, sorted(added & {'numpy', 'dataclasses', 'inspect'}))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True)
        assert done.stdout == "[0, 0, 0, 0, 0, 0] []\n"

    def test_stdout_bytes_do_not_depend_on_the_io_encoding(self, tmp_path):
        # b"\xff" is no UTF-8: argv holds it as a lone surrogate, which no UTF-8 text holds.
        src = Path(__file__).resolve().parent.parent / "src"
        default = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        default["PYTHONPATH"] = str(src)
        envs = [default, {**default, "PYTHONIOENCODING": "utf-8:strict"},
                {**default, "PYTHONIOENCODING": "latin-1"}]
        for char, want_code in (("好", 0), (b"\xff", 2)):
            argv = [sys.executable, "-m", "radtree.cli", "parse", char, "--table",
                    str(SAMPLE_TABLE)]
            runs = {(done.returncode, done.stdout) for done in (
                subprocess.run(argv, env=env, capture_output=True) for env in envs)}
            assert len(runs) == 1, runs
            [(code, out)] = runs
            out_path = tmp_path / "out.json"
            to_file = subprocess.run([*argv, "-o", str(out_path)], env=default)
            assert code == to_file.returncode == want_code
            assert out == (out_path.read_bytes() if code == 0 else b"")

    def test_in_process_main_leaves_the_hosts_stdout_as_it_was(self, tmp_path):
        # The host prints "好" before and after main: its latin-1 stdout writes "?" for it.
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "latin-1:replace"}
        out_path = tmp_path / "out.json"
        host = ("import sys\n"
                "from radtree.cli import main\n"
                "before = sys.stdout.encoding, sys.stdout.errors\n"
                "print('好')\n"
                "code = main(sys.argv[1:])\n"
                "print('好')\n"
                "print(code, before, (sys.stdout.encoding, sys.stdout.errors), file=sys.stderr)\n")
        argv = ["parse", "好", "--table", str(SAMPLE_TABLE)]
        done = subprocess.run([sys.executable, "-c", host, *argv], env=env, capture_output=True)
        assert done.stderr.decode() == (
            "0 ('iso8859-1', 'replace') ('iso8859-1', 'replace')\n")
        subprocess.run([sys.executable, "-m", "radtree.cli", *argv, "-o", str(out_path)],
                       env=env, check=True)
        assert done.stdout == b"?\n" + out_path.read_bytes() + b"?\n"

    def test_a_closed_stdout_exits_3_with_one_line(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "radtree.cli", "parse", "好", "--table", str(SAMPLE_TABLE)]
        closing = ["sh", "-c", '"$@" >&-', "sh"]  # runs argv with file descriptor 1 closed
        closed = subprocess.run([*closing, *argv], env=env, capture_output=True)
        assert (closed.returncode, closed.stderr) == (3, b"radtree: io error: stdout is closed\n")
        out_path = tmp_path / "out.json"
        to_file = subprocess.run([*closing, *argv, "-o", str(out_path)], env=env,
                                 capture_output=True)
        assert (to_file.returncode, to_file.stderr) == (0, b"")
        whole = subprocess.run(argv, env=env, check=True, capture_output=True).stdout
        assert out_path.read_bytes() == whole

    def test_a_closed_stdout_fails_eval_summary_after_the_report_file(self, tmp_path, eval_files):
        gt, pred, _ = eval_files
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        report = tmp_path / "report.json"
        argv = [sys.executable, "-m", "radtree.cli", "eval", "--gt", str(gt), "--pred", str(pred),
                "--table", str(SAMPLE_TABLE), "-o", str(report), "--pretty"]
        closed = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *argv], env=env,
                                capture_output=True)
        assert (closed.returncode, closed.stderr) == (3, b"radtree: io error: stdout is closed\n")
        written = report.read_bytes()
        summary = subprocess.run(argv, env=env, check=True, capture_output=True).stdout
        assert report.read_bytes() == written and summary.startswith(b"lines 2  accuracy")

    @pytest.mark.parametrize("argv", [
        ["parse", "好", "--table", str(SAMPLE_TABLE)],
        ["eval", "--gt", "{gt}", "--pred", "{pred}", "--table", str(SAMPLE_TABLE)],
        ["eval", "--gt", "{gt}", "--pred", "{pred}", "--table", str(SAMPLE_TABLE),
         "-o", "{gt}.report", "--pretty"],
        ["export-targets", "--from-table", "--max-len", "8", "--table", str(SAMPLE_TABLE)],
    ], ids=["parse", "eval", "eval-summary", "export-targets"])
    def test_in_process_stdout_without_reconfigure_gets_the_subprocess_text(self, eval_files,
                                                                            argv):
        gt, pred, _ = eval_files
        argv = [arg.format(gt=gt, pred=pred) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (0, "")
        src = Path(__file__).resolve().parent.parent / "src"
        whole = subprocess.run([sys.executable, "-m", "radtree.cli", *argv], check=True,
                               env={**os.environ, "PYTHONPATH": str(src)},
                               capture_output=True).stdout
        assert out.getvalue().encode("utf-8") == whole != b""

    def test_in_process_stdout_without_reconfigure_refuses_a_lone_surrogate(self):
        # "\udcff" is how argv holds the byte 0xFF, which no UTF-8 text holds.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["parse", "\udcff", "--table", str(SAMPLE_TABLE)])
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-m", "radtree.cli", "parse", b"\xff", "--table",
                               str(SAMPLE_TABLE)], env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True)
        assert (code, out.getvalue()) == (done.returncode, done.stdout.decode()) == (2, "")
        assert err.getvalue().encode("utf-8") == done.stderr
        assert err.getvalue().count("\n") == 1

    def test_missing_table_exits_3(self, capsys):
        code, _, err = run(capsys, "parse", "好", "--table", "/nonexistent/table.tsv")
        assert code == 3
        assert "io error" in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_custom_arity_file(self, capsys, tmp_path):
        arities = tmp_path / "arities.tsv"
        arities.write_text("PAIR\t2\n", encoding="utf-8")
        code, out, _ = run(capsys, "parse", "--seq", "PAIR a b", "--arities", str(arities))
        assert code == 0
        assert json.loads(out)["rssl"] == 3

    def test_json_text_matches_json_dumps(self):
        rng = random.Random(5)
        scalars = [0, -3, 10**20, 0.1 + 0.2, 1e-05, float("nan"), float("inf"), None, True,
                   "", "好\t\"x\\"]

        def value(depth):
            roll = rng.random()
            if depth > 4 or roll < 0.4:
                return rng.choice(scalars)
            if roll < 0.7:
                return [value(depth + 1) for _ in range(rng.randint(0, 3))]
            return {rng.choice("a好\n") + str(i): value(depth + 1) for i in range(rng.randint(0, 3))}

        for _ in range(500):
            payload = value(0)
            for indent in (None, 2):
                assert json_text(payload, indent) == json.dumps(payload, ensure_ascii=False,
                                                                indent=indent)

    def test_output_flag_writes_file(self, capsys, tmp_path, sample_table_path):
        out_path = tmp_path / "tree.json"
        code, out, _ = run(capsys, "parse", "好", "--table", str(sample_table_path),
                           "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text(encoding="utf-8"))["rssl"] == 3
