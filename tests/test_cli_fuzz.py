"""Seeded fuzz of every CLI subcommand with odd files and flag values.

Every run must exit 0, 2 (domain error) or 3 (I/O error), and a failing
run must print exactly one line on stderr, never a traceback.  Some argv
are also run a second time with a tail that argparse itself rejects (a bad
int or float, an unknown flag, a flag missing its value), which must exit
2 the same way.  Every argv without ``-o`` is run again with it, which
must exit with the same code and, on success, write stdout's bytes to the
file.  Lambda values are passed space-separated, negative ones included.
A lone surrogate stands for the argv byte 0xFF, which is not UTF-8.  Accepted ``--max-len`` values stay at or below 10⁴ so padding
stays small.
"""

import random
from pathlib import Path

import pytest

from radtree.cli import main

TEXT_FILES = {
    "empty": b"",
    "bom": b"\xef\xbb\xbf",
    "bad_utf8": b"\xff\xfe\x80abc\n",
    "table": "好\t⿰ 女 子\n妈\t⿰ 女 马\n森\t⿱ 木 ⿰ 木 木\n街\t⿲ 彳 圭 亍\n".encode(),
    "p_table": "x\tP a b\n".encode(),
    "underflow": "好\t⿰ 女\n".encode(),
    "trailing": "好\t女 子\n".encode(),
    "duplicate": "好\t⿰ 女 子\n好\t好\n".encode(),
    "empty_key": "\t⿰ 女 子\n".encode(),
    "empty_seq": "好\t\n".encode(),
    "arities": b"P\t2\n",
    "huge_arity": b"P\t100000000000000000000000000\n",
    "empty_token_arity": b"\t2\n",
    "bad_arity": b"P\tx\n",
    "gt": "1\t好妈林\n2\t森街\n3\t\n".encode(),
    "pred": "1\t好马林\n2\t森\n4\t好\n".encode(),
    "labels": "好妈林\n森街\n".encode(),
    "charset": "好\n@\n森\n".encode(),
    "charset_multi": "好妈\n".encode(),
}
ODD = ("empty", "bom", "bad_utf8", "dir", "missing")
TABLES = ("p_table", "underflow", "trailing", "duplicate", "empty_key", "empty_seq", *ODD)
ARITIES = ("huge_arity", "empty_token_arity", "bad_arity", *ODD)
# "\udcff" is how Python decodes the argv byte 0xFF.
CHARS = ("好", "@", "森", "x", "好妈", "", "\udcff")
SEQS = ("⿰ A B", "⿰ A", "A B", "   ", "P a b", "⿲ A B C", "⿰  A B", "⿰ \udcff B")
LAMBDAS = ("1", "0", "0.5", "-1", "1e308", "nan", "inf", "-inf", "-nan", "-1e3", "-Infinity")
RSSL_SPECS = ("4,7", "4", "a,b", ",", "7,4", "0,1", "1,2,3")
OCCN_SPECS = ("100,50,20", "1,2", "x", "20,50,100", "0,0,0")
MAX_LENS = (-3, -1, 0, 1, 3, 5, 8, 40, 10**4)
# Appended to a generated argv, each makes argparse reject it.
REJECTED_TAILS = (["--max-len", "x"], ["--no-such-flag"], ["--lambda", "x"], ["--mode"])
REJECTED = {
    "no-subcommand": [],
    "bad-int": ["export-targets", "--from-table", "--max-len", "x"],
    "missing-positional": ["treesim", "好"],
    "unknown-flag": ["stats", "--input", "labels.txt", "--no-such-flag"],
    "lambda-not-a-number": ["weights", "--char", "好", "--lambda", "x"],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, data in TEXT_FILES.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(data)
    paths["dir"] = tmp_path / "a_directory"
    paths["dir"].mkdir()
    paths["missing"] = tmp_path / "missing"
    paths["out"] = tmp_path / "out"
    paths["out_in_missing_dir"] = tmp_path / "no_such_dir" / "out"
    paths["stdout_copy"] = tmp_path / "stdout_copy"
    return {name: str(path) for name, path in paths.items()}


def pick(rng, files, good, odd=ODD):
    """The path of ``good`` most of the time, else of one of ``odd``."""
    return files[good if rng.random() < 0.7 else rng.choice(odd)]


def common(rng, files):
    argv = []
    if rng.random() < 0.8:
        argv += ["--table", pick(rng, files, "table", TABLES)]
    if rng.random() < 0.2:
        argv += ["--arities", pick(rng, files, "arities", ARITIES)]
    if rng.random() < 0.2:
        argv += ["-o", pick(rng, files, "out", ("dir", "out_in_missing_dir"))]
    return argv


def parse_argv(rng, files):
    argv = ["parse", *common(rng, files)]
    roll = rng.random()
    if roll < 0.45:
        argv.append(rng.choice(CHARS) or "好")
    elif roll < 0.9:
        argv.append(f"--seq={rng.choice(SEQS)}")
    if rng.random() < 0.5:
        argv.append("--pretty")
    return argv


def treesim_argv(rng, files):
    return ["treesim", *common(rng, files), rng.choice(CHARS) or "@", rng.choice(CHARS) or "@"]


def weights_argv(rng, files):
    return ["weights", *common(rng, files), f"--char={rng.choice(CHARS)}",
            "--mode", rng.choice(("naive", "treesim")), "--lambda", rng.choice(LAMBDAS)]


def stats_argv(rng, files):
    argv = ["stats", *common(rng, files), "--input", pick(rng, files, "labels"),
            "--input-format", rng.choice(("plain", "tsv"))]
    if rng.random() < 0.5:
        argv.append(f"--rssl-buckets={rng.choice(RSSL_SPECS)}")
    return argv


def eval_argv(rng, files):
    argv = ["eval", *common(rng, files), "--gt", pick(rng, files, "gt"),
            "--pred", pick(rng, files, "pred"),
            "--treesim-scope", rng.choice(("all", "aligned"))]
    if rng.random() < 0.4:
        argv += ["--train", pick(rng, files, "labels"),
                 "--train-format", rng.choice(("plain", "tsv"))]
    if rng.random() < 0.4:
        argv.append(f"--occn-buckets={rng.choice(OCCN_SPECS)}")
    if rng.random() < 0.4:
        argv.append(f"--rssl-buckets={rng.choice(RSSL_SPECS)}")
    argv += [flag for flag in ("--strict", "--pretty") if rng.random() < 0.3]
    return argv


def export_argv(rng, files):
    argv = ["export-targets", *common(rng, files), f"--max-len={rng.choice(MAX_LENS)}",
            "--mode", rng.choice(("naive", "treesim")), "--lambda", rng.choice(LAMBDAS)]
    roll = rng.random()
    if roll < 0.85:
        argv += ["--from-table"] if roll < 0.45 else [
            "--charset", pick(rng, files, "charset", ("charset_multi", *ODD))]
    elif roll < 0.95:
        argv += ["--from-table", "--charset", files["charset"]]
    if rng.random() < 0.3:
        argv += ["--vocab-out", pick(rng, files, "out", ("dir", "out_in_missing_dir"))]
    return argv


COMMANDS = {
    "parse": parse_argv,
    "treesim": treesim_argv,
    "weights": weights_argv,
    "stats": stats_argv,
    "eval": eval_argv,
    "export-targets": export_argv,
}


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected argv
        return exc.code


def assert_one_line(err: str, argv) -> None:
    assert err.startswith("radtree: ") and err.count("\n") == 1 \
        and err.endswith("\n"), (argv, err)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_exit_codes_and_one_line_errors(command, files, capsys):
    rng = random.Random(f"fuzz:{command}")
    reject = random.Random(f"reject:{command}")  # own stream: rng's argv stay as they were
    codes = set()
    for _ in range(60):
        argv = COMMANDS[command](rng, files)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), argv
        if code:
            assert_one_line(err, argv)
        codes.add(code)
        if "-o" not in argv:  # the same run, writing to a file instead of stdout
            copy = Path(files["stdout_copy"])
            copy.unlink(missing_ok=True)
            assert main([*argv, "-o", str(copy)]) == code, argv
            capsys.readouterr()
            if code == 0:
                assert out.encode("utf-8") == copy.read_bytes(), argv
        if reject.random() < 0.15:  # an extra run of the same argv with a rejected tail
            tailed = argv + reject.choice(REJECTED_TAILS)
            assert exit_code(tailed) == 2, tailed
            assert_one_line(capsys.readouterr().err, tailed)
    assert codes == {0, 2, 3}


@pytest.mark.parametrize("argv", REJECTED.values(), ids=REJECTED.keys())
def test_argparse_rejections_are_one_line(argv, capsys):
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line(captured.err, argv)
    assert captured.err.startswith("radtree: error: ")
