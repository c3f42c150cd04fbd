"""The one text format shared by every reader and writer.

Each reader takes a leading byte-order mark and CRLF line ends, reports a
malformed line as ``path:N:``, and keeps its own policy for blank and
comment lines.  A table loads back equal from what ``save`` wrote, or its
constructor refuses it; a saved vocabulary loads back equal, or its
constructor or ``save`` refuses it before writing.  Only ``textio`` opens files.
"""

import ast
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import radtree
from radtree.cli import _read_charset
from radtree.errors import MalformedLine, TableParseError
from radtree.metrics import read_corpus_tsv
from radtree.stats import read_labels
from radtree.table import DecompositionTable
from radtree.targets import EOS_TOKEN, PAD_TOKEN, RadicalVocab, build_vocab
from radtree.tree import ArityTable

PACKAGE = Path(radtree.__file__).parent


def read_table(path):
    table = DecompositionTable.load(path)
    return {char: table.tokens(char) for char in table.chars()}


# reader, good lines, a malformed line (None: it has none), and what it does
# with an empty line, a whitespace-only line and a "#" line.
READERS = {
    "arities": (lambda p: dict(ArityTable.from_file(p).items()),
                ["P\t2", "Q\t3"], "P 2", ("skip", "skip", "skip")),
    "table": (read_table, ["好\t⿰ 女 子", "妈\t⿰ 女 马"], "好 ⿰ 女 子", ("skip", "skip", "skip")),
    "vocab": (lambda p: RadicalVocab.load(p).tokens,
              ["<pad>\t0", "<eos>\t1", "a\t2"], "a 2", ("skip", "error", "error")),
    "corpus": (read_corpus_tsv, ["a\t好", "b\t妈\t马"], "c", ("skip", "error", "error")),
    "labels-plain": (read_labels, ["好妈", " 森"], None, ("keep", "keep", "keep")),
    "labels-tsv": (lambda p: read_labels(p, "tsv"),
                   ["a\t好", "a\t妈\t马"], "c", ("skip", "error", "error")),
    "charset": (_read_charset, ["好", "妈"], "好妈", ("skip", "error", "error")),
}
ODD_LINES = ("", "   ", "# note")


def write(tmp_path, text: str) -> Path:
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("name", READERS)
def test_bom_and_crlf_read_as_plain_lf(tmp_path, name):
    read, lines, _, _ = READERS[name]
    want = read(write(tmp_path, "\n".join(lines) + "\n"))
    assert want
    assert read(write(tmp_path, "\ufeff" + "\r\n".join(lines) + "\r\n")) == want


@pytest.mark.parametrize("name", [name for name, spec in READERS.items() if spec[2]])
def test_malformed_line_names_path_and_line(tmp_path, name):
    read, lines, bad, _ = READERS[name]
    path = write(tmp_path, "\n".join([lines[0], bad, *lines[1:]]) + "\n")
    with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}:2: expected "):
        read(path)


@pytest.mark.parametrize("odd", range(len(ODD_LINES)), ids=["empty", "spaces", "comment"])
@pytest.mark.parametrize("name", READERS)
def test_blank_and_comment_policy(tmp_path, name, odd):
    read, lines, _, policy = READERS[name]
    with_odd = [lines[0], ODD_LINES[odd], *lines[1:]]
    path = write(tmp_path, "\n".join(with_odd) + "\n")
    if policy[odd] == "error":
        with pytest.raises(MalformedLine, match=f"^{re.escape(str(path))}:2: "):
            read(path)
        return
    got = read(path)
    if policy[odd] == "keep":
        assert got == with_odd
    else:
        assert got == read(write(tmp_path, "\n".join(lines) + "\n"))


ODD_KEYS = ("#", " ", "\x85", "\u2028", "\U00020000", "\t", "\n", "\r")


@pytest.mark.parametrize("key", [*ODD_KEYS, "\udcff", "", "ab"], ids=ascii)
def test_table_key_reloads_equal_or_is_refused(tmp_path, key):
    tokens = ["⿰", "女", "子"]
    if key in ("#", "\t", "\n", "\r", "\udcff", "", "ab"):
        with pytest.raises(MalformedLine, match=f"^entry {re.escape(repr(key))}: key is not "):
            DecompositionTable({"妈": tokens, key: tokens})
        return
    path = tmp_path / "table.tsv"
    DecompositionTable({key: tokens, "妈": tokens}).save(path)
    assert read_table(path) == {key: ("⿰", "女", "子"), "妈": ("⿰", "女", "子")}


@pytest.mark.parametrize("keys", [("\ufeff", "妈"), ("妈", "\ufeff")], ids=ascii)
def test_byte_order_mark_key_reloads_equal(tmp_path, keys):
    # load drops one leading U+FEFF, so save writes one only before a first key U+FEFF.
    path = tmp_path / "table.tsv"
    DecompositionTable(dict.fromkeys(keys, ["⿰", "女", "子"])).save(path)
    bom = "\ufeff" if keys[0] == "\ufeff" else ""
    assert path.read_bytes() == (bom + "".join(f"{k}\t⿰ 女 子\n" for k in keys)).encode("utf-8")
    assert list(read_table(path).items()) == [(k, ("⿰", "女", "子")) for k in keys]


@pytest.mark.parametrize("token", [*ODD_KEYS[:5], "", "\ufeff", "a\tb", "a\nb", "a\rb", "\udcff",
                                   "a\udcffb"], ids=ascii)
def test_vocab_token_reloads_equal_or_is_refused(tmp_path, token):
    # The constructor refuses a token UTF-8 cannot hold, save one a tab or line end would split.
    path = tmp_path / "vocab.tsv"
    if "\udcff" in token:
        with pytest.raises(ValueError, match=f"^token {re.escape(repr(token))} is not UTF-8$"):
            RadicalVocab([token, "z"])
        return
    vocab = RadicalVocab([token, "z"])
    if any(c in token for c in "\t\n\r"):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            vocab.save(path)
        assert not path.exists()
    else:
        vocab.save(path)
        assert RadicalVocab.load(path) == vocab


@pytest.mark.parametrize("symbol", ["#", "\U00020000", "\ufeff", "a b", "a\tb", "a\nb", "\x85",
                                    "a\u2028b", "\udcff"], ids=ascii)
def test_table_token_reloads_equal_or_is_refused(tmp_path, symbol):
    # load splits the token field on any whitespace; UTF-8 holds no lone surrogate.
    if symbol.split() != [symbol] or symbol == "\udcff":
        with pytest.raises(MalformedLine, match=f"^entry '好': token {re.escape(repr(symbol))} "
                                                "holding whitespace or a lone surrogate at "
                                                "position 1$"):
            DecompositionTable({"好": ["⿰", symbol, "子"]})
        return
    path = tmp_path / "table.tsv"
    DecompositionTable({"好": ["⿰", symbol, "子"]}).save(path)
    assert read_table(path) == {"好": ("⿰", symbol, "子")}


# Text a table file may or may not hold: "#", whitespace, a byte-order mark, no text,
# a lone surrogate, multi-code-point names and astral characters.  Plain names are
# drawn three times as often, so that many tables pass the constructor.
ODD_TEXT = ["#", "\t", "\n", "\r", " ", "\x85", "\u2028", "\ufeff", "", "a b", "\udcff",
            "a\u0301", "\U00020000"]
TEXT = st.sampled_from(ODD_TEXT + ["女", "子", "好", "妈"] * 10)


def token_sequences():
    trees = st.recursive(TEXT.map(lambda token: [token]), lambda kids: st.tuples(kids, kids).map(
        lambda pair: ["⿰", *pair[0], *pair[1]]), max_leaves=4)
    return trees | st.lists(TEXT | st.just("⿰"), max_size=4)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(TEXT, token_sequences(), max_size=4))
def test_a_table_the_constructor_takes_saves_and_reloads_equal(entries):
    try:
        table = DecompositionTable(entries)
    except (MalformedLine, TableParseError):
        return
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.tsv"), Path(tmp, "second.tsv")
        table.save(first)
        reloaded = DecompositionTable.load(first, table.arities)
        assert reloaded.chars() == table.chars()
        for char in table.chars():
            assert reloaded.tokens(char) == table.tokens(char)
            assert reloaded._preorder(char) == table._preorder(char)
        reloaded.save(second)
        assert second.read_bytes() == first.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(TEXT | st.sampled_from([PAD_TOKEN, EOS_TOKEN]), max_size=5))
def test_a_vocabulary_save_writes_reloads_equal(tokens):
    try:
        vocab = RadicalVocab(tokens)
    except ValueError:  # a reserved token, or one with a lone surrogate
        assert {PAD_TOKEN, EOS_TOKEN} & set(tokens) or "\udcff" in "".join(tokens)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "vocab.tsv")
        try:
            vocab.save(path)
        except ValueError:
            assert any(c in "".join(tokens) for c in "\t\n\r")
            assert not path.exists()
            return
        assert RadicalVocab.load(path) == vocab


@pytest.mark.parametrize("path, error", [("", FileNotFoundError), (None, TypeError)])
def test_writers_need_a_file_path(capsys, path, error):
    table = DecompositionTable({"好": ["⿰", "女", "子"]})
    for save in (table.save, build_vocab(table).save):
        with pytest.raises(error):
            save(path)
    assert capsys.readouterr().out == ""


OPENERS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_opens(tree: ast.AST) -> list[int]:
    """Lines that call ``open`` or a ``Path`` method that opens a file."""
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        target = call.func
        if (isinstance(target, ast.Name) and target.id == "open"
                or isinstance(target, ast.Attribute) and target.attr in OPENERS):
            found.append(call.lineno)
    return found


def test_guard_detects_file_opens():
    source = """
with open(path) as fh:
    pass
io.open(path)
text = Path(path).read_text()
"""
    assert sorted(file_opens(ast.parse(source))) == [2, 4, 5]


def test_only_textio_opens_files():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {path.name: file_opens(ast.parse(path.read_text(encoding="utf-8")))
             for path in modules}
    assert found.pop("textio.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
