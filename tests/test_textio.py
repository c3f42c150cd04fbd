"""The one text format shared by every reader and writer.

Each reader takes a leading byte-order mark and CRLF line ends, reports a
malformed line as ``path:N:``, and keeps its own policy for blank and
comment lines.  A saved table or vocabulary loads back equal, or ``save``
refuses it before writing.  Only ``textio`` opens files.
"""

import ast
import re
from pathlib import Path

import pytest

import radtree
from radtree.cli import _read_charset
from radtree.errors import MalformedLine
from radtree.metrics import read_corpus_tsv
from radtree.stats import read_labels
from radtree.table import DecompositionTable
from radtree.targets import RadicalVocab, build_vocab
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


@pytest.mark.parametrize("key", ODD_KEYS, ids=ascii)
def test_table_key_reloads_equal_or_is_refused(tmp_path, key):
    tokens = ["⿰", "女", "子"]
    table = DecompositionTable({key: tokens, "妈": tokens})
    path = tmp_path / "table.tsv"
    if key in "#\t\n\r":
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            table.save(path)
        assert not path.exists()
    else:
        table.save(path)
        assert read_table(path) == {key: ("⿰", "女", "子"), "妈": ("⿰", "女", "子")}


@pytest.mark.parametrize("keys", [("\ufeff", "妈"), ("妈", "\ufeff")], ids=ascii)
def test_byte_order_mark_key_reloads_equal(tmp_path, keys):
    # load drops one leading U+FEFF, so save writes one only before a first key U+FEFF.
    path = tmp_path / "table.tsv"
    DecompositionTable(dict.fromkeys(keys, ["⿰", "女", "子"])).save(path)
    bom = "\ufeff" if keys[0] == "\ufeff" else ""
    assert path.read_bytes() == (bom + "".join(f"{k}\t⿰ 女 子\n" for k in keys)).encode("utf-8")
    assert list(read_table(path).items()) == [(k, ("⿰", "女", "子")) for k in keys]


@pytest.mark.parametrize("token", [*ODD_KEYS[:5], "a\tb", "a\nb", "a\rb"], ids=ascii)
def test_vocab_token_reloads_equal_or_is_refused(tmp_path, token):
    vocab = RadicalVocab([token, "z"])
    path = tmp_path / "vocab.tsv"
    if any(c in token for c in "\t\n\r"):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            vocab.save(path)
        assert not path.exists()
    else:
        vocab.save(path)
        assert RadicalVocab.load(path) == vocab


@pytest.mark.parametrize("symbol", ["#", "\U00020000", "a b", "a\tb", "a\nb", "\x85", "a\u2028b"],
                         ids=ascii)
def test_table_token_reloads_equal_or_is_refused(tmp_path, symbol):
    table = DecompositionTable({"好": ["⿰", symbol, "子"]})
    path = tmp_path / "table.tsv"
    if symbol.split() != [symbol]:  # load splits the token field on any whitespace
        with pytest.raises(ValueError, match=re.escape(repr("好"))):
            table.save(path)
        assert not path.exists()
    else:
        table.save(path)
        assert read_table(path) == {"好": ("⿰", symbol, "子")}


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
