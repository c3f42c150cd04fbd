"""The README's library examples run as written, from the repository root."""

import re
from pathlib import Path

import pytest

import radtree.textio
from radtree import DecompositionTable, build_vocab, export_lines

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# Each python code block, keyed by the README line its code starts on.
BLOCKS = {README.count("\n", 0, m.start(1)) + 1: m.group(1)
          for m in re.finditer(r"^```python\n(.*?)^```$", README, re.M | re.S)}
# The Library notes' one-line export, wrapped over two lines of its list item.
WRITE_LINES = re.search(r"`(radtree\.textio\.write_lines\(path, .*?\))`", README, re.S)


def test_the_readme_has_the_examples():
    assert BLOCKS and WRITE_LINES


@pytest.mark.parametrize("line", BLOCKS, ids=lambda line: f"README.md:{line}")
def test_python_block_runs(monkeypatch, line):
    monkeypatch.chdir(ROOT)
    exec(compile("\n" * (line - 1) + BLOCKS[line], "README.md", "exec"), {})


def test_write_lines_example_writes_the_export(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    table = DecompositionTable.load("data/sample_table.tsv")
    path = tmp_path / "targets.jsonl"
    exec(" ".join(WRITE_LINES.group(1).split()),
         {"radtree": radtree, "path": path, "table": table, "export_lines": export_lines,
          "build_vocab": build_vocab})
    want = "".join(export_lines(table.chars(), table, 33, "treesim", 1, build_vocab(table)))
    assert want.count("\n") == len(table.chars()) > 0
    assert path.read_text(encoding="utf-8") == want
