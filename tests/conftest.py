import pytest

from radtree.table import DecompositionTable
from radtree.tree import ArityTable


@pytest.fixture
def arities():
    return ArityTable()


SAMPLE_ROWS = {
    "好": ["⿰", "女", "子"],
    "妈": ["⿰", "女", "马"],
    "林": ["⿰", "木", "木"],
    "森": ["⿱", "木", "⿰", "木", "木"],
    "品": ["⿱", "口", "⿰", "口", "口"],
    "街": ["⿲", "彳", "圭", "亍"],
}


@pytest.fixture
def sample_table(arities):
    return DecompositionTable(SAMPLE_ROWS, arities)


@pytest.fixture
def sample_table_path(tmp_path, sample_table):
    path = tmp_path / "table.tsv"
    sample_table.save(path)
    return path
