"""Tooling guards: ``radtree.__all__`` is exactly the package's public names,
and each exported class defines exactly the public names pinned here.

``__init__`` names each export twice, once in an import and once in
``__all__``, so removing a name from one list and not the other is easy.
A public name here is one without a leading underscore that is not a
submodule.  A class's names are those its radtree class bodies define,
fields included, so an alias that re-spells an operation shows up here.
"""

from types import ModuleType

import pytest

import radtree


def public_names(namespace: dict) -> list[str]:
    return sorted(name for name, value in namespace.items()
                  if not name.startswith("_") and not isinstance(value, ModuleType))


def test_guard_detects_a_name_missing_from_all():
    namespace = {"align": object(), "levenshtein": object(), "metrics": radtree, "_edits": 0}
    assert public_names(namespace) == ["align", "levenshtein"]


def test_all_has_no_duplicates():
    assert len(radtree.__all__) == len(set(radtree.__all__))


def test_all_equals_the_public_names():
    assert sorted(radtree.__all__) == public_names(vars(radtree))


def class_names(cls) -> list[str]:
    return sorted({name for c in cls.__mro__ if c.__module__.startswith("radtree")
                   for name in vars(c) if not name.startswith("_")})


PINNED = {
    radtree.ArityTable: ["arity", "child_counts", "from_file", "items"],
    radtree.RadicalTree: ["children", "symbol"],
    radtree.DecompositionTable: ["chars", "load", "lookup", "radical_inventory", "save", "tokens"],
    radtree.RadicalVocab: ["encode", "load", "save", "tokens"],
    radtree.TargetRecord: ["char", "indices", "tokens", "weights"],
    radtree.EvalReport: [
        "char_accuracy", "char_correct", "char_count", "line_accuracy", "line_correct",
        "line_count", "mean_one_minus_ned", "mean_treesim", "missing_ids", "occn_buckets",
        "rssl_buckets", "to_dict", "treesim_scope"],
    radtree.BucketSpec: [
        "occn_head_min", "occn_low_min", "occn_mid_min", "rssl_complex_min", "rssl_simple_max"],
}


@pytest.mark.parametrize("cls", PINNED, ids=lambda cls: cls.__name__)
def test_each_exported_class_defines_exactly_its_pinned_names(cls):
    assert class_names(cls) == PINNED[cls]
