"""Tooling guard: ``radtree.__all__`` is exactly the package's public names.

``__init__`` names each export twice, once in an import and once in
``__all__``, so removing a name from one list and not the other is easy.
A public name here is one without a leading underscore that is not a
submodule.
"""

from types import ModuleType

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
