"""The package surface: every public name is in ``__all__`` and nothing else is."""

import types

import qparity


def test_star_import_succeeds():
    namespace = {}
    exec("from qparity import *", namespace)
    assert set(qparity.__all__) <= set(namespace)


def test_all_is_sorted_and_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(qparity).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert qparity.__all__ == sorted(qparity.__all__)
    assert set(qparity.__all__) == public
    assert len(qparity.__all__) == len(public)
