"""The package surface: every public name is in ``__all__`` and nothing else is."""

import types

import qparity


def test_star_import_succeeds():
    namespace = {}
    exec("from qparity import *", namespace)
    assert set(qparity.__all__) <= set(namespace)


def test_all_is_sorted_and_lists_exactly_the_public_names():
    # dir, not vars: it lists the names the package imports on first use, and getattr
    # resolves each, so a name of __all__ that does not resolve fails here too.
    public = {
        name for name in dir(qparity)
        if not name.startswith("_") and not isinstance(getattr(qparity, name), types.ModuleType)
    }
    assert qparity.__all__ == sorted(qparity.__all__)
    assert set(qparity.__all__) == public
    assert len(qparity.__all__) == len(public)
