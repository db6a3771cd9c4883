"""The package's export list: every name in walgebra.__all__ is an attribute
of the package and is listed once, so `from walgebra import *` works."""

import walgebra


def test_all_names_exist_once():
    names = walgebra.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(walgebra, n)]
    assert not missing, missing
    namespace: dict = {}
    exec("from walgebra import *", namespace)
    assert set(names) <= set(namespace)
