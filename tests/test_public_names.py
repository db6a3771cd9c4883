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


def test_test_oracles_stay_out_of_the_package():
    # the chain-by-chain oracle, reexpress, the nullspace centralizer (with
    # kernel_basis, sl_basis and flatten), the sharp projection,
    # poly_normalize and the Fraction elimination (fraction_rref, row_axpy)
    # serve only the tests and live in tests/conftest.py; the package neither
    # exports nor defines them
    from walgebra import dsreduction, liestruct, linalg, pvacore, wbracket

    for name in ("enumerate_chains", "centralizer_oracle", "sharp_project", "poly_normalize",
                 "kernel_basis", "sl_basis", "flatten", "fraction_rref", "row_axpy"):
        assert name not in walgebra.__all__ and not hasattr(walgebra, name), name
    for owner, name in [(wbracket, "enumerate_chains"), (wbracket.MasterEngine, "_apply"),
                        (wbracket.MasterEngine, "bracket_by_chains"), (dsreduction, "reexpress"),
                        (liestruct, "centralizer_oracle"), (liestruct, "sharp_project"),
                        (pvacore, "poly_normalize"), (linalg, "kernel_basis"),
                        (linalg, "fraction_rref"), (linalg, "row_axpy"),
                        (liestruct.AlgebraCtx, "sl_basis"), (liestruct.SuperMatrix, "flatten")]:
        assert not hasattr(owner, name), name
