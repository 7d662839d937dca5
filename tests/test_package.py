import pytest

import hankel_spectra
from hankel_spectra import operators


def test_every_exported_name_resolves():
    for name in hankel_spectra.__all__:
        assert getattr(hankel_spectra, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from hankel_spectra import *", namespace)
    assert set(hankel_spectra.__all__) <= set(namespace)


def test_operators_names_are_the_module_objects():
    assert hankel_spectra.JACOBI_BACKEND is operators.JACOBI_BACKEND
    assert hankel_spectra.symm_eigen is operators.symm_eigen
    assert hankel_spectra.BlockCertificate is operators.BlockCertificate


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hankel_spectra.no_such_name
