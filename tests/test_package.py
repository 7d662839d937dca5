from pathlib import Path

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
    assert hankel_spectra.symm_eigen is operators.symm_eigen
    assert hankel_spectra.BlockCertificate is operators.BlockCertificate


def test_term_by_term_reference_is_not_exported():
    # p_term and q_term live with the tests (tests/kernel_terms.py)
    for name in ("p_term", "q_term"):
        assert name not in hankel_spectra.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(hankel_spectra, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hankel_spectra.no_such_name


def test_package_is_pure_python():
    sources = [
        path for path in Path(hankel_spectra.__file__).parent.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    ]
    assert sources
    assert [p.name for p in sources if p.suffix != ".py"] == []
    with pytest.raises(AttributeError):
        hankel_spectra.JACOBI_BACKEND
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        requires = tomllib.load(handle)["build-system"]["requires"]
    assert [r for r in requires if not r.startswith("setuptools")] == []
