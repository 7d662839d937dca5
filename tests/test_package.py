import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hankel_spectra
from hankel_spectra import combinatorics, kernels, operators, quadrature, spectral, specfun


def test_every_exported_name_resolves():
    for name in hankel_spectra.__all__:
        assert getattr(hankel_spectra, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from hankel_spectra import *", namespace)
    assert set(hankel_spectra.__all__) <= set(namespace)


def test_operators_names_are_the_module_objects():
    assert hankel_spectra.symm_eigen is operators.symm_eigen
    # the certificate and the coefficients have one binding, in spectral
    names = ("BlockCertificate", "block_certificate", "block_parameters", "fourier_coefficient")
    for name in names:
        assert getattr(hankel_spectra, name) is getattr(spectral, name)
        assert not hasattr(operators, name)


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


def test_no_module_reads_the_environment():
    names = {"environ", "environb", "getenv", "getenvb"}
    sources = sorted(Path(hankel_spectra.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))
        } | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not read & names, (path.name, read & names)


def _imports(tree):
    """Modules named by every import statement in ``tree``, at module
    level and inside function bodies alike."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_no_module_imports_numpy():
    package = Path(hankel_spectra.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        numpy = [m for m in _imports(tree) if m.split(".")[0] == "numpy"]
        assert not numpy, (path.name, numpy)
    # one eigensolver: the Jacobi module and its sweep cap are gone
    assert [p.name for p in sources if "jacobi" in p.name] == []
    assert not hasattr(operators, "_JACOBI_MAX_SWEEPS")


def _names_used(node):
    """Every name ``node`` reads: plain names, attributes and the names
    of ``from ... import`` statements."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.ImportFrom):
            yield from (alias.name for alias in child.names)


def _package_trees():
    package = Path(hankel_spectra.__file__).parent
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(package.glob("*.py"))
    }
    assert trees
    return trees


def _private_helpers(trees):
    """(module, node) for every private module-level function."""
    helpers = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.endswith("__")
    ]
    assert helpers
    return helpers


def test_every_private_helper_has_a_caller_in_the_package():
    # a private module-level function that only the tests call is dead
    # weight in the package; its own body (recursion) does not count
    trees = _package_trees()
    uses = Counter(name for tree in trees.values() for name in _names_used(tree))
    unused = [
        f"{module}:{node.name}"
        for module, node in _private_helpers(trees)
        if uses[node.name] == Counter(_names_used(node))[node.name]
    ]
    assert unused == []


def test_no_module_binds_a_sibling_name_it_does_not_use():
    # an import nothing reads is debris; a name imported from a sibling
    # only to be re-exported also gives the object a second binding,
    # which a patch of the first one misses
    unused = []
    for module, tree in _package_trees().items():
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        bound = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        unused += [f"{module}:{name}" for name in bound if name not in read]
    assert unused == []


def test_every_private_constant_is_read_in_the_package():
    # a private module-level name that nothing reads is left over from
    # the code that used it
    trees = _package_trees()
    read = Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    )
    constants = [
        (module, target.id)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and target.id.startswith("_")
        and not target.id.endswith("__")
    ]
    assert constants
    assert [f"{module}:{name}" for module, name in constants if not read[name]] == []


def _passes(call, position, name):
    """Whether ``call`` gives the parameter at ``position`` (None for
    keyword-only) called ``name`` a value, explicitly or by unpacking."""
    return (
        (position is not None and len(call.args) > position)
        or any(isinstance(arg, ast.Starred) for arg in call.args)
        or any(keyword.arg in (name, None) for keyword in call.keywords)
    )


def test_every_default_of_a_private_helper_is_passed_by_a_caller():
    # a default that no call in the package overrides is a constant
    # dressed as a parameter
    trees = _package_trees()
    calls = [
        node for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    unpassed = []
    for module, node in _private_helpers(trees):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first] + [
            (None, arg.arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        callers = [
            call for call in calls
            if getattr(call.func, "id", getattr(call.func, "attr", None)) == node.name
        ]
        unpassed += [
            f"{module}:{node.name}({name})"
            for position, name in defaulted
            if not any(_passes(call, position, name) for call in callers)
        ]
    assert unpassed == []


# Every public function with an integer argument, called with that
# argument k and valid values elsewhere; the last entry is a valid k.
_INTEGER_ARGUMENTS = [
    ("evaluate", lambda k: kernels.evaluate(k, 1.0), 2),
    ("evaluate", lambda k: kernels.evaluate(k, 0.05, method="conv"), 1),
    ("evaluate", lambda k: kernels.evaluate(k, 1.0, method="oracle"), 1),
    ("k_closed", lambda k: kernels.k_closed(k, 1.0), 2),
    ("k_conv", lambda k: kernels.k_conv(k, 0.5), 1),
    ("k_asymptotic", lambda k: kernels.k_asymptotic(k, 3.0), 2),
    ("symbol_psi_ell", lambda k: kernels.symbol_psi_ell(k, 0.3), 2),
    ("fourier_xi_pow", lambda k: kernels.fourier_xi_pow(k, 1.0), 2),
    ("fourier_psi_tilde", lambda k: kernels.fourier_psi_tilde(k, 1.0), 2),
    ("exp_poly_self_convolution", lambda k: kernels.exp_poly_self_convolution(k, 1.0), 2),
    ("lp_diagnostic", lambda k: kernels.lp_diagnostic(k, 1.0, 0.01), 1),
    ("fourier_symbol_oracle", lambda k: quadrature.fourier_symbol_oracle(k, 1.0), 2),
    ("_xi_pow_reference", lambda k: quadrature._xi_pow_reference(k, 1.0), 2),
    ("_poly_symbol_reference", lambda k: quadrature._poly_symbol_reference(k, 1.0), 2),
    ("improper_damped", lambda k: quadrature.improper_damped(
        lambda y: math.exp(-abs(y)), 1e-8, degree=k), 2),
    ("integrate_adaptive", lambda k: quadrature.integrate_adaptive(
        math.exp, 0.0, 1.0, 1e-10, max_panels=k), 20),
    ("p_poly", lambda k: combinatorics.p_poly(k), 2),
    ("sum_identity", lambda k: combinatorics.sum_identity(k, 3), 2),
    ("sum_identity", lambda k: combinatorics.sum_identity(1, k), 3),
    ("alternating_factorial_identity",
     lambda k: combinatorics.alternating_factorial_identity(k, 2), 4),
    ("alternating_factorial_identity",
     lambda k: combinatorics.alternating_factorial_identity(4, k), 2),
    ("sinc_derivative", lambda k: specfun.sinc_derivative(k, 1.0), 2),
    ("damped_moment_shifted", lambda k: specfun.damped_moment_shifted(k, 1.0, 2.0), 2),
    ("damped_trig_moment", lambda k: specfun.damped_trig_moment(k, 1.0, "sin"), 2),
    ("fourier_coefficient", lambda k: spectral.fourier_coefficient(k), 3),
    ("truncation_values", lambda k: spectral.truncation_values(k, 3), 2),
    ("truncation_values", lambda k: spectral.truncation_values(2, k), 3),
    ("hilbert_type_values", lambda k: spectral.hilbert_type_values(0.5, k), 3),
    ("block_parameters", lambda k: spectral.block_parameters(k), 2),
    ("block_certificate", lambda k: spectral.block_certificate(k, 4), 3),
    ("block_certificate", lambda k: spectral.block_certificate(3, k), 4),
    ("hankel_truncation", lambda k: operators.hankel_truncation(k, 3), 2),
    ("hankel_truncation", lambda k: operators.hankel_truncation(2, k), 3),
    ("hilbert_type", lambda k: operators.hilbert_type(-0.5, k, True), 3),
    ("alternating_signs", lambda k: operators.alternating_signs(k), 3),
    ("spectrum_report", lambda k: operators.spectrum_report(k, 4), 1),
    ("spectrum_report", lambda k: operators.spectrum_report(1, k), 4),
]
_INTEGER_IDS = [f"{name}-{i}" for i, (name, _, _) in enumerate(_INTEGER_ARGUMENTS)]


@pytest.mark.parametrize("bad", [1.5, 2.0, "2"], ids=["1.5", "2.0", "str"])
@pytest.mark.parametrize("name, call, valid", _INTEGER_ARGUMENTS, ids=_INTEGER_IDS)
def test_integer_arguments_reject_non_integers(name, call, valid, bad):
    with pytest.raises(ValueError, match=f"^{name}: .* must be an integer$"):
        call(bad)


@pytest.mark.parametrize("name, call, valid", _INTEGER_ARGUMENTS, ids=_INTEGER_IDS)
def test_integer_arguments_accept_numpy_integers(name, call, valid):
    # the record of a NumPy integer reads like that of the plain int
    assert repr(call(np.int64(valid))) == repr(call(valid))


# Every public function with a real argument, called with valid values:
# each float among them must refuse 1j. The z of ein, e1 and e1_scaled and
# the a of damped_moment_shifted (here 1 + 0j) take complex numbers.
_REAL_CALLS = [
    (specfun.sinc, 1.0),
    (specfun.sinc_derivative, 1, 1.0),
    (specfun.gamma_abs_sq, 0.5, 1.0),
    (specfun.log_gamma_abs_sq, 0.5, 1.0),
    (specfun.damped_moment_shifted, 1, 1 + 0j, 2.0),
    (specfun.damped_trig_moment, 1, 1.0, "sin"),
    (kernels.symbol_psi_ell, 1, 0.5),
    (kernels.fourier_xi_pow, 1, 1.0),
    (kernels.fourier_psi_tilde, 1, 1.0),
    (kernels.exp_poly_self_convolution, 1, 2.0),
    (kernels.k_conv, 1, 0.05),
    (kernels.k_closed, 1, 1.0),
    (kernels.k_asymptotic, 1, 3.0),
    (kernels.evaluate, 1, 2.0),
    (kernels.lp_diagnostic, 1, 1.0, 0.01),
    (quadrature.integrate_adaptive, math.exp, 0.0, 1.0, 1e-10),
    (quadrature.improper_damped, lambda y: math.exp(-abs(y)), 1e-8),
    (quadrature.fourier_symbol_oracle, 1, 1.0),
    (spectral.hilbert_type_values, 0.5, 3),
    (spectral.multiplier_h, 1.0),
    (spectral.density_rho, 0.5, 1.0),
    (operators.hilbert_type, -0.5, 3, False),
]
_REAL_ARGUMENTS = [
    (function, args, i)
    for function, *args in _REAL_CALLS
    for i, value in enumerate(args)
    if type(value) is float
]


@pytest.mark.parametrize(
    "function, args, i", _REAL_ARGUMENTS, ids=[f"{f.__name__}-{i}" for f, _, i in _REAL_ARGUMENTS]
)
def test_real_arguments_reject_complex_numbers(function, args, i):
    # 1j used to pass as its modulus, give a complex result or a TypeError
    name = function.__name__
    with pytest.raises(ValueError, match=f"^{name}: .* = 1j must be finite and real$"):
        function(*args[:i], 1j, *args[i + 1 :])
    assert function(*args[:i], np.float64(args[i]), *args[i + 1 :]) == function(*args)
