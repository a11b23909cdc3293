"""Adaptive spectral cut-off estimation for instrumental-variable regression.

The package couples an exact simulator for a circular IV model with
polynomially decaying operator eigenvalues, the adaptive estimation
pipeline (estimated eigenvalues, data-driven resolution bound,
penalized level selection), and a reproducible Monte Carlo harness for
oracle-ratio, rate, and bracketing studies.

Names load on first use (PEP 562): ``import ivadapt`` loads no numpy,
and the first public name read loads the four library modules basis,
dgp, estimator and risk and binds their ``__all__``.  So the CLI can
fix numpy's BLAS threads before numpy loads.
"""

import importlib

__version__ = "0.1.0"

#: The library's modules in import order.
_MODULES = ("seeds", "basis", "serialize", "dgp", "estimator", "risk")


def __getattr__(name):
    """A library module, or a public name: the first one read binds every module's __all__."""
    if name in _MODULES:  # one module alone: a module importing its sibling reads it here
        return importlib.import_module(f"{__name__}.{name}")
    # cli is left to the import system, so that "from ivadapt import cli" loads numpy only after cli's first line
    if (name.startswith("_") and name != "__all__") or name == "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = [importlib.import_module(f"{__name__}.{m}") for m in ("basis", "dgp", "estimator", "risk")]
    public = {key: getattr(module, key) for module in modules for key in module.__all__}
    globals().update(public, __all__=["__version__", *public])
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
