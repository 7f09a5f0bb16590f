"""LAPACK's tridiagonal solver dgtsv, the one routine chemodisk takes from scipy.

scipy exposes dgtsv through ``scipy.linalg.lapack``, but importing that runs
the ``scipy.linalg`` package's ``__init__``, which loads most of scipy.linalg
and, through numpy's namespace, ``numpy.f2py``: more than half of a fresh
``import chemodisk``.  This module loads the f2py extension that holds the
routine, ``scipy.linalg._flapack``, on its own, and runs no scipy package code
at all: ``importlib.util.find_spec("scipy")`` reads where scipy is installed
without importing it, the public path finder finds the extension inside that
directory's ``linalg``, and the extension is registered under its own name, so
a later ``import scipy.linalg`` reuses it and both ways in give the same
``dgtsv`` object.  ``_flapack`` is private to scipy, so where scipy or the
extension cannot be found, or the extension cannot be loaded, the public
import is used instead.  A platform whose scipy ``__init__`` must first put a
bundled library directory on the search path (delvewheel wheels on Windows,
for one) would fail the bare load and take the public import; that is
unverified, as only Linux has been tried.

The load runs when chemodisk is imported, not on the first solve.
"""

import importlib.machinery
import importlib.util
import os
import sys

_FLAPACK = "scipy.linalg._flapack"


def _public_dgtsv():
    from scipy.linalg.lapack import dgtsv
    return dgtsv


def _load_dgtsv():
    """dgtsv from scipy's LAPACK extension, loaded without running any scipy
    package code; the public ``scipy.linalg.lapack.dgtsv`` if that fails."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
            _FLAPACK, [os.path.join(scipy.submodule_search_locations[0], "linalg")])
        if spec is None:
            return _public_dgtsv()
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_FLAPACK] = module
            spec.loader.exec_module(module)
        except ImportError:
            sys.modules.pop(_FLAPACK, None)
            return _public_dgtsv()
    return module.dgtsv


dgtsv = _load_dgtsv()
