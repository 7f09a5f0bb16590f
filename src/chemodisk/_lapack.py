"""LAPACK's tridiagonal solver dgtsv, the one routine chemodisk takes from scipy.

scipy exposes dgtsv through ``scipy.linalg.lapack``, but importing that runs
the ``scipy.linalg`` package's ``__init__``, which loads most of scipy.linalg
and, through numpy's namespace, ``numpy.f2py``: more than half of a fresh
``import chemodisk``.  This module loads the f2py extension that holds the
routine, ``scipy.linalg._flapack``, on its own: it imports the top-level
``scipy`` (cheap; it sets up the bundled library path on some platforms),
finds the extension inside scipy's ``linalg`` directory with the public path
finder, which runs no package ``__init__``, and registers it under its own
name, so a later ``import scipy.linalg`` reuses it and both ways in give the
same ``dgtsv`` object.  ``_flapack`` is private to scipy, so where it cannot
be found or loaded the public import is used instead.

The load runs when chemodisk is imported, not on the first solve.
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy

_FLAPACK = "scipy.linalg._flapack"


def _public_dgtsv():
    from scipy.linalg.lapack import dgtsv
    return dgtsv


def _load_dgtsv():
    """dgtsv from scipy's LAPACK extension, loaded without scipy.linalg's
    ``__init__``; the public ``scipy.linalg.lapack.dgtsv`` if that fails."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        spec = importlib.machinery.PathFinder.find_spec(
            _FLAPACK, [os.path.join(scipy.__path__[0], "linalg")])
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
