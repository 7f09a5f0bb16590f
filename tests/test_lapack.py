"""chemodisk._lapack: dgtsv loaded straight from scipy's LAPACK extension is
the routine scipy.linalg.lapack exports, and the public import stands in
wherever that load fails."""

import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import scipy.linalg.lapack

import chemodisk
from chemodisk import _lapack

SRC = Path(chemodisk.__file__).resolve().parents[1]


def test_both_ways_in_give_one_routine():
    # a fresh interpreter, so chemodisk loads the extension before scipy.linalg exists
    probe = (
        "import chemodisk.solver, chemodisk.steady, scipy.linalg.lapack\n"
        "from chemodisk import _lapack, solver, steady\n"
        "print(_lapack.dgtsv is scipy.linalg.lapack.dgtsv\n"
        "      is solver.dgtsv is steady.dgtsv)\n"
    )
    out = subprocess.run([sys.executable, "-W", "error", "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    assert out.split() == ["True"]


def test_no_spec_falls_back_to_the_public_import(monkeypatch):
    monkeypatch.delitem(sys.modules, _lapack._FLAPACK)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    assert _lapack._load_dgtsv() is scipy.linalg.lapack.dgtsv


def test_no_scipy_spec_falls_back_to_the_public_import(monkeypatch):
    find_spec = importlib.util.find_spec
    monkeypatch.delitem(sys.modules, _lapack._FLAPACK)
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, package=None:
                        None if name == "scipy" else find_spec(name, package))
    assert _lapack._load_dgtsv() is scipy.linalg.lapack.dgtsv
    assert _lapack._FLAPACK not in sys.modules


def test_a_failed_load_falls_back_to_the_public_import(monkeypatch):
    def fail(self, module):
        raise ImportError("no LAPACK here")

    monkeypatch.delitem(sys.modules, _lapack._FLAPACK)
    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", fail)
    assert _lapack._load_dgtsv() is scipy.linalg.lapack.dgtsv
    assert _lapack._FLAPACK not in sys.modules  # nothing half-loaded left behind


def test_only_lapack_module_imports_scipy():
    importers = sorted(p.name for p in (SRC / "chemodisk").glob("*.py")
                       if re.search(r"^\s*(import|from)\s+scipy\b", p.read_text(), re.M))
    assert importers == ["_lapack.py"]
