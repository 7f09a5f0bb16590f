"""Experiment configuration: flat dotted-key documents, validated up front.

A config document is either a dict or a text block of ``key = value``
lines (``#`` comments allowed).  Masses accept multiples of pi spelled as
"8pi" so the critical constant never loses precision in transit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .radial import Grid, MassProfile, preset_profile
from .solver import SchemeConfig


class ConfigError(ValueError):
    pass


def parse_number(token) -> float:
    """Float literal or '<x>pi' multiple (e.g. '8pi', '0.5pi')."""
    if isinstance(token, (int, float)):
        return float(token)
    text = str(token).strip().lower()
    if text.endswith("pi"):
        head = text[:-2].strip()
        factor = 1.0 if head in ("", "+") else float(head)
        return factor * np.pi
    return float(text)


def _parse_integer(token) -> int:
    """Integer, integral float (512.0) or integer string; never truncates."""
    if isinstance(token, (float, np.floating)) and not float(token).is_integer():
        raise ValueError(f"{token!r} is not an integer")
    return int(token)


# the scheme.* keys are the fields of SchemeConfig, with its defaults
_SCHEME_FIELDS = [f for f in fields(SchemeConfig) if f.name != "grid"]

_DEFAULTS = {
    "grid.n": 512,
    "grid.gamma": 1.0,
    **{f"scheme.{f.name}": f.default for f in _SCHEME_FIELDS},
    "initial.kind": "constant",
    "initial.lambda": None,
    "initial.a": None,
    "output.dir": "out",
    "seed": 0,
}

_KNOWN_KEYS = set(_DEFAULTS) | {"mass"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run configuration; build it with parse_config."""

    mass: float
    n: int
    gamma: float
    scheme_params: dict  # SchemeConfig fields other than grid
    initial_kind: str
    initial_params: dict
    output_dir: str
    seed: int
    document: dict = field(compare=False, repr=False)  # as given to parse_config

    def grid(self) -> Grid:
        return Grid.regular(self.n, self.gamma)

    def scheme(self, grid: Grid | None = None) -> SchemeConfig:
        return SchemeConfig(grid=grid or self.grid(), **self.scheme_params)

    def initial_profile(self, grid: Grid | None = None) -> MassProfile:
        return preset_profile(self.initial_kind, self.mass, grid or self.grid(),
                              **self.initial_params)

    def replace(self, **updates) -> "ExperimentConfig":
        return parse_config({**self.document, **updates})


def _parse_text(text: str) -> dict:
    doc = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in doc:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        doc[key] = value
    return doc


def parse_config(document) -> ExperimentConfig:
    """Validate a flat dotted-key document into an ExperimentConfig.

    Missing keys get defaults; unknown keys and out-of-range values are
    rejected before any run starts.  The scheme values are checked by
    SchemeConfig itself.
    """
    if isinstance(document, str):
        document = _parse_text(document)
    if not isinstance(document, dict):
        raise ConfigError("config document must be a dict or key=value text")
    unknown = set(document) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "mass" not in document:
        raise ConfigError("config must set 'mass'")
    merged = {**_DEFAULTS, **document}

    def number(key, parse=parse_number):
        """The value of key parsed; None for an unset key whose default is None."""
        value = merged[key]
        if value is None and key in _DEFAULTS and _DEFAULTS[key] is None:
            return None
        try:
            return parse(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: bad numeric value {value!r}") from exc

    mass = number("mass")
    n = number("grid.n", _parse_integer)
    gamma = number("grid.gamma")
    seed = number("seed", _parse_integer)
    if not 0 < mass < np.inf:
        raise ConfigError("mass must be positive and finite")
    if not 16 <= n <= 2 ** 20:  # a run costs O(n^2) time
        raise ConfigError("grid.n must lie in [16, 2**20]")
    if not (1.0 <= gamma <= 3.0):
        raise ConfigError("grid.gamma must lie in [1, 3]")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    scheme_params = {f.name: number(f"scheme.{f.name}") for f in _SCHEME_FIELDS}
    try:
        SchemeConfig(grid=Grid.regular(n, gamma), **scheme_params)
    except ValueError as exc:
        raise ConfigError(f"scheme: {exc}") from exc

    kind = str(merged["initial.kind"]).strip()
    lam = number("initial.lambda")
    a = number("initial.a")
    params = {}
    if kind == "constant":
        if lam is not None or a is not None:
            raise ConfigError("constant preset takes no parameters")
    elif kind == "pks":
        if lam is None:
            raise ConfigError("pks preset needs initial.lambda")
        if a is not None:
            raise ConfigError("pks preset does not take initial.a")
        if not 0 < lam < np.inf:
            raise ConfigError("initial.lambda must be positive and finite")
        params["lam"] = lam
    elif kind == "barrier":
        if a is None:
            raise ConfigError("barrier preset needs initial.a")
        if lam is not None:
            raise ConfigError("barrier preset does not take initial.lambda")
        if not 0 < a < np.inf:
            raise ConfigError("initial.a must be positive and finite")
        params["a"] = a
    else:
        raise ConfigError(f"unknown preset kind {kind!r}")

    return ExperimentConfig(mass=mass, n=n, gamma=gamma, scheme_params=scheme_params,
                            initial_kind=kind, initial_params=params,
                            output_dir=str(merged["output.dir"]), seed=seed,
                            document=dict(document))
