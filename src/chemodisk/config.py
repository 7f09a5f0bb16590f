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


# the initial.* parameter keys and the preset_profile parameters they set
_PRESET_PARAMS = {"initial.lambda": "lam", "initial.a": "a"}
# the initial.* key of each preset_profile argument
_PRESET_KEYS = {"kind": "initial.kind", **{v: k for k, v in _PRESET_PARAMS.items()}}

_DEFAULTS = {
    "grid.n": 512,
    "grid.gamma": 1.0,
    # every SchemeConfig field is a scheme.* key, with its default
    **{f"scheme.{f.name}": f.default for f in fields(SchemeConfig)},
    "initial.kind": "constant",
    **dict.fromkeys(_PRESET_PARAMS),
    "output.dir": "out",
    "seed": 0,
}

_KNOWN_KEYS = set(_DEFAULTS) | {"mass"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run configuration; build it with parse_config.  scheme
    holds the scheme.* keys; a run steps on grid()."""

    mass: float
    n: int
    gamma: float
    scheme: SchemeConfig
    initial_kind: str
    initial_params: dict
    output_dir: str
    seed: int
    document: dict = field(compare=False, repr=False)  # as given to parse_config

    def grid(self) -> Grid:
        return Grid.regular(self.n, self.gamma)

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
    SchemeConfig itself, and the initial.* keys by preset_profile, which
    builds the initial profile once here.  Each error names the config
    key at fault, or the section when no one key is.
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
    tiny = float(np.finfo(float).tiny)  # a subnormal m underflows the solver's log floor
    if not (np.isfinite(mass) and mass >= tiny):
        raise ConfigError(f"mass: must be positive, finite and at least {tiny!r}, "
                          f"got {merged['mass']!r}")
    n = number("grid.n", _parse_integer)
    gamma = number("grid.gamma")
    seed = number("seed", _parse_integer)
    if not 16 <= n <= 2 ** 20:  # a run costs O(n^2) time
        raise ConfigError("grid.n must lie in [16, 2**20]")
    if not (1.0 <= gamma <= 3.0):
        raise ConfigError("grid.gamma must lie in [1, 3]")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    scheme_params = {f.name: number(f"scheme.{f.name}") for f in fields(SchemeConfig)}
    kind = str(merged["initial.kind"]).strip()
    params = {name: number(key) for key, name in _PRESET_PARAMS.items()
              if merged[key] is not None}
    section = "scheme"
    try:
        scheme = SchemeConfig(**scheme_params)
        section = "initial"
        preset_profile(kind, mass, Grid.regular(n, gamma), **params)
    except ValueError as exc:
        # name the initial.* key of the preset parameter at fault, if one is
        key = _PRESET_KEYS.get(getattr(exc, "param", None), section)
        raise ConfigError(f"{key}: {exc}") from exc

    return ExperimentConfig(mass=mass, n=n, gamma=gamma, scheme=scheme,
                            initial_kind=kind, initial_params=params,
                            output_dir=str(merged["output.dir"]), seed=seed,
                            document=dict(document))
