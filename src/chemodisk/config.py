"""Experiment configuration: flat dotted-key documents, validated up front.

A config document is either a dict or a text block of ``key = value``
lines (``#`` comments allowed).  Masses accept multiples of pi spelled as
"8pi" so the critical constant never loses precision in transit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


_DEFAULTS = {
    "grid.n": 512,
    "grid.gamma": 1.0,
    "scheme.dt0": 1e-3,
    "scheme.cfl": 0.9,
    "scheme.t_end": 10.0,
    "scheme.snapshot_every": 1.0,
    "scheme.u_blowup_threshold": None,
    "scheme.dt_min": 1e-12,
    "initial.kind": "constant",
    "initial.lambda": None,
    "initial.a": None,
    "output.dir": "out",
    "seed": 0,
}

_KNOWN_KEYS = set(_DEFAULTS) | {"mass"}


@dataclass(frozen=True)
class ExperimentConfig:
    mass: float
    n: int = 512
    gamma: float = 1.0
    dt0: float = 1e-3
    cfl: float = 0.9
    t_end: float = 10.0
    snapshot_every: float = 1.0
    u_blowup_threshold: float | None = None
    dt_min: float = 1e-12
    initial_kind: str = "constant"
    initial_params: dict = field(default_factory=dict)
    output_dir: str = "out"
    seed: int = 0

    def grid(self) -> Grid:
        return Grid.regular(self.n, self.gamma)

    def scheme(self, grid: Grid | None = None) -> SchemeConfig:
        return SchemeConfig(grid=grid or self.grid(), dt0=self.dt0, cfl=self.cfl,
                            t_end=self.t_end, snapshot_every=self.snapshot_every,
                            u_blowup_threshold=self.u_blowup_threshold,
                            dt_min=self.dt_min)

    def initial_profile(self, grid: Grid | None = None) -> MassProfile:
        return preset_profile(self.initial_kind, self.mass, grid or self.grid(),
                              **self.initial_params)

    def replace(self, **updates) -> "ExperimentConfig":
        doc = self.as_document()
        doc.update(updates)
        return parse_config(doc)

    def as_document(self) -> dict:
        doc = {
            "mass": self.mass,
            "grid.n": self.n,
            "grid.gamma": self.gamma,
            "scheme.dt0": self.dt0,
            "scheme.cfl": self.cfl,
            "scheme.t_end": self.t_end,
            "scheme.snapshot_every": self.snapshot_every,
            "scheme.dt_min": self.dt_min,
            "initial.kind": self.initial_kind,
            "output.dir": self.output_dir,
            "seed": self.seed,
        }
        if self.u_blowup_threshold is not None:
            doc["scheme.u_blowup_threshold"] = self.u_blowup_threshold
        if "lam" in self.initial_params:
            doc["initial.lambda"] = self.initial_params["lam"]
        if "a" in self.initial_params:
            doc["initial.a"] = self.initial_params["a"]
        return doc


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
    rejected before any run starts.
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
    merged = dict(_DEFAULTS)
    merged.update(document)

    try:
        mass = parse_number(merged["mass"])
        n = _parse_integer(merged["grid.n"])
        gamma = parse_number(merged["grid.gamma"])
        dt0 = parse_number(merged["scheme.dt0"])
        cfl = parse_number(merged["scheme.cfl"])
        t_end = parse_number(merged["scheme.t_end"])
        snapshot_every = parse_number(merged["scheme.snapshot_every"])
        thr = merged["scheme.u_blowup_threshold"]
        threshold = None if thr is None else parse_number(thr)
        dt_min = parse_number(merged["scheme.dt_min"])
        seed = _parse_integer(merged["seed"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numeric value: {exc}") from exc
    for key, value in (("mass", mass), ("grid.gamma", gamma), ("scheme.dt0", dt0),
                       ("scheme.cfl", cfl), ("scheme.t_end", t_end),
                       ("scheme.snapshot_every", snapshot_every),
                       ("scheme.u_blowup_threshold", threshold),
                       ("scheme.dt_min", dt_min)):
        if value is not None and not np.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")

    if mass <= 0:
        raise ConfigError("mass must be positive")
    if not 16 <= n <= 2 ** 20:  # a run costs O(n^2) time
        raise ConfigError("grid.n must lie in [16, 2**20]")
    if not (1.0 <= gamma <= 3.0):
        raise ConfigError("grid.gamma must lie in [1, 3]")
    if not (0.0 < cfl <= 1.0):
        raise ConfigError("scheme.cfl must lie in (0, 1]")
    if not (dt0 > dt_min > 0.0):
        raise ConfigError("need scheme.dt0 > scheme.dt_min > 0")
    if t_end <= 0 or snapshot_every <= 0:
        raise ConfigError("scheme.t_end and scheme.snapshot_every must be positive")
    if threshold is not None and threshold <= 0:
        raise ConfigError("scheme.u_blowup_threshold must be positive")

    kind = str(merged["initial.kind"]).strip()
    lam = merged["initial.lambda"]
    a = merged["initial.a"]
    params = {}
    if kind == "constant":
        if lam is not None or a is not None:
            raise ConfigError("constant preset takes no parameters")
    elif kind == "pks":
        if lam is None:
            raise ConfigError("pks preset needs initial.lambda")
        if a is not None:
            raise ConfigError("pks preset does not take initial.a")
        params["lam"] = parse_number(lam)
        if not 0 < params["lam"] < np.inf:
            raise ConfigError("initial.lambda must be positive and finite")
    elif kind == "barrier":
        if a is None:
            raise ConfigError("barrier preset needs initial.a")
        if lam is not None:
            raise ConfigError("barrier preset does not take initial.lambda")
        params["a"] = parse_number(a)
        if not 0 < params["a"] < np.inf:
            raise ConfigError("initial.a must be positive and finite")
    else:
        raise ConfigError(f"unknown preset kind {kind!r}")

    return ExperimentConfig(mass=mass, n=n, gamma=gamma, dt0=dt0, cfl=cfl,
                            t_end=t_end, snapshot_every=snapshot_every,
                            u_blowup_threshold=threshold, dt_min=dt_min,
                            initial_kind=kind, initial_params=params,
                            output_dir=str(merged["output.dir"]), seed=seed)
