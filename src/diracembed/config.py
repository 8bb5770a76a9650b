"""Run configuration: one JSON document drives every subcommand.

Everything is explicit and seed-free; a config that round-trips through
to_dict/from_dict is guaranteed to produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._util import write_json
from .periodic_core import PeriodicCoefficient

__all__ = ["RunConfig", "ENVELOPES"]

# Named envelope functions for growing-N schedules.
ENVELOPES = {
    "log": lambda x: np.log(np.e + np.abs(x)),
}

# The JSON types a field annotation admits; p and q are checked by from_dict.
_TYPES = {"float": numbers.Real, "str": str, "str | None": (str, type(None)),
          "list[float]": (list, tuple)}


@dataclass
class RunConfig:
    """A run's inputs; the method's own choices are module constants."""

    p: PeriodicCoefficient
    q: PeriodicCoefficient
    lambdas: list[float] = field(default_factory=list)
    mode: str = "finite"
    h_name: str | None = None
    a0: float = 1.0e4
    x_max: float = 2.0e4
    b: float = 0.0
    margin: float = 0.05
    scan_lo: float = 0.0
    scan_hi: float = 3.0
    scan_resolution: float = 0.01
    out_dir: str = "."

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not isinstance(val, _TYPES.get(f.type, object)):
                raise ValueError(f"{f.name}: expected {f.type}, got {val!r}")
        if self.mode not in ("finite", "growing"):
            raise ValueError(f"mode: {self.mode!r} is not finite/growing")
        if self.h_name is not None and self.h_name not in ENVELOPES:
            raise ValueError(
                f"h_name: {self.h_name!r} not one of {sorted(ENVELOPES)}")
        if self.mode == "growing" and self.h_name is None:
            raise ValueError("h_name: required when mode is growing")
        for key in ("a0", "x_max", "margin", "scan_resolution"):
            if getattr(self, key) <= 0.0:
                raise ValueError(f"{key}: must be positive")
        if self.x_max <= self.a0:
            raise ValueError("x_max: must exceed a0")
        if not 0.0 <= self.b < self.a0:
            raise ValueError("b: must satisfy 0 <= b < a0")
        if self.scan_hi <= self.scan_lo:
            raise ValueError("scan_hi: must exceed scan_lo")
        for i, lam in enumerate(self.lambdas):
            if not isinstance(lam, numbers.Real) or not np.isfinite(lam):
                raise ValueError(f"lambdas[{i}]: {lam!r} is not finite")

    def envelope(self):
        return ENVELOPES[self.h_name] if self.h_name else None

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["p"] = self.p.to_dict()
        doc["q"] = self.q.to_dict()
        doc["lambdas"] = [float(v) for v in self.lambdas]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config: expected a JSON object, got {doc!r}")
        doc = dict(doc)
        unknown = set(doc) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"{sorted(unknown)[0]}: unknown config key")
        for key in ("p", "q"):
            if key not in doc:
                raise ValueError(f"{key}: missing coefficient block")
            try:
                doc[key] = PeriodicCoefficient.from_dict(doc[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        return cls(**doc)

    def save(self, path: str) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
