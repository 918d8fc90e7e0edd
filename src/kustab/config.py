"""User variety configuration.

A config file is a single JSON document:

    {"default_variety": "q3",
     "varieties": [{"name": "X", "dim": 3, "degree": 2, "index": 3,
                    "todd": ["1", "3/2", "13/12", "1/2"],
                    "denoms": [1, 1, 2, 12],
                    "low_deg_H_generated": true}]}

Rationals are serialized as "p/q" strings so exactness survives the round
trip.  Preset varieties are always available; config entries may shadow
them by name.
"""

from __future__ import annotations

import json
import sys

from .exact import DomainError, rat, rational
from .variety import PRESETS, VarietyDesc, _serre_is_twist


def _integer(value, field: str) -> int:
    # only JSON integers and strings pass; strings still go through int()
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DomainError(f"config field {field} must be an integer")
    return int(value)


def _list(rec: dict, field: str) -> list:
    value = rec[field]
    if not isinstance(value, list):
        raise DomainError(f"config field {field} must be a list")
    return value


def _todd_entry(value):
    # a string in the flag grammar or a JSON integer; rat() refuses a bool or
    # a float
    try:
        return rational(value) if isinstance(value, str) else rat(value)
    except ValueError:
        raise DomainError("config field todd must hold rationals") from None


def variety_from_dict(rec: dict) -> VarietyDesc:
    if not isinstance(rec, dict):
        raise DomainError("config variety entry must be an object")
    flag = rec.get("low_deg_H_generated", True)
    if not isinstance(flag, bool):
        raise DomainError("config field low_deg_H_generated must be a boolean")
    try:
        x = VarietyDesc(
            name=str(rec["name"]),
            dim=_integer(rec["dim"], "dim"),
            degree=_integer(rec["degree"], "degree"),
            index=_integer(rec["index"], "index"),
            todd=tuple(_todd_entry(t) for t in _list(rec, "todd")),
            denoms=tuple(_integer(d, "denoms") for d in _list(rec, "denoms")),
            low_deg_H_generated=flag)
    except KeyError as exc:
        raise DomainError(f"config variety missing field {exc}") from None
    if not _serre_is_twist(x):
        raise DomainError(f"config variety {x.name}: todd and index break "
                          "Serre duality")
    return x


def load_config(path: str) -> tuple[dict[str, VarietyDesc], str | None]:
    """Parse a config file into a name -> descriptor map plus the default name."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise
        except ValueError:   # an integer past the str conversion limit
            raise DomainError("config number has more than "
                              f"{sys.get_int_max_str_digits()} digits") from None
    varieties = {}
    recs, default = doc.get("varieties", []), doc.get("default_variety")
    if not isinstance(recs, list):
        raise DomainError("config field varieties must be a list")
    if default is not None and not isinstance(default, str):
        raise DomainError("config field default_variety must be a string")
    for rec in recs:
        v = variety_from_dict(rec)
        key = v.name.lower()
        if key in varieties:
            raise DomainError(f"duplicate variety name: {v.name}")
        varieties[key] = v
    return varieties, (default.lower() if default else None)


def registry(config_path: str | None = None) -> tuple[dict[str, VarietyDesc], str]:
    """Presets merged with an optional config; returns (map, default name)."""
    table = dict(PRESETS)
    default = "q3"
    if config_path:
        extra, cfg_default = load_config(config_path)
        table.update(extra)
        if cfg_default:
            if cfg_default not in table:
                raise DomainError(f"unknown default variety: {cfg_default}")
            default = cfg_default
    return table, default
