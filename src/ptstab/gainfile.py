"""Flat text formats: gain files and experiment configs.

Gain files are diffable key=value text holding exactly the keys of their
kind, in the order of _FIELDS, which pairs each key with its format and
parser: write_gains and read_gains walk that one table.  Vectors use ';',
matrices join ';'-rows with ' , ', and 17-digit floats round-trip exactly.
Configs are flat 'section.key = value' lines checked against CONFIG_SCHEMA;
the controller kinds, and the keys each one reads, are the cli's catalog.
"""

from __future__ import annotations

import math

import numpy as np

from .hong import HongGainSet
from .pnf import LinearGain

__all__ = [
    "ConfigError",
    "format_float",
    "write_gains",
    "read_gains",
    "read_config",
    "CONFIG_SCHEMA",
    "validate_config",
]

FORMAT_TAG = "ptstab-gains-v2"
# integer entries of a hong certificate that count samples
_CERT_COUNTS = ("kappa_points", "samples_per_level", "verify_samples_per_kappa")


class ConfigError(ValueError):
    pass


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_vector(v) -> str:
    return ";".join(format_float(x) for x in np.asarray(v, dtype=float))


def _fmt_matrix(M) -> str:
    M = np.asarray(M, dtype=float)
    return " , ".join(";".join(format_float(x) for x in row) for row in M)


def _finite(x: str) -> float:
    val = float(x)
    if not math.isfinite(val):
        raise ValueError(f"non-finite value {x.strip()!r}")
    return val


def _parse_vector(s: str) -> np.ndarray:
    return np.array([_finite(x) for x in s.split(";")])


def _parse_matrix(s: str) -> np.ndarray:
    return np.array([[_finite(x) for x in row.split(";")] for row in s.split(",")])


_INT = (str, int)
_FLOAT = (format_float, _finite)
_VECTOR = (_fmt_vector, _parse_vector)
_MATRIX = (_fmt_matrix, _parse_matrix)
# per kind, every key of a gain file after format and kind, in file order, with
# its (format, parse) pair; read_gains requires each one and refuses any other
_FIELDS = {
    "pnf": {"n": _INT, "b_lower": _FLOAT, "K": _VECTOR, "S": _MATRIX, "rho": _FLOAT, "C0": _FLOAT, "rho0": _FLOAT},
    "hong": {"n": _INT, "b_lower": _FLOAT, "ell": _VECTOR, "C": _FLOAT, "kappa_pos": _FLOAT}
    | {f"certificate.{key}": _INT for key in _CERT_COUNTS + ("seed", "repair_rounds")}
    | {"certificate.c_raw": _FLOAT, "certificate.worst_residual": _FLOAT},
}


def write_gains(path: str, g, b_lower: float | None = None):
    """Serialize a LinearGain or HongGainSet with its certificate; b_lower is a hong file's record."""
    if isinstance(g, LinearGain):
        kind, values = "pnf", vars(g)
    elif isinstance(g, HongGainSet):
        kind = "hong"
        values = {**vars(g), "b_lower": 1.0 if b_lower is None else b_lower}
        values.update({f"certificate.{key}": val for key, val in g.certificate.items()})
    else:
        raise TypeError(f"cannot serialize {type(g)}")
    lines = [f"format = {FORMAT_TAG}", f"kind = {kind}"]
    lines += [f"{key} = {fmt(values[key])}" for key, (fmt, _) in _FIELDS[kind].items()]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_kv(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ConfigError(f"{path}:{ln}: repeated key {key}")
            out[key] = val
    return out

def read_gains(path: str):
    """Parse a gain file back into its dataclass; returns (gains, b_lower).

    The file holds exactly the keys of its kind in _FIELDS; a missing or any
    other key makes it unreadable.
    """
    kv = _read_kv(path)
    if kv.pop("format", None) != FORMAT_TAG:
        raise ConfigError(f"{path}: missing or unknown format tag, expected format = {FORMAT_TAG}")
    kind = kv.pop("kind", None)
    if kind not in _FIELDS:
        raise ConfigError(f"{path}: unknown gain kind {kind!r}")
    fields = _FIELDS[kind]
    wrong = [f"unknown key {key}" for key in kv if key not in fields]
    wrong += [f"missing key {key}" for key in fields if key not in kv]
    if wrong:
        raise ConfigError(f"{path}: " + ", ".join(wrong))
    try:
        values = {key: parse(kv[key]) for key, (_, parse) in fields.items()}
        n = values["n"]
        if kind == "pnf":
            g = LinearGain(**values)
            if g.K.shape != (n,) or g.S.shape != (n, n):
                raise ValueError("inconsistent dimensions")
            # C0 = 0 means no perturbation certificate; a negative C0 is a corrupt value
            if g.C0 < 0:
                raise ValueError(f"C0 = {kv['C0']} is negative")
            return g, g.b_lower
        b_lower = values.pop("b_lower")
        cert = {key.removeprefix("certificate."): values.pop(key) for key in fields if key.startswith("certificate.")}
        g = HongGainSet(**values, certificate=cert)
        if g.ell.shape != (n,):
            raise ValueError("inconsistent dimensions")
        # the cascade is defined for |kappa| <= 1/(2n), so the certified interval is [-1/(2n), kappa_pos]
        if not 0 < g.kappa_pos <= 1.0 / (2 * n):
            raise ValueError(f"kappa_pos = {kv['kappa_pos']} outside (0, 1/(2n)] for n = {n}")
        for key in _CERT_COUNTS:
            if cert[key] < 1:
                raise ValueError(f"certificate.{key} = {kv['certificate.' + key]} is below 1")
        # verify measures the rescanned constant relative to c_raw
        if not cert["c_raw"] > 0:
            raise ValueError(f"certificate.c_raw = {kv['certificate.c_raw']} is not positive")
        return g, b_lower
    except ValueError as exc:
        raise ConfigError(f"{path}: corrupt gain file ({exc})") from exc


# --- experiment configs -----------------------------------------------------

INF = math.inf

# Each key maps to (type, default, range); a default of None marks a required
# key.  Two type rules hold for every value: a float is finite unless its
# default is inf, and an int is >= 0.  A range of None leaves the rest to the
# object the value builds (ChainSpec, Density, b_profile or the controller).
CONFIG_SCHEMA = {
    "plant.n": ("int", None, None),
    "plant.t": ("float", 1.0, None),
    "plant.b_lower": ("float", 1.0, None),
    "plant.b_upper": ("float", INF, None),
    "plant.d_bound": ("float", 0.0, None),
    "controller.kind": ("str", None, None),
    "controller.gains": ("str", "", None),
    "controller.eta": ("float", 1.0, "> 0"),  # unset, cli._Problem uses max(1, a_sup/C0); 1.0 when C0 = 0
    "controller.density": ("str", "constant", None),
    "controller.density_param": ("float", 1.0, None),
    "controller.t_stop_frac": ("float", 1.0 - 1e-6, None),
    "controller.m": ("float", 0.5, "in (0, 1)"),
    "controller.t_target": ("float", 1.0, None),
    "controller.reg_eps": ("float", 1e-3, None),
    "controller.synth_seed": ("int", 0, None),
    "controller.design_seed": ("int", 17, None),
    "disturbance.d": ("str", "zero", None),
    "disturbance.d1": ("str", "zero", None),
    "disturbance.d1_direction": ("str", "", None),
    "disturbance.d2": ("str", "zero", None),
    "disturbance.d2_direction": ("str", "", None),
    "disturbance.b": ("str", "", None),
    "disturbance.noise_period": ("float", 0.0, ">= 0"),
    "runs.count": ("int", 1, None),
    "runs.seed": ("int", 0, None),
    "runs.x0": ("str", "", None),
    "runs.x0_min": ("float", 0.1, "> 0"),
    "runs.x0_max": ("float", 10.0, "> 0"),
    "sim.rel_tol": ("float", 1e-9, ">= 0"),
    "sim.abs_tol": ("float", 1e-12, ">= 0"),
    "sim.horizon": ("float", 100.0, "> 0"),
    "sim.settle_radius": ("float", 1e-9, ">= 0"),
    "sim.max_steps": ("int", 2_000_000, ">= 1"),
    "output.dir": ("str", None, None),
}

_TYPES = {"int": int, "float": float, "str": str}
_RANGES = {
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    ">= 1": lambda v: v >= 1,
    "in (0, 1)": lambda v: 0 < v < 1,
}

def read_config(path: str) -> dict:
    return _read_kv(path)


def validate_config(kv: dict) -> dict:
    """Coerce against the schema; unknown keys and bad values raise ConfigError."""
    unknown = [k for k in kv if k not in CONFIG_SCHEMA]
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    cfg = {}
    errors = []
    for key, (typ, default, rng) in CONFIG_SCHEMA.items():
        if key not in kv:
            if default is None:
                errors.append(f"{key}: required key missing")
            cfg[key] = default
            continue
        try:
            val = cfg[key] = _TYPES[typ](kv[key])
        except ValueError:
            errors.append(f"{key}: expected {typ}, got {kv[key]!r}")
            continue
        if typ == "float" and default != INF and not math.isfinite(val):
            errors.append(f"{key} must be finite, got {val!r}")
        elif typ == "int" and val < 0:
            errors.append(f"{key} must be >= 0, got {val!r}")
        elif rng is not None and not _RANGES[rng](val):
            errors.append(f"{key} must be {rng}, got {val!r}")
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg
