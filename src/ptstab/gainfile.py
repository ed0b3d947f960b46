"""Flat text formats: gain files and experiment configs.

Gain files are diffable key=value text; vectors use ';' between entries and
matrices join ';'-rows with ' , '.  Floats carry 17 significant digits so a
write/read round trip is exact.  Configs are flat 'section.key = value'
lines; unknown keys are rejected.
"""

from __future__ import annotations

import math
import re

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

FORMAT_TAG = "ptstab-gains-v1"
# integer entries of a hong certificate; the first three are sample counts
_CERT_COUNTS = ("kappa_points", "samples_per_level", "verify_samples_per_kappa")
_CERT_INTS = _CERT_COUNTS + ("seed", "repair_rounds")
_CERT_KEYS = _CERT_INTS + ("c_raw", "worst_residual")
# recursion bounds of older files: read as numbers and unused
_LEGACY_CERT_KEY = re.compile(r"safety|level\d+\..+")


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


def write_gains(path: str, g, b_lower: float | None = None):
    """Serialize a LinearGain or HongGainSet with its certificate."""
    lines = [f"format = {FORMAT_TAG}"]
    if isinstance(g, LinearGain):
        lines += [
            "kind = pnf",
            f"n = {g.n}",
            f"b_lower = {format_float(g.b_lower)}",
            f"K = {_fmt_vector(g.K)}",
            f"S = {_fmt_matrix(g.S)}",
            f"rho = {format_float(g.rho)}",
            f"C0 = {format_float(g.C0)}",
            f"rho0 = {format_float(g.rho0)}",
        ]
    elif isinstance(g, HongGainSet):
        lines += [
            "kind = hong",
            f"n = {g.n}",
            f"b_lower = {format_float(1.0 if b_lower is None else b_lower)}",
            f"ell = {_fmt_vector(g.ell)}",
            f"C = {format_float(g.C)}",
            f"kappa_bound = {format_float(g.kappa_bound)}",
            f"kappa_pos = {format_float(g.kappa_pos)}",
        ]
        cert = g.certificate or {}
        for key in _CERT_KEYS:
            if key in cert:
                val = cert[key]
                txt = format_float(val) if isinstance(val, float) else str(val)
                lines.append(f"certificate.{key} = {txt}")
    else:
        raise TypeError(f"cannot serialize {type(g)}")
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
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out

def read_gains(path: str):
    """Parse a gain file back into its dataclass; returns (gains, b_lower)."""
    kv = _read_kv(path)
    if kv.get("format") != FORMAT_TAG:
        raise ConfigError(f"{path}: missing or unknown format tag")
    kind = kv.get("kind")
    try:
        if kind == "pnf":
            g = LinearGain(
                n=int(kv["n"]),
                K=_parse_vector(kv["K"]),
                S=_parse_matrix(kv["S"]),
                rho=_finite(kv["rho"]),
                b_lower=_finite(kv["b_lower"]),
                C0=_finite(kv["C0"]),
                rho0=_finite(kv["rho0"]),
            )
            if g.K.shape != (g.n,) or g.S.shape != (g.n, g.n):
                raise ConfigError(f"{path}: inconsistent dimensions")
            # C0 = 0 means no perturbation certificate; a negative C0 is a corrupt value
            if g.C0 < 0:
                raise ValueError(f"C0 = {kv['C0']} is negative")
            return g, g.b_lower
        if kind == "hong":
            cert = {}
            for key, val in kv.items():
                if not key.startswith("certificate."):
                    continue
                sub = key[len("certificate.") :]
                if sub not in _CERT_KEYS and not _LEGACY_CERT_KEY.fullmatch(sub):
                    raise ValueError(f"unknown key {key}")
                if sub in _CERT_INTS:
                    cert[sub] = int(val)
                    if sub in _CERT_COUNTS and cert[sub] < 1:
                        raise ValueError(f"certificate.{sub} = {val} is below 1")
                else:
                    cert[sub] = _finite(val)
            g = HongGainSet(
                n=int(kv["n"]),
                ell=_parse_vector(kv["ell"]),
                C=_finite(kv["C"]),
                kappa_bound=_finite(kv["kappa_bound"]),
                kappa_pos=_finite(kv.get("kappa_pos", "0")),
                certificate=cert,
            )
            if g.ell.shape != (g.n,):
                raise ConfigError(f"{path}: inconsistent dimensions")
            # the cascade is defined for |kappa| <= 1/(2n); kappa_pos has its default by now
            if not 0 < g.kappa_bound <= 1.0 / (2 * g.n):
                raise ValueError(f"kappa_bound = {kv['kappa_bound']} outside (0, 1/(2n)] for n = {g.n}")
            if not 0 <= g.kappa_pos <= g.kappa_bound:
                raise ValueError(f"kappa_pos = {g.kappa_pos!r} outside [0, kappa_bound]")
            return g, _finite(kv["b_lower"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: corrupt gain file ({exc})") from exc
    raise ConfigError(f"{path}: unknown gain kind {kind!r}")


# --- experiment configs -----------------------------------------------------

INF = math.inf

# Each key maps to (type, default, range); a default of None marks a required
# key.  Two type rules hold for every value: a float is finite unless its
# default is inf, and an int is >= 0.  A range of None leaves the rest to the
# object the value builds (ChainSpec, Density, BProfile or the controller).
CONFIG_SCHEMA = {
    "plant.n": ("int", None, None),
    "plant.t": ("float", 1.0, None),
    "plant.b_lower": ("float", 1.0, None),
    "plant.b_upper": ("float", INF, None),
    "plant.d_bound": ("float", 0.0, None),
    "controller.kind": ("str", None, None),
    "controller.gains": ("str", "", None),
    "controller.eta": ("float", 1.0, "> 0"),
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

_CONTROLLER_KINDS = ("pnf", "fixed_time", "matched_robust", "prescribed_time")


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
    if cfg["controller.kind"] not in _CONTROLLER_KINDS:
        raise ConfigError(f"controller.kind must be one of {_CONTROLLER_KINDS}")
    return cfg
