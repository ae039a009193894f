"""Run configuration: strict schema validation, component building, hashing.

A run config is a plain JSON document. Validation is strict at every
level: a section rejects keys it does not know, so a typo fails loudly
instead of silently falling back to a default. `RunConfig.from_dict`
resolves all defaults into a normalized dictionary; that resolved form
(not the user's terse input) is what run outputs embed, and its
canonical-JSON SHA-256 is the config hash stamped on every output file.

Top-level sections::

    schema_version   required, currently 1
    seed             RNG seed for trajectory runs, an integer in
                     [0, 2**63 - 1] (default 0)
    output_dir       default output directory (CLI --out overrides)
    architecture     {"kind": ..., "params": {...}}
    field            {"photons": N | "amplitudes": [...] | "weights": [...],
                      "envelope": {"shape": ..., ...}}
    t_span           [t0, t1], optional when the envelope fixes it
    max_count        counting sectors to resolve (default: photon number)
    integrator       {"rtol", "atol", "max_step", "n_points",
                      "max_store_bytes", "trace_tol"}; see IntegratorOptions
                      (the solver, RK45 or BDF, is chosen per run)
    metrics          {"compute": [...], "t_MIN", "Delta", "t_m"}
    trajectories     stochastic-run knobs
    sweep            {"axes": [{"parameter": dotted.path, "values": [...]}]}
    limits           {"max_dim", "max_points"} resource guards

`architecture.params` are the builder's keyword arguments, named as in
`pnrsim.architectures` (a `dos` mapping holds `DosModel`'s). The
Hilbert-dimension guard is `limits.max_dim` alone: `build_architecture`
hands it to the builders that guard their own tensor space, so a
`max_dim` under `architecture.params` is refused.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

from .architectures import DosModel, build_architecture
from .errors import ConfigError, ResourceLimitError
from .hierarchy import IntegratorOptions
from .pulses import (
    fock_input,
    gaussian_envelope,
    mixture_input,
    rising_exponential_envelope,
    square_envelope,
    superposition_input,
    tabulated_envelope,
)
from .trajectories import TrajectoryOptions, _stream_key

__all__ = [
    "SCHEMA_VERSION",
    "RunConfig",
    "build_envelope",
    "canonical_json",
    "config_sha256",
]

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "seed",
    "output_dir",
    "architecture",
    "field",
    "t_span",
    "max_count",
    "integrator",
    "metrics",
    "trajectories",
    "sweep",
    "limits",
}

_METRIC_NAMES = ("efficiency", "jitter", "dark_counts")

_INTEGRATOR_KEYS = {f.name for f in dc_fields(IntegratorOptions)}

# kinds whose builder takes the dimension guard as `max_dim`
_DIM_GUARDED = ("array", "pnr")


def _check_keys(d, allowed, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(d).__name__}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _number(v, where, minimum=None, strict=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {v!r}")
    if minimum is not None and (v <= minimum if strict else v < minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"{where} must be {op} {minimum}, got {v}")
    return v


def _integer(v, where, minimum=None):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {v}")
    return int(v)


def _check_finite(node, where):
    """Reject NaN and infinities anywhere in a nested params mapping."""
    if isinstance(node, dict):
        for k, v in node.items():
            _check_finite(v, f"{where}.{k}")
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            _check_finite(v, f"{where}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{where} must be finite, got {node!r}")


def canonical_json(obj) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace, no NaN."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"config is not JSON-serializable: {err}") from None


def config_sha256(obj) -> str:
    """SHA-256 of the canonical JSON encoding."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# envelope name -> (constructor, required keys, optional keys)
_ENVELOPES = {
    "gaussian": (gaussian_envelope, ("sigma0",), ("t_center", "detuning")),
    "square": (square_envelope, ("width",), ("t_center", "detuning")),
    "rising-exponential": (
        rising_exponential_envelope, ("rate",), ("t_stop", "detuning")),
    "tabulated": (tabulated_envelope, ("times", "values"), ("detuning",)),
}


def _envelope_entry(spec):
    """Check an envelope mapping's shape and keys; return the shape, its
    constructor, and its required and optional keys."""
    if not isinstance(spec, dict) or "shape" not in spec:
        raise ConfigError("envelope needs a 'shape' key")
    shape = spec["shape"]
    if shape not in _ENVELOPES:
        raise ConfigError(f"unknown envelope shape {shape!r}; "
                          f"choose from {sorted(_ENVELOPES)}")
    ctor, required, optional = _ENVELOPES[shape]
    _check_keys(spec, {"shape", *required, *optional}, f"envelope[{shape}]")
    missing = [k for k in required if k not in spec]
    if missing:
        raise ConfigError(f"envelope[{shape}] missing {', '.join(missing)}")
    return shape, ctor, required, optional


def build_envelope(spec: dict):
    """Construct a pulse envelope from its config mapping."""
    _, ctor, _, _ = _envelope_entry(spec)
    kwargs = {k: spec[k] for k in spec if k != "shape"}
    return ctor(**kwargs)


def _resolve_envelope(spec) -> dict:
    shape, _, required, optional = _envelope_entry(spec)
    out = {"shape": shape}
    for k in (*required, *optional):
        if k not in spec:
            continue
        v = spec[k]
        if k in ("times", "values"):
            if not isinstance(v, (list, tuple)) or not v:
                raise ConfigError(f"envelope.{k} must be a nonempty list")
            out[k] = [float(_number(x, f"envelope.{k}[]")) for x in v]
        else:
            out[k] = _number(v, f"envelope.{k}")
    # constructor performs the physics-level checks (widths positive, ...)
    build_envelope(out)
    return out


def _resolve_field(spec) -> dict:
    _check_keys(spec, {"photons", "amplitudes", "weights", "envelope"}, "field")
    sources = [k for k in ("photons", "amplitudes", "weights") if k in spec]
    if len(sources) != 1:
        raise ConfigError(
            "field needs exactly one of photons, amplitudes, weights")
    out = {}
    if "photons" in spec:
        out["photons"] = _integer(spec["photons"], "field.photons", minimum=0)
    else:
        key = sources[0]
        vals = spec[key]
        if not isinstance(vals, (list, tuple)) or not vals:
            raise ConfigError(f"field.{key} must be a nonempty list")
        out[key] = [float(_number(v, f"field.{key}[]")) for v in vals]
    needs_env = out.get("photons", 1) > 0 or "photons" not in out
    if "envelope" in spec:
        out["envelope"] = _resolve_envelope(spec["envelope"])
    elif needs_env:
        raise ConfigError("field carries photons but has no envelope")
    else:
        out["envelope"] = None
    return out


def _resolve_integrator(spec) -> dict:
    _check_keys(spec, _INTEGRATOR_KEYS, "integrator")
    merged = {}
    for f in dc_fields(IntegratorOptions):
        v = spec.get(f.name, f.default)
        if isinstance(v, float) and math.isinf(v):
            v = "inf"
        merged[f.name] = v
    # round-trip through the dataclass so its own validation runs
    _integrator_options(merged)
    return merged


def _integrator_options(resolved: dict) -> IntegratorOptions:
    kwargs = dict(resolved)
    for k, v in kwargs.items():
        if v == "inf":
            kwargs[k] = math.inf
    return IntegratorOptions(**kwargs)


def _resolve_metrics(spec, default_t_m=None) -> dict:
    _check_keys(spec, {"compute", "t_MIN", "Delta", "t_m"}, "metrics")
    compute = spec.get("compute", ["efficiency", "jitter"])
    if not isinstance(compute, (list, tuple)):
        raise ConfigError("metrics.compute must be a list")
    bad = sorted(set(compute) - set(_METRIC_NAMES))
    if bad:
        raise ConfigError(f"unknown metrics requested: {', '.join(bad)}; "
                          f"choose from {_METRIC_NAMES}")
    out = {
        "compute": list(dict.fromkeys(compute)),
        "t_MIN": _number(spec.get("t_MIN", 0.0), "metrics.t_MIN", minimum=0.0),
        "Delta": _number(spec.get("Delta", 0.0), "metrics.Delta", minimum=0.0),
        "t_m": None,
    }
    if spec.get("t_m") is not None:
        out["t_m"] = _number(spec["t_m"], "metrics.t_m", minimum=0.0,
                             strict=True)
    elif default_t_m is not None:
        out["t_m"] = default_t_m
    if "dark_counts" in out["compute"] and out["t_m"] is None:
        raise ConfigError("metrics.t_m is required to compute dark_counts")
    return out


def _resolve_trajectories(spec) -> dict:
    _check_keys(spec, {"n_traj", "dt", "store_every", "t_m", "threshold"},
                "trajectories")
    out = {
        "n_traj": _integer(spec.get("n_traj", 1), "trajectories.n_traj", 1),
        "dt": _number(spec.get("dt", 1e-3), "trajectories.dt", 0.0, True),
        "store_every": _integer(spec.get("store_every", 1),
                                "trajectories.store_every", 1),
        "t_m": None,
        "threshold": None,
    }
    if spec.get("t_m") is not None:
        out["t_m"] = _number(spec["t_m"], "trajectories.t_m", 0.0, True)
    if spec.get("threshold") is not None:
        out["threshold"] = _number(spec["threshold"], "trajectories.threshold")
    # options dataclass re-validates the step settings
    TrajectoryOptions(dt=out["dt"], store_every=out["store_every"])
    return out


def _resolve_sweep(spec) -> dict:
    _check_keys(spec, {"axes"}, "sweep")
    axes_in = spec.get("axes", [])
    if not isinstance(axes_in, (list, tuple)):
        raise ConfigError("sweep.axes must be a list")
    if len(axes_in) > 3:
        raise ConfigError(f"at most 3 sweep axes, got {len(axes_in)}")
    axes = []
    seen = set()
    for i, ax in enumerate(axes_in):
        _check_keys(ax, {"parameter", "values"}, f"sweep.axes[{i}]")
        param = ax.get("parameter")
        values = ax.get("values")
        if not isinstance(param, str) or not param:
            raise ConfigError(f"sweep.axes[{i}].parameter must be a string")
        if param in seen:
            raise ConfigError(f"duplicate sweep parameter {param!r}")
        seen.add(param)
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"sweep.axes[{i}].values must be a nonempty list")
        axes.append({"parameter": param, "values": list(values)})
    return {"axes": axes}


def _resolve_limits(spec) -> dict:
    _check_keys(spec, {"max_dim", "max_points"}, "limits")
    return {
        "max_dim": _integer(spec.get("max_dim", 4096), "limits.max_dim", 1),
        "max_points": _integer(spec.get("max_points", 512),
                               "limits.max_points", 1),
    }


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration.

    `raw` is the fully resolved dictionary (all defaults applied); it
    is what gets embedded in outputs and hashed. Builders construct
    the actual simulation objects on demand.
    """

    raw: dict

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        _check_keys(d, _TOP_KEYS, "config")
        if "schema_version" not in d:
            raise ConfigError("config needs schema_version")
        ver = d["schema_version"]
        if ver != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {ver!r}; this build reads "
                f"{SCHEMA_VERSION}")

        resolved = {"schema_version": SCHEMA_VERSION}
        resolved["seed"] = _stream_key("seed", d.get("seed", 0))
        out_dir = d.get("output_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError("output_dir must be a string")
        resolved["output_dir"] = out_dir

        arch = d.get("architecture")
        if arch is None:
            raise ConfigError("config needs an architecture section")
        _check_keys(arch, {"kind", "params"}, "architecture")
        if "kind" not in arch:
            raise ConfigError("architecture needs a kind")
        params = arch.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("architecture.params must be a mapping")
        _check_finite(params, "architecture.params")
        if "max_dim" in params:
            raise ConfigError("architecture.params.max_dim is not read: the "
                              "dimension guard is limits.max_dim")
        resolved["architecture"] = {
            "kind": arch["kind"], "params": copy.deepcopy(params)}

        fld = d.get("field")
        if fld is None:
            raise ConfigError("config needs a field section "
                              "(vacuum is {'photons': 0})")
        resolved["field"] = _resolve_field(fld)

        span = d.get("t_span")
        if span is not None:
            if (not isinstance(span, (list, tuple)) or len(span) != 2):
                raise ConfigError("t_span must be [t0, t1]")
            t0 = _number(span[0], "t_span[0]")
            t1 = _number(span[1], "t_span[1]")
            if t1 <= t0:
                raise ConfigError(f"t_span must increase, got {span}")
            span = [t0, t1]
        elif resolved["field"]["envelope"] is None:
            raise ConfigError("t_span is required when the field has "
                              "no envelope")
        resolved["t_span"] = span

        n_photons = resolved["field"].get("photons")
        if n_photons is None:
            key = "amplitudes" if "amplitudes" in resolved["field"] else "weights"
            n_photons = len(resolved["field"][key]) - 1
        resolved["max_count"] = _integer(
            d.get("max_count", max(n_photons, 1)), "max_count", minimum=1)
        if resolved["max_count"] < n_photons:
            raise ConfigError(
                f"max_count={resolved['max_count']} cannot resolve an "
                f"{n_photons}-photon input")

        resolved["integrator"] = _resolve_integrator(d.get("integrator", {}))
        traj = _resolve_trajectories(d.get("trajectories", {}))
        resolved["trajectories"] = traj
        resolved["metrics"] = _resolve_metrics(d.get("metrics", {}),
                                               default_t_m=traj["t_m"])
        resolved["sweep"] = _resolve_sweep(d.get("sweep", {}))
        resolved["limits"] = _resolve_limits(d.get("limits", {}))
        return cls(raw=resolved)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from None
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(data)

    # -- plain accessors ------------------------------------------------
    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def output_dir(self):
        return self.raw["output_dir"]

    @property
    def t_span(self):
        s = self.raw["t_span"]
        return None if s is None else tuple(s)

    @property
    def max_count(self) -> int:
        return self.raw["max_count"]

    @property
    def n_photons(self) -> int:
        fld = self.raw["field"]
        if "photons" in fld:
            return fld["photons"]
        key = "amplitudes" if "amplitudes" in fld else "weights"
        return len(fld[key]) - 1

    @property
    def metrics(self) -> dict:
        return self.raw["metrics"]

    @property
    def trajectories(self) -> dict:
        return self.raw["trajectories"]

    @property
    def limits(self) -> dict:
        return self.raw["limits"]

    def sweep_axes(self):
        return [(ax["parameter"], list(ax["values"]))
                for ax in self.raw["sweep"]["axes"]]

    # -- builders -------------------------------------------------------
    def build_architecture(self, allow_large=False):
        """The configured architecture, refused with ResourceLimitError
        when its Hilbert dimension exceeds limits.max_dim (the builders
        with a `max_dim` guard refuse it themselves); `allow_large` lifts
        the guard."""
        kind = self.raw["architecture"]["kind"]
        params = dict(self.raw["architecture"]["params"])
        max_dim = sys.maxsize if allow_large else self.limits["max_dim"]
        if kind in _DIM_GUARDED:
            params["max_dim"] = max_dim
        try:
            if isinstance(params.get("dos"), dict):
                params["dos"] = DosModel(**params["dos"])
            arch = build_architecture(kind, **params)
        except TypeError as err:
            raise ConfigError(
                f"bad parameters for architecture {kind!r}: {err}") from None
        if (arch.dim or 0) > max_dim:
            raise ResourceLimitError(
                f"Hilbert dimension {arch.dim} exceeds limits.max_dim="
                f"{max_dim}; pass --allow-large or raise the limit")
        return arch

    def build_field(self):
        fld = self.raw["field"]
        env = build_envelope(fld["envelope"]) if fld["envelope"] else None
        if "photons" in fld:
            if fld["photons"] == 0 and env is None:
                return None
            return fock_input(fld["photons"], env)
        if "amplitudes" in fld:
            return superposition_input(fld["amplitudes"], env)
        return mixture_input(fld["weights"], env)

    def integrator_options(self) -> IntegratorOptions:
        return _integrator_options(self.raw["integrator"])

    def trajectory_options(self) -> TrajectoryOptions:
        traj = self.raw["trajectories"]
        return TrajectoryOptions(dt=traj["dt"], store_every=traj["store_every"])

    # -- hashing and derivation ------------------------------------------
    def canonical_json(self) -> str:
        return canonical_json(self.raw)

    @property
    def sha256(self) -> str:
        return config_sha256(self.raw)

    def with_values(self, assignments: dict) -> "RunConfig":
        """New config with dotted-path leaves replaced (sweep points)."""
        data = copy.deepcopy(self.raw)
        for path, value in assignments.items():
            parts = path.split(".")
            node = data
            for part in parts[:-1]:
                if not isinstance(node, dict) or part not in node:
                    raise ConfigError(f"sweep parameter {path!r}: no section "
                                      f"{part!r} in the config")
                node = node[part]
            if not isinstance(node, dict):
                raise ConfigError(f"sweep parameter {path!r} does not "
                                  f"address a mapping entry")
            node[parts[-1]] = value
        data["sweep"] = {"axes": []}
        return RunConfig.from_dict(data)
