"""Command-line front end.

Subcommands::

    pnrsim simulate CONFIG --out DIR         counting run + metrics files
    pnrsim sweep CONFIG --out DIR            Cartesian parameter sweep
    pnrsim trajectories CONFIG --out DIR     stochastic records + clicks
    pnrsim oracle NAME ...                   closed-form cross checks
    pnrsim design CALC ...                   physical-realization numbers
    pnrsim validate-config CONFIG            schema check, build + hash

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 resource-guard refusal. A malformed config never leaves partial
outputs: every run assembles its file payloads in memory first and
writes only after the whole pipeline has succeeded.

Every output file carries the schema version and the config hash in
its header. The hash covers the resolved config document, not the
delivery directory, so the same config and seed give byte-identical
files wherever they are written. Tables are CSV; per-curve two-column
.dat files go under plotdata/ so any plotting tool can render them.

Sweeps and trajectory batches run serially in the calling thread.
--workers is still parsed and validated, so existing command lines keep
working, but it changes neither what runs nor any output byte. It must
be an integer >= 1: 0 or a negative value is a configuration error
(exit 2). Trajectory streams are keyed by (seed, trajectory index)
alone.

BLAS runs on one thread in a CLI process unless the caller sets a thread
count. Every dense product the package makes is already sized to run
serially (`krylov.serial_matmul`, `hierarchy._DENSE_SIZE`), so a BLAS
thread pool does no useful work here and only costs start-up time:
OpenBLAS starts its worker threads when numpy loads. So when numpy is not
loaded yet and the caller set none of the BLAS thread variables, this
module sets them to 1 while it imports numpy and then deletes them again:
OpenBLAS reads them only when it loads, and `os.environ` stays as the
caller left it. A thread count the caller set is kept, and a process that
loaded numpy first (a library user, a test runner) is left alone.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

# OpenBLAS reads the first three (its OpenMP builds only OMP_NUM_THREADS),
# MKL the last two
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(
        v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        import numpy
    finally:
        for _var in _BLAS_THREAD_VARS:
            del os.environ[_var]

import numpy as np

from .config import SCHEMA_VERSION, RunConfig, config_sha256
from .errors import ConfigError, NumericsError, ResourceLimitError
from .hierarchy import integrate_hierarchy
from .metrics import MetricsReport, dark_count_rate, detection_probabilities, efficiency, jitter
from .trajectories import ensemble_average, extract_clicks, run_trajectories

_RECORD_FILE_CAP = 32


# ---------------------------------------------------------------------------
# formatting and file assembly

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, complex):
        return (f"{x.real:.12g}+{x.imag:.12g}j" if x.imag else f"{x.real:.12g}")
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _float_lines(columns, sep=",") -> list[str]:
    """The rows of the float arrays `columns` (1-d columns or 2-d blocks of
    columns), each value written as _fmt writes a float, as lines to join
    with newlines. The rows come as one block, formatted in one operation
    rather than one per row, so an element may hold many lines."""
    table = np.column_stack(columns)
    rows, width = table.shape
    if not rows:
        return []
    fmt = "\n".join([sep.join(["%.12g"] * width)] * rows)
    return [fmt % tuple(table.ravel().tolist())]


def _header(sha: str) -> list[str]:
    return [f"# schema_version={SCHEMA_VERSION}", f"# config_sha256={sha}"]


def _csv_text(sha, columns, rows, comments=()) -> str:
    lines = _header(sha) + list(comments) + [",".join(columns)] + list(rows)
    return "\n".join(lines) + "\n"


def _json_text(sha, payload: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "config_sha256": sha, **payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _dat_text(sha, xname, yname, xs, ys) -> str:
    lines = _header(sha) + [f"# columns: {xname} {yname}"]
    lines += _float_lines([xs, ys], sep=" ")
    return "\n".join(lines) + "\n"


def _write_all(out_dir, files: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rel in sorted(files):
        p = out / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(files[rel])


def _out_dir(args, cfg) -> str:
    out = getattr(args, "out", None) or cfg.output_dir
    if not out:
        raise ConfigError("give --out or set output_dir in the config")
    return out


def _workers(args) -> None:
    """Validate --workers; runs are serial either way."""
    w = getattr(args, "workers", None)
    if w is not None and w < 1:
        raise ConfigError(f"--workers must be >= 1, got {w}")


# ---------------------------------------------------------------------------
# simulate

def _monitored(arch, what):
    """The architecture's monitored channels with k > 0; `what` needs them."""
    amps = [a for a in arch.liouvillian().amps if a.k > 0]
    if not amps:
        raise ConfigError(
            f"{what} requested but the architecture has no monitored "
            f"channel with k > 0")
    return amps


def _dark_counts(arch, run, t_m):
    amps = _monitored(arch, "dark_counts")
    p_exc = float(np.clip(run.count_probabilities()[1:].sum(axis=0)[-1],
                          0.0, 1.0))
    total = 0.0
    snrs = []
    for a in amps:
        total += dark_count_rate([p_exc / len(amps)], t_m, k=a.k, chi=a.chi)
        snrs.append(math.sqrt(8.0 * a.k * t_m) * a.chi)
    uniform = len(set(snrs)) == 1
    prov = {
        "t_m": t_m,
        "n_channels": len(amps),
        "internal_excitation": p_exc,
        "per_channel_snr0": None if uniform else snrs,
        "note": "internal excitation split evenly across channels",
    }
    return total, (snrs[0] if uniform else None), prov


def _simulate_payloads(cfg, allow_large, want_files=True):
    """Run one counting simulation; return (report, files)."""
    arch = cfg.build_architecture(allow_large)
    field = cfg.build_field()
    mspec = cfg.metrics
    run = integrate_hierarchy(arch.counting(cfg.max_count), field,
                              t_span=cfg.t_span, opts=cfg.integrator_options())
    dist = detection_probabilities(run, mspec["t_MIN"], mspec["Delta"])

    compute = mspec["compute"]
    vacuum = cfg.n_photons == 0
    eff = jit = jsys = dark = rate = snr0 = None
    diag = run.diagnostics
    prov = {"settled": bool(dist.meta.get("settled", True)), "vacuum": vacuum,
            # solver record only: wall times would break byte-identical reruns
            "run": {"size": diag["size"], "full_size": diag["full_size"],
                    "basis_size": diag["basis_size"],
                    "stiffness": [diag["stiffness"].real,
                                  diag["stiffness"].imag],
                    "stiffness_estimate": ("exact" if diag["stiffness_exact"]
                                           else "arnoldi"),
                    "segments": diag["segments"],
                    "trace_defect": diag["trace_defect"],
                    "hermiticity_defect": diag["hermiticity_defect"]}}
    if "efficiency" in compute:
        eff = efficiency(dist)
    if "jitter" in compute and not vacuum:
        try:
            jit, jsys = jitter(dist, field.envelope)
            prov["jitter"] = {k: dist.meta[k] for k in
                              ("jitter_mean", "jitter_stencil_rel",
                               "jitter_reliable")}
        except ConfigError as err:
            prov["jitter"] = {"skipped": str(err)}
    if "dark_counts" in compute:
        dark, snr0, dprov = _dark_counts(arch, run, mspec["t_m"])
        prov["dark_counts"] = dprov
    if mspec["Delta"] > 0 and not vacuum:
        rate = cfg.n_photons * mspec["Delta"]
        prov["count_rate"] = "n_photons * Delta at the configured reset rate"
    report = MetricsReport(efficiency=eff, jitter_sigma=jit, jitter_sys=jsys,
                           dark_rate=dark, count_rate=rate, snr0=snr0,
                           provenance=prov)
    if not want_files:
        return report, {}

    sha = cfg.sha256
    files = {"resolved_config.json": _json_text(sha, {"config": cfg.raw})}

    probs = run.count_probabilities()
    cols = (["t"] + [f"P_sector_{s}" for s in range(probs.shape[0])]
            + [f"P_reg_ge_{n}" for n in range(1, dist.M + 1)])
    rows = _float_lines([run.t, probs.T, dist.at_least[1:dist.M + 1].T])
    files["timeseries.csv"] = _csv_text(sha, cols, rows)

    drows = [",".join((str(n), _fmt(dist.at_least[n, -1]),
                       _fmt(dist.exactly[n, -1])))
             for n in range(dist.M + 1)]
    files["distribution.csv"] = _csv_text(
        sha, ("n", "p_at_least", "p_exactly"), drows,
        comments=(f"# t_MIN={_fmt(mspec['t_MIN'])}",
                  f"# Delta={_fmt(mspec['Delta'])}"))

    files["metrics.json"] = _json_text(
        sha, {"config": cfg.raw, "metrics": report.to_dict()})

    for n in range(1, dist.M + 1):
        files[f"plotdata/reg_ge_{n}.dat"] = _dat_text(
            sha, "t", f"P_reg_ge_{n}", run.t, dist.at_least[n])
    if field is not None and field.envelope is not None:
        files["plotdata/drive_intensity.dat"] = _dat_text(
            sha, "t", "intensity", run.t, field.envelope.intensity(run.t))
    return report, files


def cmd_simulate(args) -> int:
    cfg = RunConfig.from_file(args.config)
    out = _out_dir(args, cfg)
    report, files = _simulate_payloads(cfg, args.allow_large)
    _write_all(out, files)
    eff = report.efficiency
    tail = f", efficiency {eff:.6g}" if eff is not None else ""
    print(f"simulate: wrote {len(files)} files to {out}{tail}")
    return 0


# ---------------------------------------------------------------------------
# sweep

def _sweep_points(cfg, allow_large):
    """(names, combos, points) of the config's sweep: the swept parameter
    paths, each point's values and its config (one point with no values
    when there is no sweep), refused past limits.max_points unless
    `allow_large`."""
    axes = cfg.sweep_axes()
    names = [p for p, _ in axes]
    combos = list(itertools.product(*[vals for _, vals in axes]))
    if not allow_large and len(combos) > cfg.limits["max_points"]:
        raise ResourceLimitError(
            f"sweep has {len(combos)} points, over limits.max_points="
            f"{cfg.limits['max_points']}; pass --allow-large or raise "
            f"the limit")
    return names, combos, [cfg.with_values(dict(zip(names, c))) for c in combos]


def cmd_sweep(args) -> int:
    cfg = RunConfig.from_file(args.config)
    axes = cfg.sweep_axes()
    if not axes:
        raise ConfigError("sweep requires a sweep.axes section in the config")
    out = _out_dir(args, cfg)
    names, combos, points = _sweep_points(cfg, args.allow_large)
    total = len(combos)
    _workers(args)
    reports = [_simulate_payloads(pt, args.allow_large, want_files=False)[0]
               for pt in points]

    sha = cfg.sha256
    files = {"resolved_config.json": _json_text(sha, {"config": cfg.raw})}
    rows = []
    for i, (combo, pt, rep) in enumerate(zip(combos, points, reports)):
        rows.append(",".join([str(i)] + [_fmt(v) if not isinstance(v, str)
                                         else v for v in combo]
                             + [_fmt(getattr(rep, k))
                                for k in MetricsReport.CSV_COLUMNS]))
        files[f"points/{i:04d}/metrics.json"] = _json_text(
            pt.sha256,
            {"config": pt.raw, "metrics": rep.to_dict(),
             "point": {"index": i, **dict(zip(names, combo))}})
    files["sweep.csv"] = _csv_text(
        sha, ("index", *names, *MetricsReport.CSV_COLUMNS), rows,
        comments=(f"# axes={';'.join(names)}",))

    numeric = (len(axes) == 1 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in axes[0][1]))
    if numeric:
        xs = [float(v) for v in axes[0][1]]
        for metric in ("efficiency", "jitter_sigma", "dark_rate"):
            ys = [getattr(r, metric) for r in reports]
            if all(y is not None for y in ys):
                files[f"plotdata/sweep_{metric}.dat"] = _dat_text(
                    sha, names[0], metric, xs,
                    [float(np.real(y)) for y in ys])

    _write_all(out, files)
    print(f"sweep: {total} points -> {out}")
    return 0


# ---------------------------------------------------------------------------
# trajectories

def cmd_trajectories(args) -> int:
    cfg = RunConfig.from_file(args.config)
    if args.seed is not None:
        cfg = RunConfig.from_dict({**cfg.raw, "seed": args.seed})
    out = _out_dir(args, cfg)
    arch = cfg.build_architecture(args.allow_large)
    field = cfg.build_field()
    tspec = cfg.trajectories
    liou = arch.liouvillian()
    opts = cfg.trajectory_options()
    n = tspec["n_traj"]

    _workers(args)
    _monitored(arch, "trajectories")
    recs = run_trajectories(liou, field, t_span=cfg.t_span, n_traj=n,
                            seed=cfg.seed, opts=opts)

    sha = cfg.sha256
    tags = list(recs[0].records)
    files = {"resolved_config.json": _json_text(sha, {"config": cfg.raw})}

    for rec in recs[:_RECORD_FILE_CAP]:
        cols = ["t"] + [f"x_{tg}" for tg in tags] + [f"R_{tg}" for tg in tags]
        rows = _float_lines([rec.t] + [rec.observables[tg] for tg in tags]
                            + [rec.records[tg] for tg in tags])
        files[f"records/traj_{rec.traj_index:04d}.csv"] = _csv_text(
            sha, cols, rows,
            comments=(f"# seed={cfg.seed}", f"# traj_index={rec.traj_index}"))

    means = {}
    cols, values = ["t"], [recs[0].t]
    for tg in tags:
        _, mean, stderr, _ = ensemble_average(recs, tg)
        means[tg] = mean
        cols += [f"mean_x_{tg}", f"stderr_x_{tg}"]
        values += [mean, stderr]
    rows = _float_lines(values)
    files["ensemble.csv"] = _csv_text(sha, cols, rows,
                                      comments=(f"# n_traj={n}",))
    for tg in tags:
        files[f"plotdata/ensemble_{tg}.dat"] = _dat_text(
            sha, "t", f"mean_x_{tg}", recs[0].t, means[tg])

    click_counts = None
    if tspec["t_m"] is not None and tspec["threshold"] is not None:
        click_counts = {tg: 0 for tg in tags}
        rows = []
        for rec in recs:
            for c in extract_clicks(rec, tspec["threshold"], tspec["t_m"],
                                    t_MIN=cfg.metrics["t_MIN"]):
                click_counts[c.tag] += 1
                rows.append(",".join((str(rec.traj_index), c.tag,
                                      _fmt(c.t_start), _fmt(c.t_end),
                                      _fmt(c.level))))
        files["clicks.csv"] = _csv_text(
            sha, ("traj", "tag", "t_start", "t_end", "level"), rows,
            comments=(f"# threshold={_fmt(tspec['threshold'])}",
                      f"# t_m={_fmt(tspec['t_m'])}"))

    files["summary.json"] = _json_text(sha, {
        "config": cfg.raw,
        "n_traj": n,
        "seed": cfg.seed,
        "tags": tags,
        "n_steps": recs[0].meta.get("n_steps"),
        "clicks": click_counts,
    })
    _write_all(out, files)
    print(f"trajectories: {n} runs -> {out}")
    return 0


# ---------------------------------------------------------------------------
# oracle and design

def _print_scalar(label, value, formula=None):
    print(f"{label} = {_fmt(value)}")
    if formula:
        print(f"  formula: {formula}")


def cmd_oracle(args) -> int:
    from .oracles import evaluate as evaluate_oracle

    name = args.oracle_name
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("command", "oracle_name", "func") and v is not None}
    try:
        res = evaluate_oracle(name, **inputs)
    except (ConfigError, NumericsError) as err:
        raise type(err)(f"[{name}] {err}") from None
    value = res.value
    if hasattr(value, "_fields"):
        for fname in value._fields:
            _print_scalar(f"{name}.{fname}", getattr(value, fname))
        print(f"  formula: {res.formula}")
    else:
        _print_scalar(name, value, res.formula)
    return 0


def cmd_design(args) -> int:
    from .design import (TRADEOFF_CSV_COLUMNS, effective_coupling,
                         film_thickness, required_absorbers, snr0_transport,
                         tradeoff_curve, transport_amplifier)

    calc = args.design_name
    if calc == "coupling":
        _print_scalar("gamma_eff2",
                      effective_coupling(args.lam, args.area, args.n_d,
                                         args.gamma_free2),
                      "(3 lam^2 / (4 pi area)) * n_d * gamma_free2")
        return 0
    if calc == "absorbers":
        _print_scalar("n_d", required_absorbers(args.area, args.sigma),
                      "ceil(2 area / (3 sigma))")
        return 0
    if calc == "thickness":
        _print_scalar("h", film_thickness(args.alpha), "2 / (3 alpha)")
        return 0
    if calc == "snr0":
        _print_scalar("snr0", snr0_transport(args.f, args.I, args.tm),
                      "f * sqrt(I * t_m / (2 e))")
        return 0

    # tradeoff
    n_a_values = args.n_A or [2 * args.N]
    target = None
    if (args.target_rc is None) != (args.target_rdc is None):
        raise ConfigError("give both --target-rc and --target-rdc or neither")
    if args.target_rc is not None:
        target = (args.target_rc, args.target_rdc)
    if args.t_lo <= 0 or args.t_hi <= 0 or args.points < 1:
        raise ConfigError("--t-lo and --t-hi must be positive and --points "
                          "at least 1")
    grid = np.geomspace(args.t_lo, args.t_hi, args.points)
    amp = transport_amplifier(args.f, args.I)
    argdoc = {
        "command": "design tradeoff",
        "N": args.N, "n_A": list(n_a_values), "eff_loss": args.eff_loss,
        "f": args.f, "I": args.I,
        "t_lo": args.t_lo, "t_hi": args.t_hi, "points": args.points,
        "target": list(target) if target else None,
    }
    sha = config_sha256(argdoc)
    rows = []
    comments = []
    for n_a in n_a_values:
        curve = tradeoff_curve(args.N, n_a, args.eff_loss, amp,
                               t_min_grid=grid, target=target)
        if not comments:
            comments = [f"# {k}: {v}" for k, v in sorted(curve.meta.items())]
        for p in curve.points:
            rows.append(",".join(_fmt(v) for v in p))
    text = _csv_text(sha, TRADEOFF_CSV_COLUMNS, rows, comments=comments)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"tradeoff: {len(rows)} rows -> {path}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    """Check the schema, build the architecture of every sweep point under
    the config's limits (a config without a sweep is its one point), and
    print the hash."""
    cfg = RunConfig.from_file(args.config)
    for pt in _sweep_points(cfg, False)[2]:
        pt.build_architecture()
    print(f"OK config_sha256={cfg.sha256}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _finite_float(text):
    """argparse type of every float option: a non-finite value exits 2."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _add_run_args(p, seed=False):
    p.add_argument("config", help="path to a JSON run config")
    p.add_argument("--out", help="output directory (overrides output_dir)")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the resource guards")
    p.add_argument("--workers", type=int,
                   help="accepted for compatibility, an integer >= 1; "
                        "runs are serial")
    if seed:
        p.add_argument("--seed", type=int, help="override the config seed")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pnrsim",
        description="Photon-number-resolving detector simulation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one counting run with metrics")
    _add_run_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Cartesian parameter sweep")
    _add_run_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trajectories", help="stochastic measurement records")
    _add_run_args(p, seed=True)
    p.set_defaults(func=cmd_trajectories)

    p = sub.add_parser("validate-config",
                       help="schema check, architecture build and hash")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    po = sub.add_parser("oracle", help="closed-form cross checks")
    osub = po.add_subparsers(dest="oracle_name", required=True)

    q = osub.add_parser("band-eff", help="band-element detection probability")
    q.add_argument("--n-b", dest="n_b", type=int, required=True)
    q.add_argument("--gamma", type=_finite_float, required=True)
    q.add_argument("--Gamma", type=_finite_float, required=True)
    q.add_argument("--zeta", type=_finite_float, required=True)
    q.add_argument("--delta-omega", dest="delta_omega", type=_finite_float)
    q.set_defaults(func=cmd_oracle)

    q = osub.add_parser("count-rate", help="single-element count rate")
    q.add_argument("--Delta", type=_finite_float, required=True)
    q.add_argument("--t-min", dest="t_MIN", type=_finite_float, required=True)
    q.add_argument("--eff-loss", dest="eff_loss", type=_finite_float,
                   required=True)
    q.add_argument("--approximate", action="store_true", default=None)
    q.set_defaults(func=cmd_oracle)

    q = osub.add_parser("rates", help="count/dark-rate relations")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--Delta", type=_finite_float)
    q.add_argument("--t-min", dest="t_MIN", type=_finite_float)
    q.add_argument("--snr0", type=_finite_float)
    q.add_argument("--eff-loss", dest="eff_loss", type=_finite_float)
    q.set_defaults(func=cmd_oracle)

    q = osub.add_parser("jitter", help="jitter saturation law")
    q.add_argument("--sigma0", type=_finite_float, required=True)
    q.add_argument("--n-A", dest="n_A", type=int, required=True)
    q.add_argument("--kA2", type=_finite_float, required=True)
    q.add_argument("--N", type=int, required=True)
    q.set_defaults(func=cmd_oracle)

    pd = sub.add_parser("design", help="physical-realization calculators")
    dsub = pd.add_subparsers(dest="design_name", required=True)

    q = dsub.add_parser("coupling", help="collective waveguide coupling")
    q.add_argument("--lam", type=_finite_float, required=True)
    q.add_argument("--area", type=_finite_float, required=True)
    q.add_argument("--n-d", dest="n_d", type=_finite_float, required=True)
    q.add_argument("--gamma-free2", dest="gamma_free2", type=_finite_float,
                   required=True)
    q.set_defaults(func=cmd_design)

    q = dsub.add_parser("absorbers", help="absorber count for full absorption")
    q.add_argument("--area", type=_finite_float, required=True)
    q.add_argument("--sigma", type=_finite_float, required=True)
    q.set_defaults(func=cmd_design)

    q = dsub.add_parser("thickness", help="equivalent film thickness")
    q.add_argument("--alpha", type=_finite_float, required=True)
    q.set_defaults(func=cmd_design)

    q = dsub.add_parser("snr0", help="transport amplifier window SNR")
    q.add_argument("--f", type=_finite_float, required=True)
    q.add_argument("--I", type=_finite_float, required=True)
    q.add_argument("--tm", type=_finite_float, required=True)
    q.set_defaults(func=cmd_design)

    q = dsub.add_parser("tradeoff", help="count-rate / dark-rate curves")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--n-A", dest="n_A", type=int, action="append",
                   help="acceptor count; repeat for a family (default 2N)")
    q.add_argument("--eff-loss", dest="eff_loss", type=_finite_float,
                   required=True)
    q.add_argument("--f", type=_finite_float, required=True)
    q.add_argument("--I", type=_finite_float, required=True)
    q.add_argument("--t-lo", dest="t_lo", type=_finite_float, default=1e-12)
    q.add_argument("--t-hi", dest="t_hi", type=_finite_float, default=1e-6)
    q.add_argument("--points", type=int, default=121)
    q.add_argument("--target-rc", dest="target_rc", type=_finite_float)
    q.add_argument("--target-rdc", dest="target_rdc", type=_finite_float)
    q.add_argument("--out", help="CSV path (default: stdout)")
    q.set_defaults(func=cmd_design)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except ResourceLimitError as err:
        print(f"resource guard: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
