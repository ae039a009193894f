"""The three benchmark workloads: how each runs the CLI and how its outputs
are checked.

Each workload is one `pnrsim` subcommand on one committed config. The
hierarchy workloads are fixed physics problems whose numbers are checked
against committed references; the trajectory workload takes its seed from
the benchmark's --seed and is checked for byte-identical repeats and
against the deterministic hierarchy expectation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Tolerances the output checks use.
REF_TOL = 1e-6      # absolute, on probabilities and efficiencies
TRAJ_SIGMAS = 5.0   # ensemble mean vs deterministic expectation, in stderrs

# pnr-tensor: p_exactly(n) for n = 0, 1, 2 and the efficiency (= p_exactly(2)).
PNR_P_EXACTLY = (0.0133892786727, 0.132887295827, 0.8537234255)
PNR_EFFICIENCY = 0.8537234255

# sym-sweep: efficiency per point, in axis order.
SYM_GAMMA_EFF = (0.0707, 0.1, 0.2, 0.4, 0.7, 1.0)
SYM_EFFICIENCY = (0.896073587686, 0.750591605514, 0.155349416684,
                  0.0138308339451, 0.00160213104666, 0.000392717467599)

# traj-ensemble: <x_AMP>(t) from integrate_hierarchy at rtol 1e-11, on
# stored times of the trajectory grid (t0 = -8, spacing dt * store_every).
TRAJ_TIMES = (0.0, 1.0, 2.0, 4.0, 8.0)
TRAJ_X_AMP = (0.1922286698640791, 0.4677666523187558, 0.7050238333720303,
              0.8370773667930735, 0.8427363742318)


def read_table(path: Path) -> list[dict]:
    """Rows of a pnrsim CSV (comment lines start with '#') as dicts."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def tree_digest(out_dir: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(q for q in out_dir.rglob("*") if q.is_file()):
        h.update(p.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(p.read_bytes() + b"\0")
    return h.hexdigest()


def _near(label, got, want, tol, errors):
    if not (isinstance(got, float) and math.isfinite(got)
            and abs(got - want) <= tol):
        errors.append(f"{label} = {got!r}, reference {want!r} (tol {tol:g})")


def check_pnr_tensor(out_dir: Path) -> list[str]:
    errors: list[str] = []
    rows = read_table(out_dir / "distribution.csv")
    p = [float(r["p_exactly"]) for r in rows]
    if len(p) != len(PNR_P_EXACTLY):
        return [f"distribution.csv has {len(p)} rows, expected "
                f"{len(PNR_P_EXACTLY)}"]
    for n, (got, want) in enumerate(zip(p, PNR_P_EXACTLY)):
        _near(f"p_exactly[{n}]", got, want, REF_TOL, errors)
    _near("sum p_exactly", math.fsum(p), 1.0, REF_TOL, errors)
    eff = json.loads((out_dir / "metrics.json").read_text())["metrics"]
    _near("efficiency", eff["efficiency"], PNR_EFFICIENCY, REF_TOL, errors)
    return errors


def check_sym_sweep(out_dir: Path) -> list[str]:
    errors: list[str] = []
    rows = read_table(out_dir / "sweep.csv")
    if len(rows) != len(SYM_EFFICIENCY):
        return [f"sweep.csv has {len(rows)} points, expected "
                f"{len(SYM_EFFICIENCY)}"]
    for i, (row, g, want) in enumerate(zip(rows, SYM_GAMMA_EFF,
                                           SYM_EFFICIENCY)):
        if float(row["architecture.params.gamma_eff"]) != g:
            errors.append(f"point {i} has gamma_eff "
                          f"{row['architecture.params.gamma_eff']}, expected {g}")
        _near(f"efficiency[{i}]", float(row["efficiency"]), want, REF_TOL,
              errors)
    return errors


def check_traj_ensemble(out_dir: Path) -> list[str]:
    errors: list[str] = []
    by_t = {float(r["t"]): r for r in read_table(out_dir / "ensemble.csv")}
    for t, want in zip(TRAJ_TIMES, TRAJ_X_AMP):
        row = by_t.get(t)
        if row is None:
            errors.append(f"ensemble.csv has no stored time t={t}")
            continue
        mean = float(row["mean_x_AMP"])
        se = float(row["stderr_x_AMP"])
        if not (se > 0 and abs(mean - want) <= TRAJ_SIGMAS * se):
            errors.append(f"mean x_AMP at t={t} is {mean!r} +- {se!r}, "
                          f"deterministic {want!r} (limit {TRAJ_SIGMAS:g} "
                          f"stderr)")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: Path
    check: Callable[[Path], list[str]]
    workers: int | None = None
    seeded: bool = False
    # outputs must repeat byte for byte across the runs of one invocation
    repeat_identical: bool = False

    def cli_args(self, out_dir: Path, seed: int) -> list[str]:
        """Arguments after `python -m pnrsim.cli` for one run."""
        args = [self.subcommand, str(self.config), "--out", str(out_dir)]
        if self.workers is not None:
            args += ["--workers", str(self.workers)]
        if self.seeded:
            args += ["--seed", str(seed)]
        return args


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "pnr-tensor",
            "simulate", CONFIG_DIR / "pnr-tensor.json", check_pnr_tensor),
        Workload(
            "sym-sweep",
            "sweep", CONFIG_DIR / "sym-sweep.json", check_sym_sweep,
            workers=2),
        Workload(
            "traj-ensemble",
            "trajectories", CONFIG_DIR / "traj-ensemble.json",
            check_traj_ensemble, workers=2, seeded=True,
            repeat_identical=True),
    )
}
