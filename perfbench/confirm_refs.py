#!/usr/bin/env python3
"""Recompute the benchmark's committed reference numbers at a tighter
integrator tolerance (RK45 at rtol 1e-10, atol 1e-12, a hundredth of
the defaults) and compare.

Run from the repository root:

    python3 perfbench/confirm_refs.py

It prints every reference with its recomputed value and exits 1 if any
differs by more than a tenth of the check tolerance. It needs about
1.5 GB of memory and half a minute, so the benchmark does not run it;
rerun it when a reference in workloads.py changes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import workloads as W

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pnrsim import (  # noqa: E402
    IntegratorOptions,
    RunConfig,
    detection_probabilities,
    efficiency,
    integrate_hierarchy,
)

TIGHT = IntegratorOptions(rtol=1e-10, atol=1e-12)
LIMIT = W.REF_TOL / 10


def counting_run(cfg):
    arch = cfg.build_architecture()
    run = integrate_hierarchy(arch.counting(cfg.max_count), cfg.build_field(),
                              t_span=cfg.t_span, opts=TIGHT)
    return detection_probabilities(run, cfg.metrics["t_MIN"],
                                   cfg.metrics["Delta"])


def main() -> int:
    rows = []
    cfg = RunConfig.from_file(W.CONFIG_DIR / "pnr-tensor.json")
    dist = counting_run(cfg)
    for n, want in enumerate(W.PNR_P_EXACTLY):
        rows.append((f"pnr-tensor p_exactly[{n}]", want,
                     float(dist.exactly[n, -1])))
    rows.append(("pnr-tensor efficiency", W.PNR_EFFICIENCY, efficiency(dist)))

    cfg = RunConfig.from_file(W.CONFIG_DIR / "sym-sweep.json")
    for g, want in zip(W.SYM_GAMMA_EFF, W.SYM_EFFICIENCY):
        pt = cfg.with_values({"architecture.params.gamma_eff": g})
        rows.append((f"sym-sweep efficiency[gamma_eff={g}]", want,
                     efficiency(counting_run(pt))))

    cfg = RunConfig.from_file(W.CONFIG_DIR / "traj-ensemble.json")
    liou = cfg.build_architecture().liouvillian()
    amp = next(a for a in liou.amps if a.tag == "AMP")
    run = integrate_hierarchy(liou, cfg.build_field(), t_span=cfg.t_span,
                              opts=TIGHT, t_eval=list(W.TRAJ_TIMES),
                              observables={"AMP": amp.op})
    for t, want, got in zip(W.TRAJ_TIMES, W.TRAJ_X_AMP,
                            run.observable("AMP").real):
        rows.append((f"traj-ensemble <x_AMP>(t={t})", want, float(got)))

    worst = 0.0
    for label, want, got in rows:
        diff = abs(got - want)
        worst = max(worst, diff)
        print(f"{label:<40} committed {want:.12g}  tight {got:.12g}  "
              f"|diff| {diff:.2e}")
    print(f"largest |diff| {worst:.2e} (limit {LIMIT:.0e})")
    return 0 if worst <= LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
