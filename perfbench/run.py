#!/usr/bin/env python3
"""End-to-end benchmark of the `pnrsim` CLI.

Runs one workload the way a detector designer does: one CLI process at a
time, in a closed loop, from this one benchmark process, with at most two
worker threads (`--workers 2`). Run it from the repository root:

    python3 perfbench/run.py --workload sym-sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all                   # every workload
    python3 perfbench/run.py --check                          # one quick pass

--trace 0 times CLI processes with tracing off and reports the end-to-end
metrics: the median wall_s and cpu_s and the largest peak_rss_mb over the
runs that fit in --seconds, and setup_s (median of several
`pnrsim validate-config` runs). --trace 1 instead runs the CLI inside this
process with the layer boundaries wrapped (see spans.py) and reports the
per-layer metrics. Every run's outputs are checked (see workloads.py); a
run fails on a nonzero exit code or a failed check, and failed runs are
left out of the medians.

Human-readable lines, with units, sample counts and a provenance block,
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Full records and the span list go
to .perfbench_out/ under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, tree_digest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Wall-clock budget of one invocation; a CLI run still going at its end is
# killed and counted as failed.
BUDGET_S = 170.0
SETUP_RUNS = 5       # validate-config runs per invocation (setup_s)
IMPORT_PROBES = 3    # fresh-interpreter `import pnrsim.cli` runs (traced)

END_TO_END = {       # name -> unit; all lower-is-better
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> (unit, what it measures, end-to-end metric it should
# move). The last column is the prediction later changes are judged by.
PER_LAYER = {
    "pnrsim.import_s": ("s", "import pnrsim.cli in a fresh interpreter",
                        "setup_s, all workloads"),
    "config.resolve_s": ("s", "RunConfig.from_file/from_dict/with_values",
                         "setup_s; wall_s on sym-sweep"),
    "architectures.build_s": ("s", "RunConfig.build_architecture",
                              "setup_s; wall_s on sym-sweep"),
    "pulses.build_s": ("s", "RunConfig.build_field", "none expected"),
    "liouville.counting_s": ("s", "ArchitectureSpec.counting",
                             "wall_s on pnr-tensor"),
    "hierarchy.solve_s": ("s", "integrate_hierarchy span",
                          "wall_s/cpu_s on pnr-tensor and sym-sweep"),
    "hierarchy.solves": ("count", "integrate_hierarchy calls",
                         "none (workload shape)"),
    "hierarchy.nfev": ("count", "diagnostics nfev, summed over solves",
                       "wall_s on sym-sweep"),
    "hierarchy.nfev_max": ("count", "diagnostics nfev, largest solve",
                           "wall_s on sym-sweep"),
    "hierarchy.state_len": ("count", "diagnostics size, largest solve",
                            "wall_s, peak_rss_mb on pnr-tensor"),
    "hierarchy.us_per_rhs": ("us", "solve_s / nfev (includes assembly)",
                             "wall_s on pnr-tensor"),
    "hierarchy.trace_defect": ("1", "diagnostics trace_defect, largest",
                               "none (guard)"),
    "metrics.post_s": ("s", "detection_probabilities + efficiency + jitter",
                       "none expected (<1 ms)"),
    "trajectories.run_s": ("s", "run_trajectories span",
                           "wall_s/cpu_s on traj-ensemble"),
    "trajectories.steps": ("count", "n_traj x n_steps",
                           "wall_s/cpu_s on traj-ensemble"),
    "trajectories.us_per_step": ("us", "run_s / steps",
                                 "wall_s/cpu_s on traj-ensemble"),
    "trajectories.post_s": ("s", "ensemble_average + extract_clicks",
                            "wall_s on traj-ensemble"),
    "cli.wall_s": ("s", "cli.main span, traced", "wall_s, all workloads"),
    "cli.self_s": ("s", "cli.main minus the union of its child spans",
                   "wall_s/cpu_s on sym-sweep and traj-ensemble"),
    "cli.output_bytes": ("B", "bytes of the files the run wrote",
                         "wall_s on sym-sweep and traj-ensemble"),
    "trace.overhead_s": ("s", "traced wall minus the untraced median",
                         "none (reported)"),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PNRSIM_WORKERS")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import pnrsim.cli; "
                "print(time.perf_counter() - t)")


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


@dataclass
class Tally:
    """Everything one invocation ran, for the result and the provenance."""
    deadline: float
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    commands: list = field(default_factory=list)

    def record(self, label: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{label}: {e}" for e in errors]
        return not errors


def child_env() -> dict:
    """The caller's environment with src/ first on PYTHONPATH; thread
    settings pass through unchanged, so default threading is measured."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_process(argv: list, log: Path, tally: Tally) -> Proc:
    """Run argv to completion from the repository root; wall time from
    just before the fork to reaping, CPU and peak RSS from wait4."""
    shown = shlex.join(str(a) for a in argv)
    if shown not in tally.commands:
        tally.commands.append(shown)
    limit = max(1.0, tally.deadline - time.perf_counter())
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    return Proc(rc, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0, log)


def pnrsim_argv(*args) -> list:
    return [sys.executable, "-m", "pnrsim.cli", *map(str, args)]


def exit_errors(p: Proc) -> list[str]:
    if p.rc == 0:
        return []
    tail = p.log.read_text(errors="replace").strip().splitlines()[-3:]
    return [f"exit code {p.rc}: " + " | ".join(tail)]


def check_outputs(w: Workload, out: Path, digests: list) -> list[str]:
    try:
        errors = w.check(out)
    except (OSError, KeyError, ValueError, IndexError) as err:
        errors = [f"unreadable outputs: {type(err).__name__}: {err}"]
    if w.repeat_identical:
        digests.append(tree_digest(out))
        if digests[-1] != digests[0]:
            errors.append("outputs differ from the first run with this seed")
    return errors


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_loop(seconds: float, tally: Tally, one):
    """Call one() at least once, and again while the next call, taking as
    long as the last, still ends within `seconds`."""
    t0 = time.perf_counter()
    while True:
        took = one()
        now = time.perf_counter()
        if now - t0 + took > seconds or now + took > tally.deadline:
            return


def measure_setup(w: Workload, tally: Tally, n: int, wdir: Path):
    """setup_s samples and the config hash, from `pnrsim validate-config`."""
    samples, sha = [], None
    for i in range(n):
        p = run_process(pnrsim_argv("validate-config", w.config),
                        wdir / f"setup{i}.log", tally)
        errors = exit_errors(p)
        out = p.log.read_text(errors="replace").strip()
        if not errors and not out.startswith("OK config_sha256="):
            errors = [f"unexpected validate-config output {out!r}"]
        if tally.record(f"{w.name} setup {i}", errors):
            samples.append(p.wall_s)
            sha = out.split("=", 1)[1]
    return samples, sha


def measure_untraced(w: Workload, seed: int, seconds: float, tally: Tally,
                     n_setup: int) -> dict:
    """End-to-end samples: {metric: [values of successful runs]}."""
    wdir = fresh_dir(OUT / w.name)
    setup, sha = measure_setup(w, tally, n_setup, wdir)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [],
               "setup_s": setup}
    digests: list = []
    count = itertools.count()

    def one():
        i = next(count)
        out = fresh_dir(wdir / f"run{i}")
        p = run_process(pnrsim_argv(*w.cli_args(out, seed)),
                        wdir / f"run{i}.log", tally)
        errors = exit_errors(p) or check_outputs(w, out, digests)
        if tally.record(f"{w.name} run {i}", errors):
            for k in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples[k].append(getattr(p, k))
        return p.wall_s

    timed_loop(seconds, tally, one)
    return {"samples": samples, "config_sha256": sha}


def import_pnrsim():
    """Import the package from this checkout's src/, never another copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pnrsim
    import pnrsim.cli
    where = Path(pnrsim.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: imported pnrsim from {where}, not {SRC}")
    return pnrsim


def measure_traced(w: Workload, seed: int, seconds: float, tally: Tally,
                   n_probe: int, baseline: list | None = None) -> dict:
    """Per-layer samples from in-process traced runs of the CLI.

    `baseline` holds untraced wall times already measured for this
    workload; without it one untraced run is made here, so that
    trace.overhead_s compares like with like.
    """
    import spans

    wdir = fresh_dir(OUT / f"{w.name}.trace")
    probe_wall, import_s = [], []
    for i in range(n_probe):
        p = run_process([sys.executable, "-c", IMPORT_PROBE],
                        wdir / f"import{i}.log", tally)
        if tally.record(f"{w.name} import probe {i}", exit_errors(p)):
            probe_wall.append(p.wall_s)
            import_s.append(float(p.log.read_text().split()[-1]))

    digests: list = []
    t0 = time.perf_counter()
    if baseline is None:
        out = fresh_dir(wdir / "untraced")
        p = run_process(pnrsim_argv(*w.cli_args(out, seed)),
                        wdir / "untraced.log", tally)
        errors = exit_errors(p) or check_outputs(w, out, digests)
        baseline = [p.wall_s] if tally.record(f"{w.name} untraced run",
                                              errors) else []

    pnrsim = import_pnrsim()
    try:
        sha = pnrsim.config.RunConfig.from_file(w.config).sha256
    except pnrsim.PnrsimError:
        sha = None
    per_run: list[dict] = []
    all_spans: list = []

    def one():
        i = len(all_spans)
        out = fresh_dir(wdir / f"traced{i}")
        tracer = spans.Tracer()
        log = wdir / f"traced{i}.log"
        argv = w.cli_args(out, seed)
        shown = "(in process) pnrsim " + shlex.join(argv)
        if shown not in tally.commands:
            tally.commands.append(shown)
        with open(log, "w") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(fh), spans.traced(pnrsim, tracer):
            try:
                with tracer.span("cli.main"):
                    rc = pnrsim.cli.main(argv)
                errors = [f"exit code {rc}"] if rc else []
            except (Exception, SystemExit):  # a crash is a failed run
                traceback.print_exc()
                errors = [f"uncaught exception, see {log}"]
        all_spans.append(tracer.to_json())
        errors = errors or check_outputs(w, out, digests)
        m = spans.layer_metrics(tracer.spans)
        if tally.record(f"{w.name} traced run {i}", errors):
            m["cli.output_bytes"] = sum(f.stat().st_size
                                        for f in out.rglob("*")
                                        if f.is_file())
            per_run.append(m)
        return m["cli.wall_s"]

    # the untraced baseline run counts against this workload's seconds
    timed_loop(seconds - (time.perf_counter() - t0), tally, one)
    (wdir / "spans.json").write_text(json.dumps(all_spans) + "\n")

    samples = {k: [m[k] for m in per_run] for k in (per_run[0] if per_run
                                                    else {})}
    samples["pnrsim.import_s"] = import_s
    if probe_wall and baseline and per_run:
        samples["trace.overhead_s"] = [
            statistics.median(probe_wall) + statistics.median(
                samples["cli.wall_s"]) - statistics.median(baseline)]
    return {"samples": samples, "config_sha256": sha}


def provenance(seed: int, tally: Tally, shas: dict) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True).stdout.strip()
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in
                ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "config_sha256": shas,
        "commands": tally.commands,
    }


# Peak memory is a capacity need, so it is the largest run's; a run's own
# peak varies by ~100 MB on pnr-tensor with allocator timing.
MAX_OF_RUNS = {"peak_rss_mb"}


def summarize(samples: dict) -> dict:
    return {k: {"value": max(v) if k in MAX_OF_RUNS else statistics.median(v),
                "stat": "max" if k in MAX_OF_RUNS else "median", "n": len(v),
                "min": min(v), "max": max(v)}
            for k, v in samples.items() if v}


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER[name][0]


def print_table(title: str, summary: dict, names) -> None:
    print(f"== {title}")
    for k in names:
        s = summary.get(k)
        if s is None:
            print(f"  {k:<26} {'-':>14}          (layer not on this path)")
            continue
        moves = f"  -> {PER_LAYER[k][2]}" if k in PER_LAYER else ""
        print(f"  {k:<26} {s['value']:>14.6g} {unit_of(k):<6} "
              f"{s['stat']} of n={s['n']} [{s['min']:.6g}, {s['max']:.6g}]"
              f"{moves}")


def print_failed_frac(failed: int, attempted: int) -> None:
    print(f"  {'failed_frac':<26} {failed / max(attempted, 1):>14.6g} 1      "
          f"{failed} failed of n={attempted} runs")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 tally: Tally, shas: dict, repeats: int | None = None,
                 baseline: list | None = None) -> dict:
    """Summaries and raw samples of one workload, printed as it goes.
    `repeats` overrides the number of setup runs (untraced) or import
    probes (traced)."""
    a0, f0 = tally.attempted, tally.failed
    if trace:
        res = measure_traced(w, seed, seconds, tally,
                             repeats or IMPORT_PROBES, baseline)
        names = PER_LAYER
    else:
        res = measure_untraced(w, seed, seconds, tally, repeats or SETUP_RUNS)
        names = END_TO_END
    shas[w.name] = res["config_sha256"]
    summary = summarize(res["samples"])
    print_table(f"{w.name} ({'traced' if trace else 'untraced'})",
                summary, names)
    print_failed_frac(tally.failed - f0, tally.attempted - a0)
    return {"summary": summary, "samples": res["samples"],
            "attempted": tally.attempted - a0, "failed": tally.failed - f0}


def check_mode(seed: int) -> int:
    """One pass over every workload: one setup run, one untraced run and
    one traced run each, every metric printed with its unit."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = ({m["name"] for m in bench["end_to_end"]},
              {m["name"] for m in bench["per_layer"]},
              {m["name"] for m in bench["workloads"]})
    if listed != (set(END_TO_END), set(PER_LAYER), set(WORKLOADS)):
        print("error: BENCHMARK.json and perfbench/run.py list different "
              "metrics or workloads", file=sys.stderr)
        return 1
    tally = Tally(deadline=time.perf_counter() + 3 * BUDGET_S)
    shas: dict = {}
    # Untraced runs first: a child forked after a traced run in this
    # process would inherit this process's peak RSS in its rusage.
    walls = {w.name: run_workload(w, seed, 0, False, tally, shas, 1)
             ["samples"]["wall_s"] for w in WORKLOADS.values()}
    for w in WORKLOADS.values():
        run_workload(w, seed, 0, True, tally, shas, 1, walls[w.name])
    print(json.dumps({"provenance": provenance(seed, tally, shas)},
                     indent=1))
    for e in tally.errors:
        print(f"FAILED {e}")
    print("== all workloads")
    print_failed_frac(tally.failed, tally.attempted)
    return 1 if tally.failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="trajectory seed (taken mod 2**63)")
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="time spent on the measured runs of a workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run every workload once through its checks")
    args = ap.parse_args(argv)

    if not (SRC / "pnrsim" / "cli.py").is_file():
        print(f"error: no pnrsim sources under {SRC}", file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 63
    if args.check:
        return check_mode(seed)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tally = Tally(deadline=time.perf_counter() + BUDGET_S * len(names))
    shas: dict = {}
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], seed, args.seconds,
                                     bool(args.trace), tally, shas)

    prov = provenance(seed, tally, shas)
    print(json.dumps({"provenance": prov}, indent=1))
    for e in tally.errors:
        print(f"FAILED {e}")

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for k in wanted:
            # a layer off this workload's path did no work: report 0
            s = res["summary"].get(k)
            value = s["value"] if s else 0.0
            metrics[prefix + k] = {"value": value, "unit": unit_of(k)}

    record = {"workloads": names, "trace": bool(args.trace),
              "seconds": args.seconds, "results": results,
              "errors": tally.errors, "provenance": prov}
    OUT.mkdir(exist_ok=True)
    tag = "all" if len(names) > 1 else names[0]
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
