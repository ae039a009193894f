"""In-process tracing of one CLI run: spans at each layer boundary.

`traced(pnrsim, tracer)` patches the public functions the CLI calls at each layer
boundary with wrappers that record a span (name, start, end, parent,
thread, counts) and restores them on exit. Nothing in the package is
edited; the wrappers live only in the benchmark's process. Spans stay in
memory until `layer_metrics` reduces them and the caller writes them out.

Pool threads start with an empty span stack, so their spans take the
open root span (`cli.main`) as parent. Layer times are busy times: the
sum over a layer's outermost spans, across threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        s = Span(next(self._ids), name, 0.0,
                 parent=parent.id if parent else None,
                 thread=threading.get_ident())
        if parent is None:
            self._root = s
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)
            if s is self._root:
                self._root = None

    def wrap(self, name: str, fn, counts=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if counts is not None:
                    s.counts.update(counts(out))
                return out
        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "thread": s.thread, "counts": s.counts}
                for s in sorted(self.spans, key=lambda s: s.start)]


def _hierarchy_counts(run):
    d = run.diagnostics
    return {"nfev": int(d["nfev"]), "size": int(d["size"]),
            "trace_defect": float(d["trace_defect"])}


def _trajectory_counts(recs):
    return {"steps": sum(int(r.meta["n_steps"]) for r in recs)}


@contextmanager
def traced(pnrsim, tracer: Tracer):
    """Patch the layer boundaries of `pnrsim` (the imported package) for
    the duration of the block."""
    cli = pnrsim.cli
    run_config = pnrsim.config.RunConfig
    arch_spec = pnrsim.architectures.ArchitectureSpec
    # (owner, attribute, span name, counts taken from the result)
    targets = [
        (run_config, "from_file", "config.resolve", None),
        (run_config, "from_dict", "config.resolve", None),
        (run_config, "with_values", "config.resolve", None),
        (run_config, "build_architecture", "architectures.build", None),
        (run_config, "build_field", "pulses.build", None),
        (arch_spec, "counting", "liouville.counting", None),
        (cli, "integrate_hierarchy", "hierarchy.solve", _hierarchy_counts),
        (cli, "detection_probabilities", "metrics.post", None),
        (cli, "efficiency", "metrics.post", None),
        (cli, "jitter", "metrics.post", None),
        (cli, "run_trajectories", "trajectories.run", _trajectory_counts),
        (cli, "ensemble_average", "trajectories.post", None),
        (cli, "extract_clicks", "trajectories.post", None),
    ]
    saved = []
    try:
        for owner, attr, name, counts in targets:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(tracer.wrap(name, raw.__func__, counts)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, counts))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[Span], root_name: str = "cli.main") -> dict:
    """Per-layer numbers from one traced run's spans.

    A layer's time sums its outermost spans only, so a span nested in one
    of the same name (from_file -> from_dict, jitter -> efficiency) is not
    counted twice. The root's self time is its duration minus the union of
    all other spans' intervals, which the pool threads may overlap.
    """
    by_id = {s.id: s for s in spans}

    def outermost(name):
        out = []
        for s in spans:
            if s.name != name:
                continue
            p = by_id.get(s.parent)
            while p is not None and p.name != name:
                p = by_id.get(p.parent)
            if p is None:
                out.append(s)
        return out

    def busy(name):
        return sum(s.duration for s in outermost(name))

    root = next(s for s in spans if s.name == root_name)
    solves = outermost("hierarchy.solve")
    # a call that raised has no counts; its run is failed and not reported
    nfev = [s.counts.get("nfev", 0) for s in solves]
    solve_s = busy("hierarchy.solve")
    traj_s = busy("trajectories.run")
    steps = sum(s.counts.get("steps", 0)
                for s in outermost("trajectories.run"))
    return {
        "cli.wall_s": root.duration,
        "cli.self_s": root.duration - _union_length(
            (s.start, s.end) for s in spans if s is not root),
        "config.resolve_s": busy("config.resolve"),
        "architectures.build_s": busy("architectures.build"),
        "pulses.build_s": busy("pulses.build"),
        "liouville.counting_s": busy("liouville.counting"),
        "hierarchy.solve_s": solve_s,
        "hierarchy.solves": len(solves),
        "hierarchy.nfev": sum(nfev),
        "hierarchy.nfev_max": max(nfev, default=0),
        "hierarchy.state_len": max(
            (s.counts.get("size", 0) for s in solves), default=0),
        "hierarchy.us_per_rhs": 1e6 * solve_s / sum(nfev) if nfev else 0.0,
        "hierarchy.trace_defect": max(
            (s.counts.get("trace_defect", 0.0) for s in solves), default=0.0),
        "metrics.post_s": busy("metrics.post"),
        "trajectories.run_s": traj_s,
        "trajectories.steps": steps,
        "trajectories.us_per_step": 1e6 * traj_s / steps if steps else 0.0,
        "trajectories.post_s": busy("trajectories.post"),
    }
