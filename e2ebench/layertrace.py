"""Span tracer for the traced benchmark run.

The tracer installs wrappers on attributes of qnslab modules and classes, at
the names the calling code looks up (for example ``qnslab.qns_engine.
mean_over_ball``, not the definition in ``qnslab.quadrature``), so no program
code changes.  Each wrapper records one span: name, start, end and the span
that was open when it started.  Every thread keeps its own stack of open
spans, and work handed to the quadrature thread pool inherits the span that
submitted it, so worker-thread spans nest under the mean that started them.

Spans stay in memory until the traced operation ends and are reduced outside
its timed region.  A span's self time is its duration minus the part its
children cover.  Where spans of several threads are open at once, the shared
wall time is split evenly between the innermost open spans, so the self times
of all spans add up to the wall time of the root span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
from collections import defaultdict
from time import perf_counter

ROOT_SPAN = "unattributed"

# Per-layer metric names and units, in report order.  Self times are seconds
# per operation; counts are per operation.
LAYER_METRICS = {
    "counterexample.self_s": "s",
    "counterexample.probes": "count",
    "qns_engine.self_s": "s",
    "qns_engine.probes": "count",
    "qns_engine.skipped": "count",
    "quadrature.mean_over_ball.calls": "count",
    "quadrature.mean_over_ball.self_s": "s",
    "quadrature.mean_over_ball.samples": "count",
    "quadrature.mean_over_ball.p50_us": "us",
    "quadrature.mean_over_ball.p99_us": "us",
    "quadrature.sample_in_ball.self_s": "s",
    "quadrature.sample_in_ball.points": "count",
    "quadrature.mean_over_image.calls": "count",
    "quadrature.mean_over_image.self_s": "s",
    "quadrature.mean_over_image.samples": "count",
    "quadrature.mean_over_image.p50_us": "us",
    "quadrature.mean_over_image.p99_us": "us",
    "quadrature.image_useful_frac": "ratio",
    "quadrature.seed.calls": "count",
    "quadrature.seed.self_s": "s",
    "quadrature.target_met_frac": "ratio",
    "quadrature.capped": "count",
    "regions.contains_many.calls": "count",
    "regions.contains_many.points": "count",
    "regions.contains_many.self_s": "s",
    "backend.contains_many.self_s": "s",
    "backend.contains_many.mpts_per_s": "Mpts/s",
    # Computed from array sizes (points x dim x 8 bytes in, 1 byte per point
    # out); cache misses are not counted.
    "backend.contains_many.bytes_computed": "B",
    "regions.ball_in_region.calls": "count",
    "regions.ball_in_region.self_s": "s",
    "regions.ball_in_region.rejected": "count",
    "regions.ball_in_region.sampled_frac": "ratio",
    "fields.evaluate_many.calls": "count",
    "fields.evaluate_many.points": "count",
    "fields.evaluate_many.self_s": "s",
    "geometry.apply_many.calls": "count",
    "geometry.apply_many.points": "count",
    "geometry.apply_many.self_s": "s",
    "cli.check_qns.self_s": "s",
    "unattributed.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# Span names whose self times are listed; with the root span they cover every
# span the tracer records.
SELF_TIMED = tuple(k[: -len(".self_s")] for k in LAYER_METRICS if k.endswith(".self_s") and k != "unattributed.self_s")


WORKER_TASK = "worker task"


def _keep_worker(args, kwargs, result):
    return WORKER_TASK


def _keep_call(args, kwargs, result):
    return args, kwargs, result


def _keep_len_arg1(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["pts"])


def _keep_region_points(args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    return id(args[0]), len(pts)


def _keep_kernel_points(args, kwargs, result):
    pts = args[-1] if args else kwargs["pts"]
    return pts.shape[0], pts.shape[1]


def _keep_result_rows(args, kwargs, result):
    return result.shape[0]


def _keep_containment(args, kwargs, result):
    region = args[0] if args else kwargs["region"]
    return id(region), bool(result[0])


class Tracer:
    """Records spans from wrappers it installs; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans = []  # (sid, name, parent sid, start, end, kept)
        self.hooks = []  # "owner.attr" of each wrapper the last install placed
        self._ids = itertools.count(1)
        self._local = threading.local()  # .stack: (sid, name) of this thread's open spans
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, keep=None, parent: int | None = None):
        """Wrap ``fn`` in a span; ``keep(args, kwargs, result)`` stores a small record.

        ``parent`` fixes the parent span, for work that runs on another thread.
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            up = parent if parent is not None else (stack[-1][0] if stack else 0)
            stack.append((sid, name))
            kept = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    kept = keep(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, up, t0, t1, kept))

        return traced

    def patch(self, owner, attr: str, name: str, keep=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper; absent attributes are skipped."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, self.wrap(original, name, keep))
        self._undo.append((owner, attr, original))
        self.hooks.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")

    def patch_executor(self, module) -> None:
        """Run each task of the module's thread pool in a span under the span that submitted it.

        The task span takes the submitting span's name, so work a worker does
        outside any wrapped call (RNG setup, partial sums) counts toward the
        layer that started it.
        """
        base = getattr(module, "ThreadPoolExecutor", None)
        if base is None:
            return
        tracer = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                if stack:
                    sid, name = stack[-1]
                    fn = tracer.wrap(fn, name, _keep_worker, parent=sid)
                return super().submit(fn, *args, **kwargs)

        module.ThreadPoolExecutor = TracedExecutor
        self._undo.append((module, "ThreadPoolExecutor", base))
        self.hooks.append(f"{module.__name__}.ThreadPoolExecutor")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def run_root(self, fn):
        """Call ``fn()`` inside the root span; returns its result."""
        return self.wrap(fn, ROOT_SPAN)()

    def take_spans(self) -> list:
        spans = self.spans[:]
        del self.spans[:]
        return spans


def install(tracer: Tracer, qnslab_modules: dict, kernel_site) -> None:
    """Install every layer hook; ``kernel_site`` is (owner, attr) of the membership kernel."""
    m = qnslab_modules
    tracer.hooks.clear()
    for mod in (m["counterexample"], m["qns_engine"]):
        tracer.patch(mod, "mean_over_ball", "quadrature.mean_over_ball", _keep_call)
    tracer.patch(m["qns_engine"], "mean_over_image", "quadrature.mean_over_image", _keep_call)
    for attr in ("certify_restricted", "certify_failure"):
        tracer.patch(m["counterexample"], attr, "counterexample", _keep_call)
    for attr in ("estimate_K", "generalized_test"):
        tracer.patch(m["qns_engine"], attr, "qns_engine", _keep_call)
    tracer.patch(m["cli"], "estimate_K", "qns_engine", _keep_call)
    quadrature = m["quadrature"]
    tracer.patch(quadrature, "sample_in_ball", "quadrature.sample_in_ball", _keep_result_rows)
    tracer.patch(quadrature.QuadratureSpec, "child", "quadrature.seed")
    for mod in (quadrature, m["counterexample"], m["cli"]):
        tracer.patch(mod, "derive_seed", "quadrature.seed")
    tracer.patch(quadrature, "ball_in_region", "regions.ball_in_region", _keep_containment)
    tracer.patch_executor(quadrature)
    tracer.patch(m["regions"].Region, "contains_many", "regions.contains_many", _keep_region_points)
    if kernel_site is not None:
        tracer.patch(kernel_site[0], kernel_site[1], "backend.contains_many", _keep_kernel_points)
    tracer.patch(m["fields"].Field, "evaluate_many", "fields.evaluate_many", _keep_len_arg1)
    tracer.patch(m["geometry"].Similarity, "apply_many", "geometry.apply_many", _keep_len_arg1)
    check_qns = m["cli"].main.commands.get("check-qns")
    if check_qns is not None:
        tracer.patch(check_qns, "callback", "cli.check_qns")


def self_times(spans) -> dict:
    """Wall time per span name, split evenly between the innermost open spans."""
    events = []
    parent_of = {}
    name_of = {}
    for sid, name, parent, t0, t1, _ in spans:
        parent_of[sid] = parent
        name_of[sid] = name
        events.append((t0, 1, sid))
        events.append((t1, 0, sid))
    events.sort()
    totals = defaultdict(float)
    open_children = defaultdict(int)
    active = set()
    leaves = set()
    prev = None
    for t, starting, sid in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                totals[name_of[leaf]] += share
        prev = t
        parent = parent_of[sid]
        if starting:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return totals


def _quantile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


class LayerTotals:
    """Per-layer sums over traced operations.

    ``quadrature`` is the qnslab module whose mean functions' signatures name
    the arguments read from each recorded call.
    """

    def __init__(self, quadrature):
        self.signatures = {
            "quadrature.mean_over_ball": inspect.signature(quadrature.mean_over_ball),
            "quadrature.mean_over_image": inspect.signature(quadrature.mean_over_image),
        }
        self.ops = 0
        self.traced_wall = 0.0
        self.sums = defaultdict(float)
        self.durations = defaultdict(list)

    def add(self, spans: list) -> None:
        s = self.sums
        self.ops += 1
        for name, t in self_times(spans).items():
            s[f"{name}.self_s"] += t
        by_id = {sp[0]: sp for sp in spans}
        image_regions = {}
        sampled_containment = set()
        for sid, name, parent, t0, t1, kept in spans:
            if name == ROOT_SPAN:
                self.traced_wall += t1 - t0
            elif name == "quadrature.seed":
                if by_id.get(parent, (0, ""))[1] != "quadrature.seed":
                    s["quadrature.seed.calls"] += 1
            elif kept is None or kept is WORKER_TASK:
                continue  # the call raised (a containment skip is counted by the engine), or a pool task
            elif name in ("quadrature.mean_over_ball", "quadrature.mean_over_image"):
                self._add_mean(name, sid, t1 - t0, kept, image_regions)
            elif name in ("counterexample", "qns_engine"):
                self._add_engine(name, kept)
            elif name == "regions.ball_in_region":
                s["regions.ball_in_region.calls"] += 1
                s["regions.ball_in_region.rejected"] += not kept[1]
            elif name == "regions.contains_many":
                s["regions.contains_many.calls"] += 1
                s["regions.contains_many.points"] += kept[1]
            elif name == "backend.contains_many":
                n, dim = kept
                s["backend.contains_many.points"] += n
                s["backend.contains_many.bytes_computed"] += n * dim * 8 + n
            elif name == "quadrature.sample_in_ball":
                s["quadrature.sample_in_ball.points"] += kept
            elif name in ("fields.evaluate_many", "geometry.apply_many"):
                s[f"{name}.calls"] += 1
                s[f"{name}.points"] += kept
        for sid, name, parent, t0, t1, kept in spans:
            if name != "regions.contains_many":
                continue
            region_id = kept[0]
            owner = by_id.get(parent)
            if owner is not None and owner[1] == "regions.ball_in_region" and owner[5][0] == region_id:
                sampled_containment.add(parent)
            # candidates tested against D: the nearest enclosing image mean sampled D
            while owner is not None and owner[1] != "quadrature.mean_over_image":
                owner = by_id.get(owner[2])
            if owner is not None and image_regions.get(owner[0]) == region_id:
                s["image.candidates"] += kept[1]
        s["regions.ball_in_region.sampled"] += len(sampled_containment)

    def _add_mean(self, name, sid, duration, kept, image_regions) -> None:
        s = self.sums
        args, kwargs, result = kept
        bound = self.signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        spec = bound.arguments["spec"]
        exact = result.method == "exact"
        met = exact or result.stderr <= spec.target_rel_error * abs(result.mean)
        s[f"{name}.calls"] += 1
        s[f"{name}.samples"] += result.n_samples
        s["means"] += 1
        s["means.target_met"] += met
        s["quadrature.capped"] += (not met) and result.n_samples >= spec.max_samples
        self.durations[name].append(duration * 1e6)
        if name == "quadrature.mean_over_image" and not exact:
            image_regions[sid] = id(bound.arguments["d"].region)
            s["image.kept"] += result.n_samples

    def _add_engine(self, name, kept) -> None:
        _, _, report = kept
        if name == "counterexample":
            probes = getattr(report, "probes", None)
            self.sums["counterexample.probes"] += len(report.rows) if probes is None else probes
        else:
            self.sums["qns_engine.probes"] += report.probes_used + report.probes_skipped
            self.sums["qns_engine.skipped"] += report.probes_skipped

    def metrics(self, untraced_wall: float) -> dict:
        """Per-operation values for every name in LAYER_METRICS."""
        n = max(self.ops, 1)
        s = self.sums
        out = {}
        for key in LAYER_METRICS:
            out[key] = s.get(key, 0.0) / n
        for name in ("quadrature.mean_over_ball", "quadrature.mean_over_image"):
            out[f"{name}.p50_us"] = _quantile(self.durations[name], 0.50)
            out[f"{name}.p99_us"] = _quantile(self.durations[name], 0.99)
        out["quadrature.image_useful_frac"] = s["image.kept"] / s["image.candidates"] if s["image.candidates"] else 0.0
        out["quadrature.target_met_frac"] = s["means.target_met"] / s["means"] if s["means"] else 0.0
        kernel_s = s["backend.contains_many.self_s"]
        out["backend.contains_many.mpts_per_s"] = s["backend.contains_many.points"] / kernel_s / 1e6 if kernel_s else 0.0
        calls = s["regions.ball_in_region.calls"]
        out["regions.ball_in_region.sampled_frac"] = s["regions.ball_in_region.sampled"] / calls if calls else 0.0
        wall = self.traced_wall / n
        listed = sum(out[f"{name}.self_s"] for name in SELF_TIMED)
        out["unattributed.self_s"] = wall - listed
        out["trace.wall_s"] = wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_s"] = wall - untraced_wall
        return out
