"""Spans and counters around chaoslab's public functions, installed from outside.

A traced repetition replaces each target function by a wrapper on every name
that binds it in a loaded ``chaoslab`` module (modules import by name, so
``chaoslab.fbm.normal_rows`` and ``chaoslab.limits.normal_rows`` are separate
bindings of ``chaoslab.rng.normal_rows``).  ``WeightFunction.__call__`` is
replaced on the class.  Each call records a span ``[name, start, end, parent]``
in memory; counts such as normals requested are derived from the call
arguments.  The per-layer metrics are computed from one repetition's spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import threading
import time
import weakref

# Span name, defining module, attribute (``Class.method`` for methods).
TARGETS = (
    ("rng.normal_rows", "chaoslab.rng", "normal_rows"),
    ("fbm.sample_paths", "chaoslab.fbm", "sample_paths"),
    ("fbm.cholesky", "chaoslab.fbm", "cholesky"),
    ("fbm.embedding_spectrum", "chaoslab.fbm", "embedding_spectrum"),
    ("fbm.bounds_suite", "chaoslab.fbm", "bounds_suite"),
    ("weights.eval", "chaoslab.weights", "WeightFunction.__call__"),
    ("hermite.eval", "chaoslab.hermite", "hermite_eval"),
    ("variations.full_variation", "chaoslab.variations", "full_variation"),
    ("variations.sigma_hq", "chaoslab.variations", "sigma_hq"),
    ("limits.sample_mixture_limit", "chaoslab.limits", "sample_mixture_limit"),
    ("limits.ks_two_sample", "chaoslab.limits", "ks_two_sample"),
    ("limits.conditional_cf_test", "chaoslab.limits", "conditional_cf_test"),
    ("limits.chaos2_fourth_moment_exact", "chaoslab.limits", "chaos2_fourth_moment_exact"),
    ("limits.berry_esseen_check", "chaoslab.limits", "berry_esseen_check"),
    ("limits.brownian_example_run", "chaoslab.limits", "brownian_example_run"),
    ("experiments.mixture_comparison", "chaoslab.experiments", "mixture_comparison"),
    ("identities.run_identity_suite", "chaoslab.identities", "run_identity_suite"),
    ("polyrv.wick_expectation", "chaoslab.polyrv", "wick_expectation"),
    ("malliavin.skorohod", "chaoslab.malliavin", "skorohod"),
    ("malliavin.derivative", "chaoslab.malliavin", "derivative"),
    ("cli.main", "chaoslab.cli", "main"),
)

# Per-layer metrics: name -> (unit, better, what it should move).  The order
# is the order of BENCHMARK.json's per_layer list.
LAYER_METRICS = {
    "rng.normal_rows.s": ("s", "lower", "wall_s on mixture-central and berry-esseen"),
    "rng.normal_rows.calls": ("count", "lower", "wall_s on the three Monte Carlo workloads"),
    "rng.normals_requested": ("count", "lower", "nothing: fixed by the workload"),
    "rng.normals_generated": ("count", "lower", "wall_s on mixture-central and berry-esseen"),
    "rng.useful_ratio": ("ratio", "higher", "wall_s on mixture-central and berry-esseen; already 1 on brownian-example"),
    "rng.normals_per_s": ("1/s", "higher", "wall_s on all three Monte Carlo workloads, without raising peak_rss_mb"),
    "fbm.sample_paths.s": ("s", "lower", "wall_s on mixture-central and berry-esseen"),
    "fbm.sample_paths.self_s": ("s", "lower", "wall_s on mixture-central and berry-esseen"),
    "fbm.sample_paths.calls": ("count", "lower", "wall_s on berry-esseen"),
    "fbm.factorizations": ("count", "lower", "wall_s on berry-esseen only"),
    "fbm.spectra": ("count", "lower", "wall_s on mixture-central"),
    "fbm.path_increments": ("count", "lower", "nothing: fixed by the workload"),
    "fbm.increments_per_s": ("1/s", "higher", "wall_s on mixture-central and berry-esseen"),
    "fbm.batch_bytes": ("B_computed", "lower", "peak_rss_mb on mixture-central"),
    "fbm.bounds_suite.s": ("s", "lower", "wall_s on exact-oracle"),
    "weights.eval.s": ("s", "lower", "wall_s on mixture-central only"),
    "weights.eval.calls": ("count", "lower", "wall_s on mixture-central only"),
    "weights.eval.elements": ("count", "lower", "wall_s on mixture-central only"),
    "weights.eval.repeat_ratio": ("ratio", "lower", "wall_s on mixture-central only"),
    "hermite.eval.s": ("s", "lower", "wall_s on mixture-central"),
    "hermite.eval.elements": ("count", "lower", "wall_s on mixture-central"),
    "variations.full_variation.s": ("s", "lower", "wall_s on mixture-central"),
    "variations.full_variation.self_s": ("s", "lower", "wall_s on mixture-central"),
    "variations.sigma_hq.s": ("s", "lower", "wall_s on exact-oracle; not mixture-central"),
    "variations.sigma_hq.calls": ("count", "lower", "wall_s on exact-oracle"),
    "limits.sample_mixture_limit.s": ("s", "lower", "wall_s on mixture-central"),
    "limits.sample_mixture_limit.self_s": ("s", "lower", "wall_s on mixture-central"),
    "limits.ks_two_sample.s": ("s", "lower", "wall_s on mixture-central and brownian-example"),
    "limits.conditional_cf_test.s": ("s", "lower", "wall_s on mixture-central and brownian-example"),
    "limits.chaos2_fourth_moment_exact.s": ("s", "lower", "wall_s on exact-oracle"),
    "limits.berry_esseen_check.self_s": ("s", "lower", "wall_s on berry-esseen"),
    "limits.brownian_example_run.self_s": ("s", "lower", "wall_s and peak_rss_mb on brownian-example"),
    "experiments.mixture_comparison.self_s": ("s", "lower", "wall_s on mixture-central"),
    "identities.run_identity_suite.s": ("s", "lower", "wall_s on exact-oracle only"),
    "identities.instances_per_s": ("1/s", "higher", "wall_s on exact-oracle only"),
    "polyrv.wick_expectation.s": ("s", "lower", "wall_s on exact-oracle only"),
    "polyrv.wick_expectation.calls": ("count", "lower", "wall_s on exact-oracle only"),
    "malliavin.skorohod.s": ("s", "lower", "wall_s on exact-oracle only"),
    "malliavin.derivative.s": ("s", "lower", "wall_s on exact-oracle only"),
    "cli.main.self_s": ("s", "lower", "wall_s on the three CLI workloads"),
    "report.bytes_written": ("B", "lower", "wall_s on the three CLI workloads"),
    "proc.cpu_s": ("s", "lower", "wall_s wherever work is removed; rises with threading"),
    "proc.cpu_per_wall": ("ratio", "higher", "wall_s on the three Monte Carlo workloads when blocks run in parallel"),
    "trace.overhead_frac": ("ratio", "lower", "nothing: the cost of tracing itself"),
}


def _count_normal_rows(counts, a):
    count, row_len, start = a["count"], a["row_len"], a["start"]
    block_rows = sys.modules["chaoslab.rng"].BLOCK_ROWS
    blocks = (start + count - 1) // block_rows - start // block_rows + 1 if count else 0
    counts["rng.normals_requested"] += count * row_len
    counts["rng.normals_generated"] += blocks * block_rows * row_len


def _count_sample_paths(counts, a):
    m, n = a["m"], a["grid"].n
    counts["fbm.path_increments"] += m * n
    # increments (m, n) plus levels (m, n + 1) as float64; computed, not measured
    counts["fbm.batch_bytes"] += m * (2 * n + 1) * 8


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class _RepeatTracker:
    """Counts weight evaluations on an (array buffer, order) pair already seen.

    Buffers are keyed by their root array, held weakly, so a freed buffer
    whose address is reused by a later chunk does not count as a repeat.
    """

    def __init__(self):
        self.seen: dict[int, tuple[weakref.ref, set]] = {}

    def is_repeat(self, x, order) -> bool:
        root = x
        while getattr(root, "base", None) is not None:
            root = root.base
        try:
            ref = weakref.ref(root)
        except TypeError:
            return False
        entry = self.seen.get(id(root))
        if entry is None or entry[0]() is not root:
            entry = (ref, set())
            self.seen[id(root)] = entry
        iface = x.__array_interface__
        key = (iface["data"][0], iface["shape"], iface["strides"], order)
        repeat = key in entry[1]
        entry[1].add(key)
        return repeat


class Tracer:
    """Installs wrappers around TARGETS and records their spans in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self.counts: collections.Counter = collections.Counter()
        self.reps: list[list[list]] = []  # the spans of every finished repetition
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list = []
        self._main_thread = threading.main_thread()
        self._lock = threading.Lock()
        self.reset()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter=None):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span belongs to the span the main
                # thread is waiting in
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with tracer._lock:
                    counter(tracer.counts, bound.arguments)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count_weights(self, counts, a):
        x = a["x"]
        counts["weights.eval.elements"] += _size(x)
        if hasattr(x, "__array_interface__") and self._repeats.is_repeat(x, a["order"]):
            counts["weights.eval.repeats"] += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        counters = {
            "rng.normal_rows": _count_normal_rows,
            "fbm.sample_paths": _count_sample_paths,
            "hermite.eval": lambda counts, a: counts.update({"hermite.eval.elements": _size(a["x"])}),
            "identities.run_identity_suite": lambda counts, a: counts.update({"identities.instances": a["instances"]}),
            "weights.eval": self._count_weights,
        }
        self.missing = []
        modules = [m for k, m in sorted(sys.modules.items()) if k == "chaoslab" or k.startswith("chaoslab.")]
        for name, module_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    self._set(cls, method, self._wrap(name, original, counters.get(name)))
                    continue
                original = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counters.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, key, wrapper) -> None:
        self._installed.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    def reset(self) -> None:
        """Start a new repetition; the previous one's spans are kept in ``reps``."""
        if self.spans:
            self.reps.append(self.spans)
        self.spans = []
        self.counts = collections.Counter()
        self._repeats = _RepeatTracker()


    def export(self) -> list[list]:
        """Every recorded span as ``[repetition, name, start, end, parent index]``."""
        rows = []
        for rep, spans in enumerate(self.reps + ([self.spans] if self.spans else [])):
            index = {id(span): i for i, span in enumerate(spans)}
            rows.extend(
                [rep, s[0], s[1], s[2], None if s[3] is None else index.get(id(s[3]))]
                for s in spans
            )
        return rows


# -- span arithmetic ----------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (union of its spans), self seconds.

    Self time is a span's duration minus the part of it that its child spans
    cover; inclusive time counts a recursive or parallel overlap once.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append(span)
    out: dict[str, dict[str, float]] = {}
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
    for name, group in by_name.items():
        self_s = 0.0
        for span in group:
            kids = children.get(id(span), ())
            covered = union_length((max(k[1], span[1]), min(k[2], span[2])) for k in kids if k[2] > span[1] and k[1] < span[2])
            self_s += (span[2] - span[1]) - covered
        out[name] = {
            "calls": float(len(group)),
            "s": union_length((s[1], s[2]) for s in group),
            "self_s": self_s,
        }
    return out


def layer_metrics(spans, counts, *, bytes_written: int) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (proc.* and trace.* excluded).

    ``<span>.s``, ``<span>.self_s`` and ``<span>.calls`` come from the spans
    of that name; the rest are counts and ratios derived from them.
    """
    totals = span_totals(spans)
    span_names = {name for name, _, _ in TARGETS}

    def get(name, field):
        return totals.get(name, {}).get(field, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if span in span_names and field in ("s", "self_s", "calls"):
            out[metric] = get(span, field)
    out.update({name: float(counts[name]) for name in (
        "rng.normals_requested", "rng.normals_generated", "fbm.path_increments",
        "fbm.batch_bytes", "weights.eval.elements", "hermite.eval.elements",
    )})
    out.update({
        "rng.useful_ratio": ratio(counts["rng.normals_requested"], counts["rng.normals_generated"]),
        "rng.normals_per_s": ratio(counts["rng.normals_generated"], get("rng.normal_rows", "s")),
        "fbm.factorizations": get("fbm.cholesky", "calls"),
        "fbm.spectra": get("fbm.embedding_spectrum", "calls"),
        "fbm.increments_per_s": ratio(counts["fbm.path_increments"], get("fbm.sample_paths", "s")),
        "weights.eval.repeat_ratio": ratio(counts["weights.eval.repeats"], get("weights.eval", "calls")),
        "identities.instances_per_s": ratio(counts["identities.instances"], get("identities.run_identity_suite", "s")),
        "report.bytes_written": float(bytes_written),
    })
    return out
