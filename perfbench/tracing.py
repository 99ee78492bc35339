"""Outside-in spans for the traced benchmark run.

`install` replaces public functions of obstruction_lab with timing wrappers,
at the name each caller looks up (`sweeps.in_class_e` is a different binding
from `detectors.in_class_e`).  Nothing under src/ changes.  A span is
[name, start, end, parent index, value], where value is what the layer
metrics need from the call's result.  Spans stay in memory; forked pool
workers append theirs to a spool file after each job, and `collect` merges
them into the parent's list once the workload is done.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

DETECTORS = ("find_hole", "find_theta", "find_prism", "find_even_wheel")


class Tracer:
    def __init__(self, spool: Path):
        self.spans: list[list] = []
        self.stack = [-1]
        self.pid = os.getpid()
        self.spool = spool
        spool.mkdir(parents=True, exist_ok=True)
        for old in spool.glob("*.pkl"):
            old.unlink()

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self.stack[-1], None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list):
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, value=None):
        """`fn` inside a span; `value(args, result)` is stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if value is not None:
                span[4] = value(args, out)
            return out

        return traced

    def wrap_job(self, fn, cache_info):
        """The per-parent sweep job: records canonical-cache hits and misses,
        and in a pool worker the pickled result size, then spills the spans."""

        @functools.wraps(fn)
        def job(*args):
            before = cache_info()
            mark = len(self.spans)
            span = self.open("sweeps.job")
            try:
                out = fn(*args)
            finally:
                self.close(span)
            after = cache_info()
            forked = os.getpid() != self.pid
            size = len(ForkingPickler.dumps(out)) if forked else 0
            span[4] = (after.hits - before.hits, after.misses - before.misses, size)
            if forked:
                with open(self.spool / f"{os.getpid()}.pkl", "ab") as fh:
                    pickle.dump((mark, self.spans[mark:]), fh)
                del self.spans[mark:]
            return out

        return job

    def collect(self):
        """Merge the spans pool workers spilled, re-basing their indices."""
        for path in sorted(self.spool.glob("*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        mark, spans = pickle.load(fh)
                    except EOFError:
                        break
                    offset = len(self.spans)
                    for span in spans:
                        if span[3] >= mark:
                            span[3] += offset - mark
                        self.spans.append(span)
            path.unlink()

    def write(self, path: Path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


class _TracedPool:
    """Pool stand-in whose lifetime, fork and teardown included, is one span."""

    def __init__(self, tracer: Tracer, ctx, args, kwargs):
        self.tracer = tracer
        self.span = tracer.open("sweeps.pool")
        self.pool = ctx.Pool(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            return self.pool.__exit__(*exc)
        finally:
            self.tracer.close(self.span)

    def map(self, *args, **kwargs):
        return self.pool.map(*args, **kwargs)


class _TracedContext:
    def __init__(self, tracer: Tracer, ctx):
        self.tracer, self.ctx = tracer, ctx

    def Pool(self, *args, **kwargs):
        return _TracedPool(self.tracer, self.ctx, args, kwargs)


def install(tracer: Tracer):
    """Wrap each layer's public functions where their callers look them up."""
    from obstruction_lab import cli, detectors, enumeration, finders, sweeps

    def patch(module, attr, name, value=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), value))

    patch(enumeration, "canonical_form", "enumeration.canonical_form")
    patch(enumeration, "canonical_cert", "enumeration.canonical_cert")
    patch(enumeration, "add_vertex", "graphs.add_vertex")
    patch(sweeps, "add_vertex", "graphs.add_vertex")
    patch(sweeps, "expand_children", "enumeration.expand_children", lambda a, out: (1 << a[0].n, len(out)))
    for fn in DETECTORS:
        for module in (detectors, sweeps):
            patch(module, fn, f"detectors.{fn}", lambda a, out: out is not None)
    patch(detectors, "in_class_et", "detectors.verdict", lambda a, out: out.member)
    for module in (detectors, sweeps, cli):
        patch(module, "write_graph6", "graphs.write_graph6")
    patch(cli, "parse_graph6", "graphs.parse_graph6")
    patch(cli, "_cmd_check", "cli.check")
    patch(sweeps, "eligible_pairs", "minors.eligible_pairs")
    patch(sweeps, "triangle_minor", "minors.triangle_minor")
    patch(sweeps, "validate_embedding", "ktrees.validate_embedding")
    patch(sweeps, "verify_blurry", "predicates.verify_blurry")
    patch(finders, "verify_blurry", "predicates.verify_blurry")
    patch(sweeps, "extract_induced_from_blurry", "finders.extract_induced_from_blurry",
          lambda a, out: out.fallback_used)
    patch(sweeps, "_run_levels", "sweeps.run_levels")
    # jobs pickle the prune and the processor by name, so the module
    # attribute has to be the wrapper too; sweeps may share a prune
    wrapped = {}

    def once(name, fn, value=None):
        if fn not in wrapped:
            wrapped[fn] = tracer.wrap(name, fn, value)
            setattr(sweeps, fn.__name__, wrapped[fn])
        return wrapped[fn]

    for key, (prune, processor) in list(sweeps.PROCESSORS.items()):
        sweeps.PROCESSORS[key] = (
            once("detectors.prune", prune, lambda a, out: not out),
            once("sweeps.processor", processor),
        )
    sweeps._expand_and_process = tracer.wrap_job(
        sweeps._expand_and_process, enumeration._canonical_cached.cache_info
    )
    get_context = sweeps.get_context
    sweeps.get_context = lambda method: _TracedContext(tracer, get_context(method))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the part covered by direct children; parallel children
    can cover more than their parent, which then has no self time."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [max(0.0, end - start - covered[i]) for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans: list[list], threads: int, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics; every time is multiplied by `scale`."""
    own = self_times(spans)
    dur: dict[str, list[float]] = defaultdict(list)
    vals: dict[str, list] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    roots = 0.0
    for (name, start, end, parent, value), s in zip(spans, own):
        dur[name].append((end - start) * scale)
        vals[name].append(value)
        self_s[name] += s * scale
        if parent < 0:
            roots += (end - start) * scale

    def calls(name):
        return len(dur[name])

    def secs(name):
        return sum(dur[name])

    # What each group should move, and where (tracing off):
    # enumeration: graphs_per_s on thm31-serial and c4-pool, nothing elsewhere
    m: dict[str, float] = {}
    expand = vals["enumeration.expand_children"]
    jobs = vals["sweeps.job"]
    hits = sum(j[0] for j in jobs)
    misses = sum(j[1] for j in jobs)
    m["enumeration.candidates"] = sum(v[0] for v in expand)
    for fn in ("canonical_form", "canonical_cert"):
        m[f"enumeration.{fn}.calls"] = calls(f"enumeration.{fn}")
        m[f"enumeration.{fn}.s"] = secs(f"enumeration.{fn}")
    m["enumeration.cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["enumeration.accept_ratio"] = _ratio(sum(v[1] for v in expand), calls("enumeration.canonical_form"))

    # detectors: graphs_per_s on thm31-serial, c4-pool and check-corpus
    m["detectors.prune.calls"] = calls("detectors.prune")
    m["detectors.prune.s"] = secs("detectors.prune")
    m["detectors.prune.reject_ratio"] = _ratio(sum(vals["detectors.prune"]), calls("detectors.prune"))
    for fn in DETECTORS:
        name = f"detectors.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
        m[f"{name}.found_ratio"] = _ratio(sum(vals[name]), calls(name))
    verdicts = list(zip(dur["detectors.verdict"], vals["detectors.verdict"]))
    for label, member in (("member", True), ("violation", False)):
        ms = [d * 1e3 for d, v in verdicts if v is member]
        m[f"detectors.{label}_verdict.p50_ms"] = _pct(ms, 0.50)
        m[f"detectors.{label}_verdict.p99_ms"] = _pct(ms, 0.99)

    # minors: wall_s on thm31-serial and c4-pool
    for fn in ("eligible_pairs", "triangle_minor"):
        m[f"minors.{fn}.calls"] = calls(f"minors.{fn}")
        m[f"minors.{fn}.s"] = secs(f"minors.{fn}")

    # sweeps: wall_s, cpu_s and peak_rss_mb on c4-pool, nothing on thm31-serial
    job_ms = [d * 1e3 for d in dur["sweeps.job"]]
    m["sweeps.processor.self_s"] = self_s["sweeps.processor"]
    m["sweeps.job.p50_ms"] = _pct(job_ms, 0.50)
    m["sweeps.job.max_ms"] = max(job_ms, default=0.0)
    m["sweeps.pool.overhead_s"] = roots - sum(job_ms) / 1e3 / threads if job_ms else 0.0
    m["sweeps.pool.result_bytes"] = sum(j[2] for j in jobs)
    m["sweeps.merge_s"] = self_s["sweeps.run_levels"]

    # graphs: graphs_per_s on check-corpus, enumeration time on the sweeps
    m["graphs.add_vertex.calls"] = calls("graphs.add_vertex")
    m["graphs.add_vertex.s"] = secs("graphs.add_vertex")
    m["graphs.parse_graph6.s"] = secs("graphs.parse_graph6")
    m["graphs.write_graph6.calls"] = calls("graphs.write_graph6")
    m["graphs.write_graph6.s"] = secs("graphs.write_graph6")

    # ktrees, predicates, finders: graphs_per_s on blurry-suite only;
    # cli: graphs_per_s on check-corpus
    m["ktrees.validate_embedding.s"] = secs("ktrees.validate_embedding")
    m["predicates.verify_blurry.s"] = secs("predicates.verify_blurry")
    m["finders.extract_induced_from_blurry.s"] = secs("finders.extract_induced_from_blurry")
    m["finders.fallbacks"] = sum(vals["finders.extract_induced_from_blurry"])
    m["cli.check.self_s"] = self_s["cli.check"]
    return m


def shares(spans: list[list]) -> dict[str, float]:
    """Each module's share of all self time (busy time, summed over processes)."""
    own = self_times(spans)
    total = sum(own) or 1.0
    per: dict[str, float] = defaultdict(float)
    for (name, *_), s in zip(spans, own):
        per[name.split(".")[0]] += s
    return {k: v / total for k, v in sorted(per.items(), key=lambda kv: -kv[1])}
