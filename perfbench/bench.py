"""The benchmark's runs: the timed loop, the traced twins, metrics and checks.

Imported by run.py once ``src/`` is on the import path.
"""

import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import landmix.cli as cli
import landmix.data as data
import landmix.model as model
import landmix.oracle as oracle
import landmix.sampler as sampler
import workloads as W
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "cycle_s": "s",
    "sweeps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 3


def median(values):
    return statistics.median(values) if values else 0.0


# -- set-up ----------------------------------------------------------------------


def setup_seconds(probe_args):
    """One set-up in a fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *probe_args],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# -- exact counts ------------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(counts, args):
    """Counts that must repeat exactly for the same code, workload and seed.

    The first run records them under .perfbench_out/counts/; every later run
    with the same key compares against the record."""
    key = f"{source_digest()}-{args.workload}-{args.seed}-{'smoke' if args.smoke else 'full'}"
    path = OUT / "counts" / f"{key}.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    bad = [f"{k}: recorded {recorded[k]!r}, now {v!r}"
           for k, v in counts.items() if k in recorded and recorded[k] != v]
    if not bad:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**recorded, **counts}, indent=1, sort_keys=True) + "\n")
    return bad


# -- the runs --------------------------------------------------------------------------


class Run:
    """One benchmark run: its cycles, their outcomes and the exact counts."""

    def __init__(self, args, workload, workdir, timer):
        self.args = args
        self.w = workload
        self.workdir = workdir
        self.timer = timer
        self.inputs = {}
        self.attempted = 0
        self.failed = 0
        self.hard = []
        self.checks = 0
        self.misses = []
        self.counts = {}

    def cycle(self, k, span=None, counted=True):
        """Cycle ``k``; its inputs are made first, outside the timing.

        A repeat of a cycle (the warm-up, a traced twin) is not ``counted``:
        only its invariant violations are kept, so that no operation or
        tolerance check counts twice."""
        if k not in self.inputs:
            self.inputs[k] = self.w.prepare(self.args.seed, k, self.workdir)
        kwargs = {"span": span} if span else {}
        try:
            cyc = self.w.cycle(self.args.seed, k, self.inputs[k],
                               self.workdir / f"out{k}", self.timer, **kwargs)
        except Exception as exc:  # a crashing cycle is a failed operation
            traceback.print_exc()
            self.timer.take()
            if counted:
                self.attempted += 1
                self.failed += 1
            self.hard.append(f"cycle {k} raised {type(exc).__name__}: {exc}")
            return None
        out = cyc.outcome
        self.hard.extend(f"cycle {k}: {h}" for h in out.hard)
        if counted:
            self.attempted += out.attempted
            self.failed += out.failed
            self.checks += out.checks
            self.misses.extend(f"cycle {k}: {m}" for m in out.misses)
        return cyc

    def repeat_check(self, k, cyc, reference, what):
        if cyc is not None and reference is not None and cyc.counts != reference.counts:
            self.hard.append(f"cycle {k} differs from {what}")

    def loop(self, body, min_cycles):
        """Run ``body(k)`` for k = 0, 1, ... for about ``--seconds`` seconds."""
        deadline = perf_counter() + self.args.seconds
        k, last = 0, 0.0
        while k < min_cycles or perf_counter() + last <= deadline:
            start = perf_counter()
            body(k)
            last = perf_counter() - start
            k += 1

    def tolerance_verdict(self):
        """A correct sampler misses a statistical tolerance now and then; a
        broken one misses on most cycles.  More than half is a failure."""
        if self.checks and 2 * len(self.misses) > self.checks:
            self.hard.append(f"{len(self.misses)} of {self.checks} cycles missed a "
                             "statistical tolerance")


def timed_run(run):
    """``--trace 0``: the end-to-end metrics."""
    w, args = run.w, run.args
    repeats = 2 if args.smoke else SETUP_REPEATS
    warm = run.cycle(0, counted=False)  # untimed; lets caches fill, must repeat exactly
    pool = W.SamplingPool(W.PARAM_NAMES[w.model], with_ess=False)
    fits, cycles, setups = [], [], []

    def probe():
        setups.append(setup_seconds(w.probe_args(args.seed, run.inputs[0])))

    def body(k):
        cyc = run.cycle(k)
        if k == 0:
            run.repeat_check(0, cyc, warm, "its warm-up")
            if cyc is not None:
                run.counts.update(cyc.counts)
        if cyc is not None:
            fits.extend(cyc.fit_s)
            cycles.append(cyc.wall_s)
            for call in cyc.calls:
                pool.add(call)
        if len(setups) < repeats:  # spread the set-ups over the run
            probe()

    run.loop(body, min_cycles=3)
    while len(setups) < repeats:
        probe()
    return {
        "setup_s": median(setups),
        "fit_s": median(fits),
        "cycle_s": median(cycles),
        "sweeps_per_s": pool.sweeps_per_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(run):
    """``--trace 1``: untraced and traced twins of each cycle; per-layer metrics."""
    warm = run.cycle(0, counted=False)
    traced = []
    pool = W.SamplingPool(W.PARAM_NAMES[run.w.model], with_ess=True)

    def body(k):
        untraced = run.cycle(k)
        if untraced is not None:
            for call in untraced.calls:
                pool.add(call)
        tracer = make_tracer()
        try:
            cyc = run.cycle(k, span=lambda: tracer.span("cycle", "bench"), counted=False)
        finally:
            tracer.restore()
        run.repeat_check(k, cyc, untraced, "its untraced twin")
        if k == 0:
            run.repeat_check(0, untraced, warm, "its warm-up")
            if cyc is not None:
                run.counts.update(cyc.counts)
                run.counts["sampler.trunc_ig_calls"] = \
                    tracer.timers["sample_trunc_invgamma_var"][0]
        if cyc is not None and untraced is not None:
            traced.append((tracer, cyc, untraced.wall_s))

    run.loop(body, min_cycles=2)
    spans = OUT / f"spans-{run.args.workload}-{run.args.seed}.json"
    spans.write_text(json.dumps([t.to_json() for t, _, _ in traced]) + "\n")
    metrics = layer_metrics(traced, run.counts)
    metrics["sampler.min_ess_per_s"] = pool.min_ess_per_s()
    return metrics


# -- per-layer metrics from traced cycles ---------------------------------------------

PER_LAYER = {
    "data.load_s": "s",
    "data.rows": "count",
    "model.dataset_build_s": "s",
    "sampler.sweep_us": "us",
    "sampler.intercept_us": "us",
    "sampler.random_effects_us": "us",
    "sampler.obs_variance_us": "us",
    "sampler.re_sd_us": "us",
    "sampler.cov_mh_us": "us",
    "sampler.mh_accept_min": "ratio",
    "sampler.min_ess_per_s": "1/s",
    "sampler.trunc_ig_calls": "count",
    "sampler.retained_draws": "count",
    "diagnostics.convergence_s": "s",
    "diagnostics.summarize_s": "s",
    "cli.write_draws_s": "s",
    "cli.read_draws_s": "s",
    "cli.draw_bytes": "bytes",
    "oracle.simulate_s": "s",
    "oracle.refit_s": "s",
    "oracle.rank_s": "s",
    "oracle.replicate_ms_p50": "ms",
    "oracle.replicate_ms_p75": "ms",
    "oracle.replicates": "count",
    "oracle.excluded": "count",
    "bench.self_s": "s",
    "cli.self_s": "s",
    "data.self_s": "s",
    "model.self_s": "s",
    "sampler.self_s": "s",
    "diagnostics.self_s": "s",
    "oracle.self_s": "s",
    "trace.cycle_s": "s",
    "trace.untraced_cycle_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}
LAYERS = ("bench", "cli", "data", "model", "sampler", "diagnostics", "oracle")

# update methods of TotalSampler / JointSampler, by the per-layer metric they feed
UPDATE_METHODS = {
    "sampler.intercept_us": ("update_intercept", "update_intercepts_collapsed",
                             "update_intercepts_plain"),
    "sampler.random_effects_us": ("update_random_intercepts", "update_random_slopes",
                                  "update_random_effects"),
    "sampler.obs_variance_us": ("update_obs_variance",),
    "sampler.re_sd_us": ("update_re_sd",),
    "sampler.cov_mh_us": ("update_cov_params",),
}


def make_tracer():
    """A tracer wrapped around the names landmix.cli, landmix.oracle and
    landmix.sampler call, layer by layer."""
    tracer = Tracer()
    for owner, attr, layer in (
        (cli, "main", "cli"),
        (cli, "load_landings", "data"),
        (cli, "run_chains", "sampler"),
        (cli, "_write_draws_csv", "cli"),
        (cli, "read_draws_csv", "cli"),
        (cli, "pool_chains", "diagnostics"),
        (cli, "summarize", "diagnostics"),
        (cli, "compute_convergence", "diagnostics"),
        (oracle, "sbc_run", "oracle"),
        (oracle, "simulate_dataset", "data"),
        (oracle, "run_chains", "sampler"),
        (oracle, "_safe_rhat", "oracle"),
        (oracle, "split_rhat", "diagnostics"),
        (oracle, "_thin_to", "oracle"),
        (oracle, "_tau_and_ess", "diagnostics"),
        (data, "Dataset", "model"),
        (model.Dataset, "arrays", "model"),
    ):
        module = owner.__name__.rsplit(".", 1)[-1]
        tracer.wrap_span(owner, attr, f"{module}:{attr}", layer)
    for cls in (sampler.TotalSampler, sampler.JointSampler):
        tracer.wrap_timer(cls, "sweep", "sweep")
        for methods in UPDATE_METHODS.values():
            for method in methods:
                tracer.wrap_timer(cls, method, method)
    tracer.wrap_timer(sampler, "sample_trunc_invgamma_var", "sample_trunc_invgamma_var")
    return tracer


def replicate_ms(tracer):
    """Wall time of each SBC replicate: from its panel simulation to the next
    one's, or to the end of ``sbc_run``."""
    out = []
    for sbc in (s for s in tracer.spans if s.name == "oracle:sbc_run"):
        starts = sorted(s.start for s in tracer.spans
                        if s.name == "oracle:simulate_dataset" and sbc.start <= s.start <= sbc.end)
        ends = starts[1:] + [sbc.end]
        out.extend(1e3 * (e - s) for s, e in zip(starts, ends))
    return out


def layer_metrics(traced, counts):
    """Medians over the traced cycles; counts come from cycle 0."""
    per_cycle = []
    replicates = []
    accept = []
    for tracer, cyc, untraced_wall in traced:
        calls = cyc.calls
        root = next(s for s in tracer.spans if s.name == "cycle")
        sweeps = sum(c.sweeps for c in calls)
        selfs = tracer.layer_self_times()
        m = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
        m["data.load_s"] = tracer.total("cli:load_landings")
        m["model.dataset_build_s"] = tracer.total("data:Dataset", "Dataset:arrays")
        m["diagnostics.convergence_s"] = tracer.total(
            "cli:compute_convergence", "oracle:split_rhat", "oracle:_tau_and_ess")
        m["diagnostics.summarize_s"] = tracer.total("cli:summarize")
        m["cli.write_draws_s"] = tracer.total("cli:_write_draws_csv")
        m["cli.read_draws_s"] = tracer.total("cli:read_draws_csv")
        m["oracle.simulate_s"] = tracer.total("oracle:simulate_dataset")
        m["oracle.refit_s"] = tracer.total("oracle:run_chains")
        m["oracle.rank_s"] = tracer.total("oracle:_safe_rhat", "oracle:_thin_to")
        m["sampler.sweep_us"] = 1e6 * tracer.timers["sweep"][1] / sweeps
        for metric, methods in UPDATE_METHODS.items():
            m[metric] = 1e6 * sum(tracer.timers[name][1] for name in methods) / sweeps
        m["trace.cycle_s"] = root.duration
        m["trace.untraced_cycle_s"] = untraced_wall
        m["trace.overhead_s"] = root.duration - untraced_wall
        m["trace.accounted_frac"] = (
            sum(v for k, v in selfs.items() if k != "bench") / root.duration)
        per_cycle.append(m)
        replicates.extend(replicate_ms(tracer))
        accept.extend(v for c in calls for ch in c.chains for v in ch.acceptance.values())
    if not per_cycle:  # every cycle raised: the run is already incorrect
        return dict.fromkeys(PER_LAYER, 0)
    metrics = {name: median([m[name] for m in per_cycle]) for name in per_cycle[0]}
    metrics["sampler.mh_accept_min"] = min(accept) if accept else 1.0
    metrics["oracle.replicates"] = len(replicates)
    metrics["oracle.replicate_ms_p50"] = float(np.percentile(replicates, 50)) if replicates else 0.0
    metrics["oracle.replicate_ms_p75"] = float(np.percentile(replicates, 75)) if replicates else 0.0
    for name in ("data.rows", "cli.draw_bytes", "sampler.retained_draws",
                 "sampler.trunc_ig_calls", "oracle.excluded"):
        metrics[name] = counts.get(name, 0)
    return metrics


# -- entry point -------------------------------------------------------------------------


def run(args):
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = W.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    timer = W.ChainTimer()
    state = Run(args, workload, workdir, timer)
    try:
        metrics = traced_run(state) if args.trace else timed_run(state)
    finally:
        timer.close()
        shutil.rmtree(workdir, ignore_errors=True)
    state.tolerance_verdict()
    state.hard.extend(check_counts(state.counts, args))

    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not state.hard,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in wanted.items()},
    }
    for line in state.hard:
        print(f"check failed: {line}")
    for line in state.misses:
        print(f"tolerance missed: {line}")
    for name, m in result["metrics"].items():
        print(f"{name:<28}{m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':<28}{state.failed / max(state.attempted, 1):>16.6g} "
          f"({state.failed}/{state.attempted})")
    print(f"{'tolerance misses':<28}{len(state.misses):>16d} of {state.checks} cycles")
    print(json.dumps(result))
    return 0
