"""Layer tracer: spans around the calls into each polymermc module.

The tracer wraps a module's public callables in the namespace where the
calling module looks them up (for example `sample_slab` as seen from
`polymermc.free_energy`), so nothing inside polymermc changes.  Entry points
are resolved by module and name when the tracer is installed; one that no
longer exists is recorded as missing, and the metrics that depend on it are
reported as absent instead of failing the run.

A span is recorded for every wrapped call; only the outermost span of each
layer counts toward that layer's time, so a layer calling itself is not
counted twice.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

# (layer, module where the caller looks the callable up, attribute, hook)
HOOKS = (
    ("covariance", "polymermc.free_energy", "circulant_spectrum", "spectrum"),
    ("covariance", "polymermc.environment", "circulant_spectrum", "spectrum"),
    ("environment", "polymermc.free_energy", "sample_slab", "slab"),
    ("partition", "polymermc.free_energy", "transfer_matrix_logZ", "transfer"),
    ("partition", "polymermc.free_energy", "montecarlo_logZ", "mc"),
    ("partition", "polymermc.partition", "BrownianPathSampler.occupancies", "sample"),
    ("polymer", "polymermc.partition", "occupancy_energy", "energy"),
    ("free_energy", "polymermc.free_energy", "point_from_replicas", "reduce"),
    ("free_energy", "polymermc.free_energy", "extrapolate_in_t", "reduce"),
    ("free_energy", "polymermc.cli", "single_replica_log_z", "replica"),
    ("free_energy", "polymermc.cli", "point_from_replicas", "reduce"),
    ("free_energy", "polymermc.cli", "extrapolate_in_t", "reduce"),
    ("free_energy", "polymermc.cli", "fit_power_law", "fit"),
    ("free_energy", "polymermc.cli", "fit_log_corrected", "fit"),
    ("cli", "polymermc.cli", "run_sweep", "cli_sweep"),
)

# per-layer metric -> (unit, better, hooks it needs)
LAYER_METRICS = {
    "covariance.spectrum_calls": ("count", "lower", ("spectrum",)),
    "covariance.spectrum_s": ("s", "lower", ("spectrum",)),
    "environment.slab_calls": ("count", "lower", ("slab",)),
    "environment.slab_s": ("s", "lower", ("slab",)),
    "environment.site_steps": ("count", "lower", ("slab",)),
    "environment.ns_per_site_step": ("ns", "lower", ("slab",)),
    "environment.regen_ratio": ("ratio", "lower", ("slab",)),
    "partition.transfer_calls": ("count", "lower", ("transfer",)),
    "partition.transfer_s": ("s", "lower", ("transfer",)),
    "partition.transfer_site_steps": ("count", "lower", ("transfer",)),
    "partition.transfer_us_per_step": ("us", "lower", ("transfer",)),
    "partition.mc_calls": ("count", "lower", ("mc",)),
    "partition.mc_s": ("s", "lower", ("mc",)),
    "partition.sample_s": ("s", "lower", ("sample",)),
    "partition.path_fine_steps": ("count", "lower", ("sample",)),
    "partition.ns_per_path_step": ("ns", "lower", ("sample",)),
    "partition.ess_frac_min": ("ratio", "higher", ("mc",)),
    "partition.ess_frac_median": ("ratio", "higher", ("mc",)),
    "partition.unreliable_frac": ("ratio", "lower", ("mc",)),
    "polymer.energy_s": ("s", "lower", ("energy",)),
    "polymer.energy_gathers": ("count", "lower", ("energy",)),
    "polymer.occ_bytes_computed": ("bytes", "lower", ("energy",)),
    "free_energy.sweep_s": ("s", "lower", ()),
    "free_energy.self_s": ("s", "lower", ()),
    "free_energy.reduce_s": ("s", "lower", ("reduce",)),
    "free_energy.fit_s": ("s", "lower", ("fit",)),
    # the cli layer is measured from outside its subprocesses
    "cli.sweep_s": ("s", "lower", ()),
    "cli.worker_util": ("ratio", "higher", ()),
    "cli.checkpoint_bytes": ("bytes", "lower", ()),
    "cli.checkpoint_records": ("count", "lower", ()),
    "cli.csv_bytes": ("bytes", "lower", ()),
    "cli.fit_s": ("s", "lower", ()),
    "cli.report_s": ("s", "lower", ()),
}


def _count_slab(a, slab):
    return {"site_steps": slab.increments.size,
            "slab_key": (slab.seed, slab.replica_id, slab.lattice, slab.grid.dt)}


def _count_transfer(a, est):
    slab = a["slab"]
    return {"steps": slab.grid.n_steps, "site_steps": slab.increments.size}


def _count_mc(a, est):
    return {"ess_frac": est.ess / a["n_paths"], "unreliable": not est.reliable}


def _count_sample(a, occ):
    per_step = round(a["grid"].dt / a["self"].h)
    return {"fine_steps": a["n_paths"] * a["grid"].n_steps * per_step}


def _count_energy(a, energies):
    occ = a["occ_sites"]
    return {"gathers": occ.shape[0] * occ.shape[1], "bytes": occ.nbytes}


COUNTERS = {"slab": _count_slab, "transfer": _count_transfer, "mc": _count_mc,
            "sample": _count_sample, "energy": _count_energy}


def _resolve(module: str, attr: str):
    """(owner object, attribute name, callable) or None when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return (owner, name, fn) if callable(fn) else None


class Tracer:
    """Install with `with Tracer() as tr:`; `tr.call` spans the benchmark's
    own call into the program."""

    def __init__(self):
        self.spans = []
        self.missing = set()
        self.uncounted = set()
        self._stack = []
        self._next_id = 0
        self._patched = []

    def __enter__(self):
        present = set()
        for layer, module, attr, hook in HOOKS:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, name, fn = found
            present.add(hook)
            self._patched.append((owner, name, fn))
            setattr(owner, name, self._wrap(layer, hook, fn))
        self.missing = {h for _, _, _, h in HOOKS} - present
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()
        return False

    def call(self, layer: str, hook: str, fn, *args, **kwargs):
        return self._run(layer, hook, fn, None, args, kwargs)

    def _wrap(self, layer, hook, fn):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(layer, hook, fn, sig, args, kwargs)

        return traced

    def _run(self, layer, hook, fn, sig, args, kwargs):
        # the parent is the innermost enclosing layer span, skipping spans
        # nested inside their own layer
        span = {"id": self._next_id, "layer": layer, "hook": hook,
                "parent": next((s["id"] for s in reversed(self._stack) if s["outer"]), None),
                "outer": all(s["layer"] != layer for s in self._stack)}
        self._next_id += 1
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
        counter = COUNTERS.get(hook)
        if counter is not None:
            try:
                span["counts"] = counter(sig.bind(*args, **kwargs).arguments, result)
            except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError):
                self.uncounted.add(hook)
        return result

    def take(self) -> list:
        """Spans recorded since the last take, in start order."""
        spans, self.spans = sorted(self.spans, key=lambda s: s["id"]), []
        return spans


def _dur(s):
    return s["end"] - s["start"]


def self_time(span, spans) -> float:
    """Span duration minus its direct children from other layers."""
    kids = [s for s in spans if s["parent"] == span["id"] and s["outer"]]
    return _dur(span) - sum(_dur(k) for k in kids)


def layer_metrics(spans, top_hook: str) -> dict:
    """Per-layer metrics of one traced job; a metric is None when its
    denominator is zero.  `top_hook` names the job's sweep span, whose
    uncovered self time gives the trace coverage."""
    by_hook = {}
    for s in spans:
        by_hook.setdefault(s["hook"], []).append(s)

    def calls(h):
        return len(by_hook.get(h, ()))

    def secs(h):
        return sum(_dur(s) for s in by_hook.get(h, ()))

    def total(h, key):
        return sum(s.get("counts", {}).get(key, 0) for s in by_hook.get(h, ()))

    def ratio(num, den):
        return num / den if den else None

    slab_need = {}
    for s in by_hook.get("slab", ()):
        c = s.get("counts")
        if c:
            slab_need[c["slab_key"]] = max(slab_need.get(c["slab_key"], 0), c["site_steps"])
    ess = [s["counts"]["ess_frac"] for s in by_hook.get("mc", ()) if "counts" in s]
    unreliable = [s["counts"]["unreliable"] for s in by_hook.get("mc", ()) if "counts" in s]
    fe = [s for s in spans if s["layer"] == "free_energy" and s["outer"]]
    top = [s for s in spans if s["hook"] == top_hook]

    return {
        "covariance.spectrum_calls": calls("spectrum"),
        "covariance.spectrum_s": secs("spectrum"),
        "environment.slab_calls": calls("slab"),
        "environment.slab_s": secs("slab"),
        "environment.site_steps": total("slab", "site_steps"),
        "environment.ns_per_site_step": ratio(1e9 * secs("slab"), total("slab", "site_steps")),
        "environment.regen_ratio": ratio(total("slab", "site_steps"), sum(slab_need.values())),
        "partition.transfer_calls": calls("transfer"),
        "partition.transfer_s": secs("transfer"),
        "partition.transfer_site_steps": total("transfer", "site_steps"),
        "partition.transfer_us_per_step": ratio(1e6 * secs("transfer"), total("transfer", "steps")),
        "partition.mc_calls": calls("mc"),
        "partition.mc_s": secs("mc"),
        "partition.sample_s": secs("sample"),
        "partition.path_fine_steps": total("sample", "fine_steps"),
        "partition.ns_per_path_step": ratio(1e9 * secs("sample"), total("sample", "fine_steps")),
        "partition.ess_frac_min": min(ess) if ess else None,
        "partition.ess_frac_median": statistics.median(ess) if ess else None,
        "partition.unreliable_frac": ratio(sum(unreliable), len(unreliable)),
        "polymer.energy_s": secs("energy"),
        "polymer.energy_gathers": total("energy", "gathers"),
        "polymer.occ_bytes_computed": total("energy", "bytes"),
        "free_energy.sweep_s": sum(_dur(s) for s in fe if s["hook"] != "fit"),
        "free_energy.self_s": sum(self_time(s, spans) for s in fe if s["hook"] != "fit"),
        "free_energy.reduce_s": secs("reduce"),
        "free_energy.fit_s": secs("fit"),
        "trace.coverage": ratio(sum(_dur(s) - self_time(s, spans) for s in top),
                                sum(_dur(s) for s in top)),
    }
