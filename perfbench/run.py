"""Grid benchmark: one workload, one seed, two clocks.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 10 --trace 0

A run repeats *trials* until ``--seconds`` of wall time have passed
(and at least ``trials.min`` of them).  A trial builds the federation and
preloads its catalog (timed: ``setup_s``), runs the workload's fixed plan
of client calls from the seed (the measured phase) and checks every
output.  Wall time (``time.perf_counter``) says what the Python substrate
costs; virtual time (the federation clock) is the grid user's modelled
latency.  Virtual results must be identical in every trial, traced or
not, or the run fails.  Since every trial issues the same calls, the wall
metrics are taken over each call's fastest time in the run.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced trials; the traced ones wrap
every entry point of the layer map (see ``layers.py``) and give the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer, a
virtual-time mismatch between trials or a missing layer entry point
exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.workload import percentile  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS, Calls, OracleError  # noqa: E402

#: percentiles a tail may be reported at, highest first
TAIL_QS = (99, 95, 90, 75, 50)
#: layers that charge the virtual clock
VIRTUAL_LAYERS = ("mcat", "storage", "simnet")
CLIENT_OPS = ("ingest", "get", "stat", "get_metadata", "ls_page",
              "iter_query", "query_range", "query_eq", "iter_ls",
              "bulk_get")


class DeterminismError(Exception):
    """Two trials of one run disagree in virtual time or counters."""


def tail_q(n: int) -> int:
    """The highest percentile with at least ten of ``n`` samples beyond."""
    for q in TAIL_QS:
        if n * (100 - q) / 100 >= 10:
            return q
    return TAIL_QS[-1]


@dataclass
class Trial:
    traced: bool
    setup_s: float
    wall_s: float
    calls: Calls
    delta: Dict[str, float]
    payload_bytes: int
    ledger: Optional[layers.Ledger]

    def signature(self):
        """Everything a trial computes in virtual time or counts."""
        c = self.calls
        return (c.op, c.virt_s, c.wait_s, c.items, c.attempted, c.failed,
                c.virt_elapsed_s, c.goodput_per_s,
                sorted(self.delta.items()))


def run_trial(wl, plan, points, layer_names) -> Trial:
    gc.collect()
    ledger = layers.Ledger(layer_names) if points else None
    installed = layers.Installed(points, ledger) if points else None
    try:
        t0 = perf_counter()
        state = wl.setup()
        setup_s = perf_counter() - t0
        metrics = state.fed.obs.metrics
        snap = metrics.snapshot()
        if ledger:
            ledger.start(state.fed.clock)
        t0 = perf_counter()
        calls = wl.run(state, plan)
        wall_s = perf_counter() - t0
        if ledger:
            ledger.stop()
        delta = metrics.delta(snap)
        wl.final_check(state, calls)
    finally:
        if installed:
            installed.remove()
    return Trial(bool(points), setup_s, wall_s, calls, delta,
                 wl.payload_bytes(plan), ledger)


def _probe_work() -> int:
    """A few milliseconds of dict, string and call work, like the
    interpreter work a client call does."""
    table: Dict[str, int] = {}
    for i in range(2000):
        key = f"/zone/coll/{i % 251}"
        table[key] = table.get(key, 0) + len(key)
    return len(table)


def quickest_cpu(cpus: List[int]) -> int:
    """The CPU that runs the probe fastest right now.  On a shared host a
    vCPU can run at half speed for tens of seconds while another tenant
    loads its core; each trial goes to the vCPU that is fast when it
    starts, so the per-call minimum (see fastest) has fast trials to
    find."""
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(5):
            t0 = perf_counter()
            _probe_work()
            best = min(best, perf_counter() - t0)
        speed[cpu] = best
    return min(cpus, key=speed.__getitem__)


def run_trials(wl, plan, seconds: float, min_trials: int, trace: bool,
               points, layer_names) -> List[Trial]:
    trials: List[Trial] = []
    started = perf_counter()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        while len(trials) < min_trials \
                or perf_counter() - started < seconds:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {quickest_cpu(cpus)})
            traced = trace and len(trials) % 2 == 1
            trial = run_trial(wl, plan, points if traced else None,
                              layer_names)
            if trials and trial.signature() != trials[0].signature():
                raise DeterminismError(
                    f"trial {len(trials)} (traced={traced}) differs from "
                    f"trial 0 in virtual time or counters")
            trials.append(trial)
    finally:
        os.sched_setaffinity(0, cpus)
    return trials


def pooled(trials: List[Trial], attr: str) -> List[float]:
    return [v for t in trials for v in getattr(t.calls, attr)]


def fastest(trials: List[Trial], attr: str) -> List[float]:
    """Each call's least wall time over the trials.  Every trial issues
    the same calls on the same state (the virtual signature check holds
    them to it), so call ``i`` is the same work each time; its minimum
    keeps the program's cost and drops time lost to other tenants of a
    shared CPU, which slow a vCPU by up to 2x for seconds at a time."""
    return [min(vs) for vs in zip(*(getattr(t.calls, attr) for t in trials))]


def end_to_end(trials: List[Trial]) -> Dict[str, float]:
    first = trials[0].calls
    n_ops = len(first.op)
    items = sum(first.items)
    wall = fastest(trials, "wall_s")
    wall_s = sum(wall)
    q_wall = q_virt = tail_q(n_ops)
    print(f"# tails: op_wall_us_tail = p{q_wall} of {n_ops} calls, each "
          f"the fastest of {len(trials)} trials; op_virt_ms_tail = "
          f"p{q_virt} of {n_ops} calls")
    return {
        "setup_s": statistics.median(t.setup_s for t in trials),
        "ops_per_s": n_ops / wall_s,
        "items_per_s": items / wall_s,
        "op_wall_us_p50": percentile(wall, 50) * 1e6,
        "op_wall_us_tail": percentile(wall, q_wall) * 1e6,
        # streamed calls deliver rows before they return; every other
        # call delivers its items with its reply
        "first_item_us_p50": percentile(
            fastest(trials, "first_s") or wall, 50) * 1e6,
        "op_virt_ms_p50": percentile(first.virt_s, 50) * 1e3,
        "op_virt_ms_tail": percentile(first.virt_s, q_virt) * 1e3,
        "virt_goodput_per_s": first.goodput_per_s,
        "net_bytes_per_item":
            MetricsRegistry.sum_matching(trials[0].delta, "net.bytes")
            / items,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(trials: List[Trial], layer_names: List[str]
              ) -> Dict[str, float]:
    traced = [t for t in trials if t.traced]
    plain = [t for t in trials if not t.traced]
    first = trials[0]
    ops = sum(t.calls.attempted for t in traced)
    out: Dict[str, float] = {}
    for layer in layer_names:
        out[f"{layer}.calls_per_op"] = sum(
            t.ledger.calls[layer] for t in traced) / ops
        out[f"{layer}.self_us_per_op"] = sum(
            t.ledger.self_wall_s[layer] for t in traced) * 1e6 / ops
    for layer in VIRTUAL_LAYERS:
        out[f"{layer}.virt_self_ms_per_op"] = sum(
            t.ledger.self_virt_s[layer] for t in traced) * 1e3 / ops
    calls = first.calls
    out["simnet.queue_wait_ms_p99"] = percentile(calls.wait_s, 99) * 1e3
    d = first.delta

    def total(name: str) -> float:
        return MetricsRegistry.sum_matching(d, name)

    def labelled(name: str, label: str) -> float:
        return sum(v for k, v in d.items()
                   if k.startswith(name + "{") and label in k)

    items = sum(calls.items)
    out["mcat.rows_scanned_per_item"] = total("mcat.rows_scanned") / items
    out["mcat.query_match_ratio"] = _ratio(
        total("mcat.query_rows_matched"), total("mcat.query_rows_scanned"))
    hits = labelled("srb.session_cache", "result=hit")
    out["auth.session_cache_hit_ratio"] = _ratio(
        hits, hits + labelled("srb.session_cache", "result=miss"))
    out["simnet.direct_byte_share"] = _ratio(total("net.direct.bytes"),
                                             total("net.bytes"))
    replica_reads = total("mcat.shard.replica_reads")
    out["mcat.replica_read_share"] = _ratio(
        replica_reads, replica_reads + total("mcat.shard.primary_reads"))
    out["storage.bytes_written_per_item_byte"] = _ratio(
        total("storage.bytes_written"), first.payload_bytes)
    out["rpc.failures"] = total("rpc.failures")
    out["simnet.failed_attempts"] = total("net.failed_attempts")
    out["auth.redirects_denied"] = total("srb.redirect.denied")
    out["fail_frac"] = calls.failed / calls.attempted
    out["trace_overhead_frac"] = (
        sum(t.wall_s for t in traced) / len(traced)
        / (sum(t.wall_s for t in plain) / len(plain)) - 1.0)
    wall = pooled(plain, "wall_s")
    kinds = pooled(plain, "op")
    for op in CLIENT_OPS:
        samples = [w for w, k in zip(wall, kinds) if k == op]
        out[f"client.{op}.us_p50"] = (percentile(samples, 50) * 1e6
                                      if samples else 0.0)
    return out


def report(declared: List[dict], values: Dict[str, float]) -> Dict:
    """Metrics in BENCHMARK.json's order and units; any metric computed
    but not declared, or declared but not computed, is an error."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise KeyError(f"metrics differ from BENCHMARK.json: "
                       f"{sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    manifest = json.loads((HERE / "manifest.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=manifest["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    layer_map = manifest["layers"]
    points = layers.resolve(layer_map)
    spec = manifest["workloads"][args.workload]
    wl = WORKLOADS[args.workload](args.seed, spec["params"])
    plan = wl.plan()
    min_trials = manifest["trials"]["min"]
    trials = run_trials(wl, plan, args.seconds, min_trials,
                        bool(args.trace), points, list(layer_map))
    plain = [t for t in trials if not t.traced]
    if args.trace:
        metrics = report(bench["per_layer"], per_layer(trials,
                                                       list(layer_map)))
    else:
        metrics = report(bench["end_to_end"], end_to_end(plain))
    print(json.dumps({
        "correct": True,
        "attempted": sum(t.calls.attempted for t in trials),
        "failed": sum(t.calls.failed for t in trials),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OracleError, DeterminismError, layers.LayerMapError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
