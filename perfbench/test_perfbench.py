"""Pins for the grid benchmark itself, on small inputs.

Run from the root of the repository with::

    python3 -m pytest perfbench -q

* Virtual metrics, ``net_bytes_per_item`` and ``<layer>.calls_per_op``
  are identical in two processes run from the same seed (with different
  string-hash seeds, so no set or dict ordering leaks into them).
* A traced trial charges exactly the virtual time and counts of an
  untraced one: tracing adds 0.0 virtual seconds.
* Every entry point of the layer map exists, and a missing one fails
  loudly.
* A wrong answer fails the run instead of counting as a slow call.
* Each workload reports exactly the metrics ``BENCHMARK.json`` declares.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, OracleError  # noqa: E402

MANIFEST = json.loads((HERE / "manifest.json").read_text())
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYER_MAP = MANIFEST["layers"]
SMALL = {"files": 60, "calls": 40}
VIRTUAL = ("op_virt_ms_p50", "op_virt_ms_tail", "virt_goodput_per_s",
           "net_bytes_per_item")


def small(name, seed=1):
    params = dict(MANIFEST["workloads"][name]["params"], **SMALL)
    if name == "read_mix":
        params["page"] = 7
    return WORKLOADS[name](seed, params)


def traced_run(name, seed=1):
    """One untraced then one traced trial of a small workload."""
    wl = small(name, seed)
    plan = wl.plan()
    return run.run_trials(wl, plan, 0.0, 2, True, layers.resolve(LAYER_MAP),
                          list(LAYER_MAP))


def pins(name, seed=1):
    """The numbers that must repeat exactly for a fixed seed."""
    trials = traced_run(name, seed)
    e2e = run.end_to_end([t for t in trials if not t.traced])
    lay = run.per_layer(trials, list(LAYER_MAP))
    out = {k: e2e[k] for k in VIRTUAL}
    out.update({k: v for k, v in lay.items() if k.endswith(".calls_per_op")})
    return out


def pins_in_subprocess(name, hash_seed):
    code = ("import json, test_perfbench as t; "
            f"print(json.dumps(t.pins({name!r})))")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_virtual_metrics_and_calls(name):
    first = pins_in_subprocess(name, 1)
    assert first == pins_in_subprocess(name, 2)
    assert all(first[f"{layer}.calls_per_op"] >= 0 for layer in LAYER_MAP)
    assert first["client.calls_per_op"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_adds_no_virtual_time(name):
    untraced, traced = traced_run(name)
    assert traced.traced and not untraced.traced
    assert traced.calls.virt_s == untraced.calls.virt_s
    assert traced.calls.virt_elapsed_s == untraced.calls.virt_elapsed_s
    assert traced.delta == untraced.delta
    assert sum(traced.ledger.calls.values()) > 0


def test_layer_map_resolves_and_wrappers_come_off():
    points = layers.resolve(LAYER_MAP)
    assert {p.layer for p in points} == set(LAYER_MAP)
    installed = layers.Installed(points, layers.Ledger(list(LAYER_MAP)))
    installed.remove()
    assert all(getattr(p.owner, p.name) is p.original for p in points)
    from repro.net import rpc, wire
    assert rpc.message_size is wire.message_size


def test_missing_entry_point_fails_loudly():
    with pytest.raises(layers.LayerMapError, match="no_such_op"):
        layers.resolve({"mcat": {"mcat.catalog.Mcat": ["no_such_op"]}})
    with pytest.raises(layers.LayerMapError, match="Gone"):
        layers.resolve({"mcat": {"mcat.catalog.Gone": ["search"]}})


def test_wrong_answer_aborts_the_run():
    """Once the catalog is loaded, the oracle expects other bytes."""
    wl = small("read_mix")
    plan = wl.plan()
    load = wl.setup

    def setup_then_change_the_oracle():
        state = load()
        wl.files = [replace(f, content=f.content[::-1]) for f in wl.files]
        return state

    wl.setup = setup_then_change_the_oracle
    with pytest.raises(OracleError, match="wrong bytes"):
        run.run_trials(wl, plan, 0.0, 1, False, [], [])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reports_exactly_the_declared_metrics(name):
    trials = traced_run(name)
    plain = [t for t in trials if not t.traced]
    e2e = run.report(BENCH["end_to_end"], run.end_to_end(plain))
    lay = run.report(BENCH["per_layer"], run.per_layer(trials,
                                                       list(LAYER_MAP)))
    assert all(v["value"] > 0 for v in e2e.values())
    assert len(lay) == len(BENCH["per_layer"])
