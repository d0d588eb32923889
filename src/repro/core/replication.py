"""Replica management: selection policies, failover, synchronization.

The paper's replication claims this module carries:

* "data may be replicated in different storage systems on different
  hosts under control of different SRB servers to provide load
  balancing" (selection policies; experiment E3);
* "Fault tolerance — data can be accessed by the global persistent
  identifier, with the system automatically redirecting access to a
  replica on a separate storage system when the first storage system is
  unavailable" (ordered failover; experiment E2);
* "the consistency of the replicas should be maintained with very little
  effort on the part of the users" (write-one/mark-dirty plus
  :func:`synchronize`).

The choice logic itself now lives in :mod:`repro.policy` — one
pluggable :class:`~repro.policy.engine.PlacementEngine` per federation
answers every ordering question (see DESIGN.md, "Placement policy
engine").  What remains here is the **legacy facade**:
:class:`ReplicaSelector` and :func:`pick_clean_available` keep their
historical signatures for direct users (tests, the E3 policy ablation)
by delegating to the policy classes, and :func:`synchronize` is the
replica-refresh algorithm, its source choice deferred to the engine
when one is passed.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional

from repro.errors import ReplicaUnavailable, ReplicationError
from repro.mcat.catalog import Mcat
from repro.net.simnet import Leg, Network, run_legs
from repro.policy import PlacementContext, PlacementEngine, make_policy
from repro.storage.resource import ResourceRegistry

SELECTION_POLICIES = ("primary", "round-robin", "random", "nearest")


class ReplicaSelector:
    """Orders an object's replicas for a read attempt (legacy facade).

    Policies:

    ``primary``      lowest replica number first (the paper's default:
                     "the user can ask for a particular copy or let SRB
                     choose its own access");
    ``round-robin``  rotate the starting replica per call — spreads load
                     across copies;
    ``random``       deterministic LCG shuffle — statistically spreads
                     load without shared state;
    ``nearest``      ascending link latency from the reading host,
                     ties broken by replica number.

    Each instance owns its policy state (rotation counter, LCG), so a
    standalone selector orders exactly as it always did; federations no
    longer build one — ``fed.selector`` answers from the
    :class:`~repro.policy.engine.PlacementEngine` instead.
    """

    def __init__(self, resources: ResourceRegistry, network: Network,
                 policy: str = "primary"):
        if policy not in SELECTION_POLICIES:
            raise ReplicationError(
                f"unknown selection policy {policy!r}; "
                f"choose from {SELECTION_POLICIES}")
        self.resources = resources
        self.network = network
        self.policy = policy
        self._impl = make_policy(policy)

    def order(self, replicas: List[Dict[str, Any]],
              from_host: Optional[str] = None) -> List[Dict[str, Any]]:
        """Replicas in preferred access order (does not drop any: later
        entries are the failover chain)."""
        reps = sorted(replicas, key=lambda r: r["replica_num"])
        if not reps:
            return []
        ctx = PlacementContext(resources=self.resources,
                               network=self.network, from_host=from_host)
        return self._impl.order(reps, ctx)


def pick_clean_available(selector: ReplicaSelector,
                         resources: ResourceRegistry,
                         replicas: List[Dict[str, Any]],
                         from_host: Optional[str] = None,
                         allow_dirty: bool = False) -> List[Dict[str, Any]]:
    """The failover chain: ordered replicas that are clean and whose
    resource is reachable right now.  Raises if the chain is empty.

    Legacy facade over
    :meth:`~repro.policy.engine.PlacementEngine.failover_chain`; kept
    for callers that hold a standalone :class:`ReplicaSelector`.
    """
    chain = []
    for rep in selector.order(replicas, from_host=from_host):
        if rep["is_dirty"] and not allow_dirty:
            continue
        if not resources.available(rep["resource"]):
            continue
        chain.append(rep)
    if not chain:
        raise ReplicaUnavailable(
            "no clean replica on an available resource "
            f"(of {len(replicas)} replicas)")
    return chain


def synchronize(mcat: Mcat, resources: ResourceRegistry, network: Network,
                oid: int, parallel: bool = False, streams: int = 1,
                placement: Optional[PlacementEngine] = None,
                channels: Optional[Any] = None) -> int:
    """Refresh every dirty replica of ``oid`` from a clean one.

    Bytes move clean-resource-host -> dirty-resource-host; returns the
    number of replicas refreshed.  With ``parallel=True`` the refresh
    pushes run as one grouped leg run: the clean source fans out to
    every dirty host concurrently, charging the slowest member
    (makespan) instead of the serial sum.  A member whose host fails
    mid-group, or whose channel cannot open, is skipped — it stays
    dirty and does not poison its siblings' refresh.

    ``placement`` (the federation's engine) chooses which clean replica
    sources the refresh: under a static policy the preference is the
    historical catalog order, under ``observed`` it is the replica with
    the smallest predicted total push time to the dirty hosts.

    ``channels`` (the federation's
    :class:`~repro.core.federation.ChannelBroker`) runs the refresh
    legs: as ticketed one-shot channels under ``direct_io`` — same
    source→sink paths, but metered and admission-controlled like any
    other direct transfer — else as pass-through transfers.  A
    standalone call without a broker runs them pass-through.
    """
    replicas = mcat.replicas(oid)
    clean = [r for r in replicas if not r["is_dirty"]
             and r["container_oid"] is None]
    dirty = [r for r in replicas if r["is_dirty"]
             and r["container_oid"] is None]
    if not dirty:
        return 0
    if not clean:
        raise ReplicationError(f"object {oid} has no clean replica to sync from")
    if placement is not None:
        dirty_hosts = sorted({resources.physical(r["resource"]).host
                              for r in dirty
                              if resources.available(r["resource"])})
        clean = placement.sync_source_order(clean, dirty_hosts)
    source = None
    for rep in clean:
        if resources.available(rep["resource"]):
            source = rep
            break
    if source is None:
        raise ReplicaUnavailable(f"no clean replica of {oid} reachable")
    src_res = resources.physical(source["resource"])
    data = src_res.driver.read_all(source["physical_path"])

    targets = [rep for rep in dirty
               if resources.available(rep["resource"])]
    legs = [Leg(src_res.host, resources.physical(rep["resource"]).host,
                len(data), streams, key=rep["physical_path"])
            for rep in targets]
    run = channels.run if channels is not None else partial(run_legs, network)
    grouped = parallel and len(targets) > 1
    if grouped:
        outcomes = run(legs, parallel=True, label="synchronize",
                       drop_unopened=True)

    refreshed = 0
    for i, rep in enumerate(targets):
        if not grouped:
            run([legs[i]], label="synchronize")
        elif not outcomes[i].ok:
            continue
        dst_res = resources.physical(rep["resource"])
        if dst_res.driver.exists(rep["physical_path"]):
            dst_res.driver.delete(rep["physical_path"])
        dst_res.driver.create(rep["physical_path"], data)
        mcat.update_replica(oid, rep["replica_num"],
                            is_dirty=False, size=len(data))
        refreshed += 1
    return refreshed
