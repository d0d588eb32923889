"""The benchmark's four workloads.

Each workload makes its inputs from a seed (2MASS-shaped FITS files from
``repro.workload.survey_files`` and a plan of client calls), builds a
federation through the public API, runs the plan from one
:class:`~repro.core.SrbClient` and checks every output against an oracle
built from the generated inputs.  A wrong answer raises
:class:`OracleError`: it aborts the run and is never counted as a slow or
failed call.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field, replace
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from repro.core import Federation, SrbClient
from repro.errors import SrbError
from repro.mcat.query import Condition
from repro.net.simnet import TRANSCON
from repro.workload import poisson_arrivals, run_open_loop, survey_files

ADMIN, PASSWORD = "srbadmin@sdsc", "hunter2"
#: files per bulk_ingest call when a catalog is preloaded
PRELOAD_BATCH = 500


def survey(n: int, seed: int) -> List[Any]:
    """``n`` 2MASS-shaped FITS files whose pixel payloads run from 1 to
    3 KiB (2 KiB on average), as compressed survey cutouts do."""
    rng = random.Random(seed)
    files = []
    for f in survey_files(n, seed=seed, payload_bytes=3 * 1024):
        cut = len(f.content) - rng.randint(0, 2 * 1024)
        files.append(replace(f, content=f.content[:cut]))
    return files


class OracleError(Exception):
    """The program returned a wrong answer."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise OracleError(what)


@dataclass
class Calls:
    """Per-call records of one measured phase, in issue order."""

    op: List[str] = field(default_factory=list)
    wall_s: List[float] = field(default_factory=list)
    #: issue to first row, of streamed calls only
    first_s: List[float] = field(default_factory=list)
    virt_s: List[float] = field(default_factory=list)
    items: List[int] = field(default_factory=list)
    wait_s: List[float] = field(default_factory=list)   #: queue wait
    failed_ops: List[tuple] = field(default_factory=list)
    attempted: int = 0
    virt_elapsed_s: float = 0.0
    goodput_per_s: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def add(self, op: str, wall: float, first: Optional[float], virt: float,
            items: int, wait: float = 0.0) -> None:
        self.op.append(op)
        self.wall_s.append(wall)
        if first is not None:
            self.first_s.append(first)
        self.virt_s.append(virt)
        self.items.append(items)
        self.wait_s.append(wait)


def drain(rows_iter) -> Tuple[List[Any], float]:
    """Consume a streamed reply; returns its rows and the perf_counter
    reading when the first row arrived (or the stream ended empty)."""
    rows: List[Any] = []
    first: Optional[float] = None
    for row in rows_iter:
        if first is None:
            first = perf_counter()
        rows.append(row)
    return rows, perf_counter() if first is None else first


def dealt(rng: random.Random, n: int, mix: Dict[str, float]) -> List[str]:
    """``n`` call kinds in exact proportion to ``mix``, shuffled, so every
    seed issues the same number of each kind."""
    kinds: List[str] = []
    for kind, share in mix.items():
        kinds += [kind] * round(n * share)
    # rounding can leave the deck a card short or over
    kinds = (kinds + [next(iter(mix))] * n)[:n]
    rng.shuffle(kinds)
    return kinds


def zipf_sampler(rng: random.Random, n: int, s: float):
    """Draws indexes 0..n-1 with Zipf(s) popularity over a seeded
    permutation, so the hot files differ from seed to seed."""
    ranks = list(range(n))
    rng.shuffle(ranks)
    cum, total = [], 0.0
    for k in range(1, n + 1):
        total += 1.0 / k ** s
        cum.append(total)
    return lambda: ranks[min(bisect.bisect(cum, rng.random() * total), n - 1)]


class Workload:
    """Inputs, federation set-up, calls and oracle of one workload."""

    def __init__(self, seed: int, params: Dict[str, Any]):
        self.seed = seed
        self.params = params
        self.coll = "/demozone/bench"

    # -- set-up ---------------------------------------------------------------

    def federation(self) -> Federation:
        """Client on hc, SRB server with the MCAT on hs, disk on hr."""
        fed = Federation(zone="demozone")
        for host in ("hc", "hs", "hr"):
            fed.add_host(host)
        fed.add_server("s0", "hs", mcat=True)
        fed.add_fs_resource("disk", "hr")
        fed.default_resource = "disk"
        return fed

    def connect(self, fed: Federation) -> SrbClient:
        fed.bootstrap_admin()
        client = SrbClient(fed, "hc", "s0", ADMIN, PASSWORD)
        client.login()
        return client

    def preload(self, client: SrbClient, files, resource=None) -> None:
        """Bulk-ingest ``files`` with their attributes."""
        for i in range(0, len(files), PRELOAD_BATCH):
            batch = files[i:i + PRELOAD_BATCH]
            results = client.bulk_ingest(
                [{"path": self.path_of(f), "data": f.content,
                  "data_type": f.data_type, "metadata": f.attributes}
                 for f in batch], resource=resource)
            expect(all("oid" in r for r in results),
                   f"preload failed: {results[:1]}")

    def path_of(self, f) -> str:
        return f"{self.coll}/{f.name}"

    def setup(self) -> SimpleNamespace:
        """Build the federation and preload the catalog."""
        raise NotImplementedError

    # -- the measured phase ---------------------------------------------------

    def plan(self) -> List[tuple]:
        raise NotImplementedError

    def call(self, state, op: tuple) -> Tuple[Any, Optional[float]]:
        """Issue one client call; returns its result and, for a streamed
        reply, the moment its first row arrived."""
        raise NotImplementedError

    def check(self, state, op: tuple, result: Any) -> int:
        """Oracle for one call; returns the user items it handled."""
        raise NotImplementedError

    def run(self, state, plan: List[tuple]) -> Calls:
        """Closed loop: the next call goes out when the previous returns."""
        calls = Calls()
        clock = state.fed.clock
        v_start = clock.now
        for op in plan:
            calls.attempted += 1
            v0 = clock.now
            t0 = perf_counter()
            try:
                result, first = self.call(state, op)
            except SrbError:
                calls.failed_ops.append(op)
                continue
            t1 = perf_counter()
            v1 = clock.now
            items = self.check(state, op, result)
            calls.add(op[0], t1 - t0, None if first is None else first - t0,
                      v1 - v0, items)
        calls.virt_elapsed_s = clock.now - v_start
        calls.goodput_per_s = len(calls.op) / calls.virt_elapsed_s
        return calls

    def final_check(self, state, calls: Calls) -> None:
        """The catalog holds exactly the objects the inputs put there."""
        for coll, names in self.expected_listing(calls).items():
            rows, _ = drain(state.client.iter_ls(coll))
            listed = [r["name"] for r in rows if r.get("kind") != "collection"]
            expect(listed == names,
                   f"{coll}: listed {len(listed)} objects, "
                   f"expected {len(names)}")

    def expected_listing(self, calls: Calls) -> Dict[str, List[str]]:
        """Object names per collection after the measured phase."""
        raise NotImplementedError

    def payload_bytes(self, plan: List[tuple]) -> int:
        """File bytes the plan ingests."""
        return 0


class _Reads:
    """Shared call and oracle code for point reads on preloaded files."""

    def call_point(self, client, op, path: str):
        kind = op[0]
        if kind == "get":
            return client.get(path), None
        if kind == "stat":
            return client.stat(path), None
        if kind == "get_metadata":
            return client.get_metadata(path), None
        raise ValueError(kind)

    def check_point(self, op, f, path: str, result) -> int:
        kind = op[0]
        if kind == "get":
            expect(result == f.content, f"get {path}: wrong bytes")
        elif kind == "stat":
            expect(result["path"] == path
                   and result["size"] == len(f.content),
                   f"stat {path}: {result.get('size')} bytes")
        else:
            got = {(m["attr"], m["value"]) for m in result}
            expect(got == set(f.attributes.items()),
                   f"get_metadata {path}: {sorted(got)}")
        return 1


class Ingest2Mass(Workload):
    """One ingest per call, with metadata, into one growing collection."""

    def __init__(self, seed, params):
        super().__init__(seed, params)
        self.files = survey(params["files"], seed)
        order = list(range(len(self.files)))
        random.Random(seed).shuffle(order)
        self.order = order

    def setup(self):
        fed = self.federation()
        client = self.connect(fed)
        client.mkcoll(self.coll)
        return SimpleNamespace(fed=fed, client=client)

    def plan(self):
        return [("ingest", i) for i in self.order]

    def call(self, state, op):
        f = self.files[op[1]]
        return state.client.ingest(self.path_of(f), f.content,
                                   data_type=f.data_type,
                                   metadata=f.attributes), None

    def check(self, state, op, result):
        expect(isinstance(result, int), f"ingest returned {result!r}")
        return 1

    def expected_listing(self, calls):
        failed = {op[1] for op in calls.failed_ops}
        return {self.coll: [f.name for i, f in enumerate(self.files)
                            if i not in failed]}

    def payload_bytes(self, plan):
        return sum(len(self.files[op[1]].content) for op in plan)


class ReadMix(Workload, _Reads):
    """Point reads and listing pages on a preloaded catalog."""

    def __init__(self, seed, params):
        super().__init__(seed, params)
        self.files = survey(params["files"], seed)
        self.names = [f.name for f in self.files]

    def setup(self):
        fed = self.federation()
        client = self.connect(fed)
        client.mkcoll(self.coll)
        self.preload(client, self.files)
        return SimpleNamespace(fed=fed, client=client, cursor=None, page=0)

    def plan(self):
        rng = random.Random(self.seed + 1)
        n = len(self.files)
        return [(kind, rng.randrange(n))
                for kind in dealt(rng, self.params["calls"],
                                  self.params["mix"])]

    def call(self, state, op):
        if op[0] == "ls_page":
            return state.client.ls_page(self.coll,
                                        limit=self.params["page"],
                                        cursor=state.cursor), None
        return self.call_point(state.client, op,
                               self.path_of(self.files[op[1]]))

    def check(self, state, op, result):
        if op[0] != "ls_page":
            f = self.files[op[1]]
            return self.check_point(op, f, self.path_of(f), result)
        # pages follow one another through the keyset cursor and wrap
        # around at the end of the collection
        size = self.params["page"]
        start = state.page * size
        want = self.names[start:start + size]
        got = [o["name"] for o in result["objects"]]
        expect(got == want, f"ls_page {state.page}: {len(got)} rows")
        state.cursor = result["next_cursor"]
        expect((state.cursor is None) == (start + size >= len(self.names)),
               f"ls_page {state.page}: cursor {state.cursor!r}")
        state.page = 0 if state.cursor is None else state.page + 1
        return len(got)

    def expected_listing(self, calls):
        return {self.coll: self.names}


class CatalogQuery(Workload):
    """Streamed scans, index-plan queries and full listings, each drained
    and compared row by row with an oracle over the generated attributes."""

    def __init__(self, seed, params):
        super().__init__(seed, params)
        self.files = survey(params["files"], seed)
        self.names = [f.name for f in self.files]

    def setup(self):
        fed = self.federation()
        client = self.connect(fed)
        client.mkcoll(self.coll)
        self.preload(client, self.files)
        return SimpleNamespace(fed=fed, client=client)

    def plan(self):
        rng = random.Random(self.seed + 1)
        width = self.params["jmag_width"]
        dates = sorted({f.attributes["DATEOBS"] for f in self.files})
        kinds = dealt(rng, self.params["calls"], self.params["mix"])
        # each range kind's windows are spread evenly over JMAG 4..16
        # (one jittered window per stratum, in shuffled order), so every
        # seed scans the same mix of windows
        lows = {}
        for kind in ("iter_query", "query_range"):
            n = kinds.count(kind)
            lows[kind] = [4.0 + (j + rng.random()) * (12.0 - width) / n
                          for j in range(n)]
            rng.shuffle(lows[kind])
        plan = []
        for kind in kinds:
            if kind in ("iter_query", "query_range"):
                lo = round(lows[kind].pop(), 2)
                plan.append((kind, f"{lo:.2f}", f"{lo + width:.2f}"))
            elif kind == "query_eq":
                plan.append((kind, rng.choice(dates)))
            else:
                plan.append((kind,))
        return plan

    def call(self, state, op):
        client, kind = state.client, op[0]
        if kind == "iter_query":
            return drain(client.iter_query(
                self.coll, [Condition("JMAG", ">=", op[1]),
                            Condition("JMAG", "<", op[2])]))
        if kind == "query_range":
            return client.query(
                self.coll, [Condition("SURVEY", "=", "2MASS"),
                            Condition("JMAG", ">=", op[1]),
                            Condition("JMAG", "<", op[2])]).rows, None
        if kind == "query_eq":
            return client.query(
                self.coll, [Condition("DATEOBS", "=", op[1])]).rows, None
        return drain(client.iter_ls(self.coll))

    def check(self, state, op, result):
        kind = op[0]
        rows = [tuple(r) for r in result] if kind != "iter_ls" else result
        if kind in ("iter_query", "query_range"):
            lo, hi = float(op[1]), float(op[2])
            hits = [f for f in self.files
                    if lo <= float(f.attributes["JMAG"]) < hi]
            if kind == "iter_query":
                want = [(self.path_of(f), f.attributes["JMAG"])
                        for f in hits]
            else:
                want = [(self.path_of(f), "2MASS", f.attributes["JMAG"])
                        for f in hits]
                rows = sorted(rows)
        elif kind == "query_eq":
            want = [(self.path_of(f), op[1]) for f in self.files
                    if f.attributes["DATEOBS"] == op[1]]
            rows = sorted(rows)
        else:
            want = self.names
            rows = [r["name"] for r in rows]
        expect(rows == want, f"{op}: {len(rows)} rows, expected {len(want)}")
        return len(rows)

    def expected_listing(self, calls):
        return {self.coll: self.names}


class GridMixKnobs(Workload, _Reads):
    """Every knob on, two sites, Zipf-skewed keys, open-loop arrivals."""

    def __init__(self, seed, params):
        super().__init__(seed, params)
        n, n_new = params["files"], params["calls"]
        files = survey(n + n_new, seed)
        self.files, self.new_files = files[:n], files[n:]
        # two top-level collections, owned by different catalog shards
        self.colls = ["/demozone/grid-a", "/demozone/grid-d"]

    def path_of(self, f) -> str:
        index = int(f.name[5:12])
        return f"{self.colls[index % 2]}/{f.name}"

    def federation(self):
        """Client, server and one disk at SDSC; a second disk at Caltech
        across a TRANSCON link; a logical resource over both disks."""
        p = self.params
        fed = Federation(zone="demozone", direct_io=True, session_cache=True,
                         parallel_fanout=True, mcat_shards=p["mcat_shards"],
                         mcat_replicas=p["mcat_replicas"],
                         workers=p["workers"], queue_depth=p["queue_depth"],
                         placement="observed")
        for host in ("hc", "hs", "hr"):
            fed.add_host(host, site="sdsc")
        fed.add_host("hx", site="caltech")
        for host in ("hc", "hs", "hr"):
            fed.network.set_link(host, "hx", TRANSCON)
        fed.add_server("s0", "hs", mcat=True)
        fed.add_fs_resource("disk-sdsc", "hr")
        fed.add_fs_resource("disk-caltech", "hx")
        fed.add_logical_resource("both", ["disk-sdsc", "disk-caltech"])
        fed.default_resource = "both"
        expect(fed.mcat.shard_of_path(self.colls[0])
               != fed.mcat.shard_of_path(self.colls[1]),
               "both collections landed on one catalog shard")
        return fed

    def setup(self):
        fed = self.federation()
        client = self.connect(fed)
        for coll in self.colls:
            client.mkcoll(coll)
        self.preload(client, self.files, resource="both")
        return SimpleNamespace(fed=fed, client=client)

    def plan(self):
        p = self.params
        rng = random.Random(self.seed + 1)
        pick = zipf_sampler(rng, len(self.files), p["zipf_s"])
        plan, new = [], 0
        for kind in dealt(rng, p["calls"], p["mix"]):
            if kind == "ingest":
                plan.append((kind, new))
                new += 1
            elif kind == "bulk_get":
                chosen: List[int] = []
                while len(chosen) < p["bulk"]:
                    i = pick()
                    if i not in chosen:
                        chosen.append(i)
                plan.append((kind, tuple(chosen)))
            else:
                plan.append((kind, pick()))
        self.ingested = new
        return plan

    def call(self, state, op):
        client, kind = state.client, op[0]
        if kind == "ingest":
            f = self.new_files[op[1]]
            return client.ingest(self.path_of(f), f.content,
                                 resource="both", data_type=f.data_type,
                                 metadata=f.attributes), None
        if kind == "bulk_get":
            return client.bulk_get(
                [self.path_of(self.files[i]) for i in op[1]]), None
        return self.call_point(client, op, self.path_of(self.files[op[1]]))

    def check(self, state, op, result):
        kind = op[0]
        if kind == "ingest":
            expect(isinstance(result, int), f"ingest returned {result!r}")
            return 1
        if kind == "bulk_get":
            want = [(self.path_of(self.files[i]), self.files[i].content)
                    for i in op[1]]
            got = [(r["path"], r.get("data")) for r in result]
            expect(got == want, f"bulk_get of {len(op[1])}: wrong items")
            return len(got)
        f = self.files[op[1]]
        return self.check_point(op, f, self.path_of(f), result)

    def run(self, state, plan):
        """Open loop in virtual time: Poisson arrivals, each request timed
        from its scheduled arrival, replayed one after another."""
        fed = state.fed
        calls = Calls()
        arrivals = poisson_arrivals(self.params["rate_hz"], len(plan),
                                    seed=self.seed + 2, start=fed.clock.now)

        def issue(i: int) -> None:
            op = plan[i]
            t0 = perf_counter()
            result, _ = self.call(state, op)
            t1 = perf_counter()
            items = self.check(state, op, result)
            pending.append((op[0], t1 - t0, items))

        pending: List[tuple] = []
        report = run_open_loop(fed.rpc, arrivals, issue,
                               offered_rate_hz=self.params["rate_hz"])
        calls.attempted = report.issued
        calls.failed_ops = [plan[o.index] for o in report.outcomes
                            if not o.ok]
        ok = [o for o in report.outcomes if o.ok]
        expect(len(ok) == len(pending),
               f"{len(ok)} requests completed, {len(pending)} returned")
        done = iter(pending)
        for outcome in report.outcomes:
            if outcome.ok:
                kind, wall, items = next(done)
                calls.add(kind, wall, None, outcome.latency, items,
                          outcome.wait)
        calls.virt_elapsed_s = report.makespan_s
        calls.goodput_per_s = report.goodput_hz
        return calls

    def expected_listing(self, calls):
        failed = {op[1] for op in calls.failed_ops if op[0] == "ingest"}
        new = [f for i, f in enumerate(self.new_files[:self.ingested])
               if i not in failed]
        listing: Dict[str, List[str]] = {c: [] for c in self.colls}
        for f in self.files + new:
            listing[self.path_of(f).rsplit("/", 1)[0]].append(f.name)
        return {c: sorted(names) for c, names in listing.items()}

    def payload_bytes(self, plan):
        return sum(len(self.new_files[op[1]].content) for op in plan
                   if op[0] == "ingest")


WORKLOADS = {
    "ingest_2mass": Ingest2Mass,
    "read_mix": ReadMix,
    "catalog_query": CatalogQuery,
    "grid_mix_knobs": GridMixKnobs,
}
