"""Message-passing RPC over the simulated network.

SRB servers and clients communicate with request/response messages.  This
layer gives each host a set of named *services* (an SRB server registers
itself as service ``"srb"``); a caller invokes ``rpc.call(src, dst,
service, method, **kwargs)`` which charges the request bytes, runs the
handler, charges the response bytes, and either returns the handler's
result or re-raises its exception on the caller side — the same model as
mpi4py's pickle-based send/recv, specialized to request/response.

Every RPC is such a message pair, run by one private primitive
(``ServiceRegistry._message_pair``): ``call`` serves one handler,
``call_batch`` serves N pipelined requests with per-item error
marshalling, and ``call_stream`` is a loop of ``call``.  Each outcome
(ok, handler error, wrapped bug, request leg lost, shed, reply leg lost,
redirect failed) is accounted in one place; DESIGN.md ("Admission in the
RPC layer") tables the metrics and ``last_timing`` fields of each.

Exceptions deriving from :class:`~repro.errors.SrbError` cross the wire
transparently (the remote failure surfaces at the caller, as a real RPC
stack would marshal them); anything else is wrapped in ``RpcError`` since
a production system would not leak arbitrary remote tracebacks.

**Load plane.**  When the destination host carries a
:class:`~repro.net.simnet.ServiceStation` (``Federation(workers=...)``),
every call and batch contends for that host's worker pool: a request
arriving while all workers are busy queues (the wait is charged to the
caller and recorded as ``srb.queue.*`` metrics plus a queue-wait span),
and with a bounded queue a request arriving at a full queue is shed
fast with :class:`~repro.errors.ServerBusy` carrying a retry-after
hint (``srb.admission.*`` metrics).  The :meth:`ServiceRegistry.
open_loop` context manager lets a workload generator stamp a call with
a logical *arrival* time independent of the global clock — requests
then overlap in station bookkeeping instead of serializing on the
clock, which is what makes open-loop (arrivals independent of
completions) saturation curves representable (experiment E15).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, \
    Sequence, Tuple

from repro.errors import HostUnreachable, RpcError, ServerBusy, SrbError
from repro.net.simnet import Network, run_legs
from repro.net.wire import Redirect, message_size


@dataclass
class RpcStats:
    """Counters a benchmark can read to explain a result."""

    calls: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    failures: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "calls": self.calls,
            "request_bytes": self.request_bytes,
            "response_bytes": self.response_bytes,
            "failures": self.failures,
        }


@dataclass
class RequestTiming:
    """Per-request timing of the most recent call through the registry.

    The open-loop workload generator reads this after each issued
    request: with a virtual clock that only moves forward, a request's
    *latency under contention* cannot be read off the clock delta alone
    — the queue wait of overlapping requests is station bookkeeping,
    not clock time.  ``latency`` is the client-perceived seconds from
    ``arrival`` (request issued) to the response (or error/busy reply)
    arriving back; for a shed request it is the fast-fail round trip.
    """

    arrival: float                       #: virtual time the client issued
    wait: float                          #: queue wait at the server
    latency: float                       #: arrival -> response at client
    shed: bool = False                   #: admission control refused it
    retry_after: Optional[float] = None  #: hint carried by ServerBusy
    error: Optional[str] = None          #: error type name, if it failed

    @property
    def ok(self) -> bool:
        return not self.shed and self.error is None

    @property
    def done(self) -> float:
        return self.arrival + self.latency


@dataclass
class BatchItemResult:
    """Outcome of one item of a :meth:`ServiceRegistry.call_batch`.

    Either ``ok`` with a ``value``, or failed with the marshalled
    ``error`` (an :class:`SrbError` subclass, or :class:`RpcError` for
    wrapped remote bugs).  A failed item never poisons its batch —
    callers inspect results item by item, or :meth:`unwrap` to re-raise.
    """

    ok: bool
    value: Any = None
    error: Optional[Exception] = None

    def unwrap(self) -> Any:
        if not self.ok:
            raise self.error
        return self.value


def _resolve_method(handler: Any, service: str, method: str) -> Callable:
    """Resolve ``method`` on a handler object.

    A handler may narrow its RPC surface by exposing ``__rpc_lookup__``
    (the SRB server does: its surface is exactly the registered dispatch
    ops).  Otherwise any public attribute is callable, as before.
    """
    lookup = getattr(handler, "__rpc_lookup__", None)
    if lookup is not None:
        fn = lookup(method)
    else:
        fn = getattr(handler, method, None)
        if method.startswith("_"):
            fn = None
    if fn is None:
        raise RpcError(f"service {service!r} has no method {method!r}")
    return fn


def _marshal(exc: Exception, service: str, method: str) -> Exception:
    """What a remote failure surfaces as at the caller: an
    :class:`SrbError` as itself, any other exception (a remote bug)
    wrapped in :class:`RpcError` with the original as its cause."""
    if isinstance(exc, SrbError):
        return exc
    wrapped = RpcError(f"remote {service}.{method} failed: {exc!r}")
    wrapped.__cause__ = exc
    return wrapped


def _batch_reply_size(results: List[BatchItemResult]) -> int:
    return message_size(
        [r.value if r.ok else {"error": True} for r in results])


class ServiceRegistry:
    """Per-network registry mapping (host, service) -> handler object.

    A handler object exposes methods; ``call`` dispatches by method name.
    Handlers run "on" the destination host: any storage/db time they charge
    is added to the same global clock after the request transfer.
    """

    def __init__(self, network: Network):
        self.network = network
        self._services: Dict[tuple, Any] = {}
        self.stats = RpcStats()
        # open-loop arrival stamp for the *next* top-level call (consumed
        # by it; nested calls it makes run closed-loop as usual)
        self._open_arrival: Optional[float] = None
        #: timing of the most recent completed/shed call (RequestTiming)
        self.last_timing: Optional[RequestTiming] = None
        # host of the client whose request is currently being invoked;
        # handlers read it (via OpContext.caller_host) to know where a
        # direct data channel's far end lives.  Saved/restored around
        # each invocation so nested server→server RPCs see their own src.
        self._caller_host: Optional[str] = None

    @property
    def caller_host(self) -> Optional[str]:
        """Source host of the request currently being served, if any."""
        return self._caller_host

    # -- open-loop load ------------------------------------------------------

    @contextmanager
    def open_loop(self, arrival: float) -> Iterator[None]:
        """Stamp the next call in this block with a logical arrival time.

        An open-loop workload generator issues requests at *scheduled*
        times, independent of when earlier requests complete.  Inside
        this context the next top-level :meth:`call`/:meth:`call_batch`
        treats ``arrival`` (plus its request-leg cost) as the moment the
        request reaches the server's queue, and its queue wait is
        accounted in station bookkeeping instead of advancing the global
        clock — overlapping requests contend, they do not serialize.
        Read :attr:`last_timing` afterwards for the request's latency.
        """
        prev = self._open_arrival
        self._open_arrival = float(arrival)
        try:
            yield
        finally:
            self._open_arrival = prev

    def _admit(self, dst: str, service: str, method: str, arrival: float,
               advance_clock: bool):
        """Contend for ``dst``'s worker pool (no-op without a station).

        Returns ``(station, admission)``; raises
        :class:`~repro.errors.ServerBusy` (after counting the shed in
        ``srb.admission.*``) when the bounded queue is full.  An admitted
        request records its queue wait and depth in ``srb.queue.*`` and,
        when it actually waited, emits a queue-wait span — under a
        closed loop the caller genuinely waits, so the clock advances.
        """
        station = self.network.host(dst).station
        if station is None:
            return None, None
        obs = self.network.obs
        try:
            admission = station.admit(arrival)
        except ServerBusy as exc:
            obs.metrics.inc("srb.admission.shed", host=dst, service=service,
                            method=method)
            obs.metrics.observe("srb.admission.retry_after_s",
                                exc.retry_after, host=dst)
            raise
        obs.metrics.inc("srb.admission.admitted", host=dst, service=service,
                        method=method)
        obs.metrics.observe("srb.queue.wait_s", admission.wait,
                            host=dst, service=service)
        obs.metrics.observe("srb.queue.depth", admission.depth, host=dst)
        if admission.wait > 0:
            with obs.tracer.span("srb.queue.wait", host=dst,
                                 service=service, method=method,
                                 wait_s=admission.wait,
                                 depth=admission.depth):
                if advance_clock:
                    self.network.clock.advance(admission.wait)
        return station, admission

    # -- registration --------------------------------------------------------

    def register(self, host: str, service: str, handler: Any) -> None:
        self.network.host(host)  # validate host exists
        key = (host, service)
        if key in self._services:
            raise RpcError(f"service {service!r} already registered on {host!r}")
        self._services[key] = handler

    def deregister(self, host: str, service: str) -> None:
        self._services.pop((host, service), None)

    def lookup(self, host: str, service: str) -> Any:
        try:
            return self._services[(host, service)]
        except KeyError:
            raise RpcError(f"no service {service!r} on host {host!r}") from None

    # -- invocation ------------------------------------------------------------

    def _count_failure(self, service: str, method: str, error: str) -> None:
        self.stats.failures += 1
        self.network.obs.metrics.inc("rpc.failures", service=service,
                                     method=method, error=error)

    def _account(self, service: str, method: str, issued: float,
                 wait: float, latency: float, error: Optional[str] = None,
                 **timing: Any) -> None:
        """Close a message pair: ``rpc.call_s`` and :attr:`last_timing`.

        Failed calls must not be invisible in the latency histograms: a
        failure lands on the same ``rpc.call_s`` series as a success,
        with an ``error=`` label, and is counted in ``failures`` and
        ``rpc.failures``.  ``latency`` includes any un-clocked queue wait.
        """
        if error is None:
            self.network.obs.metrics.observe("rpc.call_s", latency,
                                             service=service, method=method)
        else:
            self._count_failure(service, method, error)
            self.network.obs.metrics.observe("rpc.call_s", latency,
                                             service=service, method=method,
                                             error=error)
        self.last_timing = RequestTiming(arrival=issued, wait=wait,
                                         latency=latency, error=error,
                                         **timing)

    def _message_pair(self, sp: Any, src: str, dst: str, service: str,
                      method: str, req_bytes: int, serve: Callable[[], Any],
                      reply_size: Callable[[Any], int],
                      redirect: Callable[[str, Any], Any],
                      batch_items: Optional[int] = None) -> Any:
        """One request/response message pair: the body of every RPC.

        :meth:`call` and :meth:`call_batch` supply what differs: the open
        span ``sp``, the request size, the ``method`` label, ``serve``
        (runs on ``dst``), ``reply_size`` and the caller-side
        ``redirect`` step.  In order, once each: charge the request leg;
        contend for ``dst``'s worker pool; serve, with :attr:`caller_host`
        set and the worker held for the service time even if ``serve``
        raised; charge the reply leg (the result, or a small error/busy
        reply); run ``redirect``; account the outcome.
        """
        metrics = self.network.obs.metrics
        clock = self.network.clock
        open_arrival = self._open_arrival
        self._open_arrival = None       # nested calls run closed-loop
        self.last_timing = None
        t0 = clock.now
        issued = open_arrival if open_arrival is not None else t0
        wait = extra = 0.0
        # the attempt counts even if the request never arrives: an
        # unreachable-host RPC must be visible in the stats
        self.stats.calls += 1
        self.stats.request_bytes += req_bytes
        metrics.inc("rpc.calls", service=service, method=method)
        if batch_items is not None:
            metrics.inc("rpc.batch_calls", service=service)
            metrics.inc("rpc.batch_items", batch_items, service=service)
        metrics.inc("rpc.request_bytes", req_bytes, service=service,
                    method=method)
        if sp is not None:
            sp.incr("request_bytes", req_bytes)
        try:
            self.network.transfer(src, dst, req_bytes)
        except HostUnreachable:
            self._account(service, method, issued, wait, clock.now - t0,
                          "unreachable")
            raise

        error: Optional[Exception] = None   # what the caller will get
        err_name: Optional[str] = None      # its ``error=`` label
        timing: Dict[str, Any] = {}
        try:
            # a batch occupies one worker too: admission is per message
            # pair, exactly like the byte/latency amortization
            station, admission = self._admit(
                dst, service, method, issued + (clock.now - t0),
                advance_clock=open_arrival is None)
        except ServerBusy as exc:
            # fast-fail: the server answers with a tiny busy reply
            # carrying the retry-after hint instead of queueing
            if sp is not None:
                sp.error = str(exc)
            error, err_name = exc, "ServerBusy"
            timing = {"shed": True, "retry_after": exc.retry_after}
            resp_bytes = message_size(
                {"error": True, "retry_after": exc.retry_after})
        else:
            if admission is not None:
                wait = admission.wait
                # under an open loop the wait overlapped other requests'
                # work: it is part of this request's latency, not clock
                # time
                extra = wait if open_arrival is not None else 0.0
            t_svc = clock.now
            caller_prev = self._caller_host
            self._caller_host = src
            try:
                result = serve()
            except Exception as exc:
                err_name = type(exc).__name__
                error = _marshal(exc, service, method)
                resp_bytes = message_size({"error": True})
            else:
                resp_bytes = reply_size(result)
            finally:
                self._caller_host = caller_prev
                # the worker was occupied for the service time whether
                # the handler succeeded or raised
                if admission is not None:
                    station.complete(
                        admission, admission.start + (clock.now - t_svc))

        try:
            self.network.transfer(dst, src, resp_bytes)
        except HostUnreachable:
            # the reply never made it back (a partition opened mid-call):
            # a failed call, whether it carried a result or an error
            self._account(service, method, issued, wait,
                          clock.now - t0 + extra, "unreachable")
            raise
        self.stats.response_bytes += resp_bytes
        if error is not None:
            metrics.inc("rpc.response_bytes", resp_bytes, service=service,
                        method=method, error=err_name)
            self._account(service, method, issued, wait,
                          clock.now - t0 + extra, err_name, **timing)
            raise error
        metrics.inc("rpc.response_bytes", resp_bytes, service=service,
                    method=method)
        try:
            # a redirect's second leg costs the caller: it is part of
            # this call's client-perceived latency
            result = redirect(src, result)
        except SrbError as exc:
            if sp is not None:
                sp.error = str(exc)
            self._account(service, method, issued, wait,
                          clock.now - t0 + extra, type(exc).__name__)
            raise
        self._account(service, method, issued, wait, clock.now - t0 + extra)
        if sp is not None:
            sp.incr("response_bytes", resp_bytes)
        return result

    def call(self, src: str, dst: str, service: str, method: str,
             /, **kwargs: Any) -> Any:
        """Invoke ``method`` of ``service`` on host ``dst`` from host ``src``.

        Charges request and response transfers on the shared clock.  The
        response size is measured from the actual return value, so calls
        returning file contents cost bandwidth proportional to the data.
        When the destination host has a worker-pool station the call
        additionally pays (or is shed by) that host's queue.  A
        :class:`Redirect` reply's second leg runs before the call
        returns; if it fails, the call fails.
        """
        fn = _resolve_method(self.lookup(dst, service), service, method)
        req_bytes = message_size({"method": method, "kwargs": kwargs})
        with self.network.obs.tracer.span("rpc.call", src=src, dst=dst,
                                          service=service,
                                          method=method) as sp:
            return self._message_pair(sp, src, dst, service, method,
                                      req_bytes, partial(fn, **kwargs),
                                      message_size, self._run_redirect)

    def _run_redirect(self, sink: str, redirect: Any) -> Any:
        """Execute a redirect reply's second leg(s) at the caller.

        Any other reply passes through unchanged.  The channels run
        through the leg executor (:func:`~repro.net.simnet.run_legs`)
        under one ``srb.redirect`` span toward ``sink``: serially, or —
        for a ``parallel`` redirect of several legs — as one group
        charging the makespan.  With ``retry=True`` (striped reads) the
        failed grouped legs' bytes are re-pulled in one transfer from
        the first healthy leg's source (if none answered, the executor
        raises); otherwise the first failure raises.  Returns the
        payload.
        """
        if not isinstance(redirect, Redirect):
            return redirect
        channels = redirect.channels
        outcomes = run_legs(self.network, channels,
                            parallel=redirect.parallel and len(channels) > 1,
                            label=f"direct-{redirect.label}",
                            redirect=redirect.label, repair=redirect.retry)
        failed = [o for o in outcomes if not o.ok]
        if failed and not redirect.retry:
            raise failed[0].error
        return redirect.payload

    def call_stream(self, src: str, dst: str, service: str, method: str,
                    /, page_size: int = 100, cursor: Optional[Any] = None,
                    **kwargs: Any) -> Iterator[Any]:
        """Invoke a cursor-paged ``method`` as a stream of reply chunks.

        The remote op must accept ``cursor=``/``limit=`` keywords and
        reply with a mapping (or object) carrying ``next_cursor`` — the
        contract of the paged query ops (``query_page``,
        ``list_collection_page``).  Each chunk is a *separate charged
        message pair* through :meth:`call`: request and reply bytes flow
        per chunk (``rpc.response_bytes`` accrues as the stream
        progresses, and the first chunk lands after O(page) work instead
        of O(result set) — first-row latency beats last-row, experiment
        E17), the destination's admission control is applied per chunk
        (a mid-stream :class:`~repro.errors.ServerBusy` surfaces between
        chunks, leaving no station state behind), and a mid-stream
        handler error is marshalled exactly like a failed call — the
        already-delivered chunks stand.

        Yields each chunk's reply value; the stream ends when a chunk
        carries ``next_cursor=None``.  Stream-level accounting:
        ``rpc.streams``, ``rpc.stream.chunks``, ``rpc.stream.chunk_bytes``
        (histogram — its max is the peak single-reply size, bounded by
        the page size) and ``rpc.stream.first_chunk_s``.
        """
        obs = self.network.obs
        clock = self.network.clock
        obs.metrics.inc("rpc.streams", service=service, method=method)
        t0 = clock.now
        first = True
        while True:
            reply = self.call(src, dst, service, method,
                              cursor=cursor, limit=page_size, **kwargs)
            if first:
                obs.metrics.observe("rpc.stream.first_chunk_s",
                                    clock.now - t0,
                                    service=service, method=method)
                first = False
            obs.metrics.inc("rpc.stream.chunks", service=service,
                            method=method)
            obs.metrics.observe("rpc.stream.chunk_bytes",
                                message_size(reply),
                                service=service, method=method)
            if isinstance(reply, dict):
                next_cursor = reply.get("next_cursor")
            else:
                next_cursor = getattr(reply, "next_cursor", None)
            yield reply
            if next_cursor is None:
                return
            cursor = next_cursor

    def call_batch(self, src: str, dst: str, service: str,
                   items: Sequence[Tuple[str, Dict[str, Any]]],
                   /) -> List[BatchItemResult]:
        """Invoke N methods of ``service`` as one pipelined message pair.

        ``items`` is a sequence of ``(method, kwargs)`` requests.  The
        whole batch travels as a single request message (summed payload
        bytes, one link latency) and the results come back as a single
        response message — the amortization that makes bulk operations
        O(1) in round trips instead of O(N).

        Errors are marshalled per item: an :class:`SrbError` raised by
        item k (or by its redirect leg) is captured in its
        :class:`BatchItemResult`, counted under item k's method, and the
        other items still execute and return.  Only whole-message
        failures fail the whole batch: a transport failure on either leg
        (destination unreachable — after charging the usual timeout) or
        the destination's admission control shedding the batch with
        :class:`~repro.errors.ServerBusy`.
        """
        handler = self.lookup(dst, service)
        req_bytes = message_size(
            {"batch": [{"method": m, "kwargs": kw} for m, kw in items]})

        def serve() -> List[BatchItemResult]:
            results = []
            for method, kwargs in items:
                try:
                    value = _resolve_method(handler, service, method)(
                        **kwargs)
                except Exception as exc:
                    results.append(BatchItemResult(
                        ok=False, error=_marshal(exc, service, method)))
                    self._count_failure(service, method,
                                        type(exc).__name__)
                else:
                    results.append(BatchItemResult(ok=True, value=value))
            return results

        def redirect(sink: str,
                     results: List[BatchItemResult]) -> List[BatchItemResult]:
            # a dead channel fails only its own item
            for (method, _kwargs), r in zip(items, results):
                if r.ok:
                    try:
                        r.value = self._run_redirect(sink, r.value)
                    except SrbError as exc:
                        r.ok, r.value, r.error = False, None, exc
                        self._count_failure(service, method,
                                            type(exc).__name__)
            return results

        with self.network.obs.tracer.span("rpc.call_batch", src=src,
                                          dst=dst, service=service,
                                          items=len(items)) as sp:
            return self._message_pair(sp, src, dst, service, "<batch>",
                                      req_bytes, serve, _batch_reply_size,
                                      redirect, batch_items=len(items))
