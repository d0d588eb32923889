"""Unit tests for the RPC layer."""

import pytest

from repro.core import Federation
from repro.errors import HostUnreachable, InvalidTicket, NoSuchObject, \
    RpcError, SrbError
from repro.net.rpc import ServiceRegistry
from repro.net.simnet import Network
from repro.net.wire import Redirect


class EchoService:
    def echo(self, text: str) -> str:
        return text

    def fail_srb(self):
        raise NoSuchObject("nothing here")

    def fail_bug(self):
        raise ValueError("internal bug")

    def _private(self):
        return "secret"


@pytest.fixture
def setup():
    net = Network()
    net.add_host("client")
    net.add_host("server")
    rpc = ServiceRegistry(net)
    rpc.register("server", "svc", EchoService())
    return net, rpc


class TestCall:
    def test_roundtrip(self, setup):
        net, rpc = setup
        assert rpc.call("client", "server", "svc", "echo", text="hi") == "hi"

    def test_charges_clock_both_ways(self, setup):
        net, rpc = setup
        t0 = net.clock.now
        rpc.call("client", "server", "svc", "echo", text="hi")
        assert net.clock.now - t0 >= 2 * net.default_link.latency_s

    def test_response_size_charged(self, setup):
        net, rpc = setup
        rpc.call("client", "server", "svc", "echo", text="x")
        small = net.bytes_sent
        net2 = Network(); net2.add_host("client"); net2.add_host("server")
        rpc2 = ServiceRegistry(net2); rpc2.register("server", "svc", EchoService())
        rpc2.call("client", "server", "svc", "echo", text="x" * 10000)
        assert net2.bytes_sent > small + 9000

    def test_stats(self, setup):
        _, rpc = setup
        rpc.call("client", "server", "svc", "echo", text="hi")
        snap = rpc.stats.snapshot()
        assert snap["calls"] == 1
        assert snap["request_bytes"] > 0
        assert snap["response_bytes"] > 0


class TestErrors:
    def test_srb_errors_propagate_typed(self, setup):
        _, rpc = setup
        with pytest.raises(NoSuchObject):
            rpc.call("client", "server", "svc", "fail_srb")

    def test_non_srb_errors_wrapped(self, setup):
        _, rpc = setup
        with pytest.raises(RpcError):
            rpc.call("client", "server", "svc", "fail_bug")

    def test_error_response_still_charged(self, setup):
        net, rpc = setup
        t0 = net.clock.now
        with pytest.raises(NoSuchObject):
            rpc.call("client", "server", "svc", "fail_srb")
        assert net.clock.now - t0 >= 2 * net.default_link.latency_s
        assert rpc.stats.failures == 1

    def test_unreachable_host_counted(self, setup):
        """Regression: a call that dies on the request transfer used to
        leave ``calls`` and ``failures`` both at zero — invisible in
        exactly the situation the stats exist for."""
        net, rpc = setup
        net.set_down("server")
        with pytest.raises(HostUnreachable):
            rpc.call("client", "server", "svc", "echo", text="hi")
        assert rpc.stats.calls == 1
        assert rpc.stats.failures == 1
        assert rpc.stats.request_bytes > 0

    def test_unknown_service(self, setup):
        _, rpc = setup
        with pytest.raises(RpcError):
            rpc.call("client", "server", "nope", "echo", text="x")

    def test_unknown_method(self, setup):
        _, rpc = setup
        with pytest.raises(RpcError):
            rpc.call("client", "server", "svc", "nope")

    def test_private_method_blocked(self, setup):
        _, rpc = setup
        with pytest.raises(RpcError):
            rpc.call("client", "server", "svc", "_private")

    def test_duplicate_registration_rejected(self, setup):
        net, rpc = setup
        with pytest.raises(RpcError):
            rpc.register("server", "svc", EchoService())

    def test_deregister(self, setup):
        _, rpc = setup
        rpc.deregister("server", "svc")
        with pytest.raises(RpcError):
            rpc.call("client", "server", "svc", "echo", text="x")


class TestCallBatch:
    def test_all_ok(self, setup):
        _, rpc = setup
        results = rpc.call_batch("client", "server", "svc",
                                 [("echo", {"text": f"m{i}"})
                                  for i in range(5)])
        assert [r.unwrap() for r in results] == [f"m{i}" for i in range(5)]

    def test_one_message_pair(self, setup):
        """N batched items cost exactly two messages (request + response),
        not 2N — the amortization the bulk data plane is built on."""
        net, rpc = setup
        before = net.messages_sent
        rpc.call_batch("client", "server", "svc",
                       [("echo", {"text": "x"})] * 40)
        assert net.messages_sent - before == 2
        assert rpc.stats.calls == 1

    def test_one_latency_not_n(self, setup):
        net, rpc = setup
        t0 = net.clock.now
        n = 40
        rpc.call_batch("client", "server", "svc",
                       [("echo", {"text": "x"})] * n)
        elapsed = net.clock.now - t0
        assert elapsed < n * net.default_link.latency_s

    def test_error_isolation(self, setup):
        """Item k failing with an SrbError doesn't poison the batch: the
        other items run and return, and item k's typed error surfaces at
        the caller."""
        _, rpc = setup
        results = rpc.call_batch("client", "server", "svc", [
            ("echo", {"text": "a"}),
            ("fail_srb", {}),
            ("echo", {"text": "b"}),
        ])
        assert results[0].unwrap() == "a"
        assert results[2].unwrap() == "b"
        assert not results[1].ok
        with pytest.raises(NoSuchObject):
            results[1].unwrap()

    def test_bug_wrapped_per_item(self, setup):
        _, rpc = setup
        results = rpc.call_batch("client", "server", "svc", [
            ("fail_bug", {}),
            ("echo", {"text": "ok"}),
        ])
        assert not results[0].ok
        assert isinstance(results[0].error, RpcError)
        assert results[1].unwrap() == "ok"

    def test_unknown_and_private_methods_isolated(self, setup):
        _, rpc = setup
        results = rpc.call_batch("client", "server", "svc", [
            ("nope", {}),
            ("_private", {}),
            ("echo", {"text": "still fine"}),
        ])
        assert [r.ok for r in results] == [False, False, True]
        assert isinstance(results[0].error, RpcError)
        assert isinstance(results[1].error, RpcError)

    def test_failures_counted_per_item(self, setup):
        _, rpc = setup
        rpc.call_batch("client", "server", "svc",
                       [("fail_srb", {}), ("fail_srb", {}),
                        ("echo", {"text": "x"})])
        assert rpc.stats.failures == 2

    def test_unreachable_fails_whole_batch(self, setup):
        """The request leg never arriving is a transport failure, not a
        per-item one: the whole batch raises — after charging the same
        timeout a single call would pay — and is visible in the stats."""
        net, rpc = setup
        net.set_down("server")
        t0 = net.clock.now
        with pytest.raises(HostUnreachable):
            rpc.call_batch("client", "server", "svc",
                           [("echo", {"text": "x"})] * 3)
        assert net.clock.now - t0 >= 2 * net.default_link.latency_s
        assert rpc.stats.calls == 1
        assert rpc.stats.failures == 1

    def test_request_bytes_sum_payloads(self, setup):
        net, rpc = setup
        rpc.call_batch("client", "server", "svc",
                       [("echo", {"text": "x" * 1000})] * 10)
        assert rpc.stats.request_bytes > 10 * 1000

    def test_empty_batch(self, setup):
        _, rpc = setup
        assert rpc.call_batch("client", "server", "svc", []) == []


class NetAwareService:
    """Service whose handlers can sabotage the network mid-call."""

    def __init__(self, net):
        self.net = net

    def echo(self, text: str) -> str:
        return text

    def partition_reply(self) -> str:
        # a partition opens while the handler runs: the response leg
        # will never make it back to the caller
        self.net.partition("client", "server")
        return "you will never see this"

    def partition_then_fail(self):
        # the handler fails after a partition opened: its error reply
        # is lost on the way back, just like a success reply would be
        self.net.partition("client", "server")
        raise NoSuchObject("the caller never learns this")


class SlowService:
    """Service with a genuine (clock-advancing) service time, so its
    worker stays busy long enough for admission tests to contend."""

    SERVICE_S = 0.5

    def __init__(self, net):
        self.net = net

    def work(self) -> str:
        self.net.clock.advance(self.SERVICE_S)
        return "done"


class TestErrorPathAccounting:
    """Regression: error responses used to update only the plain
    counters — ``rpc.response_bytes`` and ``rpc.call_s`` were never
    emitted for a failed call, so error traffic and error latency were
    invisible exactly where a saturation curve needs them."""

    def test_srb_error_emits_labeled_metrics(self, setup):
        net, rpc = setup
        with pytest.raises(NoSuchObject):
            rpc.call("client", "server", "svc", "fail_srb")
        m = net.obs.metrics
        assert m.get("rpc.response_bytes", service="svc",
                     method="fail_srb", error="NoSuchObject") > 0
        hist = m.histogram("rpc.call_s", service="svc",
                           method="fail_srb", error="NoSuchObject")
        assert hist is not None and hist.count == 1
        assert hist.min >= 2 * net.default_link.latency_s
        assert rpc.stats.response_bytes > 0

    def test_wrapped_bug_emits_labeled_metrics(self, setup):
        net, rpc = setup
        with pytest.raises(RpcError):
            rpc.call("client", "server", "svc", "fail_bug")
        m = net.obs.metrics
        assert m.get("rpc.response_bytes", service="svc",
                     method="fail_bug", error="ValueError") > 0
        assert m.histogram("rpc.call_s", service="svc",
                           method="fail_bug", error="ValueError").count == 1

    def test_success_metrics_unlabeled_and_separate(self, setup):
        net, rpc = setup
        rpc.call("client", "server", "svc", "echo", text="hi")
        with pytest.raises(NoSuchObject):
            rpc.call("client", "server", "svc", "fail_srb")
        m = net.obs.metrics
        # the success series carries no error label and is not polluted
        assert m.get("rpc.response_bytes", service="svc",
                     method="echo") > 0
        assert m.histogram("rpc.call_s", service="svc",
                           method="echo").count == 1

    def test_response_leg_partition_counted(self, setup):
        """Regression: the handler succeeding but the response transfer
        dying (partition opened mid-call) used to escape without
        touching ``failures`` — an uncounted failed call."""
        net, rpc = setup
        rpc.register("server", "evil", NetAwareService(net))
        failures0 = rpc.stats.failures
        with pytest.raises(HostUnreachable):
            rpc.call("client", "server", "evil", "partition_reply")
        assert rpc.stats.failures == failures0 + 1
        m = net.obs.metrics
        assert m.get("rpc.failures", service="evil",
                     method="partition_reply", error="unreachable") == 1
        assert m.histogram("rpc.call_s", service="evil",
                           method="partition_reply",
                           error="unreachable").count == 1

    def test_response_leg_partition_counted_in_batch(self, setup):
        net, rpc = setup
        rpc.register("server", "evil", NetAwareService(net))
        with pytest.raises(HostUnreachable):
            rpc.call_batch("client", "server", "evil",
                           [("echo", {"text": "a"}),
                            ("partition_reply", {})])
        assert rpc.stats.failures == 1
        m = net.obs.metrics
        assert m.get("rpc.failures", service="evil",
                     method="<batch>", error="unreachable") == 1

    def test_lost_error_reply_counted(self, setup):
        """Regression: an error reply lost to a partition used to escape
        mid-accounting: ``last_timing`` stayed None and ``rpc.call_s``
        never saw the call.  A lost error reply is accounted exactly like
        a lost success reply: one ``unreachable`` failure."""
        net, rpc = setup
        rpc.register("server", "evil", NetAwareService(net))
        with pytest.raises(HostUnreachable):
            rpc.call("client", "server", "evil", "partition_then_fail")
        assert rpc.stats.failures == 1
        m = net.obs.metrics
        assert m.get("rpc.failures", service="evil",
                     method="partition_then_fail", error="unreachable") == 1
        assert m.total("rpc.failures") == 1
        assert m.histogram("rpc.call_s", service="evil",
                           method="partition_then_fail",
                           error="unreachable").count == 1
        assert rpc.last_timing is not None
        assert rpc.last_timing.error == "unreachable"

    def test_batch_item_error_visible_in_metrics(self, setup):
        net, rpc = setup
        rpc.call_batch("client", "server", "svc",
                       [("fail_srb", {}), ("echo", {"text": "x"})])
        m = net.obs.metrics
        assert m.get("rpc.failures", service="svc", method="fail_srb",
                     error="NoSuchObject") == 1
        # the batch itself completed: its latency lands on the
        # unlabeled series
        assert m.histogram("rpc.call_s", service="svc",
                           method="<batch>").count == 1


class TestAdmission:
    """Worker-pool admission threaded through call/call_batch."""

    def test_no_station_no_admission_metrics(self, setup):
        net, rpc = setup
        rpc.call("client", "server", "svc", "echo", text="x")
        assert net.obs.metrics.total("srb.admission.admitted") == 0

    def test_closed_loop_wait_advances_clock(self, setup):
        net, rpc = setup
        st = net.install_station("server", workers=1)
        st.complete(st.admit(net.clock.now), 5.0)  # worker busy until 5
        t0 = net.clock.now
        assert rpc.call("client", "server", "svc", "echo", text="x") == "x"
        # the caller genuinely waited for the worker before the handler
        assert net.clock.now >= 5.0 + net.default_link.latency_s
        m = net.obs.metrics
        assert m.get("srb.admission.admitted", host="server",
                     service="svc", method="echo") == 1
        wait = m.histogram("srb.queue.wait_s", host="server", service="svc")
        assert wait.count == 1
        # the wait is 5.0 minus the request leg (latency + a few bytes)
        assert wait.max == pytest.approx(
            5.0 - t0 - net.default_link.latency_s, rel=1e-3)

    def test_open_loop_overlaps_instead_of_serializing(self, setup):
        net, rpc = setup
        rpc.register("server", "slow", SlowService(net))
        net.install_station("server", workers=1)
        t = net.clock.now
        with rpc.open_loop(t):
            rpc.call("client", "server", "slow", "work")
        first = rpc.last_timing
        clock_after_first = net.clock.now
        with rpc.open_loop(t):
            rpc.call("client", "server", "slow", "work")
        second = rpc.last_timing
        # same arrival, one worker: the second request queues behind the
        # first's full service time -- in bookkeeping, not on the clock
        assert first.wait == 0.0
        assert second.wait == pytest.approx(SlowService.SERVICE_S)
        assert second.latency == pytest.approx(
            first.latency + second.wait)
        assert net.clock.now - clock_after_first == pytest.approx(
            clock_after_first - t)      # clock moved by legs+service only

    def test_bounded_queue_sheds_through_call(self, setup):
        net, rpc = setup
        rpc.register("server", "slow", SlowService(net))
        net.install_station("server", workers=1, queue_depth=0)
        t = net.clock.now
        with rpc.open_loop(t):
            rpc.call("client", "server", "slow", "work")
        from repro.errors import ServerBusy
        t_before = net.clock.now
        with pytest.raises(ServerBusy) as exc:
            with rpc.open_loop(t):
                rpc.call("client", "server", "slow", "work")
        # the hint points at the busy worker freeing up
        assert exc.value.retry_after == pytest.approx(
            SlowService.SERVICE_S)
        # fast-fail: one request leg + one tiny busy reply, no queueing
        # and no service time
        assert net.clock.now - t_before == pytest.approx(
            2 * net.default_link.latency_s, rel=0.5)
        timing = rpc.last_timing
        assert timing.shed and not timing.ok
        assert timing.retry_after == pytest.approx(exc.value.retry_after)
        m = net.obs.metrics
        assert m.get("srb.admission.shed", host="server", service="slow",
                     method="work") == 1
        assert m.get("rpc.failures", service="slow", method="work",
                     error="ServerBusy") == 1
        assert rpc.stats.failures == 1

    def test_batch_occupies_one_worker(self, setup):
        net, rpc = setup
        net.install_station("server", workers=1)
        t = net.clock.now
        with rpc.open_loop(t):
            rpc.call_batch("client", "server", "svc",
                           [("echo", {"text": "x"})] * 10)
        assert rpc.last_timing.wait == 0.0
        m = net.obs.metrics
        assert m.get("srb.admission.admitted", host="server",
                     service="svc", method="<batch>") == 1

    def test_batch_shed_fails_whole_batch(self, setup):
        net, rpc = setup
        rpc.register("server", "slow", SlowService(net))
        net.install_station("server", workers=1, queue_depth=0)
        t = net.clock.now
        with rpc.open_loop(t):
            rpc.call("client", "server", "slow", "work")
        from repro.errors import ServerBusy
        with pytest.raises(ServerBusy):
            with rpc.open_loop(t):
                rpc.call_batch("client", "server", "slow",
                               [("work", {})] * 3)
        assert rpc.last_timing.shed
        assert net.obs.metrics.get("srb.admission.shed", host="server",
                                   service="slow", method="<batch>") == 1

    def test_queue_wait_span_emitted(self, setup):
        net, rpc = setup
        st = net.install_station("server", workers=1)
        st.complete(st.admit(net.clock.now), 5.0)
        with net.obs.tracer.trace("test") as root:
            rpc.call("client", "server", "svc", "echo", text="x")
        spans = root.find("srb.queue.wait")
        assert len(spans) == 1
        assert spans[0].attrs["host"] == "server"
        assert spans[0].attrs["wait_s"] > 0


class RedirectService:
    """Replies with direct-channel descriptors, as direct-I/O ops do."""

    def __init__(self, fed):
        self.fed = fed

    def pull(self, nbytes: int = 4096) -> Redirect:
        ch = self.fed.channels.open("disk", "client", nbytes, "/z/x")
        return Redirect(b"x" * nbytes, [ch])

    def stale_pull(self, nbytes: int = 4096) -> Redirect:
        # a topology change between issue and redeem invalidates the
        # descriptor: the caller's redeem raises InvalidTicket
        ch = self.fed.channels.open("disk", "client", nbytes, "/z/x")
        self.fed.network.set_down("disk")
        self.fed.network.set_up("disk")
        return Redirect(b"x" * nbytes, [ch])


@pytest.fixture
def redirect_fed():
    fed = Federation(zone="z", direct_io=True)
    for host in ("server", "disk", "client"):
        fed.add_host(host)
    fed.rpc.register("server", "redir", RedirectService(fed))
    return fed


class TestRedirectFailure:
    """A redirect reply's second leg runs at the caller; a channel that
    cannot open fails the call (or, in a batch, only its item)."""

    def test_failed_redirect_fails_the_call(self, redirect_fed):
        rpc = redirect_fed.rpc
        m = redirect_fed.obs.metrics
        with pytest.raises(InvalidTicket):
            rpc.call("client", "server", "redir", "stale_pull")
        assert rpc.stats.failures == 1
        assert m.get("rpc.failures", service="redir", method="stale_pull",
                     error="InvalidTicket") == 1
        assert m.histogram("rpc.call_s", service="redir",
                           method="stale_pull",
                           error="InvalidTicket").count == 1
        assert m.histogram("rpc.call_s", service="redir",
                           method="stale_pull") is None
        assert rpc.last_timing.error == "InvalidTicket"
        # the descriptor reply itself arrived and stays on the books
        assert m.get("rpc.response_bytes", service="redir",
                     method="stale_pull") > 0
        assert rpc.stats.response_bytes > 0

    def test_failed_redirect_fails_only_its_batch_item(self, redirect_fed):
        rpc = redirect_fed.rpc
        m = redirect_fed.obs.metrics
        results = rpc.call_batch("client", "server", "redir",
                                 [("stale_pull", {}),
                                  ("pull", {"nbytes": 10})])
        assert not results[0].ok
        assert isinstance(results[0].error, InvalidTicket)
        assert results[1].ok and results[1].value == b"x" * 10
        assert rpc.stats.failures == 1
        # the batch itself completed
        assert rpc.last_timing.ok
        assert m.histogram("rpc.call_s", service="redir",
                           method="<batch>").count == 1

    def test_failed_batch_redirect_labelled_with_item_method(
            self, redirect_fed):
        """Regression: an item's failed redirect used to count under
        ``method="<batch>"`` while a handler failure of the same item
        counted under the item's own method."""
        rpc = redirect_fed.rpc
        m = redirect_fed.obs.metrics
        rpc.call_batch("client", "server", "redir",
                       [("stale_pull", {}), ("pull", {})])
        assert m.get("rpc.failures", service="redir", method="stale_pull",
                     error="InvalidTicket") == 1
        assert m.get("rpc.failures", service="redir", method="<batch>",
                     error="InvalidTicket") == 0
