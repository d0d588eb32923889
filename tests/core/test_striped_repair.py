"""Failed-leg repair of a striped read, on both routes.

A striped ``get`` pulls disjoint chunks from several replicas as one
grouped leg run.  When a member fails *after* its storage session (or
its channel) opened, the leg executor re-pulls the failed members'
bytes in one transfer on the first healthy member's path.  The same
rule holds whether the server pulls the stripes (pass-through) or the
caller runs them as redirect channels (direct I/O).
"""

import pytest

from repro.core import Federation, SrbClient
from repro.errors import HostUnreachable, ReplicaUnavailable

PAYLOAD = bytes(range(256)) * 4096          # 1 MiB


def build(direct_io, stripes):
    """Server s1 on h1; ``stripes`` replicas on h2.. ; client on its
    own host under direct I/O (the redirect route) or beside the server
    (the pass-through route).  Returns ``(fed, client, sink)``."""
    fed = Federation(zone="z", direct_io=direct_io)
    hosts = ["h1"] + [f"h{i}" for i in range(2, stripes + 2)]
    for host in hosts + ["hc"]:
        fed.add_host(host)
    fed.add_server("s1", "h1", mcat=True)
    for host in hosts[1:]:
        fed.add_fs_resource(f"r-{host}", host)
    fed.bootstrap_admin()
    sink = "hc" if direct_io else "h1"
    client = SrbClient(fed, sink, "s1", "srbadmin@sdsc", "hunter2")
    client.login()
    client.mkcoll("/z/w")
    client.ingest("/z/w/big.dat", PAYLOAD, resource="r-h2")
    for host in hosts[2:]:
        client.replicate("/z/w/big.dat", f"r-{host}")
    return fed, client, sink


def drop_paths(monkeypatch, fed, paths):
    """Fail every transfer on the given directed ``(src, dst)`` paths.

    The reverse directions stay up, so the server's session probes
    (server→storage) and the channels' handshakes (sink→source) succeed
    and the failure lands on the grouped data member itself.
    """
    net = fed.network
    real = net.check_reachable

    def check(src, dst):
        if (src, dst) in paths:
            raise HostUnreachable(f"{src}->{dst} dropped mid-transfer")
        real(src, dst)

    monkeypatch.setattr(net, "check_reachable", check)


ROUTES = pytest.mark.parametrize("direct_io", [False, True],
                                 ids=["pass-through", "redirect"])


@ROUTES
@pytest.mark.parametrize("failing", [1, 2])
def test_failed_stripes_are_re_pulled_once(monkeypatch, direct_io, failing):
    fed, client, sink = build(direct_io, stripes=3)
    dead = {(f"h{i}", sink) for i in range(4, 4 - failing, -1)}
    drop_paths(monkeypatch, fed, dead)
    metrics = fed.obs.metrics
    before = metrics.snapshot()
    with fed.obs.tracer.trace("read") as root:
        assert client.get("/z/w/big.dat", stripes=3) == PAYLOAD
    delta = metrics.delta(before)

    # every failed member timed out once; nothing else failed
    assert metrics.sum_matching(delta, "net.failed_attempts") == failing
    # the first healthy path (h2) carried its own stripe plus ONE
    # re-pull of the failed stripes' summed bytes; every other path
    # carried one message (a stripe, or a timed-out attempt); every
    # byte arrived exactly once
    paths = [f"{{dst={sink},src=h{i}}}" for i in (2, 3, 4)]
    assert [delta.get(f"net.messages{p}", 0) for p in paths] == [2, 1, 1]
    assert sum(delta.get(f"net.bytes{p}", 0) for p in paths) == \
        len(PAYLOAD)
    assert metrics.get("srb.striped_reads", stripes="3") == 1

    redirects = root.find("srb.redirect")
    if direct_io:
        assert len(redirects) == 1
        assert redirects[0].counters["retried"] == failing
    else:
        assert redirects == []


@ROUTES
def test_no_healthy_stripe_fails_the_read(monkeypatch, direct_io):
    fed, client, sink = build(direct_io, stripes=2)
    drop_paths(monkeypatch, fed, {("h2", sink), ("h3", sink)})
    with pytest.raises(HostUnreachable if direct_io else ReplicaUnavailable):
        client.get("/z/w/big.dat", stripes=2)
    # no re-pull was attempted: only the two members timed out
    assert fed.obs.metrics.total("net.failed_attempts") == 2
