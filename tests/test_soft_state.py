"""The soft-state ledger (PROTOCOL.md §3, "What a Nucleus remembers"):
each table that records where a peer is has one place that forgets it.
ntcslint's ONE004 keeps every other module off the route tables; the
IP-Layer still writes them.

A property over relocations, module crashes, gateway kills and
restarts, and naming-replica kills and restarts on
``sharded_chain(2, 2, 2)``, with calls in between: every call returns
its reply or raises a typed ``NtcsError``, and an address-cache or
route-cache entry filled before an event is used stale at most once
after it, and is forgotten by that use (Sec. 3.5: a cached address may
lie once, and the fault that catches it repairs it).
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deployments import echo_server, sharded_chain
from repro import VAX
from repro.analysis import Project
from repro.analysis.rules.sole_site import SOLE_SITES, row_sites
from repro.drts.proctl import ProcessController
from repro.errors import AddressFault, NtcsError
from repro.ntcs.address import AddressCache
from repro.ntcs.iplayer import IpLayer
from repro.ntcs.ndlayer import NdLayer

# Every trace these tests put on a simulated wire steps the declared
# wire machines (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("wire_conformance")

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_only_the_ip_layer_writes_its_route_tables():
    row = next(row for row in SOLE_SITES if row.id == "ONE004")
    writers = {module.name for module, _, _
               in row_sites(Project.load([SRC]), row)}
    assert writers == {"repro.ntcs.iplayer"}
    assert row.allowed == {("repro.ntcs.iplayer", None)}


class _FillDict(dict):
    """A route cache that tells the ledger when each entry was filled."""

    def __init__(self, ledger, owner):
        super().__init__()
        self._ledger, self._owner = ledger, owner

    def __setitem__(self, key, value):
        self._ledger.filled[("route", self._owner, key)] = self._ledger.epoch
        super().__setitem__(key, value)

    def setdefault(self, key, value):
        if key not in self:
            self[key] = value
        return self[key]


class _Ledger:
    """The test-side spy.  ``epoch`` counts the events so far; an entry
    filled in an earlier epoch than the one it is used in predates the
    last event.  A stale use is a failed connect at an address-cache
    blob, or a failed, NAKed or timed-out chained open planned from a
    route-cache entry, whose entry predates the last event."""

    def __init__(self):
        self.epoch = 0
        self.filled = {}
        self.stale = Counter()      # (epoch, table, owner, key) -> uses
        self.unrefreshed = []       # stale uses that left the entry in

    def predates(self, key) -> bool:
        return self.filled.get(key, self.epoch) < self.epoch

    def install(self, monkeypatch) -> None:
        ledger = self
        store, connect = AddressCache.store, NdLayer._connect_with_retry
        ip_init, forget = IpLayer.__init__, IpLayer.forget_route

        def spy_store(cache, addr, blob, mtype_name):
            ledger.filled[("addr", id(cache), addr)] = ledger.epoch
            store(cache, addr, blob, mtype_name)

        def spy_connect(nd, dst, blob):
            cache = nd.nucleus.addr_cache
            key = ("addr", id(cache), dst)
            entry = cache.lookup(dst)
            # Naming-fleet blobs are well-known constants, never evicted
            # (Sec. 6.3): a dead replica is down, not moved.
            cached = (entry is not None and entry.blob == blob
                      and dst not in nd.nucleus.ns_addresses
                      and ledger.predates(key))
            try:
                return connect(nd, dst, blob)
            except AddressFault:
                if cached:
                    ledger.use(key, cache.lookup(dst) is not None)
                raise

        def spy_init(ip, nucleus):
            ip_init(ip, nucleus)
            ip.route_cache = _FillDict(ledger, id(ip))

        def spy_forget(ip, dst_network, gw_uadd):
            key = ("route", id(ip), dst_network)
            held = ip.route_cache.get(dst_network)
            cached = (gw_uadd is not None and held is not None
                      and held[0] == gw_uadd and ledger.predates(key))
            forget(ip, dst_network, gw_uadd)
            if cached:
                ledger.use(key, dst_network in ip.route_cache)

        monkeypatch.setattr(AddressCache, "store", spy_store)
        monkeypatch.setattr(NdLayer, "_connect_with_retry", spy_connect)
        monkeypatch.setattr(IpLayer, "__init__", spy_init)
        monkeypatch.setattr(IpLayer, "forget_route", spy_forget)

    def use(self, key, still_held: bool) -> None:
        self.stale[(self.epoch,) + key] += 1
        if still_held:
            self.unrefreshed.append(key)


SERVICE = "far.echo"
EVENTS = st.lists(st.one_of(
    st.tuples(st.just("relocate"), st.sampled_from(["mEnd", "mFar", "m0"])),
    st.tuples(st.just("crash"), st.just("")),
    st.tuples(st.just("gateway"), st.sampled_from(["gwm0", "gwm1"])),
    st.tuples(st.just("replica"), st.sampled_from(["ns01", "ns11"])),
), min_size=1, max_size=4)


def _serve(module):
    """Make ``module`` answer echo requests, as :func:`echo_server` does."""
    def handle(request):
        module.ali.reply(request, "echo", {
            "n": request.values["n"],
            "text": request.values["text"].upper()})
    module.ali.set_request_handler(handle)


def _call(client, find, n):
    """One echo call to the UAdd ``find()`` names: "ok" with its correct
    reply, or the class name of the typed error it raised."""
    try:
        reply = client.ali.call(find(), "echo", {"n": n, "text": f"m{n}"})
    except NtcsError as exc:
        return type(exc).__name__
    assert reply.values == {"n": n, "text": f"M{n}"}
    return "ok"


def _run(events, ledger):
    """Play ``events`` on a fresh deployment; after each, call the
    service twice: by a fresh locate, and at the UAdd the client located
    first (an address held across relocations, Sec. 3.5)."""
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    bed.machine("mFar", VAX, networks=["net2"])
    echo_server(bed, SERVICE, "mEnd")
    client = bed.module("client", "m0")
    held = client.ali.locate(SERVICE)
    # Warm every table on the path: the client's route to net2, each
    # gateway's next hop, the last gateway's blob of the service.
    assert _call(client, lambda: held, 0) == "ok"
    outcomes = []

    def event(action, answers):
        ledger.epoch += 1
        action()
        bed.settle()
        n = 2 * len(outcomes) + 1
        by_name = _call(client, lambda: client.ali.locate(SERVICE), n)
        outcomes.append((by_name, _call(client, lambda: held, n + 1)))
        # A live service behind live gateways answers, whatever the
        # earlier events left in the tables.
        assert by_name == "ok" or not answers, outcomes

    alive = True
    for kind, where in events:
        if kind == "relocate":
            alive = True
            event(lambda: ProcessController(bed).relocate(
                SERVICE, where, rebuild=lambda _old, new: _serve(new)), alive)
        elif kind == "crash":
            alive = False
            event(bed.modules[SERVICE].process.kill, alive)
        elif kind == "gateway":
            event(bed.machines[where].crash, False)
            event(lambda: bed.restart_gateway(where), alive)
        else:
            event(bed.machines[where].crash, alive)
            event(lambda: bed.restart_name_server(where), alive)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(events=EVENTS)
def test_each_stale_entry_is_used_once_per_event_then_forgotten(events):
    ledger = _Ledger()
    with pytest.MonkeyPatch.context() as monkeypatch:
        ledger.install(monkeypatch)
        _run(events, ledger)
    assert ledger.unrefreshed == []
    assert [use for use, count in ledger.stale.items() if count > 1] == []
