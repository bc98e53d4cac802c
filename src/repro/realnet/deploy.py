"""The real-socket deployment: a :class:`~repro.testbed.Testbed` on a
:class:`RealtimeKernel`, machines on loopback namespace ``loop0``."""

from repro.ntcs.nucleus import NucleusConfig
from repro.realnet.kernel import RealtimeKernel
from repro.testbed import Testbed

NETWORK = "loop0"


class RealDeployment(Testbed):
    """One deployment over real localhost sockets; :meth:`shutdown` it."""

    def __init__(self, config=None):
        config = config or NucleusConfig(open_timeout=3.0, call_timeout=5.0)
        super().__init__(config, scheduler=RealtimeKernel())
        self.kernel = self.scheduler
        self.network(NETWORK, protocol="rtcp")

    def machine(self, name, mtype, networks=(NETWORK,), **kwargs):
        """A machine on ``networks`` (default: ``loop0``)."""
        return super().machine(name, mtype, list(networks), **kwargs)

    def shutdown(self) -> None:
        """Kill every live process, newest first (each farewell still
        has the gateways and servers it rides), then close the kernel."""
        alive = [p for m in self.machines.values() for p in m.processes]
        for process in sorted(alive, key=lambda p: -p.pid):
            process.kill()
        self.kernel.close()
