"""Real-socket substrate: the portable upper layers over genuine OS TCP.

The paper's core architectural claim is that "everything above the
ND-Layer is portable, in terms of the communication interface"
(Sec. 2.2).  The strongest demonstration this reproduction can offer is
to run the *identical* Nucleus, naming service, gateways, ComMod and
application code over real operating-system TCP sockets on localhost
instead of the simulated networks — which this package does:

* :mod:`kernel` — a realtime event kernel with the same blocking-pump
  interface as the simulation scheduler,
* :mod:`driver` — an ND-Layer driver speaking real non-blocking TCP,
  behind the ``rtcp`` IPCS slot of a loopback port namespace,
* :mod:`deploy` — :class:`RealDeployment`, a
  :class:`~repro.testbed.Testbed` on the realtime kernel.

Any ``Testbed`` topology, gateways included, runs over real sockets
when handed a ``RealtimeKernel`` and ``rtcp`` networks.  Used by
experiment E10, the ``realsockets.py`` example and tier-1 tests.
"""

from repro.realnet.kernel import RealtimeKernel
from repro.realnet.driver import LoopbackRealIpcs, LoopbackTcpDriver

__all__ = [
    "RealtimeKernel",
    "LoopbackRealIpcs",
    "LoopbackTcpDriver",
    "RealDeployment",
]


def __getattr__(name):
    # RealDeployment is a Testbed, and repro.testbed imports this
    # package's driver: load the builder on first use so that neither
    # import has to come first.
    if name == "RealDeployment":
        from repro.realnet.deploy import RealDeployment
        return RealDeployment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
