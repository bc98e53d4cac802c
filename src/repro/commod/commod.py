"""ComMod assembly: Nucleus + NSP-Layer + ALI-Layer (paper Fig. 2-4)."""

from __future__ import annotations

from typing import Optional

from repro.commod.ali import AliLayer
from repro.machine.process import SimProcess
from repro.naming.nsp import NspLayer
from repro.ntcs.nucleus import Nucleus, NucleusConfig
from repro.ntcs.wellknown import WellKnownTable


class ComMod:
    """The passive communication module bound with one application
    process (on one network).

    Args:
        process: the owning process.
        registry: the deployment's shared conversion registry.
        wellknown: the deployment's well-known address table.
        network: which of the machine's networks to bind (defaults to
            its first).
        config: NTCS configuration for this module.

    The application talks to :attr:`ali`; everything else is internal.
    """

    def __init__(
        self,
        process: SimProcess,
        registry,
        wellknown: WellKnownTable,
        network: Optional[str] = None,
        config: Optional[NucleusConfig] = None,
    ):
        self.process = process
        network = network or process.machine.networks[0]
        self.nucleus = Nucleus(process, network, registry, wellknown,
                               config=config)
        # The module's communication resource exists from bind time so
        # registration can publish its blob.
        self.nucleus.nd.create_resource()
        # The NSP-Layer isolates the naming-service implementation:
        # one server or a fleet is a directory it reads from the
        # well-known table, with "no direct impact on the NTCS"
        # (Sec. 2.4).
        self.nsp = self.nucleus.nsp = NspLayer(self.nucleus)
        self.ali = AliLayer(self)

    @property
    def network(self) -> str:
        return self.nucleus.driver.network_name

    @property
    def address(self):
        """The module's current NTCS address (TAdd until registered)."""
        return self.nucleus.self_addr

    def __repr__(self) -> str:
        return f"ComMod({self.process.name!r} on {self.network})"
