"""Process control: spawn, kill and — centrally — relocate modules.

The paper's headline capability: "application processes can be
distributed across multiple machines and networks, while running,
transparent at the application interface" (Sec. 1).  Relocation is
modelled as the paper describes its effect: a replacement module comes
on-line on the target machine under the same logical name (the naming
service supersedes the old registration), application state is handed
over, and the old process dies.  In-flight conversations recover
through the LCM address-fault / forwarding machinery; messages *may*
drop during the window — quantified, not hidden, by experiment E4.

Substitution note (DESIGN.md): the paper's DRTS ran a process-control
server per machine; here the controller drives the simulation's process
objects directly.  The observable protocol behaviour — supersession,
forwarding, reconnection — is identical.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional

from repro.commod import ComMod
from repro.errors import NtcsError, SimulationError
from repro.machine.process import SimProcess


class ProcessController:
    """Spawn/kill/relocate against one testbed deployment."""

    def __init__(self, testbed):
        self.testbed = testbed
        self.relocations = 0
        # module name -> rebuild callback, for NTCS-requested relocations
        self.rebuilders: Dict[str, Callable[[ComMod, ComMod], None]] = {}

    def spawn(self, name: str, machine_name: str, **kwargs) -> ComMod:
        """Create and register a new module on a machine."""
        return self.testbed.module(name, machine_name, **kwargs)

    def kill(self, module_name: str) -> None:
        """Terminate a module by its registered name."""
        commod = self.testbed.modules.get(module_name)
        if commod is None:
            raise SimulationError(f"no module {module_name!r}")
        commod.process.kill()

    def relocate(
        self,
        module_name: str,
        target_machine: str,
        rebuild: Optional[Callable[[ComMod, ComMod], None]] = None,
        network: Optional[str] = None,
        graceful: bool = True,
    ) -> ComMod:
        """Move a module to another machine while the system runs.

        Args:
            module_name: the registered logical name.
            rebuild: callback ``(old_commod, new_commod)`` that installs
                the application's handlers/state on the replacement.
            graceful: kill the old module normally (it deregisters); if
                False the old process just vanishes (crash-style) and
                the naming service discovers the move via supersession.

        Returns the replacement ComMod.
        """
        testbed = self.testbed
        old = testbed.modules.get(module_name)
        if old is None:
            raise SimulationError(f"no module {module_name!r} to relocate")
        attrs = None
        if old.ali.uadd is not None:
            # Preserve the module's registered attributes: ask the
            # naming service the way the module itself would, whatever
            # shape (single, replicated, sharded) the service has.
            try:
                attrs = dict(old.nsp.resolve_uadd(old.ali.uadd).attrs)
            except NtcsError:
                attrs = None
        machine = testbed.machines[target_machine]
        process = SimProcess(machine, module_name)
        new = ComMod(process, testbed.registry, testbed.wellknown,
                     network=network, config=replace(old.nucleus.config))
        if rebuild is not None:
            rebuild(old, new)
        # Registration under the same name supersedes the old entry —
        # this is what the forwarding lookup (Sec. 3.5) finds.
        new.ali.register(module_name, attrs=attrs)
        if not graceful:
            # Abrupt disappearance: suppress the graceful deregistration
            # so the naming service only learns of the move by
            # supersession.
            old.ali.uadd = None
        old.process.kill()
        testbed.modules[module_name] = new
        self.relocations += 1
        return new


class ProcessControlServer:
    """The NTCS-facing face of process control: an ordinary module that
    accepts ``proctl_relocate`` requests — so operators (or other DRTS
    services) can reconfigure the system through the same message
    plumbing everything else uses.

    Relocating a module needs its application state/handlers rebuilt on
    the replacement; callers register a rebuild callback per module
    name via :meth:`allow`.
    """

    def __init__(self, commod: ComMod, controller: ProcessController,
                 name: str = "drts.proctl"):
        self.commod = commod
        self.controller = controller
        self.name = name
        self.requests = 0
        commod.ali.register(name, attrs={"kind": "proctl"})
        commod.ali.set_request_handler(self._on_request)

    def allow(self, module_name: str,
              rebuild: Optional[Callable[[ComMod, ComMod], None]]) -> None:
        """Permit NTCS-requested relocation of ``module_name``."""
        self.controller.rebuilders[module_name] = rebuild

    def _on_request(self, request) -> None:
        if request.type_name != "proctl_relocate" or not request.reply_expected:
            return
        self.requests += 1
        module = request.values["module"]
        target = request.values["target_machine"]
        if module not in self.controller.rebuilders:
            self.commod.ali.reply(request, "proctl_ack", {
                "ok": 0, "detail": f"relocation of {module!r} not allowed",
            })
            return
        try:
            self.controller.relocate(
                module, target, rebuild=self.controller.rebuilders[module])
        except (SimulationError, KeyError) as exc:
            self.commod.ali.reply(request, "proctl_ack", {
                "ok": 0, "detail": str(exc)[:90],
            })
            return
        self.commod.ali.reply(request, "proctl_ack", {
            "ok": 1, "detail": f"{module} now on {target}",
        })
