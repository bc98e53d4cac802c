"""The NTCS naming service (paper Sec. 3).

"A single dynamic naming service supporting all name and address
resolution within the NTCS, is built entirely on top of the Nucleus.
As such it is used by the internal Nucleus layers below, as well as by
the application modules above."

* :mod:`protocol` — the NS wire protocol (packed-mode bodies) and the
  :class:`NameRecord` exchanged over it,
* :mod:`database` — the name/address database: registration, two-level
  resolution, forwarding, supersession,
* :mod:`server` — the Name Server module, "for all practical purposes
  ... nothing more than an application built on the Nucleus": alone,
  or as one replica of one shard of the fleet Sec. 7 plans ("replicated
  for failure resiliency", "partially distributed across two or more
  such modules"),
* :mod:`nsp` — the NSP-Layer, "the single naming service access point
  for all layers within the ComMod", for any shape of service,
* :mod:`shards` — the consistent-hash ring that partitions names over
  shards, and :func:`~repro.naming.shards.deploy_naming`, which starts
  a fleet from one value (``[[m]]`` is the lone Name Server),
* :mod:`attributes` — the attribute-value naming scheme the paper's
  Sec. 7 says was being adopted.
"""

from repro.naming.protocol import NameRecord, register_naming_types
from repro.naming.database import NameDatabase
from repro.naming.server import NameServer
from repro.naming.nsp import NspLayer
from repro.naming.shards import HashRing, deploy_naming

__all__ = [
    "NameRecord",
    "register_naming_types",
    "NameDatabase",
    "NameServer",
    "NspLayer",
    "HashRing",
    "deploy_naming",
]
