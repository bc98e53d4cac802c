"""One acknowledgement timer per connection (PROTOCOL.md §13).  The
simulated IPCSs file scheduler events only where the connection timer is
armed — when a send finds it idle, and when it moves or restarts — and
where an unanswered SYN is retried.  ntcslint's ONE005 forbids every
other site; here the row's matches over ``src/repro`` are exactly the
three allowed ones, so none of them has moved.
"""

from pathlib import Path

from repro.analysis import Project
from repro.analysis.rules.sole_site import SOLE_SITES, row_sites

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_ipcs_files_events_only_at_the_connection_timer_and_syn_retry():
    row = next(row for row in SOLE_SITES if row.id == "ONE005")
    sites = {(module.name, function) for module, function, _
             in row_sites(Project.load([SRC]), row)}
    assert sites == row.allowed == {
        ("repro.ipcs.base", "Ipcs._track"),    # a send finds it idle
        ("repro.ipcs.base", "Ipcs._arm"),      # it moves, or restarts
        ("repro.ipcs.tcp", "SimTcpIpcs._send_open"),  # the SYN retry
    }
