"""One acknowledgement timer per connection (PROTOCOL.md §13).  A static
guard over ``src/repro/ipcs``: the simulated IPCSs file scheduler events
only where the connection timer is armed — when a send finds it idle,
and when it moves or restarts — and where an unanswered SYN is retried.
A timer per segment or record cannot come back without a new call site
here.
"""

import ast
from pathlib import Path

IPCS = Path(__file__).resolve().parent.parent / "src" / "repro" / "ipcs"

# (file, function) of every call allowed to file an event.
ALLOWED = {
    ("base.py", "_track"),    # a send finds the connection timer idle
    ("base.py", "_arm"),      # the timer moves to a new oldest, or restarts
    ("tcp.py", "_send_open"),  # the SYN retry
}

_FILING = ("schedule", "call_soon", "post")


def event_sites(source: str):
    """(function, line) of every ``.schedule``/``.call_soon``/``.post``
    call, attributed to its innermost enclosing function (None at module
    or class level)."""
    sites = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in _FILING):
                sites.append((inner, child.lineno))
            walk(child, inner)

    walk(ast.parse(source), None)
    return sites


def test_guard_sees_what_it_forbids():
    assert event_sites("\n".join([
        "class Tcp:",
        "    def _send_segment(self, conn, seq):",
        "        conn.unacked[seq] = self.scheduler.schedule(",
        "            self.rto, lambda: None)",
        "    def _flush(self):",
        "        self.scheduler.call_soon(self._hand_up)",
        "timer = scheduler.post(0.1, print)",
    ])) == [("_send_segment", 3), ("_flush", 6), (None, 7)]


def test_ipcs_files_events_only_at_the_connection_timer_and_syn_retry():
    sites = {(path.name, function): line
             for path in sorted(IPCS.glob("*.py"))
             for function, line in event_sites(path.read_text())}
    offenders = [f"{name}:{line} in {function}"
                 for (name, function), line in sorted(sites.items())
                 if (name, function) not in ALLOWED]
    assert offenders == []
    assert set(sites) == ALLOWED
