"""Three control-plane decisions, each made in one place (PROTOCOL.md §12,
and Sec. 5.2's "any necessary data field in an NTCS control message is
built in packed mode"):

* the control-frame flags ``FLAG_PACKED | FLAG_INTERNAL`` are combined
  only inside ``Nucleus.control``, the one control-frame builder (ONE001);
* the LCM keeps no flow books: ``repro.ntcs.lcm`` reads no ``.flow``
  ledger and no ``rx_depth`` — it reports disposals to the IP-Layer
  (ONE002);
* the debit rule (DATA, not internal, not a reply) is written only in
  ``message.flow_debited`` (ONE003).

ntcslint's sole-site rows forbid every other spelling; here each row's
matches over the whole ``src/repro`` are exactly its allowed sites, so
no row guards a decision that has moved.
"""

from pathlib import Path

from repro.analysis import Project
from repro.analysis.rules.sole_site import SOLE_SITES, row_sites

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ROWS = {row.id: row for row in SOLE_SITES}


def hits(row_id):
    """(module, function) of every match of the row over ``src/repro``."""
    return {(module.name, function) for module, function, _
            in row_sites(Project.load([SRC]), ROWS[row_id])}


def test_only_nucleus_control_builds_control_frames():
    assert hits("ONE001") == ROWS["ONE001"].allowed == {
        ("repro.ntcs.nucleus", "Nucleus.control")}


def test_the_lcm_keeps_no_flow_books():
    assert hits("ONE002") == set()


def test_the_debit_rule_is_written_once():
    assert hits("ONE003") == ROWS["ONE003"].allowed == {
        ("repro.ntcs.message", "flow_debited")}
