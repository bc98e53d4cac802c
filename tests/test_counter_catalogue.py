"""The metric catalogue (``repro.util.counters``), checked statically.

Reading an undeclared metric raises ``KeyError`` only on paths that
actually run.  ntcslint checks every counter store under ``src/repro``
instead, so error-path counters no test reaches are covered too: ONE007
fires on a key that is not a declared constant or a member of a
declared family (a string literal, an f-string).  Here, over the whole
tree and through the same resolver: every declared metric has a site.
PROTOCOL.md §15 carries the catalogue as :func:`catalogue_table`
renders it; after declaring a metric, regenerate it with
``PYTHONPATH=src python tests/test_counter_catalogue.py``.
"""

import importlib
import pathlib
import re

import repro
import repro.naming.server  # noqa: F401  (declares the per-request counts)
from repro.analysis import Project
from repro.analysis.rules.sole_site import metric_sites
from repro.ntcs.gateway import Gateway
from repro.util.counters import CATALOGUE, catalogue_table

SRC = pathlib.Path(repro.__file__).parent
PROTOCOL = SRC.parent.parent / "PROTOCOL.md"
TABLE = re.compile(r"(<!-- metric catalogue: begin.*?-->\n)(.*?)"
                   r"(<!-- metric catalogue: end -->)", re.S)


def test_every_site_names_a_declared_metric_and_every_metric_has_one():
    sites = metric_sites(Project.load([SRC]))
    assert sites.pop(None, []) == []
    assert sum(map(len, sites.values())) > 70
    assert [declared for declared, keys in sites.items() if not keys] == []
    # The declarations the static resolver found are the whole catalogue.
    covered = set()
    for module, name in sites:
        value = getattr(importlib.import_module(module), name)
        if isinstance(value, str):
            value = [value]
        covered.update(value.values() if isinstance(value, dict) else value)
    assert covered == set(CATALOGUE)


def test_gateway_constants_are_not_metrics():
    for attr in ("inter_gateway_control_messages", "train_splices"):
        assert getattr(Gateway, attr) == 0
        assert attr not in CATALOGUE
        assert f"gateway_{attr}" not in CATALOGUE


def test_protocol_md_carries_the_generated_catalogue():
    match = TABLE.search(PROTOCOL.read_text())
    assert match is not None, "PROTOCOL.md lost its catalogue markers"
    assert match.group(2) == catalogue_table()


if __name__ == "__main__":
    text = PROTOCOL.read_text()
    PROTOCOL.write_text(TABLE.sub(
        lambda m: m.group(1) + catalogue_table() + m.group(3), text))
