"""The metric catalogue (``repro.util.counters``), checked statically.

Reading an undeclared metric raises ``KeyError`` only on paths that
actually run.  This walks every module under ``src/repro`` instead, so
error-path counters no test reaches are covered too: every increment or
high-water site names a declared metric — a constant, or a member of a
declared family, never a string literal or an f-string — and every
declared metric has at least one site.  PROTOCOL.md §15 carries the
catalogue as :func:`catalogue_table` renders it; after declaring a
metric, regenerate it with ``PYTHONPATH=src python
tests/test_counter_catalogue.py``.
"""

import ast
import importlib
import pathlib
import re

import repro
import repro.naming.server  # noqa: F401  (declares the per-request counts)
from repro.ntcs.gateway import Gateway
from repro.util.counters import CATALOGUE, catalogue_table

SRC = pathlib.Path(repro.__file__).parent
PROTOCOL = SRC.parent.parent / "PROTOCOL.md"
TABLE = re.compile(r"(<!-- metric catalogue: begin.*?-->\n)(.*?)"
                   r"(<!-- metric catalogue: end -->)", re.S)


def _is_store(node: ast.expr) -> bool:
    name = node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", None)
    return name in ("counters", "_counters")


def _sites():
    """(module, line, key) of every store subscript assigned under
    ``src/repro`` — increments and high-water marks alike."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_store(target.value):
                    yield module, node.lineno, target.slice


def _named(module: str, key: ast.expr):
    """The declared metrics one site's key can name."""
    namespace = vars(importlib.import_module(module))

    def value(expr):
        assert isinstance(expr, (ast.Name, ast.Attribute)), \
            f"{ast.unparse(expr)} is not a declared constant"
        return eval(compile(ast.Expression(expr), module, "eval"), namespace)

    if isinstance(key, ast.Subscript):  # one member of a declared family
        family = value(key.value)
        return list(family.values() if isinstance(family, dict) else family)
    return [value(key)]


def test_every_site_names_a_declared_metric_and_every_metric_has_one():
    covered = set()
    sites = list(_sites())
    assert len(sites) > 70
    for module, line, key in sites:
        names = _named(module, key)
        undeclared = [name for name in names if name not in CATALOGUE]
        assert not undeclared, f"{module}:{line} counts {undeclared}"
        covered.update(names)
    assert set(CATALOGUE) - covered == set()


def test_no_string_keyed_counting_call_remains():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute):
                assert node.func.attr not in ("incr", "record_max"), \
                    f"{path.name}:{node.lineno}"


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
