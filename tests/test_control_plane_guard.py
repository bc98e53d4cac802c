"""Two control-plane decisions, each made in one place (PROTOCOL.md §12,
and Sec. 5.2's "any necessary data field in an NTCS control message is
built in packed mode").  Static guards over ``src/repro``:

* the control-frame flags ``FLAG_PACKED | FLAG_INTERNAL`` are combined
  only inside ``Nucleus.control``, the one control-frame builder;
* the LCM keeps no flow books: ``ntcs/lcm.py`` reads no ``.flow``
  ledger and no ``rx_depth`` — it reports disposals to the IP-Layer;
* the debit rule (DATA, not internal, not a reply) is written only in
  ``message.flow_debited``: no other condition tests both the internal
  and the reply flag, whether in one expression or in nested ``if``s.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_BUILDER = (Path("ntcs") / "nucleus.py", "control")
_RULE = (Path("ntcs") / "message.py", "flow_debited")
_LCM = Path("ntcs") / "lcm.py"
_INTERNAL = {"FLAG_INTERNAL", "internal"}
_REPLY = {"FLAG_IS_REPLY", "is_reply"}


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _functions(tree):
    """(function name or None, node) for every node, attributed to its
    innermost enclosing function."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            yield inner, child
            yield from walk(child, inner)
    yield from walk(tree, None)


def _bitor_operands(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _bitor_operands(node.left) + _bitor_operands(node.right)
    return [_name(node)]


def control_flag_sites(source: str, allowed: str = ""):
    """Lines outside function ``allowed`` that or together
    ``FLAG_PACKED`` and ``FLAG_INTERNAL``."""
    lines = set()
    for owner, node in _functions(ast.parse(source)):
        if (owner != allowed and isinstance(node, ast.BinOp)
                and {"FLAG_PACKED", "FLAG_INTERNAL"}
                <= set(_bitor_operands(node))):
            lines.add(node.lineno)
    return sorted(lines)


def flow_book_reads(source: str):
    """(line, attribute) of every ``.flow`` or ``.rx_depth`` access."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("flow", "rx_depth"))


def _flags_tested(node):
    names = {_name(sub) for sub in ast.walk(node)}
    return {flag for flag, spelled in (("internal", _INTERNAL),
                                       ("reply", _REPLY))
            if names & spelled}


def debit_rule_sites(source: str, allowed: str = ""):
    """Lines outside function ``allowed`` whose condition — one
    expression, or an ``if``/``while`` test together with the tests of
    the ``if``s and ``while``s around it — tests both the internal and
    the reply flag."""
    lines = set()

    def visit(node, owner, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, set())
                continue
            tested = outer
            if isinstance(child, (ast.If, ast.While, ast.IfExp)):
                tested = outer | _flags_tested(child.test)
            elif isinstance(child, (ast.BoolOp, ast.Return, ast.Assign)):
                tested = outer | _flags_tested(child)
            if owner != allowed and tested == {"internal", "reply"}:
                lines.add(child.lineno)
                continue
            visit(child, owner, tested)

    visit(ast.parse(source), None, set())
    return sorted(lines)


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), path.read_text()


def test_guards_see_what_they_forbid():
    assert control_flag_sites(
        "f = m.FLAG_PACKED | m.FLAG_INTERNAL\n"
        "g = FLAG_INTERNAL | x | FLAG_PACKED\n"
        "h = m.FLAG_PACKED | m.FLAG_REPLY_EXPECTED\n") == [1, 2]
    assert flow_book_reads(
        "ivc.flow.credit\nlvc.rx_depth += 1\nx = ivc.lvc\n") == [
            (1, "flow"), (2, "rx_depth")]
    assert debit_rule_sites("\n".join([
        "ok = msg.kind == DATA and not msg.internal",
        "bad = not msg.internal and not msg.is_reply",
        "def send(msg):",
        "    if not msg.internal:",
        "        if not msg.is_reply:",
        "            debit()",
        "    if msg.is_reply:",
        "        return",
        "    if not msg.flags & (FLAG_INTERNAL | FLAG_IS_REPLY):",
        "        debit()",
    ])) == [2, 5, 9]


def test_only_nucleus_control_builds_control_frames():
    offenders = [
        f"{path}:{line}" for path, source in _sources()
        for line in control_flag_sites(
            source, _BUILDER[1] if path == _BUILDER[0] else "")
    ]
    assert offenders == []
    assert control_flag_sites((SRC / _BUILDER[0]).read_text())


def test_the_lcm_keeps_no_flow_books():
    assert flow_book_reads((SRC / _LCM).read_text()) == []


def test_the_debit_rule_is_written_once():
    offenders = [
        f"{path}:{line}" for path, source in _sources()
        for line in debit_rule_sites(
            source, _RULE[1] if path == _RULE[0] else "")
    ]
    assert offenders == []
    assert debit_rule_sites((SRC / _RULE[0]).read_text())
