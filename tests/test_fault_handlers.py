"""Static check: recovery code decides "fault or bug" in one step.

A failing barrier classifies its sub-event's error once
(:class:`repro.sim.events.ConditionFault`), so a handler catches
``FAULT_EXCEPTIONS`` and never re-checks with ``is_fault``.  This walks
every ``except`` clause under ``src/repro`` and fails on the two ways
the copied decision used to come back:

* a handler that calls ``is_fault`` itself (process-boundary loggers
  call it through a helper, to pick a log severity);
* a handler that widens ``FAULT_EXCEPTIONS`` with ``Exception``,
  ``BaseException`` or ``LookupError``, which lets bugs through as
  failures.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
WIDENERS = {"Exception", "BaseException", "LookupError"}


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _calls_is_fault(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Call) and "is_fault" in _names(n.func)
               for stmt in handler.body for n in ast.walk(stmt))


def handler_violations(source: str, filename: str = "<src>") -> list[str]:
    """One line per offending ``except`` clause in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        where = f"{filename}:{node.lineno}"
        if _calls_is_fault(node):
            found.append(f"{where}: handler re-checks is_fault")
        caught = _names(node.type) if node.type is not None else set()
        if "FAULT_EXCEPTIONS" in caught and caught & WIDENERS:
            found.append(f"{where}: FAULT_EXCEPTIONS widened with "
                         f"{sorted(caught & WIDENERS)}")
    return found


def test_no_handler_recheck_or_widening_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += handler_violations(path.read_text(),
                                    str(path.relative_to(SRC)))
    assert not found, "\n".join(found)


def test_check_flags_both_patterns():
    source = (
        "try:\n    pass\n"
        "except FAULT_EXCEPTIONS as exc:\n"
        "    if not is_fault(exc):\n        raise\n"
        "try:\n    pass\n"
        "except FAULT_EXCEPTIONS + (LookupError,):\n    pass\n"
        "try:\n    pass\n"
        "except (MaskingViolation,) + FAULT_EXCEPTIONS:\n    pass\n")
    found = handler_violations(source)
    assert len(found) == 2
    assert "re-checks is_fault" in found[0]
    assert "LookupError" in found[1]
