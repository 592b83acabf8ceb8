"""Static check: an operation's completion is its Process.

A :class:`~repro.sim.process.Process` is an Event that succeeds with the
generator's return value and fails with the exception it raises, so an
operation that starts a process returns that process.  Creating a second
Event next to it and resolving it from inside the generator schedules
two completions where one models the operation: the hand-built one that
the caller waits on, and the process's own, which fires for nobody.

This walks every function under ``src/repro`` and fails on that shape: a
function that creates an ``Event(...)`` or ``sim.event()`` and hands
``sim.process`` a generator that resolves it, either because the event
is passed to the generator call or because the generator is a nested
function that calls ``succeed``/``fail`` on it.

Events that are decided before any process starts (an already-failed
link, a lock-cache hit) and callback relays (no process at all) stay
events, and this check passes them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
RESOLVERS = {"succeed", "fail"}


def _own_nodes(fn: ast.AST):
    """Every node in ``fn``'s body outside its nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _is_event_factory(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "Event") or (
        isinstance(func, ast.Attribute) and func.attr == "event")


def _resolved_names(fn: ast.AST) -> set[str]:
    return {node.func.value.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in RESOLVERS
            and isinstance(node.func.value, ast.Name)}


def completion_violations(source: str, filename: str = "<src>") -> list[str]:
    """One line per function that resolves a hand-built completion Event
    from inside the process it starts."""
    found = []
    for fn in ast.walk(ast.parse(source, filename)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_nodes(fn))
        events = {target.id for node in own if isinstance(node, ast.Assign)
                  and _is_event_factory(node.value)
                  for target in node.targets if isinstance(target, ast.Name)}
        if not events:
            continue
        nested = {node.name: node for node in own
                  if isinstance(node, ast.FunctionDef)}
        for call in own:
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "process" and call.args
                    and isinstance(call.args[0], ast.Call)):
                continue
            gen = call.args[0]
            args = (*gen.args, *(kw.value for kw in gen.keywords))
            passed = {name.id for arg in args for name in ast.walk(arg)
                      if isinstance(name, ast.Name)}
            local = (nested.get(gen.func.id)
                     if isinstance(gen.func, ast.Name) else None)
            resolved = _resolved_names(local) if local is not None else set()
            for name in sorted(events & (passed | resolved)):
                found.append(f"{filename}:{call.lineno}: {fn.name}() "
                             f"resolves {name!r} inside the process it "
                             "starts; return the process instead")
    return found


def test_no_hand_built_completion_events_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += completion_violations(path.read_text(),
                                       str(path.relative_to(SRC)))
    assert not found, "\n".join(found)


def test_check_flags_both_shapes_and_passes_the_events_that_stay():
    source = '''
def passed_in(self):
    done = Event(self.sim)
    self.sim.process(self._serve(1, done), name="x")
    return done

def closure(self):
    done = self.sim.event()

    def run():
        yield self.sim.timeout(1.0)
        done.succeed(1)

    self.sim.process(run())
    return done

def decided_before_start(self):
    if self.failed:
        failed = Event(self.sim)
        failed.fail(LinkDownError("down"))
        return failed
    return self.sim.process(self._run(1))

def relay(self):
    done = Event(self.sim)
    self.link.transfer(1).add_callback(lambda ev: done.succeed(1))
    return done
'''
    found = completion_violations(source)
    assert len(found) == 2
    assert "passed_in() resolves 'done'" in found[0]
    assert "closure() resolves 'done'" in found[1]
