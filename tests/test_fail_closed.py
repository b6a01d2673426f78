"""Every tolerance comparison in the package refuses a NaN.

``nan > bound`` is false, so ``if defect > bound: raise`` lets a NaN defect
through.  A check that raises must hold its comparison under a negation
(``if not lo <= x <= hi: raise``) or go through :func:`qcore.require_within`.
"""

import ast
import pathlib

import qprospect

SOURCES = sorted(pathlib.Path(qprospect.__file__).parent.glob("*.py"))


def _is_bound(node) -> bool:
    """A float constant, a ``policy.*_TOL``, ``policy.tolerance()`` or a name
    containing ``tol``, ``bound`` or ``window``, anywhere in ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, float):
            return True
        if isinstance(n, ast.Attribute) and (n.attr.endswith("_TOL") or n.attr == "tolerance"):
            return True
        if isinstance(n, ast.Name) and any(w in n.id.lower() for w in ("tol", "bound", "window")):
            return True
    return False


def _fail_open(node, negated=False) -> bool:
    """Whether ``node`` holds a strict comparison with a bound, not negated,
    which a NaN makes false."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.Invert)):
        return _fail_open(node.operand, not negated)
    if isinstance(node, ast.Compare) and not negated:
        operands = [node.left, *node.comparators]
        if any(isinstance(op, (ast.Gt, ast.Lt))
               and (_is_bound(operands[k]) or _is_bound(operands[k + 1]))
               for k, op in enumerate(node.ops)):
            return True
    return any(_fail_open(child, negated) for child in ast.iter_child_nodes(node))


def fail_open_checks(source: str) -> list[int]:
    """Lines of ``if`` statements that raise on a fail-open tolerance comparison."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If)
        and any(isinstance(n, ast.Raise) for s in node.body for n in ast.walk(s))
        and _fail_open(node.test)
    ]


def test_no_fail_open_tolerance_check():
    found = {path.name: fail_open_checks(path.read_text()) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_tells_fail_open_from_fail_closed():
    fail_open = [
        "if defect > policy.tolerance(): raise E",
        "if w.min() < -tol: raise E",
        "if abs(x - 1.0) > policy.NORM_TOL: raise E",
        "if p < -window or p > gram + window: raise E",
        "if x > 1e-12 * scale:\n    if y: raise E",
        "if np.any(np.abs(x) > bound): raise E",
    ]
    fail_closed = [
        "if not defect <= policy.tolerance(): raise E",
        "if not -window <= p <= 1.0 + window: raise E",
        "if not (np.isfinite(b) and b > 1.0): raise E",
        "if np.any(~(np.abs(x) <= bound)): raise E",
        "if p <= policy.ZERO_EVENT_TOL: raise E",
        "if n > 0: raise E",
        "if defect > policy.tolerance(): warn()",
        "x = y > tol",
    ]
    assert [fail_open_checks(s) for s in fail_open] == [[1]] * len(fail_open)
    assert [fail_open_checks(s) for s in fail_closed] == [[]] * len(fail_closed)
