"""Every tolerance comparison in the package refuses a NaN.

Every ordering comparison with a NaN is false, so ``if defect > bound: raise``
lets a NaN defect through, and so does ``if p <= bound: raise``.  A check that
raises must hold its comparison under a negation (``if not lo <= x <= hi:
raise``) or go through :func:`qcore.require_within` or
:func:`qcore.require_event`.  The last hand-written invariants have one home
in :mod:`qcore` too: ``object.__setattr__`` is called only by its setter,
``ZERO_EVENT_TOL`` is read only there and in :mod:`policy`, no
``__post_init__`` reads a caller's number but through :mod:`qcore`'s readers,
and every flag a caller passes is read by ``qcore._require_bool``.
"""

import ast
import pathlib

import qprospect

SOURCES = sorted(pathlib.Path(qprospect.__file__).parent.glob("*.py"))


def _is_bound(node) -> bool:
    """A float constant, a ``policy.*_TOL`` or ``*_GAP``, ``policy.tolerance()`` or
    a name containing ``tol``, ``bound`` or ``window``, anywhere in ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, float):
            return True
        if isinstance(n, ast.Attribute) and (n.attr.endswith(("_TOL", "_GAP"))
                                             or n.attr == "tolerance"):
            return True
        if isinstance(n, ast.Name) and any(w in n.id.lower() for w in ("tol", "bound", "window")):
            return True
    return False


def _fail_open(node, negated=False) -> bool:
    """Whether ``node`` holds an ordering comparison with a bound, not negated,
    which a NaN makes false."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.Invert)):
        return _fail_open(node.operand, not negated)
    if isinstance(node, ast.Compare) and not negated:
        operands = [node.left, *node.comparators]
        if any(isinstance(op, (ast.Gt, ast.Lt, ast.GtE, ast.LtE))
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
        "if p <= policy.ZERO_EVENT_TOL: raise E",
        "if gaps.min() <= policy.EIGENVALUE_GAP: raise E",
        "if w[-1] <= policy.tolerance(): raise E",
        "if x >= bound: raise E",
    ]
    fail_closed = [
        "if not defect <= policy.tolerance(): raise E",
        "if not -window <= p <= 1.0 + window: raise E",
        "if not (np.isfinite(b) and b > 1.0): raise E",
        "if np.any(~(np.abs(x) <= bound)): raise E",
        "if not gap > policy.EIGENVALUE_GAP: raise E",
        "if start <= previous: raise E",
        "if n > 0: raise E",
        "if defect > policy.tolerance(): warn()",
        "x = y > tol",
    ]
    assert [fail_open_checks(s) for s in fail_open] == [[1]] * len(fail_open)
    assert [fail_open_checks(s) for s in fail_closed] == [[]] * len(fail_closed)


def _own_number_read(node) -> str | None:
    """What ``node`` is, if it reads a number by hand: ``float()`` of a value as
    given (a name, attribute or subscript, not a computed result), a finiteness
    test, or ``np.array``/``np.asarray`` with a ``dtype``."""
    if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy", "math")):
        return f"{node.value.id}.isfinite"
    if not isinstance(node, ast.Call):
        return None
    if (isinstance(node.func, ast.Name) and node.func.id == "float" and node.args
            and isinstance(node.args[0], (ast.Name, ast.Attribute, ast.Subscript))):
        return "float()"
    if (isinstance(node.func, ast.Attribute) and node.func.attr in ("array", "asarray")
            and any(k.arg == "dtype" for k in node.keywords)):
        return f"np.{node.func.attr}(dtype=)"
    return None


def _unread_flags(node) -> list[tuple[str, int]]:
    """The ``bool`` parameters of a public function, or the ``bool`` fields of a
    class with a ``__post_init__``, that the function or ``__post_init__`` never passes
    to ``_require_bool``."""
    reader = None
    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
        reader, flags = node, [(a.arg, a) for a in node.args.args + node.args.kwonlyargs]
    elif isinstance(node, ast.ClassDef):
        reader = next((f for f in node.body if isinstance(f, ast.FunctionDef)
                       and f.name == "__post_init__"), None)
        flags = [(f"self.{f.target.id}", f) for f in node.body
                 if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    if reader is None:
        return []
    read = {ast.unparse(n.args[0]) for n in ast.walk(reader) if isinstance(n, ast.Call) and n.args
            and getattr(n.func, "attr", getattr(n.func, "id", None)) == "_require_bool"}
    return [(name, f.lineno) for name, f in flags if name not in read
            and isinstance(f.annotation, ast.Name) and f.annotation.id == "bool"]


def single_path_breaches(source: str, module: str) -> list[str]:
    """Where ``source`` sets a frozen field other than through ``qcore._set_fields``,
    reads ``ZERO_EVENT_TOL`` outside :mod:`qcore` and :mod:`policy`, reads a
    number by hand in a ``__post_init__`` (:func:`_own_number_read`) in place of
    ``qcore._require_numbers`` or ``qcore._require_real``, or leaves a flag
    unread by ``qcore._require_bool`` (:func:`_unread_flags`)."""
    breaches = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"
                and (module, function) != ("qcore", "_set_fields")):
            breaches.append(f"object.__setattr__ in {function} at line {node.lineno}")
        name = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
        name = name and getattr(node, name)
        if name == "ZERO_EVENT_TOL" and module not in ("qcore", "policy"):
            breaches.append(f"ZERO_EVENT_TOL at line {node.lineno}")
        read = function == "__post_init__" and _own_number_read(node)
        if read:
            breaches.append(f"{read} in __post_init__ at line {node.lineno}")
        breaches.extend(f"unread flag {flag} at line {line}" for flag, line in _unread_flags(node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return breaches


def test_one_setter_and_one_null_event_guard():
    found = {path.stem: single_path_breaches(path.read_text(), path.stem) for path in SOURCES}
    assert {name: where for name, where in found.items() if where} == {}
    assert (SOURCES[0].parent / "qcore.py").read_text().count("object.__setattr__(") == 1


def test_single_path_guard_finds_each_breach():
    setter = "def __post_init__(self):\n    object.__setattr__(self, 'x', 1)"
    assert single_path_breaches(setter, "events") == [
        "object.__setattr__ in __post_init__ at line 2"]
    assert single_path_breaches(setter, "qcore") != []
    assert single_path_breaches(setter.replace("__post_init__", "_set_fields"), "events") != []
    assert single_path_breaches(setter.replace("__post_init__", "_set_fields"), "qcore") == []
    read = ("if p <= policy.ZERO_EVENT_TOL: raise E\n"
            "from .policy import ZERO_EVENT_TOL as t\n"
            "f(ZERO_EVENT_TOL)")
    assert single_path_breaches(read, "game") == [
        f"ZERO_EVENT_TOL at line {n}" for n in (1, 2, 3)]
    assert single_path_breaches(read, "qcore") == single_path_breaches(read, "policy") == []
    own_reads = ("def __post_init__(self):\n"
                 "    x = float(self.x)\n"
                 "    y = [float(v) for v in self.y]\n"
                 "    if not np.isfinite(x): raise E\n"
                 "    check = math.isfinite\n"
                 "    a = np.array(self.a, dtype=float)\n"
                 "    b = np.asarray(self.b, dtype=complex)\n"
                 "    norm = float(np.linalg.norm(a))\n"
                 "    c = np.array(a)\n"
                 "    d = qcore._require_numbers(self.d, 'd', real=True)\n")
    assert single_path_breaches(own_reads, "events") == [
        "float() in __post_init__ at line 2", "float() in __post_init__ at line 3",
        "np.isfinite in __post_init__ at line 4", "math.isfinite in __post_init__ at line 5",
        "np.array(dtype=) in __post_init__ at line 6",
        "np.asarray(dtype=) in __post_init__ at line 7"]
    assert single_path_breaches(own_reads.replace("__post_init__", "gram"), "events") == []
    flags = ("def lattice(state, normalize: bool = True, *, strict: bool, n: int = 0):\n"
             "    strict = qcore._require_bool(strict, 'strict')\n"
             "def _private(normalize: bool): pass\n"
             "class Entry:\n"
             "    normalized: bool = False\n"
             "    checked: bool = False\n"
             "    p: float = 0.0\n"
             "    def __post_init__(self):\n"
             "        _require_bool(self.checked, 'checked')\n"
             "class Record:\n"
             "    passed: bool\n")
    assert single_path_breaches(flags, "composite") == [
        "unread flag normalize at line 1", "unread flag self.normalized at line 5"]
