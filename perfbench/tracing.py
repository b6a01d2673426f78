"""Span recording around the public callables of qprospect, from outside.

A :class:`Tracer` replaces every binding a caller can reach -- module
functions (including re-exports such as ``measure.projector_of``), public
methods and class methods of the package's classes, every dataclass
``__post_init__`` and ``numpy.linalg.eigvalsh``/``eigh`` -- with a wrapper
that records one span per call: name, start, end, parent span and op id.
Spans stay in memory; :meth:`Tracer.uninstall` puts every original object
back.  Nothing here is installed during timed runs.
"""

import importlib
import inspect
import re
from time import perf_counter_ns

import numpy.linalg

#: the package layers, in the order they are reported
LAYERS = (
    "qcore", "events", "measure", "composite", "channels", "entangle",
    "game", "dynamics", "scenario", "cli", "acceptance",
)
#: numpy's eigensolvers, reported as one more layer
LINALG = ("eigvalsh", "eigh")

#: validated classes whose ``__post_init__`` counts as a validation
VALIDATED = {
    "events": ("DensityOperator", "Projector", "Observable",
               "GeneralizedProposition", "MultimodeState"),
    "composite": ("CompositeState", "ProspectOperator"),
}

#: per-layer ``_ms`` metric -> span name it sums
SPAN_MS = {
    "composite.from_amplitudes_ms": "composite.CompositeState.from_amplitudes",
    "composite.prospect_lattice_ms": "composite.prospect_lattice",
    "entangle.production_ms": "entangle.entanglement_production",
    "channels.run_pipeline_ms": "channels.run_pipeline",
    "dynamics.amplitude_matrix_ms": "dynamics.amplitude_matrix",
    "qcore.matrix_exponential_ms": "qcore.matrix_exponential",
    "qcore.partial_trace_ms": "qcore.partial_trace",
    "game.cohort_ms": "game.monte_carlo_cohort",
    "scenario.parse_ms": "scenario.parse_scenario",
    "scenario.render_ms": "scenario.ResultTable.render",
    "cli.run_ms": "cli.run",
    "acceptance.selftest_ms": "acceptance.run_all",
}
#: measure kernels reported per dimension, as ``measure.<name>_ms.d<d>``
MEASURE_KERNELS = ("wigner_table", "kirkwood_table", "identity_chain_residual",
                   "born_distribution")
DIMENSIONS = (16, 32, 64)


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if parts[0] == "qprospect" and len(parts) == 2 and parts[1] in LAYERS:
        return parts[1]
    return None


def wrap_targets() -> list[tuple[object, str, object, str]]:
    """Every binding to wrap, as ``(owner, attribute, original, span name)``.

    ``original`` is the object found in ``owner.__dict__``, so a class
    method is restored as the very descriptor it was.
    """
    package = importlib.import_module("qprospect")
    modules = [package] + [importlib.import_module(f"qprospect.{m}") for m in LAYERS]
    targets = [(numpy.linalg, name, vars(numpy.linalg)[name], f"linalg.{name}")
               for name in LINALG]
    for module in modules:
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                layer = _layer_of(obj.__module__)
                if layer is not None:
                    targets.append((module, attr, obj, f"{layer}.{obj.__name__}"))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                layer = _layer_of(obj.__module__)
                if layer is None:
                    continue
                for name, member in vars(obj).items():
                    public = not name.startswith("_") or name == "__post_init__"
                    callable_member = isinstance(member, (classmethod, staticmethod)) or (
                        inspect.isfunction(member))
                    if public and callable_member:
                        targets.append((obj, name, member, f"{layer}.{obj.__name__}.{name}"))
    return targets


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        #: spans as ``[name, start_ns, end_ns, parent index, op id]``
        self.spans: list[list] = []
        self.op: int = -1
        self.active = False
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter_ns()
                stack.pop()

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, original, name in wrap_targets():
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name))
            elif isinstance(original, staticmethod):
                replacement = staticmethod(self._wrap(original.__func__, name))
            else:
                replacement = self._wrap(original, name)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def layer_metrics(spans, op_tags) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``op_tags[i]`` holds the tags of op ``i`` (a ``"d"`` tag selects the
    per-dimension ``measure`` metrics).  Times are summed inclusive span
    durations in ms; ``<layer>.self_ms`` subtracts the time covered by
    child spans.
    """
    metrics: dict[str, float] = {}
    for layer in LAYERS + ("linalg",):
        metrics[f"{layer}.self_ms"] = 0.0
    for name in LINALG:
        metrics[f"linalg.{name}_calls"] = 0
        metrics[f"linalg.{name}_ms"] = 0.0
    for layer in VALIDATED:
        metrics[f"{layer}.validations"] = 0
        metrics[f"{layer}.validate_ms"] = 0.0
    for metric in SPAN_MS:
        metrics[metric] = 0.0
    for kernel in MEASURE_KERNELS:
        for d in DIMENSIONS:
            metrics[f"measure.{kernel}_ms.d{d}"] = 0.0
    metrics["measure.projector_builds"] = 0

    validation_spans = {
        f"{layer}.{cls}.__post_init__": layer
        for layer, classes in VALIDATED.items() for cls in classes
    }
    metric_of_span = {span: metric for metric, span in SPAN_MS.items()}
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    for index, (name, start, end, parent, op) in enumerate(spans):
        ms = (end - start) / 1e6
        layer, short = name.split(".", 1)
        metrics[f"{layer}.self_ms"] += ms - child_ns[index] / 1e6
        if layer == "linalg":
            metrics[f"linalg.{short}_calls"] += 1
            metrics[f"linalg.{short}_ms"] += ms
        if name in validation_spans:
            metrics[f"{validation_spans[name]}.validations"] += 1
            metrics[f"{validation_spans[name]}.validate_ms"] += ms
        if name in metric_of_span:
            metrics[metric_of_span[name]] += ms
        if layer == "measure" and short in MEASURE_KERNELS:
            d = op_tags[op].get("d") if op >= 0 else None
            if d in DIMENSIONS:
                metrics[f"measure.{short}_ms.d{d}"] += ms
        if name == "events.Projector.__post_init__" and _under_layer(spans, parent, "measure"):
            metrics["measure.projector_builds"] += 1
    return metrics


def _under_layer(spans, index: int, layer: str) -> bool:
    while index >= 0:
        if spans[index][0].startswith(layer + "."):
            return True
        index = spans[index][3]
    return False


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_times(stderr: str) -> dict[str, float]:
    """``import.{qprospect,scipy,numpy}_ms`` from ``python -X importtime`` output.

    Each figure sums the cumulative times of the package's outermost
    entries, so a sub-package imported later (``scipy.integrate``) adds in.
    numpy modules that scipy pulls in count as scipy, leaving numpy's own
    import as the floor.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            entries.append((len(match.group(3)), match.group(4), int(match.group(2))))
    totals = {"qprospect": 0.0, "scipy": 0.0, "numpy": 0.0}
    # importtime prints an entry after its (deeper-indented) children, so
    # walking backwards meets every parent before its children.
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".", 1)[0]
        outer = {p for _, p in ancestors}
        nested = package in outer or (package != "qprospect" and outer & {"numpy", "scipy"})
        if package in totals and not nested:
            totals[package] += cumulative_us / 1000.0
        ancestors.append((depth, package))
    return {f"import.{p}_ms": v for p, v in totals.items()}
