"""Outside-in per-layer tracing for the benchmark.

The benchmark attributes wall time to the repository's modules without
editing them: :class:`LayerTracer` replaces chosen entry points with
timing wrappers at start-up and puts the originals back afterwards.
Each wrapped call is a span. A span's self time is its duration minus
the time of the spans nested inside it, so the self times of all spans
add up to the traced wall time exactly once.

The wrappers must be installed before the simulation objects are built:
some objects bind methods once at construction (the flow network keeps
``self.flush`` and ``self._on_wake`` as pre-bound callbacks, a process
keeps ``self._resume`` on the event it waits for).

Spans are aggregated in memory, one ``[self_s, calls]`` cell per entry
point, and read once at the end with :meth:`LayerTracer.snapshot`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

__all__ = ["LAYERS", "LayerTracer", "layer_of", "layer_metrics", "per_layer_units"]

#: The layers, named after the repository's modules.
LAYERS = (
    "sim.engine",
    "sim.flows",
    "sim.metrics",
    "yarn",
    "hdfs",
    "core.engine",
    "core.schedulers",
    "core.provenance",
    "langs",
    "obs",
    "obs.journal",
    "cluster",
    "core.am",
    "service",
)

#: Module prefix -> layer, first match wins (specific prefixes first).
#: A resumed process lands in the layer of its generator's module.
_MODULE_LAYERS = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.flows", "sim.flows"),
    ("repro.sim.metrics", "sim.metrics"),
    ("repro.yarn", "yarn"),
    ("repro.hdfs", "hdfs"),
    ("repro.core.engine", "core.engine"),
    ("repro.core.schedulers", "core.schedulers"),
    ("repro.core.provenance", "core.provenance"),
    ("repro.langs", "langs"),
    ("repro.workflow", "langs"),
    ("repro.obs.journal", "obs.journal"),
    ("repro.obs", "obs"),
    ("repro.cluster", "cluster"),
    ("repro.core", "core.am"),
    ("repro.service", "service"),
)

#: Time in a module no layer claims. Counted in the traced total, so
#: shares stay honest, but not reported as a layer of its own.
OTHER = "other"

#: (module, class, methods, layer). ``None`` wraps every public function
#: the class itself defines (properties are not wrapped).
_METHODS = (
    ("repro.sim.engine", "Environment", ("run",), "sim.engine"),
    ("repro.sim.flows", "FlowNetwork", ("start_flow", "flush", "_on_wake"), "sim.flows"),
    ("repro.sim.flows", "Flow", ("cancel",), "sim.flows"),
    ("repro.sim.metrics", "MetricRecorder", ("observe",), "sim.metrics"),
    ("repro.yarn.resourcemanager", "ResourceManager", None, "yarn"),
    ("repro.hdfs.filesystem", "HdfsClient",
     ("local_fraction", "local_fractions", "stage_many"), "hdfs"),
    ("repro.core.engine.core", "ExecutionCore", None, "core.engine"),
    ("repro.core.provenance.manager", "ProvenanceManager", None, "core.provenance"),
    ("repro.obs.bus", "EventBus", ("emit",), "obs"),
    ("repro.obs.journal", "EventJournal", ("record",), "obs.journal"),
    ("repro.cluster.cluster", "Cluster", ("transfer", "s3_download", "ebs_io"), "cluster"),
    ("repro.cluster.node", "Node", ("compute", "disk_io"), "cluster"),
)

#: (module, base class, methods, layer): wrapped on the base and on every
#: loaded subclass that defines the method itself.
_FAMILIES = (
    ("repro.core.schedulers.base", "WorkflowScheduler",
     ("plan", "placement_for", "enqueue", "select_task", "on_task_finished"),
     "core.schedulers"),
    ("repro.core.provenance.stores", "ProvenanceStore",
     ("append", "records", "latest_task_runtime"), "core.provenance"),
    ("repro.workflow.model", "TaskSource",
     ("initial_tasks", "on_task_completed"), "langs"),
)

#: Imported before the families are walked, so every subclass is loaded.
_PRELOAD = ("repro.core", "repro.langs")


def layer_of(module: str) -> str:
    """The layer a module belongs to (``"other"`` when none claims it)."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


def _subclasses(cls):
    seen = [cls]
    for klass in seen:
        for sub in klass.__subclasses__():
            if sub not in seen:
                seen.append(sub)
    return seen


class LayerTracer:
    """Installs timing wrappers on the layer entry points.

    ``install`` patches, ``uninstall`` restores every patched attribute,
    ``reset`` zeroes the counters (call it where the measured phase
    starts, with no span open), and ``snapshot`` returns the totals.
    Entry points missing from the code being measured are skipped and
    listed in :attr:`missing`, so a renamed method reads as zero calls
    instead of stopping the benchmark.
    """

    def __init__(self):
        #: (layer, entry) -> [self seconds, calls]
        self._cells: dict[tuple[str, str], list] = {}
        #: Child time accumulated by each open span; [0] is the root.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[type, str, object]] = []
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in _PRELOAD:
            importlib.import_module(name)
        for module, class_name, methods, layer in _METHODS:
            cls = self._find_class(module, class_name)
            if cls is None:
                continue
            if methods is None:
                methods = [
                    name for name, value in vars(cls).items()
                    if not name.startswith("_") and inspect.isfunction(value)
                ]
            for method in methods:
                self._wrap(cls, method, layer, required=True)
        for module, class_name, methods, layer in _FAMILIES:
            base = self._find_class(module, class_name)
            if base is None:
                continue
            for method in methods:
                if not any(method in vars(cls) for cls in _subclasses(base)):
                    self.missing.append(f"{class_name}.{method}")
                for cls in _subclasses(base):
                    if method in vars(cls):
                        self._wrap(cls, method, layer, required=False)
        process = self._find_class("repro.sim.engine", "Process")
        if process is not None and inspect.isfunction(vars(process).get("_resume")):
            self._patch(process, "_resume", self._resume_wrapper(process._resume))
        else:
            self.missing.append("Process._resume")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _find_class(self, module: str, class_name: str):
        try:
            cls = getattr(importlib.import_module(module), class_name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{class_name}")
            return None
        return cls

    def _patch(self, owner: type, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _wrap(self, cls: type, method: str, layer: str, required: bool) -> None:
        original = vars(cls).get(method)
        if not inspect.isfunction(original):
            if required:
                self.missing.append(f"{cls.__name__}.{method}")
            return
        if inspect.isgeneratorfunction(original):
            return  # a process body: timed through Process._resume
        self._patch(cls, method, self._timed(original, self._cell(layer, f"{cls.__name__}.{method}")))

    def _cell(self, layer: str, entry: str) -> list:
        return self._cells.setdefault((layer, entry), [0.0, 0])

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, fn, cell: list):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                cell[0] += elapsed - child
                cell[1] += 1

        return span

    def _resume_wrapper(self, original):
        """``Process._resume`` as a span in the layer of the generator.

        The accounting is :meth:`_timed`'s, written out again so the hot
        path stays one call deep; the cell is looked up per generator.
        """
        stack = self._stack
        clock = time.perf_counter
        cells: dict = {}

        @functools.wraps(original)
        def _resume(process, event):
            code = getattr(process._generator, "gi_code", None)
            cell = cells.get(code)
            if cell is None:
                frame = getattr(process._generator, "gi_frame", None)
                if frame is None:  # a finished generator: nothing runs
                    return original(process, event)
                module = frame.f_globals.get("__name__", "")
                cell = cells[code] = self._cell(layer_of(module), "resume")
            stack.append(0.0)
            start = clock()
            try:
                return original(process, event)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                cell[0] += elapsed - child
                cell[1] += 1

        return _resume

    # -- readout ----------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter; no span may be open."""
        if len(self._stack) != 1:
            raise RuntimeError("reset with a span open")
        self._stack[0] = 0.0
        for cell in self._cells.values():
            cell[0] = 0.0
            cell[1] = 0

    def snapshot(self) -> dict:
        """``{"layer|entry": [self_s, calls]}`` for every entry point called."""
        return {
            f"{layer}|{entry}": [cell[0], cell[1]]
            for (layer, entry), cell in sorted(self._cells.items())
            if cell[1]
        }


def _calls(entries: dict, layer, method: str) -> int:
    """Calls of ``method`` (any class) in ``layer`` (``None`` = any layer)."""
    total = 0
    for key, (_, calls) in entries.items():
        key_layer, entry = key.split("|")
        if (layer is None or key_layer == layer) and entry.rsplit(".", 1)[-1] == method:
            total += calls
    return total


def layer_metrics(entries: dict, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced rep (``trace_overhead`` aside).

    ``entries`` is a :meth:`LayerTracer.snapshot`; ``counters`` carries
    what the workload read from the program itself: ``yarn.allocations``
    and ``obs.journal.bytes``.
    """
    total = sum(self_s for self_s, _ in entries.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        cells = [cell for key, cell in entries.items() if key.split("|")[0] == layer]
        self_s = sum(cell[0] for cell in cells)
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / total if total else 0.0
        metrics[f"{layer}.calls"] = sum(cell[1] for cell in cells)
    starts = _calls(entries, "sim.flows", "start_flow")
    flushes = _calls(entries, "sim.flows", "flush")
    wakes = _calls(entries, "sim.flows", "_on_wake")
    cancels = _calls(entries, "sim.flows", "cancel")
    metrics["sim.flows.start_flow.calls"] = starts
    metrics["sim.flows.flush.calls"] = flushes
    metrics["sim.flows.wake.calls"] = wakes
    metrics["sim.flows.mutations_per_rebalance"] = (
        (starts + cancels + wakes) / flushes if flushes else 0.0
    )
    metrics["sim.engine.resumes"] = _calls(entries, None, "resume")
    metrics["core.provenance.lookups"] = _calls(entries, "core.provenance", "latest_task_runtime")
    metrics["core.provenance.records"] = _calls(entries, "core.provenance", "append")
    metrics["obs.events"] = _calls(entries, "obs", "emit")
    metrics["obs.journal.events"] = _calls(entries, "obs.journal", "record")
    metrics["obs.journal.bytes"] = counters.get("obs.journal.bytes", 0)
    metrics["yarn.requests"] = _calls(entries, "yarn", "request_container")
    metrics["yarn.allocations"] = counters.get("yarn.allocations", 0)
    return metrics


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, ``trace_overhead`` included."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
        units[f"{layer}.calls"] = "count"
    units.update({
        "sim.flows.start_flow.calls": "count",
        "sim.flows.flush.calls": "count",
        "sim.flows.wake.calls": "count",
        "sim.flows.mutations_per_rebalance": "ratio",
        "sim.engine.resumes": "count",
        "core.provenance.lookups": "count",
        "core.provenance.records": "count",
        "obs.events": "count",
        "obs.journal.events": "count",
        "obs.journal.bytes": "bytes",
        "yarn.requests": "count",
        "yarn.allocations": "count",
        "trace_overhead": "ratio",
    })
    return units
