"""Per-layer tracing for the traced run, installed from the benchmark.

``LayerTracer.install`` wraps the public entry points (public methods
and constructors) of the classes in ``TRACED``; no program file is
touched.  A layer is a module.  Each call into a layer from another
layer opens a span (layer, parent span, start, end) kept in memory;
calls within the span's own layer only count.  A layer's self time is
its spans' time minus the time their child spans cover.  networkx is
traced where ``repro.core.requests`` reaches it: that module's ``nx``
name is swapped for a proxy whose functions and ``DiGraph`` methods are
wrapped.

Spans are recorded only between ``begin_op`` and ``end_op``, under a
root span per op (layer ``unattributed``: the benchmark's own code and
program code outside every traced layer).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from array import array
from typing import Callable, Dict, List

#: (layer, module, classes whose public methods and constructor are wrapped)
TRACED = (
    ("core.planner", "repro.core.planner", ("TailCostPlanner",)),
    ("core.requests", "repro.core.requests", ("RequestDag", "ReadySimulation")),
    (
        "core.scheduler",
        "repro.core.scheduler",
        ("NetworkExecutor", "_OrderingOracle", "BasicTangoScheduler", "PrefixTangoScheduler"),
    ),
    ("tables.stack", "repro.tables.stack", ("RankedTableStack",)),
    ("tables.tcam", "repro.tables.tcam", ("PriorityShiftModel", "SortedListShiftModel")),
    ("core.probing", "repro.core.probing", ("ProbingEngine",)),
    ("openflow.channel", "repro.openflow.channel", ("ControlChannel",)),
    ("switches.base", "repro.switches.base", ("SimulatedSwitch",)),
    ("switches.ovs", "repro.switches.ovs", ("OvsSwitch",)),
    ("sim.events", "repro.sim.events", ("Simulator", "EventQueue")),
    ("serve.cache", "repro.serve.cache", ("RuleCacheManager",)),
    ("serve.loop", "repro.serve.loop", ("ServeLoop",)),
)

#: SwitchInferenceEngine's probe stages, one layer each.
INFERENCE_STAGES = {
    "infer_sizes": "core.inference.size",
    "infer_behavior": "core.inference.behavior",
    "infer_policy": "core.inference.policy",
    "infer_latency_curves": "core.inference.latency_curves",
}

#: Classes whose instances built during an op are kept, so that the op's
#: counters can be read from them afterwards.
REGISTERED = {
    "repro.core.requests.RequestDag",
    "repro.switches.base.SimulatedSwitch",
    "repro.sim.events.Simulator",
}

ROOT_LAYER = "unattributed"


def _diff(keys: List[str], now: list, before: list) -> Dict[str, float]:
    return {
        key: now[i] - (before[i] if i < len(before) else 0)
        for i, key in enumerate(keys)
    }


class LayerTracer:
    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.spans_opened: List[int] = []
        self.call_keys: List[str] = []
        self.calls: List[int] = []
        self.instances: Dict[str, list] = {key: [] for key in REGISTERED}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.origin = time.perf_counter()
        self.active = False
        self._stack: List[list] = []
        self._root = self.layer_id(ROOT_LAYER)

    def layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_s.append(0.0)
            self.spans_opened.append(0)
        return self._layer_ids[layer]

    # -- wrapping ---------------------------------------------------------------
    def wrap(self, layer: str, key: str, fn: Callable, register: str = "") -> Callable:
        layer_id = self.layer_id(layer)
        call_id = len(self.calls)
        self.call_keys.append(key)
        self.calls.append(0)
        tracer = self
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans_opened = self.spans_opened
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        instances = self.instances[register] if register else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[call_id] += 1
            if instances is not None:
                instances.append(args[0])
            parent = stack[-1]
            if parent[1] == layer_id:
                return fn(*args, **kwargs)
            index = len(span_start)
            span_layer.append(layer_id)
            span_parent.append(parent[0])
            span_end.append(0.0)
            spans_opened[layer_id] += 1
            frame = [index, layer_id, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[index] = end
                duration = end - start
                self_s[layer_id] += duration - frame[2]
                stack[-1][2] += duration

        return traced

    def _wrap_class(self, layer: str, cls: type, names=None) -> None:
        qualname = f"{cls.__module__}.{cls.__name__}"
        for name, attr in list(vars(cls).items()):
            if names is not None:
                if name not in names:
                    continue
            elif name.startswith("_") and name != "__init__":
                continue
            target = layer if names is None else names[name]
            key = f"{target}.{cls.__name__}.{name}"
            register = qualname if name == "__init__" and qualname in REGISTERED else ""
            if isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self.wrap(target, key, attr.__func__))
            elif isinstance(attr, types.FunctionType):
                if inspect.isgeneratorfunction(attr):
                    continue  # a span would cover only the generator's creation
                wrapped = self.wrap(target, key, attr, register)
            else:
                continue  # properties and plain attributes
            setattr(cls, name, wrapped)

    def _networkx_proxy(self):
        import networkx

        graph_methods = {}
        for base in reversed(networkx.DiGraph.__mro__[:-1]):
            for name, attr in vars(base).items():
                if isinstance(attr, types.FunctionType) and not name.startswith("_"):
                    key = f"networkx.DiGraph.{name}"
                    graph_methods[name] = self.wrap("networkx", key, attr)
        traced_graph = type("DiGraph", (networkx.DiGraph,), graph_methods)
        tracer = self

        class NetworkxProxy:
            """``networkx`` as ``repro.core.requests`` sees it, traced."""

            def __getattr__(self, name):
                value = getattr(networkx, name)
                if name == "DiGraph":
                    value = traced_graph
                elif callable(value) and not isinstance(value, type):
                    value = tracer.wrap("networkx", f"networkx.{name}", value)
                setattr(self, name, value)
                return value

        return NetworkxProxy()

    def install(self) -> None:
        for layer, module_name, class_names in TRACED:
            module = importlib.import_module(module_name)
            for class_name in class_names:
                self._wrap_class(layer, getattr(module, class_name))
        inference = importlib.import_module("repro.core.inference")
        self._wrap_class("", inference.SwitchInferenceEngine, INFERENCE_STAGES)
        requests = importlib.import_module("repro.core.requests")
        requests.nx = self._networkx_proxy()

    # -- ops ----------------------------------------------------------------------
    def begin_op(self) -> None:
        self._before_self = list(self.self_s)
        self._before_calls = list(self.calls)
        self._before_spans = list(self.spans_opened)
        for registered in self.instances.values():
            registered.clear()
        index = len(self.span_start)
        self.span_layer.append(self._root)
        self.span_parent.append(-1)
        self.span_end.append(0.0)
        self.spans_opened[self._root] += 1
        self._stack.append([index, self._root, 0.0])
        self.active = True
        self.span_start.append(time.perf_counter())

    def end_op(self) -> Dict[str, Dict[str, float]]:
        """Close the op's root span; returns this op's self seconds per
        layer, calls per wrapped entry point, and spans per layer."""
        end = time.perf_counter()
        self.active = False
        index, layer_id, child_s = self._stack.pop()
        self.span_end[index] = end
        self.self_s[layer_id] += end - self.span_start[index] - child_s
        # The networkx proxy wraps functions on first use, so entries
        # may have been added during the op.
        return {
            "self_s": _diff(self.layers, self.self_s, self._before_self),
            "calls": _diff(self.call_keys, self.calls, self._before_calls),
            "spans": _diff(self.layers, self.spans_opened, self._before_spans),
        }

    def registered_counts(self) -> Dict[str, float]:
        """Counters read from the instances the last op built.  Call only
        while inactive, so the reads themselves are not traced."""
        dags = self.instances["repro.core.requests.RequestDag"]
        switches = self.instances["repro.switches.base.SimulatedSwitch"]
        simulators = self.instances["repro.sim.events.Simulator"]
        return {
            "core.requests.edges": sum(len(dag.edge_ids()) for dag in dags),
            "core.requests.dag_ops": sum(dag.ops.total() for dag in dags),
            "shifts": sum(switch.stats.total_shifts for switch in switches),
            "adds": sum(switch.stats.adds for switch in switches),
            "sim.events.events": sum(sim.processed_events for sim in simulators),
        }

    def write_spans(self, path) -> int:
        """Write every span as TSV (times in microseconds from the start)."""
        origin = self.origin
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\tlayer\tstart_us\tend_us\n")
            for index in range(len(self.span_start)):
                out.write(
                    f"{index}\t{self.span_parent[index]}\t{self.layers[self.span_layer[index]]}"
                    f"\t{(self.span_start[index] - origin) * 1e6:.1f}"
                    f"\t{(self.span_end[index] - origin) * 1e6:.1f}\n"
                )
        return len(self.span_start)
