"""Outside-in layer tracing for the benchmark's traced runs.

The traced run wraps public functions of each layer from inside the
harness process - nothing under ``src/`` changes.  Every wrapped call
records a span (op, span id, parent span id, layer, start, end) in
memory; a layer's self time is its span minus the time its child spans
cover, so the layers' self times plus the op's own unattributed
remainder add up to the op's wall time exactly.

A layer is named ``<package>.<role>`` after the ``repro`` package that
owns the wrapped functions.  Counts are taken at the same boundaries
(outermost calls only), plus the compiled engine's own event counters.
"""

from __future__ import annotations

import builtins
import functools
import gzip
import inspect
import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (layer, module, attribute, count metric or None).  ``attribute`` may
#: name a class method as ``Class.method``.
WRAPPED = (
    ("workloads.generate", "repro.workloads.generate",
     "generate_scenario", None),
    ("workloads.check", "repro.workloads.generate", "check_case", None),
    ("workloads.check", "repro.workloads.generate",
     "check_invariants", None),
    ("workloads.pipeline", "repro.workloads.coordinated",
     "run_pipeline", None),
    ("workloads.pipeline", "repro.workloads.dvfs", "run_scenario", None),
    ("workloads.build_chip", "repro.workloads.coordinated",
     "PipelineScenario.build_chip", None),
    ("workloads.build_chip", "repro.workloads.dvfs",
     "BurstyScenario.build_chip", None),
    ("power.ledger", "repro.workloads.coordinated",
     "charge_pipeline_ledger", None),
    ("power.ledger", "repro.power.measured", "EnergyLedger.charge", None),
    ("power.ledger", "repro.power.measured",
     "EnergyLedger.charge_gated", None),
    ("power.ledger", "repro.power.measured",
     "EnergyLedger.charge_transition", None),
    ("power.ledger", "repro.power.model",
     "PowerModel.component_power", None),
    ("control.telemetry", "repro.control.epochs",
     "snapshot_telemetry", None),
    ("control.retune", "repro.control.transitions",
     "TransitionModel.plan", None),
    ("control.retune", "repro.arch.chip", "Chip.retune",
     "control.retunes"),
    ("sim.engine_init", "repro.sim.engine", "Engine.__init__", None),
    ("sim.engine_init", "repro.sim.engine",
     "CompiledEngine.__init__", None),
    ("arch.column_compile", "repro.arch.column_exec",
     "compile_column_runner", "arch.column_compiles"),
    ("sim.advance", "repro.sim.engine", "CompiledEngine.advance",
     "sim.windows"),
    ("sim.run", "repro.sim.engine", "CompiledEngine.run", None),
    ("sim.ref_advance", "repro.sim.engine", "Engine.advance", None),
    ("sim.ref_advance", "repro.sim.engine", "ReferenceEngine.run", None),
    ("sim.batch", "repro.sim.batch", "parallel_map", None),
    ("sim.simulator", "repro.sim.simulator", "Simulator.__init__", None),
    ("sim.simulator", "repro.sim.simulator", "Simulator.run", None),
    ("kernels.run", "repro.kernels.base", "run_kernel", None),
    ("eval.build_chip", "repro.eval.engines",
     "build_ddc_stream_chip", None),
    ("eval.build_chip", "repro.eval.engines",
     "build_mixed_divider_chip", None),
)

#: Layers with special wrapping (see :meth:`Tracer.install`).
SPECIAL = ("sim.round_compile", "control.decide", "control.epoch_loop",
           "workloads.harness")

#: Compiled-engine ``profile_snapshot()`` counters summed per op.
ENGINE_COUNTERS = (
    "lockstep_batches", "orbit_laps", "fused_runner_calls",
    "dense_ticks", "batched_ticks", "parked_edges", "sparse_steps",
    "runner_calls", "vector_batches",
)

#: The compiled engine's process-wide plan caches as (metric prefix,
#: module attribute): round code objects, capped at
#: ``LOCKSTEP_PLAN_CAP``, and shared lockstep plans, capped at
#: ``_SHARED_LOCK_CAP``.  Each clears itself completely when full; the
#: shared plans also lose single entries on lockstep failures, so the
#: traced run counts ``clear()`` calls, not shrinks.
PLAN_CACHES = (
    ("sim.round_code", "_ROUND_CODE_CACHE"),
    ("sim.shared_plan", "_SHARED_LOCK_PLANS"),
)

#: Every count the tracer reports (zero when a layer never ran).
COUNTS = (
    "sim.round_compiles", "sim.windows", "arch.column_compiles",
    "control.decisions", "control.retunes", "workloads.epochs",
) + tuple(f"sim.{name}" for name in ENGINE_COUNTERS) + tuple(
    f"{prefix}_{what}" for prefix, *_ in PLAN_CACHES
    for what in ("clears", "entries")
)

LAYERS = tuple(sorted(
    {layer for layer, *_ in WRAPPED} | set(SPECIAL)
))


class _ClearCounted(dict):
    """A plan cache that reports each of its ``clear()`` calls."""

    def __init__(self, contents: dict, on_clear) -> None:
        super().__init__(contents)
        self.on_clear = on_clear

    def clear(self) -> None:
        self.on_clear()
        super().clear()


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Span recorder; self time and counts accrue only inside ops."""

    def __init__(self) -> None:
        self.spans: list = []
        self.self_s: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.engines: list = []
        self.unattributed_s = 0.0
        self.op_wall_s = 0.0
        self._stack: list = []
        self._ids = itertools.count()
        self._op = None

    def span(self, layer: str, fn, count: str | None = None):
        """``fn`` wrapped so each call records one span of ``layer``."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(self._ids), layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[2] += elapsed
                if self._op is not None:
                    self.self_s[layer] += elapsed - frame[2]
                    if count and (parent is None or parent[1] != layer):
                        self.counts[count] += 1
                self.spans.append((
                    self._op, frame[0],
                    parent[0] if parent is not None else None,
                    layer, start, end,
                ))
        return traced

    def _cleared(self, prefix: str):
        def on_clear() -> None:
            if self._op is not None:
                self.counts[f"{prefix}_clears"] += 1
        return on_clear

    def begin_op(self, k: int) -> None:
        self._op = k
        self._stack.append([next(self._ids), "op", 0.0])
        self._op_start = perf_counter()

    def end_op(self) -> None:
        end = perf_counter()
        frame = self._stack.pop()
        elapsed = end - self._op_start
        self.op_wall_s += elapsed
        self.unattributed_s += elapsed - frame[2]
        self.spans.append(
            (self._op, frame[0], None, "op", self._op_start, end)
        )
        for engine in self.engines:
            snapshot = engine.profile_snapshot()
            for name in ENGINE_COUNTERS:
                self.counts[f"sim.{name}"] += snapshot.get(name, 0)
        self.engines.clear()
        engine = sys.modules["repro.sim.engine"]
        for prefix, attribute in PLAN_CACHES:
            self.counts[f"{prefix}_entries"] = len(getattr(engine, attribute))
        self._op = None

    def _replace_everywhere(self, original, traced) -> None:
        """Point every ``repro`` module global bound to ``original``
        (the defining module and every ``from`` import) at ``traced``."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    def install(self) -> None:
        """Wrap every layer boundary among the loaded ``repro`` modules.

        Call after the workload's imports: a module the workload never
        imported has no calls to trace.
        """
        for layer, module_name, attribute, count in WRAPPED:
            owner_name, _, name = attribute.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            fn = vars(owner).get(name) if owner is not None else None
            if fn is None:
                # Not loaded by this workload, or no longer in the
                # program: the layer reports zero.
                continue
            if owner_name:
                if attribute == "CompiledEngine.__init__":
                    fn = self._registering(fn)
                setattr(owner, name, self.span(layer, fn, count))
            else:
                self._replace_everywhere(fn, self.span(layer, fn, count))

        engine = sys.modules["repro.sim.engine"]
        # Module globals shadow builtins, so this catches exactly the
        # compile() calls made from the engine module: lockstep rounds.
        engine.compile = self.span(
            "sim.round_compile", builtins.compile, "sim.round_compiles"
        )
        # The engine looks its plan caches up as module globals too.
        for prefix, attribute in PLAN_CACHES:
            setattr(engine, attribute, _ClearCounted(
                getattr(engine, attribute), self._cleared(prefix)
            ))

        governor = sys.modules["repro.control.governor"]
        for cls in [governor.Governor] + _subclasses(governor.Governor):
            if "decide" in cls.__dict__:
                cls.decide = self.span(
                    "control.decide", cls.__dict__["decide"],
                    "control.decisions",
                )

        epochs = sys.modules["repro.control.epochs"]
        original = epochs.run_governed
        self._replace_everywhere(
            original,
            self.span("control.epoch_loop", self._governed(original)),
        )

    def _registering(self, init):
        """``CompiledEngine.__init__`` that also registers the engine,
        so its event counters are summed when the op ends."""
        engines = self.engines

        @functools.wraps(init)
        def registering(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            if self._op is not None:
                engines.append(engine)
        return registering

    def _governed(self, run_governed):
        """``run_governed`` with its harness callbacks traced."""
        signature = inspect.signature(run_governed)

        @functools.wraps(run_governed)
        def governed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for name, count in (("before_epoch", "workloads.epochs"),
                                ("telemetry_extras", None)):
                callback = bound.arguments.get(name)
                if callback is not None:
                    bound.arguments[name] = self.span(
                        "workloads.harness", callback, count
                    )
            return run_governed(*bound.args, **bound.kwargs)
        return governed

    def metrics(self) -> dict:
        """Per-layer self seconds and counts over all timed ops."""
        values = {f"{layer}_s": self.self_s.get(layer, 0.0)
                  for layer in LAYERS}
        values.update({name: self.counts.get(name, 0) for name in COUNTS})
        values["trace.unattributed_s"] = self.unattributed_s
        values["trace.op_wall_s"] = self.op_wall_s
        values["trace.coverage"] = (
            1.0 - self.unattributed_s / self.op_wall_s
            if self.op_wall_s > 0 else 0.0
        )
        values["trace.spans"] = len(self.spans)
        return values

    def write(self, path, header: dict) -> None:
        """Write every span, times relative to the first op's start."""
        origin = min(
            (start for op, _, _, _, start, _ in self.spans
             if op is not None), default=0.0,
        )
        payload = dict(header)
        payload["fields"] = ["op", "id", "parent", "layer",
                             "start_us", "end_us"]
        payload["spans"] = [
            [op, span_id, parent, layer,
             round((start - origin) * 1e6), round((end - origin) * 1e6)]
            for op, span_id, parent, layer, start, end in self.spans
        ]
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle, separators=(",", ":"))
