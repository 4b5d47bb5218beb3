"""Outside-in layer spans for the traced run.

The benchmark changes nothing in the program: while tracing is on it
replaces the public entry points of each layer with thin wrappers that
record a span (id, parent id, name, layer, start, end, thread, step) in
memory, and restores the originals when tracing is turned off.  Spans
recorded in forked workers are dropped (the wrapper calls straight
through there), so for the process engines the layer view stops at the
calculator's ``compute``.

Closure: on the calling thread every span lies inside its parent, so the
layers' self times of one step add up to the step's wall time.  Spans on
worker threads are busy time and are kept out of that sum.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import repro.core.strategies.sdc as sdc_module
import repro.md.simulation as simulation_module
import repro.parallel.backends.processes as processes_module
import repro.parallel.backends.sharded as sharded_module
import repro.potentials.eam as eam_module
from repro import kernels
from repro.md.neighbor.verlet import NeighborList
from repro.parallel.backends import ThreadBackend

# span record slots
ID, PARENT, NAME, LAYER, START, END, TID, STEP = range(8)

STEP_SPAN = "md.simulation.step"

#: kernel-tier methods and the EAM phase each belongs to; a bare
#: ``pair_geometry`` call goes to the phase of the next kernel call on
#: the same thread (the SDC task bodies call it first)
KERNEL_PHASE = {
    "density_and_pair_energy_phase": "density",
    "sdc_density_color_phase": "density",
    "density_pair_values": "density",
    "scatter_rho_half": "density",
    "scatter_rho_owned": "density",
    "force_phase": "force",
    "sdc_force_color_phase": "force",
    "force_pair_coefficients": "force",
    "scatter_force_half": "force",
    "scatter_force_owned": "force",
    "pair_geometry": None,
}

#: the core builders, wrapped in the modules of the SDC engines that
#: import them (the engines look them up as module globals)
CORE_BUILDERS = (
    "decompose",
    "decompose_balanced",
    "build_partition",
    "build_pair_partition",
    "build_schedule",
)
CORE_IMPORTERS = (sdc_module, processes_module, sharded_module)
CORE_SUMMARY = {
    "decompose": lambda grid: grid.n_subdomains,
    "decompose_balanced": lambda grid: grid.n_subdomains,
    "build_schedule": lambda schedule: len(schedule.phases),
}

#: closure residual allowed per step: the larger of these two
CLOSURE_ABS_S = 1e-6
CLOSURE_REL = 1e-4


class Trace:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.step = -1
        self.enabled = False
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self.main_tid = threading.get_ident()
        self._main_stack: List[list] = []
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: ``(step, span name, summary)`` of wrapped calls whose result
        #: is itself a metric (decomposition size, color count)
        self.results: List[tuple] = []

    # --- recording -----------------------------------------------------------

    def _stack(self) -> List[list]:
        if threading.get_ident() == self.main_tid:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> list:
        """Open a span on the calling thread's stack."""
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        elif self._main_stack:  # worker thread: caused by the dispatcher
            parent = self._main_stack[-1][ID]
        else:
            parent = 0
        rec = [next(self._ids), parent, name, layer, time.perf_counter(),
               0.0, threading.get_ident(), self.step]
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    def wrap(self, fn, name: str, layer: str, summarize=None):
        """``fn`` recorded as span ``name`` of ``layer`` (in-process only);
        ``summarize(result)``, when given, is kept in :attr:`results`.

        The body inlines :meth:`begin`/:meth:`end`: on the thread backend
        every extra bytecode in a task competes for the interpreter lock.
        """
        trace = self
        perf = time.perf_counter
        get_ident = threading.get_ident
        main_tid = self.main_tid
        main_stack = self._main_stack
        local = self._local
        ids = self._ids
        record = self.spans.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != trace._pid:
                return fn(*args, **kwargs)
            tid = get_ident()
            if tid == main_tid:
                stack = main_stack
            else:
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
            top = stack or main_stack
            rec = [next(ids), top[-1][ID] if top else 0, name, layer, perf(),
                   0.0, tid, trace.step]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()
                record(rec)
            if summarize is not None:
                trace.results.append((trace.step, name, summarize(result)))
            return result

        return traced

    # --- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, layer: str,
               summarize=None) -> None:
        original = getattr(owner, attr)
        own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, own, owner.__dict__.get(attr)))
        setattr(owner, attr, self.wrap(original, name, layer, summarize))

    def enable(self, sim) -> None:
        """Wrap every traced layer entry point around ``sim``."""
        if self.enabled:
            return
        self._patch(simulation_module, "build_neighbor_list",
                    "md.neighbor.build", "md.neighbor")
        self._patch(NeighborList, "needs_rebuild",
                    "md.neighbor.check", "md.neighbor")
        for half in ("first_half", "second_half"):
            self._patch(sim.integrator, half,
                        f"md.integrators.{half}", "md.integrators")
        calc = sim.calculator
        self._patch(calc, "compute", "calculator.compute", "calculator")
        if hasattr(calc, "on_neighbor_rebuild"):
            self._patch(calc, "on_neighbor_rebuild",
                        "calculator.on_neighbor_rebuild", "calculator")
        backend = getattr(calc, "backend", None)
        if isinstance(backend, ThreadBackend):
            self._patch(backend, "run_phase",
                        "parallel.backends.threads.run_phase",
                        "parallel.backends")
        tier = kernels.active_tier()
        for method in KERNEL_PHASE:
            self._patch(tier, method, f"kernels.{method}", "kernels")
        self._patch(eam_module, "eam_embedding_phase",
                    "potentials.eam.embedding", "potentials.eam")
        for module in CORE_IMPORTERS:
            for builder in CORE_BUILDERS:
                if hasattr(module, builder):
                    self._patch(module, builder, f"core.{builder}", "core",
                                CORE_SUMMARY.get(builder))
        self.enabled = True

    def disable(self) -> None:
        """Restore every wrapped entry point (reverse order)."""
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []
        self.enabled = False

    # --- export ---------------------------------------------------------------

    def write_chrome(self, path: str, origin: float) -> int:
        """Write the spans as Chrome/Perfetto trace-event JSON."""
        tids: Dict[int, int] = {}
        events = []
        for rec in sorted(self.spans, key=lambda r: r[START]):
            tid = tids.setdefault(rec[TID], len(tids))
            events.append({
                "name": rec[NAME],
                "cat": rec[LAYER],
                "ph": "X",
                "ts": round((rec[START] - origin) * 1e6, 3),
                "dur": round((rec[END] - rec[START]) * 1e6, 3),
                "pid": self._pid,
                "tid": tid,
                "args": {"id": rec[ID], "parent": rec[PARENT],
                         "step": rec[STEP]},
            })
        for raw, tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": self._pid,
                "tid": tid,
                "args": {"name": "main" if raw == self.main_tid
                         else f"worker-{tid}"},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
        return len(events)


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Self time of each span: its duration minus the union of the
    intervals its same-thread children cover inside it."""
    children: Dict[int, List[list]] = defaultdict(list)
    by_id = {rec[ID]: rec for rec in spans}
    for rec in spans:
        parent = by_id.get(rec[PARENT])
        if parent is not None and parent[TID] == rec[TID]:
            children[parent[ID]].append(rec)
    out = {}
    for rec in spans:
        covered = 0.0
        cursor = rec[START]
        for child in sorted(children[rec[ID]], key=lambda c: c[START]):
            lo = max(child[START], cursor)
            hi = min(child[END], rec[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[rec[ID]] = rec[END] - rec[START] - covered
    return out


def step_layers(
    spans: Sequence[list], main_tid: int
) -> Dict[int, Dict[str, float]]:
    """Per step, the self time of each layer on the calling thread."""
    main = [rec for rec in spans if rec[TID] == main_tid]
    selfs = self_times(main)
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for rec in main:
        out[rec[STEP]][rec[LAYER]] += selfs[rec[ID]]
    return out


def closure(
    spans: Sequence[list], main_tid: int, step_walls: Dict[int, float]
) -> Dict[str, float]:
    """Check that each traced step's layer self times add up to its wall
    time (the step span, taken by the step loop) within the stated
    residual.

    A span that leaks out of its parent or overlaps a sibling makes the
    sum exceed the wall time; a gap in coverage cannot, because the step
    span's own self time absorbs it and is reported as the driver's
    overhead.
    """
    layers = step_layers(spans, main_tid)
    worst = 0.0
    n_bad = 0
    for step, wall in step_walls.items():
        total = sum(layers.get(step, {}).values())
        residual = abs(wall - total)
        allowed = max(CLOSURE_ABS_S, CLOSURE_REL * wall)
        worst = max(worst, residual / wall if wall > 0 else 0.0)
        if residual > allowed:
            n_bad += 1
    return {"steps": len(step_walls), "failed_steps": n_bad,
            "worst_residual_frac": worst}


def kernel_phase_ms(spans: Sequence[list]) -> Dict[int, Dict[str, float]]:
    """Per step, busy ms of the density and force kernel phases summed
    over threads, counting only spans not nested in another kernel span."""
    by_tid: Dict[int, List[list]] = defaultdict(list)
    kernel_ids = set()
    for rec in spans:
        if rec[LAYER] == "kernels":
            by_tid[rec[TID]].append(rec)
            kernel_ids.add(rec[ID])
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for recs in by_tid.values():
        pending: List[list] = []
        for rec in sorted(recs, key=lambda r: r[START]):
            if rec[PARENT] in kernel_ids:
                continue
            phase = KERNEL_PHASE[rec[NAME].split(".", 1)[1]]
            if phase is None:
                pending.append(rec)
                continue
            for item in pending + [rec]:
                out[item[STEP]][phase] += 1e3 * (item[END] - item[START])
            pending = []
    return out


def by_step(spans: Sequence[list]) -> Dict[int, Dict[str, List[list]]]:
    """Spans indexed by step, then by name."""
    out: Dict[int, Dict[str, List[list]]] = defaultdict(
        lambda: defaultdict(list))
    for rec in spans:
        out[rec[STEP]][rec[NAME]].append(rec)
    return out


def duration_ms(recs: Optional[Sequence[list]]) -> float:
    return 1e3 * sum(rec[END] - rec[START] for rec in recs or ())
