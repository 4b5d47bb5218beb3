"""The ``repro scale`` driver: worker sweeps -> efficiency attribution.

The paper's headline evidence (Fig. 9) is speedup-vs-cores; this harness
measures that curve for one (case, strategy, backend, kernel-tier) cell
and then goes one step further than the figure: it says *where the lost
efficiency went*.  For every worker count ``p`` in the sweep it runs the
same short MD workload, times the force/density window (the only part
the paper times), and derives

* **speedup**          ``S(p) = T(1) / T(p)``;
* **efficiency**       ``E(p) = S(p) / p``;
* **Karp–Flatt**       ``e(p) = (1/S - 1/p) / (1 - 1/p)`` — the
  experimentally-determined serial fraction (the standard scalability
  diagnostic: an ``e`` that *grows* with ``p`` indicates overhead, not an
  inherently serial workload);

and attributes the lost core-seconds ``p*T(p) - T(1)`` into disjoint
mechanisms using the task/barrier spans recorded by the tracer and the
per-worker CPU tracks of the :class:`~repro.obs.resources.ResourceSampler`:

* ``imbalance`` — cores idle because tasks within a phase were uneven
  (per phase: ``(max_task - mean_task) * n_tasks``);
* ``barrier``   — residual synchronization slack beyond imbalance
  (summed barrier-wait spans minus the imbalance share);
* ``serial``    — core-seconds with nothing scheduled at all: the
  embedding phase, position sync, dispatch (budget minus task work minus
  barrier waits);
* ``resource_pressure`` — task time during which workers were not
  actually on a CPU (sub-100% sampled utilization: descheduling, memory
  stall pressure);
* ``excess_work`` — task core-seconds beyond the baseline ``T(1)``
  (redundant computation, per-worker overheads).

Each fraction is expressed relative to the core-second budget
``p * T(p)``, so ``efficiency + losses`` accounts for the whole budget.
Every sweep point becomes one record; ``repro scale`` appends them as a
``kind:"scaling"`` entry to the history store (pre-existing readers
filter by kind and are unaffected) and writes the usual artifact set —
``trace.json`` with resource counter tracks merged in, ``metrics.jsonl``,
``scaling.json``, ``health.jsonl`` — which ``repro report`` renders as an
efficiency-curve + loss-attribution panel.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import kernels
from repro.harness.bench import BenchSkip
from repro.harness.cases import case_by_key
from repro.harness.tracing import _make_calculator
from repro.obs.exporters import render_trace_summary, write_trace_json
from repro.obs.metrics import MetricsRegistry, record_span_metrics
from repro.obs.recorder import get_recorder
from repro.obs.resources import ResourceSampler
from repro.obs.runlog import collect_run_meta
from repro.obs.tracer import CAT_BARRIER, CAT_TASK, Span, Tracer

__all__ = [
    "SCALING_SCHEMA",
    "ScalePoint",
    "ScaleReport",
    "karp_flatt",
    "run_scale",
]

SCALING_SCHEMA = "repro-scaling-v1"

#: loss mechanisms, in reporting order
LOSS_COMPONENTS = (
    "serial",
    "imbalance",
    "barrier",
    "resource_pressure",
    "excess_work",
)

DEFAULT_WORKERS = (1, 2)


def karp_flatt(speedup: float, p: int) -> Optional[float]:
    """Experimentally-determined serial fraction ``e(p)``; None for p<=1."""
    if p <= 1 or speedup <= 0:
        return None
    return (1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p)


@dataclass
class ScalePoint:
    """One measured sweep point with its derived efficiency quantities."""

    case: str
    strategy: str
    backend: str
    kernel_tier: str
    n_workers: int
    n_steps: int
    #: measured force/density wall-clock of the run window, seconds
    total_s: float
    #: the sweep's baseline time T(1) this point is normalized against
    t1_s: float
    speedup: float
    efficiency: float
    karp_flatt: Optional[float]
    #: loss fractions of the core-second budget ``p * total_s``
    loss: Dict[str, float] = field(default_factory=dict)
    dominant_loss: Optional[str] = None
    #: the resource sampler's digest (empty when sampling was off)
    resources: Dict[str, object] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)

    @property
    def label(self) -> str:
        return (
            f"{self.case}/{self.strategy}/{self.backend}/w{self.n_workers}"
        )

    def to_record(self) -> Dict[str, object]:
        """Flat history/scaling.json record (spans stay in trace.json)."""
        record: Dict[str, object] = {
            "case": self.case,
            "strategy": self.strategy,
            "backend": self.backend,
            "kernel_tier": self.kernel_tier,
            "n_workers": self.n_workers,
            "n_steps": self.n_steps,
            "phase": "total",
            "median_s": self.total_s,
            "t1_s": self.t1_s,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
            "karp_flatt": self.karp_flatt,
            "dominant_loss": self.dominant_loss,
            "resources": dict(self.resources),
        }
        for name in LOSS_COMPONENTS:
            record[f"loss_{name}"] = self.loss.get(name, 0.0)
        return record


@dataclass
class ScaleReport:
    """Everything one ``repro scale`` invocation produced."""

    points: List[ScalePoint]
    registry: MetricsRegistry
    case: str
    strategy: str
    backend: str
    kernel_tier: str
    skipped: List[str] = field(default_factory=list)
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    scaling_path: Optional[str] = None
    health_path: Optional[str] = None
    store_path: Optional[str] = None

    def records(self) -> List[Dict[str, object]]:
        return [p.to_record() for p in self.points]

    def span_groups(self) -> List[Tuple[str, Sequence[Span]]]:
        return [(p.label, p.spans) for p in self.points]

    def render_summary(self, top: int = 10) -> str:
        """Terminal table naming the dominant loss mechanism per point."""
        lines: List[str] = []
        header = (
            f"{'workers':>7} {'T(p)':>10} {'speedup':>8} "
            f"{'efficiency':>10} {'Karp-Flatt':>10}  dominant loss"
        )
        lines.append(
            f"scaling sweep {self.case}/{self.strategy}/{self.backend} "
            f"({self.kernel_tier}):"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for p in self.points:
            kf = f"{p.karp_flatt:.3f}" if p.karp_flatt is not None else "-"
            if p.dominant_loss is not None:
                share = p.loss.get(p.dominant_loss, 0.0)
                dominant = f"{p.dominant_loss} ({share:.0%} of core-seconds)"
            else:
                dominant = "-"
            lines.append(
                f"{p.n_workers:>7} {p.total_s:>9.4f}s {p.speedup:>7.2f}x "
                f"{p.efficiency:>9.1%} {kf:>10}  {dominant}"
            )
        for skip in self.skipped:
            lines.append(f"skip: {skip}")
        lines.append("")
        lines.append(render_trace_summary(self.registry, top=top))
        return "\n".join(lines)


def _attribute_losses(
    spans: Sequence[Span],
    window_start_s: float,
    total_s: float,
    t1_s: float,
    n_workers: int,
    worker_cpu_percent: Optional[float],
) -> Dict[str, float]:
    """Split the core-second budget ``p * T`` into loss fractions.

    Only spans inside the measured window count (the warmup evaluation
    pays pool fork / arena setup / JIT and is excluded from ``total_s``).
    """
    budget = n_workers * total_s
    if budget <= 0:
        return {name: 0.0 for name in LOSS_COMPONENTS}
    tasks: Dict[int, List[float]] = {}
    work = 0.0
    for span in spans:
        if span.start_s < window_start_s:
            continue
        if span.category == CAT_TASK:
            work += span.duration_s
            phase = span.args.get("phase")
            if isinstance(phase, int):
                tasks.setdefault(phase, []).append(span.duration_s)
    barrier_total = sum(
        s.duration_s
        for s in spans
        if s.category == CAT_BARRIER and s.start_s >= window_start_s
    )
    imbalance = 0.0
    for durations in tasks.values():
        if len(durations) > 1:
            mean = sum(durations) / len(durations)
            imbalance += (max(durations) - mean) * len(durations)
    imbalance = min(imbalance, barrier_total) if barrier_total else imbalance
    barrier_rest = max(0.0, barrier_total - imbalance)
    serial = max(0.0, budget - work - barrier_total)
    pressure = 0.0
    if worker_cpu_percent is not None and worker_cpu_percent < 100.0:
        pressure = (1.0 - worker_cpu_percent / 100.0) * work
    excess = max(0.0, work - t1_s)
    return {
        "serial": serial / budget,
        "imbalance": imbalance / budget,
        "barrier": barrier_rest / budget,
        "resource_pressure": pressure / budget,
        "excess_work": excess / budget,
    }


def _measure_point(
    case_key: str,
    strategy_key: str,
    backend_key: str,
    n_workers: int,
    steps: int,
    registry: MetricsRegistry,
    kernel_tier: Optional[str],
    sample_resources: bool,
    sample_interval_s: float,
) -> Tuple[float, float, List[Span], Dict[str, object], Optional[float], str]:
    """Run one sweep point; returns its timing, spans, and resource digest."""
    from repro.md.simulation import Simulation
    from repro.potentials import fe_potential

    label = f"{case_key}/{strategy_key}/{backend_key}/w{n_workers}"
    calculator, cleanup = _make_calculator(
        strategy_key, backend_key, n_workers, kernel_tier=kernel_tier
    )
    tier = kernels.get(kernel_tier) if kernel_tier is not None else None
    tier_name = (tier if tier is not None else kernels.active_tier()).name
    tracer = Tracer()
    sampler: Optional[ResourceSampler] = None
    try:
        attach = getattr(calculator, "attach_tracer", None)
        if attach is not None:
            attach(tracer)
        atoms = case_by_key(case_key).build(temperature=50.0)
        sim = Simulation(
            atoms, fe_potential(), calculator=calculator, tracer=tracer
        )
        with kernels.use_tier(tier):
            # warmup evaluation: group fork, shared arena, decomposition,
            # neighbor build, JIT — excluded from the measured window
            sim.compute_forces()
            if sample_resources:
                sampler = ResourceSampler(
                    interval_s=sample_interval_s, calculator=calculator
                )
                sampler.start()
            window_start = time.perf_counter()
            forces_before = sim.stopwatch.total("forces")
            sim.run(steps, sample_every=max(1, steps))
            total_s = sim.stopwatch.total("forces") - forces_before
        if sampler is not None:
            sampler.stop()
        record_span_metrics(registry, tracer, run=label)
        spans = tracer.spans
        resources: Dict[str, object] = {}
        worker_cpu: Optional[float] = None
        if sampler is not None:
            spans = spans + sampler.counter_spans()
            resources = sampler.summary()
            worker_cpu = sampler.worker_mean_cpu_percent()
            sampler.record_metrics(registry, run=label)
            sampler.record_health_summary(run=label)
    finally:
        if sampler is not None:
            sampler.stop()
        detach = getattr(calculator, "detach_tracer", None)
        if detach is not None:
            detach()
        cleanup()
    return total_s, window_start, spans, resources, worker_cpu, tier_name


def run_scale(
    case: str = "small",
    strategy: str = "sdc",
    backend: str = "processes",
    workers: Sequence[int] = DEFAULT_WORKERS,
    steps: int = 3,
    kernel_tier: Optional[str] = None,
    output_dir: Optional[str] = None,
    store_path: Optional[str] = None,
    sample_resources: bool = True,
    sample_interval_s: float = 0.05,
    on_skip: Optional[Callable[[str], None]] = None,
) -> ScaleReport:
    """Sweep worker counts for one cell and attribute the efficiency.

    ``workers`` should include 1 — ``T(1)`` is the baseline every other
    point is normalized against.  Without it the smallest swept count
    ``p_min`` stands in, with ``T(1)`` estimated as ``p_min * T(p_min)``
    (optimistic: assumes the reference point scaled perfectly).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    worker_list = sorted(set(int(w) for w in workers))
    if not worker_list or worker_list[0] < 1:
        raise ValueError("workers must be a non-empty list of counts >= 1")
    registry = MetricsRegistry()
    tier_name = (
        kernels.get(kernel_tier) if kernel_tier is not None
        else kernels.active_tier()
    ).name
    report = ScaleReport(
        points=[],
        registry=registry,
        case=case,
        strategy=strategy,
        backend=backend,
        kernel_tier=tier_name,
    )
    measured: List[Tuple[int, float, float, List[Span], Dict[str, object], Optional[float], str]] = []
    for p in worker_list:
        try:
            total_s, window_start, spans, resources, worker_cpu, tier_ran = (
                _measure_point(
                    case,
                    strategy,
                    backend,
                    p,
                    steps,
                    registry,
                    kernel_tier,
                    sample_resources,
                    sample_interval_s,
                )
            )
        except BenchSkip as skip:
            message = f"{case}/{strategy}/{backend}/w{p}: {skip}"
            report.skipped.append(message)
            if on_skip is not None:
                on_skip(message)
            continue
        measured.append(
            (p, total_s, window_start, spans, resources, worker_cpu, tier_ran)
        )
    if measured:
        report.kernel_tier = measured[0][6]
        p_ref, t_ref = measured[0][0], measured[0][1]
        t1_s = t_ref if p_ref == 1 else p_ref * t_ref
        for p, total_s, window_start, spans, resources, worker_cpu, tier_ran in measured:
            speedup = t1_s / total_s if total_s > 0 else 0.0
            efficiency = speedup / p
            loss = _attribute_losses(
                spans, window_start, total_s, t1_s, p, worker_cpu
            )
            dominant = None
            if p > 1:
                worst = max(loss.items(), key=lambda kv: kv[1])
                if worst[1] > 0.0:
                    dominant = worst[0]
            report.points.append(
                ScalePoint(
                    case=case,
                    strategy=strategy,
                    backend=backend,
                    kernel_tier=tier_ran,
                    n_workers=p,
                    n_steps=steps,
                    total_s=total_s,
                    t1_s=t1_s,
                    speedup=speedup,
                    efficiency=efficiency,
                    karp_flatt=karp_flatt(speedup, p),
                    loss=loss,
                    dominant_loss=dominant,
                    resources=resources,
                    spans=spans,
                )
            )
    meta = collect_run_meta(kernel_tier=report.kernel_tier)
    if output_dir is not None:
        import json

        from repro.obs.atomicio import atomic_write_text

        os.makedirs(output_dir, exist_ok=True)
        report.trace_path = os.path.join(output_dir, "trace.json")
        report.metrics_path = os.path.join(output_dir, "metrics.jsonl")
        report.scaling_path = os.path.join(output_dir, "scaling.json")
        report.health_path = os.path.join(output_dir, "health.jsonl")
        write_trace_json(report.trace_path, report.span_groups(), meta=meta)
        registry.write_jsonl(report.metrics_path)
        atomic_write_text(
            report.scaling_path,
            json.dumps(
                {
                    "schema": SCALING_SCHEMA,
                    "meta": meta,
                    "records": report.records(),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        get_recorder().dump(report.health_path)
    if store_path is not None and report.points:
        from repro.obs.history import RunStore

        store = RunStore(store_path)
        store.append_records(
            "scaling", report.records(), meta=meta, source="scaling.json"
        )
        report.store_path = store.path
    return report
