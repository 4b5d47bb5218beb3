"""The ``repro trace`` driver: traced case × strategy × backend runs.

For every sweep cell it runs a short real MD trajectory with a
:class:`~repro.obs.tracer.Tracer` attached to the force calculator and
the MD driver, derives the load-balance metrics from the decomposition
and the recorded spans, and emits three artifacts:

* ``trace.json`` — Chrome trace-event / Perfetto timeline, one trace
  process per sweep cell, one track per thread/worker;
* ``metrics.jsonl`` — the :class:`~repro.obs.metrics.MetricsRegistry`
  stream (pairs processed, per-subdomain sizes, per-color static and
  measured load-imbalance ratios, halo fraction, barrier slack);
* ``run.jsonl`` — the structured run log (environment meta, per-sample
  observables, neighbor rebuilds);
* ``health.jsonl`` — the flight-recorder dump for the whole sweep
  (engine/kernel/scheduler lifecycle events plus any physics invariant
  breaches from the per-cell :class:`~repro.obs.health.HealthMonitor`).

The text summary ranks the worst-balanced color phases across all cells.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro import kernels
from repro.harness.bench import KNOWN_BACKENDS, KNOWN_STRATEGIES, BenchSkip
from repro.harness.cases import case_by_key
from repro.obs.exporters import render_trace_summary, write_trace_json
from repro.obs.metrics import (
    MetricsRegistry,
    record_schedule_metrics,
    record_span_metrics,
)
from repro.obs.health import HealthMonitor
from repro.obs.recorder import get_recorder
from repro.obs.runlog import RunLog, collect_run_meta
from repro.obs.tracer import Span, Tracer

#: default sweep of ``repro trace`` (the CI smoke configuration)
DEFAULT_CASES = ("tiny",)
DEFAULT_STRATEGIES = ("sdc",)
DEFAULT_BACKENDS = ("threads",)


@dataclass
class TracedRun:
    """Spans and bookkeeping of one traced sweep cell."""

    label: str
    case: str
    strategy: str
    backend: str
    n_workers: int
    n_steps: int
    spans: List[Span] = field(default_factory=list)
    #: resolved kernel tier the cell's force kernels ran on
    kernel_tier: str = "numpy"

    @property
    def n_spans(self) -> int:
        return len(self.spans)


@dataclass
class TraceReport:
    """Everything one ``repro trace`` invocation produced."""

    runs: List[TracedRun]
    registry: MetricsRegistry
    skipped: List[str] = field(default_factory=list)
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    runlog_path: Optional[str] = None
    health_path: Optional[str] = None
    store_path: Optional[str] = None

    def span_groups(self) -> List[Tuple[str, Sequence[Span]]]:
        return [(run.label, run.spans) for run in self.runs]

    def render_summary(self, top: int = 10) -> str:
        lines = []
        for run in self.runs:
            total = sum(s.duration_s for s in run.spans if s.category == "md")
            lines.append(
                f"{run.label}: {run.n_spans} spans over {run.n_steps} MD "
                f"steps ({run.n_workers} workers, {total * 1e3:.1f} ms in "
                f"md spans)"
            )
        for skip in self.skipped:
            lines.append(f"skip: {skip}")
        lines.append("")
        lines.append(render_trace_summary(self.registry, top=top))
        return "\n".join(lines)


def _strategy_dims(strategy_key: str) -> int:
    """Decomposition dims encoded in a strategy key (``sdc-3d`` -> 3)."""
    if strategy_key.startswith("sdc-") or strategy_key.startswith(
        "localwrite-"
    ):
        return int(strategy_key.split("-")[-1][0])
    return 2


def _base_strategy(strategy_key: str) -> str:
    """Registry name for a sweep strategy key (``sdc-2d`` -> ``sdc``)."""
    if strategy_key.startswith("sdc"):
        return "sdc"
    return strategy_key


def _make_calculator(
    strategy_key: str,
    backend_key: str,
    n_workers: int,
    kernel_tier: Optional[str] = None,
) -> Tuple[object, Callable[[], None]]:
    """Build (force calculator, cleanup) for one traced sweep cell."""
    base = _base_strategy(strategy_key)
    if strategy_key != "serial" and strategy_key not in KNOWN_STRATEGIES:
        if base not in ("sdc",):
            raise BenchSkip(f"unknown strategy {strategy_key!r}")
    if backend_key not in KNOWN_BACKENDS:
        raise BenchSkip(f"unknown backend {backend_key!r}")
    if strategy_key == "serial":
        if backend_key != "serial":
            raise BenchSkip(
                "the serial strategy has no backend parallelism to trace"
            )
        from repro.core.strategies import STRATEGY_REGISTRY

        return STRATEGY_REGISTRY["serial"](), lambda: None

    if backend_key == "processes":
        if base != "sdc":
            raise BenchSkip("processes backend only runs SDC")
        from repro.parallel.backends.processes import ProcessSDCCalculator

        calc = ProcessSDCCalculator(
            dims=_strategy_dims(strategy_key),
            n_workers=n_workers,
            kernel_tier=kernel_tier,
        )
        return calc, calc.close

    if backend_key == "sharded":
        if base != "sdc":
            raise BenchSkip("sharded backend only runs SDC")
        from repro.parallel.backends.sharded import ShardedSDCCalculator

        calc = ShardedSDCCalculator(
            n_shards=n_workers,
            dims=_strategy_dims(strategy_key),
            kernel_tier=kernel_tier,
        )
        return calc, calc.close

    from repro.analysis.racecheck import make_backend, make_strategy

    backend = make_backend(backend_key, n_workers)
    strategy = make_strategy(
        base,
        n_threads=n_workers,
        backend=backend,
        dims=_strategy_dims(strategy_key),
    )
    return strategy, backend.close


def _trace_one(
    case_key: str,
    strategy_key: str,
    backend_key: str,
    n_workers: int,
    steps: int,
    registry: MetricsRegistry,
    run_log: Optional[RunLog],
    kernel_tier: Optional[str] = None,
    sample_resources: bool = False,
    sample_interval_s: float = 0.05,
) -> TracedRun:
    """Run one sweep cell under the tracer and record its metrics."""
    from repro.md.simulation import Simulation
    from repro.potentials import fe_potential

    label = f"{case_key}/{strategy_key}/{backend_key}"
    calculator, cleanup = _make_calculator(
        strategy_key, backend_key, n_workers, kernel_tier=kernel_tier
    )
    tier = kernels.get(kernel_tier) if kernel_tier is not None else None
    tier_name = (tier if tier is not None else kernels.active_tier()).name
    tracer = Tracer()
    sampler = None
    try:
        attach = getattr(calculator, "attach_tracer", None)
        if attach is not None:
            attach(tracer)
        if sample_resources:
            from repro.obs.resources import ResourceSampler

            sampler = ResourceSampler(
                interval_s=sample_interval_s, calculator=calculator
            )
            sampler.start()
        atoms = case_by_key(case_key).build(temperature=50.0)
        health = HealthMonitor(calculator=calculator)
        sim = Simulation(
            atoms,
            fe_potential(),
            calculator=calculator,
            tracer=tracer,
            run_log=run_log,
            health=health,
        )
        if run_log is not None:
            run_log.log(
                "event", event="trace-run", run=label, kernel_tier=tier_name
            )
        with kernels.use_tier(tier):
            sim.run(steps, sample_every=1)
        if run_log is not None:
            run_log.log(
                "health",
                event="run-health-summary",
                run=label,
                **health.summary_fields(),
            )
        nlist = sim.nlist
        shard_items = getattr(calculator, "shard_schedule_items", None)
        pairs = getattr(calculator, "pair_partition", None)
        schedule = getattr(calculator, "schedule", None)
        if shard_items is not None:
            # one metric set per shard, labeled with the shard dimension
            for shard, shard_pairs, shard_schedule in shard_items():
                record_schedule_metrics(
                    registry, shard_pairs, shard_schedule,
                    shard=shard, run=label,
                )
        elif pairs is not None and schedule is not None:
            record_schedule_metrics(registry, pairs, schedule, run=label)
        elif nlist is not None:
            registry.count("pairs_processed", float(nlist.n_pairs), run=label)
        record_span_metrics(registry, tracer, run=label)
        spans = tracer.spans
        if sampler is not None:
            sampler.stop()
            spans = spans + sampler.counter_spans()
            sampler.record_metrics(registry, run=label)
            sampler.record_health_summary(run=label)
    finally:
        if sampler is not None:
            sampler.stop()
        detach = getattr(calculator, "detach_tracer", None)
        if detach is not None:
            detach()
        cleanup()
    return TracedRun(
        label=label,
        case=case_key,
        strategy=strategy_key,
        backend=backend_key,
        n_workers=n_workers,
        n_steps=steps,
        spans=spans,
        kernel_tier=tier_name,
    )


def run_trace(
    cases: Sequence[str] = DEFAULT_CASES,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    n_workers: int = 2,
    steps: int = 2,
    output_dir: Optional[str] = None,
    on_skip: Optional[Callable[[str], None]] = None,
    store_path: Optional[str] = None,
    kernel_tier: Optional[str] = None,
    sample_resources: bool = False,
    sample_interval_s: float = 0.05,
) -> TraceReport:
    """Trace the sweep; optionally write the three artifacts.

    With ``output_dir`` set, writes ``trace.json``, ``metrics.jsonl`` and
    ``run.jsonl`` there (creating the directory) and records the paths on
    the returned report.  With ``store_path`` set, the metrics and run-log
    streams are also appended to that performance-history store
    (:class:`~repro.obs.history.RunStore`).  With ``sample_resources``,
    a :class:`~repro.obs.resources.ResourceSampler` co-runs with every
    cell and its CPU/RSS/context-switch/shm counter tracks merge into
    ``trace.json`` (summaries into the metrics and health streams).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    registry = MetricsRegistry()
    run_log: Optional[RunLog] = None
    runlog_path: Optional[str] = None
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        runlog_path = os.path.join(output_dir, "run.jsonl")
        run_log = RunLog(runlog_path, meta=collect_run_meta(n_workers))
    else:
        run_log = RunLog(meta=collect_run_meta(n_workers))
    report = TraceReport(runs=[], registry=registry, runlog_path=runlog_path)
    try:
        for case_key in cases:
            for strategy_key in strategies:
                for backend_key in backends:
                    workers = 1 if backend_key == "serial" else n_workers
                    try:
                        report.runs.append(
                            _trace_one(
                                case_key,
                                strategy_key,
                                backend_key,
                                workers,
                                steps,
                                registry,
                                run_log,
                                kernel_tier=kernel_tier,
                                sample_resources=sample_resources,
                                sample_interval_s=sample_interval_s,
                            )
                        )
                    except BenchSkip as skip:
                        message = (
                            f"{case_key}/{strategy_key}/{backend_key}: {skip}"
                        )
                        report.skipped.append(message)
                        if on_skip is not None:
                            on_skip(message)
    finally:
        run_log.close()
    if output_dir is not None:
        report.trace_path = os.path.join(output_dir, "trace.json")
        report.metrics_path = os.path.join(output_dir, "metrics.jsonl")
        report.health_path = os.path.join(output_dir, "health.jsonl")
        write_trace_json(
            report.trace_path,
            report.span_groups(),
            meta=collect_run_meta(n_workers),
        )
        registry.write_jsonl(report.metrics_path)
        get_recorder().dump(report.health_path)
    if store_path is not None:
        from repro.obs.history import RunStore

        store = RunStore(store_path)
        meta = collect_run_meta(n_workers)
        store.append_records(
            "metrics",
            [r.to_dict() for r in registry.records()],
            meta=meta,
            source="metrics.jsonl",
        )
        store.append_records(
            "runlog", run_log.records, meta=meta, source="run.jsonl"
        )
        store.append_records(
            "health",
            get_recorder().records(),
            meta=meta,
            source="health.jsonl",
        )
        report.store_path = store.path
    return report
