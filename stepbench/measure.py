"""One benchmark run: set-up, the timed step loop, accounting and checks.

The step loop is the program's own closed loop: one caller advances the
simulation a step at a time through ``Simulation.run(1)`` and starts the
next step when the previous one returns.  A step is a rebuild step when
``sim.nlist`` changed identity during it.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.md import Simulation, VelocityVerlet, build_neighbor_list
from repro.md.observables import kinetic_energy
from repro.md.simulation import SerialCalculator
from repro.obs.recorder import get_recorder
from repro.potentials.johnson_fe import fe_potential

import tracing
from workloads import SKIN, TIMESTEP_PS, Workload, build_atoms, select_kernel_tier

#: set-ups per run; ``setup_s`` is their median
N_SETUPS = 3
#: a traced run alternates traced and untraced blocks, switching after
#: every rebuild step or after this share of the run, so both modes see
#: the same stretch of trajectory and about as many rebuilds
MAX_BLOCK_SHARE = 1.0 / 4.0
#: correctness bounds against the serial kernel on a fresh neighbor list
FORCE_TOL_EV_A = 1e-9
ENERGY_TOL_REL = 1e-9
#: largest |E_total(t) - E_total(0)| per atom allowed over a run, in eV
ENERGY_DRIFT_TOL_EV = 1e-3
#: a p90 needs this many samples beyond it
TAIL_SAMPLES = 10

CLK_TCK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# /proc accounting
# ---------------------------------------------------------------------------

def _stat_cpu_s(path: str) -> Optional[float]:
    """utime + stime of a /proc stat file, in seconds (None if gone)."""
    try:
        with open(path) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def worker_pids(calculator) -> List[int]:
    hook = getattr(calculator, "worker_pids", None)
    return list(hook()) if callable(hook) else []


def worker_thread_ids() -> List[int]:
    """Native ids of this process's thread-backend pool threads."""
    return [t.native_id for t in threading.enumerate()
            if t.name.startswith("repro-worker") and t.native_id]


class CpuMeter:
    """CPU seconds of the parent (all its threads) and of every worker.

    ``RUSAGE_CHILDREN`` only counts reaped children, so live workers are
    read from ``/proc/<pid>/stat``.  Workers are resampled at every step;
    a worker forked after :meth:`start` (a new sharded epoch) counts from
    zero, and one that exits loses only the idle time since its last
    sample.
    """

    def __init__(self, calculator) -> None:
        self.calculator = calculator
        self._base: Dict[tuple, float] = {}
        self._last: Dict[tuple, float] = {}
        self._threads: List[int] = []
        self._parent0 = 0.0

    def _workers(self) -> Dict[tuple, float]:
        out = {}
        for pid in worker_pids(self.calculator):
            cpu = _stat_cpu_s(f"/proc/{pid}/stat")
            if cpu is not None:
                out[("pid", pid)] = cpu
        backend = getattr(self.calculator, "backend", None)
        if len(self._threads) < getattr(backend, "n_threads", 0):
            self._threads = worker_thread_ids()
        for tid in self._threads:
            cpu = _stat_cpu_s(f"/proc/self/task/{tid}/stat")
            if cpu is not None:
                out[("tid", tid)] = cpu
        return out

    def start(self) -> None:
        self._parent0 = time.process_time()
        self._base = self._workers()
        self._last = dict(self._base)

    def sample(self) -> None:
        for key, cpu in self._workers().items():
            self._base.setdefault(key, 0.0)
            self._last[key] = cpu

    def read(self) -> Dict[str, float]:
        """Cumulative CPU since :meth:`start`, split three ways."""
        self.sample()
        process = time.process_time() - self._parent0
        spent = {k: self._last[k] - self._base[k] for k in self._last}
        threads = sum(v for k, v in spent.items() if k[0] == "tid")
        forked = sum(v for k, v in spent.items() if k[0] == "pid")
        return {
            "process": process,  # parent incl. in-process worker threads
            "parent": process - threads,
            "workers": threads + forked,
            "total": process + forked,
        }


def peak_rss_mb(calculator) -> float:
    return vm_hwm_mb(os.getpid()) + sum(
        vm_hwm_mb(pid) for pid in worker_pids(calculator)
    )


def host_facts(tier: str) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "kernel_tier": tier,
    }


# ---------------------------------------------------------------------------
# the step loop
# ---------------------------------------------------------------------------

@dataclass
class Segment:
    """Steps of one timed window (or of one tracing mode)."""

    walls: List[float] = field(default_factory=list)
    rebuilt: List[bool] = field(default_factory=list)
    steps: List[int] = field(default_factory=list)
    wall_s: float = 0.0

    def nonrebuild(self) -> np.ndarray:
        return np.array([w for w, r in zip(self.walls, self.rebuilt) if not r])

    def rebuild(self) -> np.ndarray:
        return np.array([w for w, r in zip(self.walls, self.rebuilt) if r])


class Runner:
    """Drives one simulation through timed windows, counting attempts."""

    def __init__(self, sim: Simulation, meter: CpuMeter) -> None:
        self.sim = sim
        self.meter = meter
        self.attempted = 0
        self.energies: List[float] = []
        self.trace: Optional[tracing.Trace] = None
        self.counts_per_step: Dict[int, int] = {}
        self.step_cpu: List[tuple] = []

    def _counts(self) -> int:
        return sum(get_recorder().counts().values())

    def step(self, seg: Segment) -> None:
        """Advance one step, traced when :attr:`trace` is set."""
        sim = self.sim
        trace = self.trace
        before = sim.nlist
        self.attempted += 1
        if trace is None:
            t0 = time.perf_counter()
            report = sim.run(1)
            t1 = time.perf_counter()
        else:
            trace.step = self.attempted
            root = trace.begin(tracing.STEP_SPAN, "md.simulation")
            rec = trace.begin("bench.recorder_counts", "bench")
            c0 = self._counts()
            trace.end(rec)
            report = sim.run(1)
            rec = trace.begin("bench.recorder_counts", "bench")
            self.counts_per_step[trace.step] = self._counts() - c0
            trace.end(rec)
            trace.end(root)
            t0, t1 = root[tracing.START], root[tracing.END]
        seg.walls.append(t1 - t0)
        seg.rebuilt.append(sim.nlist is not before)
        seg.steps.append(self.attempted)
        self.energies.append(report.records[-1].total_energy)
        self.meter.sample()

    def window(self, seconds: float) -> Segment:
        """Untraced steps for ``seconds`` (at least one)."""
        seg = Segment()
        start = time.perf_counter()
        deadline = start + seconds
        while not seg.walls or time.perf_counter() < deadline:
            self.step(seg)
        seg.wall_s = time.perf_counter() - start
        return seg

    def alternate(self, seconds: float, trace: tracing.Trace):
        """Alternate untraced and traced blocks for ``seconds``; returns
        ``(traced, untraced)`` segments, each with at least one step."""
        traced, plain = Segment(), Segment()
        deadline = time.perf_counter() + seconds
        tracing_on = False
        while (time.perf_counter() < deadline
               or not (traced.walls and plain.walls)):
            if tracing_on:
                trace.enable(self.sim)
                self.meter_compute(trace)
                self.trace = trace
            seg = traced if tracing_on else plain
            block_end = time.perf_counter() + MAX_BLOCK_SHARE * seconds
            while True:
                self.step(seg)
                now = time.perf_counter()
                if seg.rebuilt[-1] or now >= block_end or now >= deadline:
                    break
            if tracing_on:
                trace.disable()
                self.trace = None
            tracing_on = not tracing_on
        return traced, plain

    def meter_compute(self, trace: tracing.Trace) -> None:
        """Read CPU around every traced ``compute`` (after tracing is on)."""
        calc = self.sim.calculator
        inner = calc.compute
        runner = self

        def metered(*args, **kwargs):
            rec = trace.begin("bench.cpu_sample", "bench")
            c0 = runner.meter.read()
            trace.end(rec)
            try:
                return inner(*args, **kwargs)
            finally:
                rec = trace.begin("bench.cpu_sample", "bench")
                c1 = runner.meter.read()
                trace.end(rec)
                runner.step_cpu.append(
                    (trace.step, c1["parent"] - c0["parent"],
                     c1["workers"] - c0["workers"])
                )

        calc.compute = metered


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def verify(sim: Simulation, potential, e0: float,
           energies: List[float]) -> Dict[str, object]:
    """Compare the engine's last result to the serial kernel on a fresh
    neighbor list at the final positions, and check the NVE invariants."""
    atoms = sim.atoms
    final = sim.last_computation
    finite = bool(np.all(np.isfinite(atoms.positions)))
    out: Dict[str, object] = {"positions_finite": finite}
    if not finite or final is None:
        out["ok"] = False
        return out
    nlist = build_neighbor_list(
        atoms.positions, atoms.box, cutoff=potential.cutoff, skin=SKIN,
        half=True,
    )
    ref = SerialCalculator().compute(potential, atoms.copy(), nlist)
    max_df = float(np.max(np.abs(final.forces - ref.forces)))
    de_rel = abs(final.potential_energy - ref.potential_energy) / abs(
        ref.potential_energy
    )
    drift = max(abs(e - e0) for e in energies) / atoms.n_atoms
    out.update(
        max_abs_dforce=max_df,
        rel_dE_pot=de_rel,
        energy_drift_per_atom=drift,
        ok=bool(max_df <= FORCE_TOL_EV_A and de_rel <= ENERGY_TOL_REL
                and drift <= ENERGY_DRIFT_TOL_EV),
    )
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(seg: Segment, setups: List[float], cpu: Dict[str, float],
               rss_mb: float) -> Dict[str, tuple]:
    steps = len(seg.walls)
    nonrebuild = seg.nonrebuild() * 1e3
    return {
        "steps_per_s": (steps / seg.wall_s, "steps/s"),
        "step_ms_p50": (float(np.percentile(nonrebuild, 50))
                        if len(nonrebuild) else 0.0, "ms"),
        "step_ms_p90": (float(np.percentile(nonrebuild, 90))
                        if len(nonrebuild) else 0.0, "ms"),
        "rebuild_step_ms_p50": (_median(seg.rebuild() * 1e3), "ms"),
        "setup_s": (_median(setups), "s"),
        "core_s_per_step": (cpu["total"] / steps, "CPU-s/step"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(runner: Runner, trace: tracing.Trace, seg: Segment,
              reference: Segment, workload: Workload,
              calc_stats: Dict[str, object]):
    """The per-layer metrics of the traced steps ``seg`` and the closure
    check, given the untraced steps ``reference`` of the same run.

    Per-step figures are medians over the traced steps that did not
    rebuild; per-rebuild figures are medians over the traced rebuild
    steps.  Kernel times are busy time summed over threads.
    """
    steps = seg.steps
    rebuilt = [s for s, r in zip(steps, seg.rebuilt) if r]
    plain = [s for s, r in zip(steps, seg.rebuilt) if not r]
    index = tracing.by_step(trace.spans)
    layers = tracing.step_layers(trace.spans, trace.main_tid)
    kphase = tracing.kernel_phase_ms(trace.spans)
    total_ms = 1e3 * sum(seg.walls)

    def ms(step: int, *names: str) -> float:
        return sum(tracing.duration_ms(index[step].get(n)) for n in names)

    def prefixed(step: int, prefix: str) -> List[list]:
        return [rec for name, recs in index[step].items()
                if name.startswith(prefix) for rec in recs]

    def plain_median(fn) -> float:
        return _median(fn(s) for s in plain)

    build_ms = [ms(s, "md.neighbor.build") for s in rebuilt]
    compute_all = sum(ms(s, "calculator.compute") for s in steps)
    compute_ms = plain_median(lambda s: ms(s, "calculator.compute"))
    subdomains = colors = 0
    last = max((step for step, _, _ in trace.results), default=None)
    for step, name, value in trace.results:
        if step == last and name.startswith("core.decompose"):
            subdomains += value
        elif step == last and name == "core.build_schedule":
            colors = max(colors, value)
    cpu = [c for c in runner.step_cpu if c[0] in set(steps)]
    busy = 0.0
    if workload.n_workers > 1 and compute_all > 0:
        busy = sum(c[2] for c in cpu) / (
            compute_all / 1e3 * workload.n_workers)
    ref_p50 = _median(reference.nonrebuild())
    traced_p50 = _median(seg.nonrebuild())
    closure = tracing.closure(trace.spans, trace.main_tid,
                              dict(zip(steps, seg.walls)))
    metrics = {
        "md.neighbor.build_ms": (_median(build_ms), "ms"),
        "md.neighbor.builds": (len(build_ms), "count"),
        "md.neighbor.share": (sum(build_ms) / total_ms, "fraction"),
        "md.neighbor.pairs": (calc_stats["n_pairs"], "count"),
        "md.neighbor.check_ms": (
            plain_median(lambda s: ms(s, "md.neighbor.check")), "ms"),
        "md.integrators.ms": (plain_median(lambda s: ms(
            s, "md.integrators.first_half", "md.integrators.second_half")),
            "ms"),
        "md.simulation.self_ms": (
            plain_median(lambda s: 1e3 * layers[s]["md.simulation"]), "ms"),
        "calculator.compute_ms": (compute_ms, "ms"),
        "calculator.compute_rebuild_ms": (
            _median(ms(s, "calculator.compute") for s in rebuilt), "ms"),
        "calculator.share": (compute_all / total_ms, "fraction"),
        "calculator.pairs_per_s": (
            calc_stats["n_pairs"] / (compute_ms / 1e3) if compute_ms else 0.0,
            "1/s"),
        "kernels.density_ms": (
            plain_median(lambda s: kphase[s]["density"]), "ms"),
        "kernels.force_ms": (
            plain_median(lambda s: kphase[s]["force"]), "ms"),
        "kernels.pair_geometry_ms": (
            plain_median(lambda s: ms(s, "kernels.pair_geometry")), "ms"),
        "kernels.scatter_ms": (plain_median(lambda s: tracing.duration_ms(
            prefixed(s, "kernels.scatter_"))), "ms"),
        "kernels.pair_geometry_calls_per_step": (plain_median(
            lambda s: len(index[s].get("kernels.pair_geometry", ()))),
            "count"),
        "kernels.calls_per_step": (
            plain_median(lambda s: len(prefixed(s, "kernels."))), "count"),
        "potentials.eam.embedding_ms": (
            plain_median(lambda s: ms(s, "potentials.eam.embedding")), "ms"),
        "core.decompose_ms": (_median(tracing.duration_ms(
            prefixed(s, "core.")) for s in rebuilt), "ms"),
        "core.subdomains": (subdomains, "count"),
        "core.colors": (colors, "count"),
        "parallel.backends.worker_busy_frac": (busy, "fraction"),
        "parallel.backends.parent_cpu_ms_per_compute": (
            1e3 * sum(c[1] for c in cpu) / len(cpu) if cpu else 0.0, "ms"),
        "parallel.backends.threads.run_phase_per_step": (plain_median(
            lambda s: len(index[s].get(
                "parallel.backends.threads.run_phase", ()))), "count"),
        "parallel.backends.sharded.epoch_ms": (_median(
            ms(s, "calculator.on_neighbor_rebuild", "calculator.compute")
            for s in rebuilt) if "halo_fraction" in calc_stats else 0.0, "ms"),
        "parallel.backends.sharded.halo_fraction": (
            calc_stats.get("halo_fraction", 0.0), "fraction"),
        "parallel.backends.sharded.ghost_bytes_per_step": (
            calc_stats.get("ghost_bytes_per_step", 0), "bytes"),
        "parallel.backends.sharded.owned_imbalance": (
            calc_stats.get("owned_imbalance", 0.0), "ratio"),
        "parallel.backends.sharded.migrated_per_rebuild": (
            calc_stats.get("migrated_per_rebuild", 0.0), "count"),
        "obs.recorder.counts_per_step": (
            plain_median(lambda s: runner.counts_per_step.get(s, 0)),
            "count"),
        "bench.trace_overhead": (
            traced_p50 / ref_p50 - 1.0 if ref_p50 else 0.0, "fraction"),
        "bench.closure_residual": (
            closure["worst_residual_frac"], "fraction"),
    }
    return metrics, closure


def calculator_stats(sim: Simulation, n_pairs: int, migrated0: int,
                     rebuilds: int) -> Dict[str, object]:
    """Engine facts read through the calculator's public surface;
    ``n_pairs`` is the size of the set-up neighbor list."""
    calc = sim.calculator
    stats: Dict[str, object] = {"n_pairs": n_pairs}
    if hasattr(calc, "halo_stats"):
        halo = calc.halo_stats()
        owned = np.asarray(halo["n_owned"], dtype=float)
        stats["halo_fraction"] = float(np.mean(halo["halo_fraction"]))
        stats["ghost_bytes_per_step"] = int(halo["bytes_per_step"])
        stats["owned_imbalance"] = float(owned.max() / owned.mean())
        migrated = int(calc.health_snapshot()["n_migrated_total"]) - migrated0
        stats["migrated_per_rebuild"] = migrated / rebuilds if rebuilds else 0
    return stats


def migrated_total(calc) -> int:
    if not hasattr(calc, "halo_stats"):
        return 0
    return int(calc.health_snapshot()["n_migrated_total"])


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def wait_gone(pids: List[int], timeout_s: float = 10.0) -> List[int]:
    """Wait until every pid has exited; returns the ones still alive."""
    deadline = time.monotonic() + timeout_s
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        alive = [p for p in alive if os.path.exists(f"/proc/{p}")]
        if alive:
            time.sleep(0.02)
    return alive


def stop_helpers() -> None:
    """Stop what multiprocessing started on our behalf and reap it: the
    shared-memory resource tracker of the process engine lives until the
    interpreter exits unless stopped here (it has no public stop)."""
    for child in multiprocessing.active_children():
        child.join(5.0)
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()
    except (ImportError, AttributeError, ChildProcessError):
        pass


def run(workload: Workload, seed: int, seconds: float, traced: bool,
        trace_path: Optional[str] = None) -> Dict[str, object]:
    """One benchmark run; returns the result record (never raises for a
    failure of the program: that counts as failed steps)."""
    tier = select_kernel_tier()
    potential = fe_potential()
    setups: List[float] = []
    sim: Optional[Simulation] = None
    runner: Optional[Runner] = None
    trace = tracing.Trace() if traced else None
    metrics: Dict[str, tuple] = {}
    info: Dict[str, object] = {"host": host_facts(tier),
                               **workload.describe(), "seed": seed}
    error = None
    pids_seen: List[int] = []
    try:
        for _ in range(N_SETUPS):
            if sim is not None:
                pids_seen += worker_pids(sim.calculator)
                sim.close()
            started = time.perf_counter()
            atoms = build_atoms(workload, seed)
            sim = Simulation(atoms, potential, workload.make_calculator(),
                             VelocityVerlet(TIMESTEP_PS), skin=SKIN)
            sim.compute_forces()
            setups.append(time.perf_counter() - started)
        info["n_atoms"] = sim.atoms.n_atoms
        n_pairs = sim.nlist.n_pairs
        e0 = sim.last_computation.potential_energy + kinetic_energy(sim.atoms)
        meter = CpuMeter(sim.calculator)
        runner = Runner(sim, meter)
        meter.start()
        if trace is None:
            seg = runner.window(seconds)
            cpu = meter.read()
            rss = peak_rss_mb(sim.calculator)
            metrics = end_to_end(seg, setups, cpu, rss)
            info["parent_cpu_s_per_step"] = cpu["process"] / len(seg.walls)
            beyond = int(np.sum(
                seg.nonrebuild() * 1e3 > metrics["step_ms_p90"][0]))
            info["samples"] = {
                "steps": len(seg.walls),
                "nonrebuild_steps": len(seg.nonrebuild()),
                "rebuild_steps": len(seg.rebuild()),
                "beyond_p90": beyond,
                "p90_has_tail": beyond >= TAIL_SAMPLES,
                "setups": len(setups),
            }
        else:
            migrated0 = migrated_total(sim.calculator)
            origin = time.perf_counter()
            seg, reference = runner.alternate(seconds, trace)
            stats = calculator_stats(
                sim, n_pairs, migrated0, sum(seg.rebuilt + reference.rebuilt))
            metrics, closure = per_layer(runner, trace, seg, reference,
                                         workload, stats)
            info["closure"] = closure
            info["samples"] = {
                "traced_steps": len(seg.walls),
                "traced_rebuild_steps": int(sum(seg.rebuilt)),
                "untraced_steps": len(reference.walls),
                "spans": len(trace.spans),
            }
            if trace_path:
                info["trace_events"] = trace.write_chrome(trace_path, origin)
                info["trace_file"] = trace_path
        pids_seen += worker_pids(sim.calculator)
    except Exception as exc:  # the program failed: count it, keep going
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if trace is not None and trace.enabled:
            trace.disable()
        if sim is not None:
            pids_seen += worker_pids(sim.calculator)
            sim.close()
    info["workers_left"] = wait_gone(sorted(set(pids_seen)))
    stop_helpers()
    attempted = runner.attempted if runner is not None else 0
    check: Dict[str, object] = {"ok": False}
    if error is None:
        check = verify(sim, potential, e0, runner.energies)
        if traced:
            check["closure_ok"] = info["closure"]["failed_steps"] == 0
            check["ok"] = check["ok"] and check["closure_ok"]
    else:
        check["error"] = error
    correct = bool(check["ok"]) and not info["workers_left"]
    attempted = max(attempted, 1)
    failed = 0 if correct else attempted
    info["check"] = check
    info["failed_frac"] = failed / attempted
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }
