"""Self-tests of the benchmark's own checks, on small systems (~10 s).

    python3 stepbench/selftest.py

They show that the correctness check counts a wrong or failing engine in
``failed_frac``, that worker CPU is counted while the workers are alive,
that the traced run closes and exports a loadable trace, that the closure
check catches overlapping spans, and that inputs depend only on the seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest

from run import OUT, import_program

import_program()

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.md.simulation import SerialCalculator  # noqa: E402
from repro.parallel.backends import BackendError  # noqa: E402
from repro.parallel.backends.processes import ProcessSDCCalculator  # noqa: E402
from repro.potentials.eam import EAMComputation  # noqa: E402

SECONDS = 1.5


class ScaledForces:
    """A calculator whose forces are off by a relative 1e-6."""

    def __init__(self) -> None:
        self.inner = SerialCalculator()

    def compute(self, potential, atoms, nlist):
        result = self.inner.compute(potential, atoms, nlist)
        forces = result.forces * (1.0 + 1e-6)
        atoms.forces[:] = forces
        return dataclasses.replace(result, forces=forces)


class RaisesMidRun:
    """A calculator whose fourth evaluation fails like a dead worker."""

    def __init__(self) -> None:
        self.inner = SerialCalculator()
        self.calls = 0

    def compute(self, potential, atoms, nlist) -> EAMComputation:
        self.calls += 1
        if self.calls == 4:
            raise BackendError("injected worker death")
        return self.inner.compute(potential, atoms, nlist)


def small(make_calculator, n_cells: int = 10, n_workers: int = 1):
    return dataclasses.replace(
        workloads.WORKLOADS["fe54k-serial"], name="selftest",
        n_cells=n_cells, n_workers=n_workers,
        make_calculator=make_calculator,
    )


class SelfTest(unittest.TestCase):
    def test_seed_code_passes(self):
        result = measure.run(small(SerialCalculator), 1, SECONDS, False)
        self.assertTrue(result["correct"], result["info"]["check"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["info"]["failed_frac"], 0.0)

    def test_scaled_forces_fail(self):
        result = measure.run(small(ScaledForces), 1, SECONDS, False)
        self.assertFalse(result["correct"])
        self.assertGreater(result["info"]["failed_frac"], 0.0)
        self.assertGreater(result["info"]["check"]["max_abs_dforce"], 1e-9)

    def test_raise_mid_run_fails(self):
        result = measure.run(small(RaisesMidRun), 1, SECONDS, False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 3)
        self.assertGreater(result["info"]["failed_frac"], 0.0)
        self.assertIn("BackendError", result["info"]["check"]["error"])

    def test_live_worker_cpu_is_counted(self):
        procs2 = small(
            lambda: ProcessSDCCalculator(
                dims=2, n_workers=2, kernel_tier=workloads.KERNEL_TIER),
            n_cells=16, n_workers=2,
        )
        result = measure.run(procs2, 1, 3.0, False)
        self.assertTrue(result["correct"], result["info"]["check"])
        core = result["metrics"]["core_s_per_step"][0]
        parent = result["info"]["parent_cpu_s_per_step"]
        self.assertGreater(core, parent)
        self.assertEqual(result["info"]["workers_left"], [])

    def test_traced_run_closes_and_exports(self):
        path = os.path.join(OUT, "selftest-trace.json")
        result = measure.run(small(SerialCalculator), 1, SECONDS, True, path)
        self.assertTrue(result["correct"], result["info"]["check"])
        self.assertEqual(result["info"]["closure"]["failed_steps"], 0)
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        names = {e["name"] for e in events}
        self.assertIn("md.simulation.step", names)
        self.assertIn("calculator.compute", names)
        self.assertTrue(all(e["dur"] >= 0 for e in events if e["ph"] == "X"))

    def test_closure_flags_overlapping_spans(self):
        root = [1, 0, "step", "md.simulation", 0.0, 1.0, 7, 1]
        nested = [root, [2, 1, "a", "x", 0.1, 0.5, 7, 1],
                  [3, 1, "b", "y", 0.5, 0.9, 7, 1]]
        overlapping = [root, [2, 1, "a", "x", 0.1, 0.6, 7, 1],
                       [3, 1, "b", "y", 0.5, 0.9, 7, 1]]
        self.assertEqual(
            tracing.closure(nested, 7, {1: 1.0})["failed_steps"], 0)
        self.assertEqual(
            tracing.closure(overlapping, 7, {1: 1.0})["failed_steps"], 1)

    def test_inputs_depend_only_on_seed(self):
        workload = workloads.WORKLOADS["fe23k-void-hot-sharded2"]
        a = workloads.build_atoms(workload, 7)
        b = workloads.build_atoms(workload, 7)
        c = workloads.build_atoms(workload, 8)
        self.assertTrue((a.positions == b.positions).all())
        self.assertTrue((a.velocities == b.velocities).all())
        self.assertFalse((a.velocities == c.velocities).all())


if __name__ == "__main__":
    sys.exit(unittest.main())
