"""Per-layer time and work counts, taken by wrapping the program's public calls.

The solver is wrapped through the ``SweepOptions(solver=...)`` hook.  The
other layers are wrapped by rebinding the names the sweep driver calls in
``tensorspectra.driver`` for the length of one sweep, then restoring them.
Nothing inside the program is changed or timed from within.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import replace

import tensorspectra.driver as driver
from tensorspectra import sdpsolver
from tensorspectra.extract import ExtractionError
from tensorspectra.sdpsolver import SolveStatus

# The layer of each function the driver calls by its module-level name.
DRIVER_CALLS = {
    "build_min_relaxation": "momentsdp.build",
    "build_max_relaxation": "momentsdp.build",
    "verify_solution": "sdpsolver.verify",
    "flat_truncation": "extract.truncation",
    "extract_atoms": "extract.atoms",
    "z_system": "driver.system",
    "h_system": "driver.system",
    "polish_eigenpair": "driver.polish",
    "check_isolated": "driver.isolation",
}

UNCONVERGED = (SolveStatus.INACCURATE, SolveStatus.ITERATION_LIMIT)


class LayerTrace:
    """Accumulates time and counts per layer over traced sweeps."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.iterations = 0
        self.unconverged = 0
        self.extract_failures = 0
        self.by_size = defaultdict(lambda: [0.0, 0])   # N -> [seconds, iterations]
        self.sweep_seconds = 0.0
        self.child_seconds = 0.0      # wrapped calls made by the driver itself
        self.backward_checks = 0
        self.backward_passes = 0
        self.counted_solves = 0       # from Spectrum.counters
        self.counted_iterations = 0
        self._depth = 0

    def _timed(self, layer, fn, *args, **kwargs):
        self._depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._depth -= 1
            self.seconds[layer] += elapsed
            self.calls[layer] += 1
            if self._depth == 0:
                self.child_seconds += elapsed

    def _wrap(self, layer, fn):
        def timed(*args, **kwargs):
            return self._timed(layer, fn, *args, **kwargs)
        return timed

    def _wrap_extract(self, fn):
        def timed(*args, **kwargs):
            try:
                return self._timed("extract.atoms", fn, *args, **kwargs)
            except ExtractionError:
                self.extract_failures += 1
                raise
        return timed

    def solve(self, problem, options):
        """The ``SweepOptions.solver`` hook: the program's solver, timed."""
        before = self.seconds["sdpsolver.solve"]
        sol = self._timed("sdpsolver.solve", sdpsolver.solve, problem, options)
        size = self.by_size[problem.num_vars]
        size[0] += self.seconds["sdpsolver.solve"] - before
        size[1] += sol.iterations
        self.iterations += sol.iterations
        if sol.status in UNCONVERGED:
            self.unconverged += 1
        return sol

    def sweep(self, kind, tensor, options):
        """``full_sweep`` with every layer timed."""
        saved = {name: getattr(driver, name) for name in DRIVER_CALLS}
        for name, layer in DRIVER_CALLS.items():
            wrapped = (self._wrap_extract(saved[name]) if name == "extract_atoms"
                       else self._wrap(layer, saved[name]))
            setattr(driver, name, wrapped)
        children = self.child_seconds
        start = time.perf_counter()
        try:
            spectrum = driver.full_sweep(kind, tensor, replace(options, solver=self.solve))
        finally:
            elapsed = time.perf_counter() - start
            for name, fn in saved.items():
                setattr(driver, name, fn)
        self.sweep_seconds += elapsed
        self.seconds["driver.self"] += elapsed - (self.child_seconds - children)
        for entry in spectrum.log:
            if entry.get("phase") == "backward-check":
                self.backward_checks += 1
                self.backward_passes += bool(entry["passed"])
        self.counted_solves += spectrum.counters["sdp_solves"]
        self.counted_iterations += spectrum.counters["ipm_iterations"]
        return spectrum

    def counts_agree(self):
        """The traced solve and iteration counts equal Spectrum.counters."""
        return (self.calls["sdpsolver.solve"] == self.counted_solves
                and self.iterations == self.counted_iterations)

    def metrics(self, rounds):
        """Per-layer metrics as {name: (value, unit)}, per round of sweeps."""
        s, c = self.seconds, self.calls
        largest = max(self.by_size) if self.by_size else 0
        large_s, large_it = self.by_size[largest] if largest else (0.0, 0)
        extracted = c["extract.atoms"] - self.extract_failures
        out = {
            "momentsdp.build_s": (s["momentsdp.build"], "s"),
            "momentsdp.builds": (c["momentsdp.build"], "count"),
            "sdpsolver.solve_s": (s["sdpsolver.solve"], "s"),
            "sdpsolver.solves": (c["sdpsolver.solve"], "count"),
            "sdpsolver.iterations": (self.iterations, "count"),
            "sdpsolver.unconverged": (self.unconverged, "count"),
            "sdpsolver.verify_s": (s["sdpsolver.verify"], "s"),
            "sdpsolver.verifies": (c["sdpsolver.verify"], "count"),
            "extract.truncation_s": (s["extract.truncation"], "s"),
            "extract.truncations": (c["extract.truncation"], "count"),
            "extract.atoms_s": (s["extract.atoms"], "s"),
            "extract.extractions": (c["extract.atoms"], "count"),
            "extract.failures": (self.extract_failures, "count"),
            "driver.system_s": (s["driver.system"], "s"),
            "driver.polish_s": (s["driver.polish"], "s"),
            "driver.polishes": (c["driver.polish"], "count"),
            "driver.isolation_s": (s["driver.isolation"], "s"),
            "driver.self_s": (s["driver.self"], "s"),
            "driver.sweep_s": (self.sweep_seconds, "s"),
            "driver.backward_retries": (self.backward_checks - self.backward_passes,
                                        "count"),
        }
        out = {name: (value / rounds, unit) for name, (value, unit) in out.items()}
        out.update({
            "sdpsolver.ms_per_iteration": (
                1e3 * s["sdpsolver.solve"] / max(self.iterations, 1), "ms"),
            "sdpsolver.largest_n": (largest, "count"),
            "sdpsolver.largest_ms_per_iteration": (1e3 * large_s / max(large_it, 1), "ms"),
            "extract.yield": (extracted / max(c["extract.truncation"], 1), "ratio"),
            "driver.backward_pass_ratio": (
                self.backward_passes / max(self.backward_checks, 1), "ratio"),
        })
        return out
