"""The benchmark patches qbsde names by attribute and builds its workloads
from qbsde's public signatures; a renamed name or a changed signature would
otherwise break only ``bench/run.py``."""

import os

import numpy as np

from qbsde import drivers, scenarios, solver

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_traced_mode_installs_measures_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import layers
    from tracing import Tracer

    originals = (scenarios.simulate_scenario, solver.solve_backward)
    tracer = Tracer()
    layers.install(tracer)
    try:
        bundle = scenarios.simulate_scenario(scenarios.build_grid(1.0, 4), 1, 1, 64, source=scenarios.RandomSource(3))
        field = solver.solve_backward(bundle, drivers.make_builtin("zero", {}), drivers.terminal_constant(0.0, 2))
    finally:
        tracer.uninstall()
    assert (scenarios.simulate_scenario, solver.solve_backward) == originals
    assert tracer.maxima["scenarios.path_bytes"] == bundle.states.nbytes
    assert tracer.counts["solver.path_steps"] == field.n_paths * field.n_steps
    assert np.all(field.y_export == 0.0) and np.all(field.y_sup == 0.0)


def test_workloads_construct(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    workloads.Oracle()
    workloads.SolverScale()
