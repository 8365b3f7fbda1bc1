"""Parameter sweeps: expand one scenario over a grid, run the fleet.

A sweep file names a scenario (:mod:`repro.testbed.dsl`), a parameter
``[matrix]`` of dotted-path → value-list entries, and a ``repeat``
count.  :func:`~repro.sweep.runner.run_sweep` expands the cross-product
deterministically, runs every expansion in a worker process, and
aggregates digests/metrics/failures into one report with a
digest-agreement check across repeated runs — thousands of cheap
deterministic runs instead of one big one.
"""

from repro.sweep.grid import SweepPlan, expand_grid, load_sweep
from repro.sweep.report import human_report
from repro.sweep.runner import run_sweep, run_sweep_file
from repro.testbed.dsl import set_path

__all__ = ["SweepPlan", "expand_grid", "human_report", "load_sweep",
           "run_sweep", "run_sweep_file", "set_path"]
