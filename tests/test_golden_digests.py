"""The Figure 6 and Figure 7 rigs reproduce their stored golden digests.

The goldens in ``benchmarks/results/PIPELINE_digests.json`` are the
oracle for the scheduler: these tests drive the Figure 6 (iperf over
GigE) and Figure 7 (BitTorrent LAN swarm) rigs — checkpoints included —
and compare :func:`~repro.analysis.digest.experiment_digest`, which
covers guest virtual time, TCP sequence state and counters, storage
content maps, and delay-node occupancy.  A change to event ordering in
the kernel, the links or the Dummynet pipes moves these digests.

Also here: shadow-run convergence (no hidden ordering dependence) and
event-race cleanliness of a rig run.
"""

import json
import os

from repro.bench.scenarios import run_fig6, run_fig7
from repro.lint.runtime import shadow_run
from repro.sim import Simulator

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "results", "PIPELINE_digests.json")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)["scenarios"]


def test_fig6_matches_stored_golden():
    digest = run_fig6(Simulator(), run_seconds=5, num_ckpts=1)
    assert digest == GOLDEN["fig6_iperf_5s_1ckpt"]


def test_fig7_matches_stored_golden():
    digest = run_fig7(Simulator(), run_seconds=8, num_ckpts=1)
    assert digest == GOLDEN["fig7_bittorrent_8s_1ckpt"]


def test_fig6_shadow_run_converges():
    # Equivalent-but-perturbed RNG substreams must not change the digest
    # structure of the run (no hidden ordering dependence).
    def scenario(streams):
        return run_fig6(Simulator(), run_seconds=3, num_ckpts=1,
                        streams=streams)

    report = shadow_run(scenario, seed=6)
    assert not report.diverged, report.format()


def test_fig6_is_race_clean():
    sim = Simulator()
    detector = sim.enable_race_detection()
    run_fig6(sim, run_seconds=3, num_ckpts=1)
    assert detector.events_observed > 1000
    assert not detector.races, \
        "\n".join(r.format() for r in detector.races)
