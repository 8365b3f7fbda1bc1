"""The Figure 6 scenario file runs free of hidden ordering dependence.

The digests themselves are gated against the stored goldens in
``tests/test_pipeline_equivalence.py``.  Here: shadow-run convergence
(equivalent-but-perturbed RNG substreams must not change the digest)
and event-race cleanliness of a shortened Figure 6 run.
"""

from repro.lint.runtime import shadow_run
from repro.sim import Simulator
from repro.testbed.compile import compile_scenario, load_named

FIG6_SHORT = {"run.seconds": 3, "checkpoints.count": 1}


def test_fig6_shadow_run_converges():
    compiled = compile_scenario(load_named("fig6_iperf", FIG6_SHORT))

    def scenario(streams):
        return compiled.run(streams=streams).digest

    report = shadow_run(scenario, seed=6)
    assert not report.diverged, report.format()


def test_fig6_is_race_clean():
    sim = Simulator()
    detector = sim.enable_race_detection()
    compile_scenario(load_named("fig6_iperf", FIG6_SHORT)).run(sim=sim)
    assert detector.events_observed > 1000
    assert not detector.races, \
        "\n".join(r.format() for r in detector.races)
