"""repro.lint — the determinism and checkpoint-coverage sanitizer.

The simulation kernel promises bit-for-bit reproducible runs
(:mod:`repro.sim.core`) and the checkpoint pipeline promises that a
snapshot captures *all* provider state (:mod:`repro.checkpoint.pipeline`);
this package enforces both promises two ways:

* **statically**, with an AST lint engine (:mod:`repro.lint.engine`), a
  catalogue of per-file determinism rules (:mod:`repro.lint.rules`, codes
  ``DET001``–``DET008``), and a whole-program pass
  (:mod:`repro.lint.graph`) that builds a project-wide call graph to run
  interprocedural taint rules (``DET009``/``DET010``) and the
  checkpoint-coverage family (``CKPT001``–``CKPT003``) — runnable as
  ``repro lint`` or via :func:`check_source` / :func:`check_sources` /
  :func:`check_paths`;
* **dynamically**, with an opt-in event-race detector and a shadow-run
  divergence checker (:mod:`repro.lint.runtime`), plus a checkpoint
  state-diff sanitizer (:mod:`repro.lint.statecheck`) that attributes
  cross-checkpoint divergence to named provider fields.

See ``docs/static-analysis.md`` for the full rule catalogue and
``docs/determinism.md`` for the determinism rationale.
"""

from repro.lint.engine import (Violation, check_paths, check_source,
                               check_sources, iter_python_files)
from repro.lint.graph import (PROJECT_RULES, ProjectIndex, all_project_codes,
                              build_index, check_project)
from repro.lint.rules import RULES, Rule, all_codes
from repro.lint.runtime import (EventRace, EventRaceDetector,
                                ShadowRunReport, shadow_run)
from repro.lint.statecheck import (FieldDivergence, StateCheck,
                                   StateCheckReport, field_digests,
                                   fingerprint)

__all__ = [
    "Violation", "check_paths", "check_source", "check_sources",
    "iter_python_files",
    "RULES", "Rule", "all_codes",
    "PROJECT_RULES", "ProjectIndex", "all_project_codes", "build_index",
    "check_project",
    "EventRace", "EventRaceDetector", "ShadowRunReport", "shadow_run",
    "FieldDivergence", "StateCheck", "StateCheckReport", "field_digests",
    "fingerprint",
]
