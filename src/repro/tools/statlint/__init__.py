"""statlint — invariant-aware static analysis for this repository.

An AST-based lint framework whose checkers encode *this codebase's*
synchronisation and durability invariants (the ones docs/PERSISTENCE.md
states in prose): lock discipline for ``GUARDED_BY``-annotated fields,
a cycle-free lock-acquisition order, crash-safe write ordering in the
persistence layer, and exception hygiene.

See docs/ANALYSIS.md for the checker catalog, the annotation
conventions (``GUARDED_BY``, ``# statlint: holds=...``), the
suppression / baseline
workflow, and how to add a checker.

Usage::

    python -m repro.tools.statlint src/ --fail-on-new
"""

from repro.tools.statlint.core import (  # noqa: F401
    Baseline,
    Finding,
    Project,
    SourceModule,
    all_checkers,
    analyze_paths,
    register,
    rule_ids,
)

# Importing the checker modules registers them with the core registry.
from repro.tools.statlint import (  # noqa: F401  isort: skip
    crashorder,
    exceptions,
    locks,
)
