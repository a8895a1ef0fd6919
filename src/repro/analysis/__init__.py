"""Runtime analysis tooling (the dynamic half of reprolint).

:mod:`repro.analysis.sanitizer` shadows the lock manager, buffer pool,
simulated disk and scheduler with protocol checks.  Nothing here is
imported by the engine itself — enabling the sanitizer is always an
explicit act (``sanitizer.install()`` or the ``REPRO_SANITIZER=1`` pytest
fixture), so the production path pays zero cost.
"""

from repro.analysis.sanitizer import (  # noqa: F401
    Diagnostic,
    LockTableViolation,
    Sanitizer,
    SanitizerError,
    VictimPolicyViolation,
    WALOrderViolation,
    active,
    install,
    uninstall,
)
