"""The rule catalog.

Importing this package registers every shipped rule with
:mod:`repro.analysis.registry`; the engine imports it for exactly that
side effect.  One module per invariant family keeps each rule's policy
(layer scopes, allowlists) next to its implementation.
"""

from repro.analysis.rules import (  # noqa: F401
    api_surface,
    deadcode,
    determinism,
    errors,
    floats,
    layering,
    suppression,
    taint,
)
