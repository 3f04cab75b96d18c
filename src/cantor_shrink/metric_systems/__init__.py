"""Finite metric systems: radial shrinking, entropy counts, and the
attractor-repellor and deformed-metric constructions over interval schemes."""

from cantor_shrink.metric_systems.core import (
    FinitePointSystem,
    LrsResult,
    check_lrs,
    computed_radii,
    entropy_estimate,
    full_shift_midpoint_system,
    midpoint_system,
    periodic_points,
    product_system,
    separated_count,
    shrinking_propositions_oracle,
    system_from_json,
    system_to_json,
)
from cantor_shrink.metric_systems.deformed import (
    OMEGA,
    DeformedTripleSystem,
    build_fixed_point_system,
    verify_deformed_lrs,
)
from cantor_shrink.metric_systems.extension import (
    ExtensionSystem,
    build_attractor_repellor,
    certify_slack,
    extension_to_json,
    slack_sequence,
    verify_extension_lrs,
)

__all__ = [
    "FinitePointSystem",
    "LrsResult",
    "check_lrs",
    "computed_radii",
    "entropy_estimate",
    "full_shift_midpoint_system",
    "midpoint_system",
    "periodic_points",
    "product_system",
    "separated_count",
    "shrinking_propositions_oracle",
    "system_from_json",
    "system_to_json",
    "OMEGA",
    "DeformedTripleSystem",
    "build_fixed_point_system",
    "verify_deformed_lrs",
    "ExtensionSystem",
    "build_attractor_repellor",
    "certify_slack",
    "extension_to_json",
    "slack_sequence",
    "verify_extension_lrs",
]
