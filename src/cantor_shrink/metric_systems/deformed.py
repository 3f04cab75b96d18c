"""Deformed product metric with a unique fixed point.

Over a triple system X x Y x Z — two odometer coordinates and a middle
coordinate climbing a geometric grid toward 0 — the deformed metric

    d((x1,y1,z1), (x2,y2,z2)) = |x1 y1 - x2 y2| + |y1 - y2| + |z1 y1 - z2 y2|

is the pullback of the taxicab metric under (x, y, z) -> (xy, y, zy).  On the
slice y = -1 it agrees with the plain sum metric; at y = 0 it collapses the
whole slice to a single point, written omega.  When the middle coordinate
contracts faster than the outer ones can stretch (grid ratio above 3), every
point spirals into omega, which is then the only periodic point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cantor_shrink.interval_embed import EmbeddingScheme, VerifyReport, absolute_level
from cantor_shrink.metric_systems.core import FinitePointSystem, check_lrs, core_midpoints, periodic_points
from cantor_shrink.metric_systems.core import split_margins
from cantor_shrink.metric_systems.extension import ExtensionSystem

OMEGA = ("omega",)


def _outer_positions(scheme: EmbeddingScheme) -> dict:
    """Level-1 core midpoints rescaled into [0, 1]."""
    if scheme.kind != "odometer":
        raise ValueError("outer coordinates come from odometer schemes")
    s_1 = scheme.spec.extended_modulus(1)
    return {label: mid / s_1 for label, mid in core_midpoints(absolute_level(scheme, 1)).items()}


@dataclass
class DeformedTripleSystem:
    """Finite triple system carrying both the plain and the deformed metric."""

    truncation: int
    rate: int
    grid: list
    ids: list
    coords: dict
    map: dict

    def distance(self, u, v) -> Fraction:
        (x1, y1, z1), (x2, y2, z2) = self.coords[u], self.coords[v]
        return abs(x1 * y1 - x2 * y2) + abs(y1 - y2) + abs(z1 * y1 - z2 * y2)

    def plain_distance(self, u, v) -> Fraction:
        (x1, y1, z1), (x2, y2, z2) = self.coords[u], self.coords[v]
        return abs(x1 - x2) + abs(y1 - y2) + abs(z1 - z2)

    def as_system(self) -> FinitePointSystem:
        positions = {
            u: (x * y, y, z * y) for u, (x, y, z) in self.coords.items()
        }
        return FinitePointSystem.from_positions(
            positions,
            dict(self.map),
            source={"kind": "deformed-triple", "truncation": self.truncation, "rate": self.rate},
        )


def build_fixed_point_system(
    scheme1: EmbeddingScheme,
    ext: ExtensionSystem,
    scheme2: EmbeddingScheme,
    truncation: int,
) -> DeformedTripleSystem:
    """Assemble the deformed triple over a truncated middle orbit.

    The middle grid is -rate^-t for t = 0..truncation with the extension's
    attractor rate: it starts on the y = -1 seam and climbs strictly toward
    the collapse point.
    """
    if truncation < 1:
        raise ValueError("need at least one contraction step before the collapse")
    rate = ext.rate
    grid = [Fraction(-1, rate**t) for t in range(truncation + 1)]
    xs = _outer_positions(scheme1)
    zs = _outer_positions(scheme2)
    s1 = scheme1.spec.extended_modulus(1)
    s2 = scheme2.spec.extended_modulus(1)

    ids: list = [OMEGA]
    coords: dict = {OMEGA: (Fraction(0), Fraction(0), Fraction(0))}
    step: dict = {OMEGA: OMEGA}
    for l1 in sorted(xs):
        for t in range(truncation + 1):
            for l2 in sorted(zs):
                u = ("w", l1, t, l2)
                ids.append(u)
                coords[u] = (xs[l1], grid[t], zs[l2])
                step[u] = (
                    ("w", (l1 + 1) % s1, t + 1, (l2 + 1) % s2)
                    if t < truncation
                    else OMEGA
                )
    return DeformedTripleSystem(truncation, rate, grid, ids, coords, step)


def verify_deformed_lrs(dts: DeformedTripleSystem) -> VerifyReport:
    """Certify the collapse: seam agreement, middle contraction beating the
    outer stretch threefold, strict approach to omega, a radial-shrinking
    sweep, and uniqueness of the periodic point.  The report declares one
    scale, and writes every margin as signed binary digits over it."""
    witnesses = []
    seam = [u for u in dts.ids if u != OMEGA and u[2] == 0]
    seam_pairs = 0
    for i, u in enumerate(seam):
        for v in seam[i + 1 :]:
            seam_pairs += 1
            if dts.distance(u, v) != dts.plain_distance(u, v):
                witnesses.append({"kind": "seam", "pair": [list(u), list(v)]})

    checks = []  # (entry, margin): the entry passes when its margin is positive
    for t in range(dts.truncation + 1):
        y = dts.grid[t]
        y_next = dts.grid[t + 1] if t < dts.truncation else Fraction(0)
        checks.append(({"kind": "middle-contraction", "t": t}, abs(y) - 3 * abs(y_next)))

    for u in dts.ids:
        if u == OMEGA:
            continue
        drop = dts.distance(OMEGA, u) - dts.distance(OMEGA, dts.map[u])
        checks.append(({"kind": "collapse-approach", "id": list(u)}, drop))

    sys = dts.as_system()
    sweep = check_lrs(sys)
    if sweep.ok and sweep.min_margin is not None:
        checks.append(({"kind": "sweep"}, sweep.min_margin))
    scale, margins, failed, _ = split_margins(checks)
    witnesses += failed
    if not sweep.ok:
        witnesses.append(
            {"kind": "sweep", "pair": [list(sweep.witness[0]), list(sweep.witness[1])]}
        )

    periodic = periodic_points(sys)
    if periodic != [OMEGA]:
        witnesses.append({"kind": "periodic", "points": [list(u) for u in periodic]})

    return VerifyReport(
        check="deformed-lrs",
        passed=not witnesses,
        witnesses=witnesses,
        margins=margins,
        stats={
            "points": len(dts.ids),
            "truncation": dts.truncation,
            "rate": dts.rate,
            "seam_pairs": seam_pairs,
            "periodic_points": len(periodic),
        },
        scale=scale,
    )
