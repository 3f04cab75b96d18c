"""Attractor-repellor extension of an embedded odometer.

The base system X sits at two sheets X x {+1} (attractor) and X x {-1}
(repellor); a single backward-and-forward orbit of isolated points y_j spirals
from the repellor to the attractor.  Second coordinates follow the anchor
formulas at the first-return times -k_n, a linear ramp between consecutive
return times, and a geometric approach to +1 along the forward tail.  The
contraction slacks a_n that make the anchors safe are not assumed: they are
certified from the interval scheme at a chosen refinement depth, and the
build fails loudly when the refinement is too shallow to certify them.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from fractions import Fraction

from cantor_shrink.exact import common_scale, int_to_digits, scaled_fraction
from cantor_shrink.interval_embed import EmbeddingScheme, VerifyReport, absolute_level
from cantor_shrink.metric_systems.core import FinitePointSystem, check_lrs, core_midpoints, split_margins


def certify_slack(scheme: EmbeddingScheme, n: int, refine: int, anchor_value: int = 0) -> Fraction:
    """Certified positive slack between d(z, y) and d(Tz, Ty) on U_n minus U_{n+1}.

    Scans every depth-``refine`` cell of the annulus, bounding d(z, y) from
    below by the gap to z's core and d(Tz, Ty) from above by the spread of
    the successor cells; returns half the worst difference.

    Raises when the bound is not positive — the caller should rebuild with a
    deeper refinement.
    """
    if scheme.kind != "odometer":
        raise ValueError("slack certification needs an odometer scheme")
    if refine < n + 1:
        raise ValueError("refinement must be deeper than the separating cylinder")
    spec = scheme.spec
    scale, cells = absolute_level(scheme, refine)  # (carrier, core) of each cell
    s_n = spec.extended_modulus(n)
    s_next = spec.extended_modulus(n + 1)
    s_m = spec.extended_modulus(refine)
    z = anchor_value % s_m
    z_lo, z_hi = cells[z][1]
    tz_lo, tz_hi = cells[(z + 1) % s_m][1]
    worst: int | None = None  # over the level's scale
    for j, (carrier, _) in cells.items():
        if j % s_n != z % s_n or j % s_next == z % s_next:
            continue
        (lo, hi), (t_lo, t_hi) = carrier, cells[(j + 1) % s_m][0]
        lower = max(lo - z_hi, z_lo - hi)  # gap from z's core to the carrier
        upper = max(t_hi - tz_lo, tz_hi - t_lo)  # widest spread from Tz's core
        slack = lower - upper
        if worst is None or slack < worst:
            worst = slack
    if worst is None:
        raise ValueError(f"no cells separate cylinders {n} and {n + 1} at refinement {refine}")
    if worst <= 0:
        raise ValueError(
            f"slack at cylinder depth {n} is not positive at refinement {refine}; "
            "rebuild with a deeper refinement"
        )
    return scaled_fraction(worst, 2 * scale)


def slack_sequence(scheme: EmbeddingScheme, levels: int, refine: int) -> list:
    """a_1..a_{levels+1} (index 0 unused), capped to halve at every step."""
    slack: list = [None]
    for n in range(1, levels + 2):
        candidate = certify_slack(scheme, n, refine)
        if n == 1:
            slack.append(min(candidate, Fraction(1, 4)))
        else:
            slack.append(min(candidate, slack[n - 1] / 4))
    return slack


@dataclass
class ExtensionSystem:
    """Finite truncation of the extension: two sheets plus an isolated orbit."""

    scheme: EmbeddingScheme
    levels: int
    tail: int
    refine: int
    rate: int
    k: list
    slack: list
    ids: list
    positions: dict
    map: dict

    def pi2(self, j: int) -> Fraction:
        return self.positions[("y", j)][1]

    def as_system(self) -> FinitePointSystem:
        return FinitePointSystem.from_positions(
            dict(self.positions),
            dict(self.map),
            source={"kind": "extension", "levels": self.levels, "tail": self.tail},
        )


def _second_coordinate(k: list, slack: list, rate: int, j: int) -> Fraction:
    """Height of y_j: anchors at return times, ramp between, geometric tail.

    The anchor values take precedence where the published formulas overlap;
    the ramp meets the next anchor exactly at j = -k_{n-1}.
    """
    levels = len(k) - 1
    for n in range(1, levels + 1):
        if j == -k[n]:
            return -1 + slack[n + 1] / 2
        if j == -k[n] + 1:
            return -1 + slack[n + 1] / 2 + slack[n]
    if j >= -k[1] + 2:
        return 1 - Fraction(1, rate ** (j + k[1]))
    for n in range(2, levels + 1):
        if -k[n] + 2 <= j <= -k[n - 1]:
            span = k[n] - k[n - 1] - 1
            ramp = Fraction(-j - k[n - 1], 2 * span) * (slack[n] + slack[n + 1])
            return -1 + ramp + slack[n] / 2
    raise ValueError(f"orbit index {j} below the truncation -k_{levels}")


def build_attractor_repellor(
    scheme: EmbeddingScheme, levels: int, tail: int, refine: int, rate: int = 2
) -> ExtensionSystem:
    """Truncate the extension to return depths 1..levels and a forward tail.

    ``refine`` is the cylinder depth used both to certify the slacks and to
    represent X by core midpoints; it must reach past the deepest separating
    cylinder (levels + 2), and the scheme must be built at least that deep.
    """
    if scheme.kind != "odometer":
        raise ValueError("the extension construction starts from an odometer scheme")
    if levels < 1 or tail < 0:
        raise ValueError("need at least one return level and a nonnegative tail")
    if rate < 2:
        raise ValueError("attractor rate must be at least 2")
    if refine < levels + 2:
        raise ValueError(
            f"refinement {refine} too shallow for {levels} levels; need at least {levels + 2}"
        )
    spec = scheme.spec
    k = [0] + [spec.extended_modulus(n) for n in range(1, levels + 1)]  # first return times
    slack = slack_sequence(scheme, levels, refine)

    s_m = spec.extended_modulus(refine)
    mid = core_midpoints(scheme, refine)

    # the orbit runs along the thread of the anchor z = 0
    ids: list = [("y", j) for j in range(-k[levels], tail + 1)]
    positions: dict = {}
    step: dict = {}
    for j in range(-k[levels], tail + 1):
        positions[("y", j)] = (mid[j % s_m], _second_coordinate(k, slack, rate, j))
        step[("y", j)] = ("y", j + 1) if j < tail else ("sheet", (tail + 1) % s_m, 1)
    for label in sorted(mid):
        for sign in (1, -1):
            ids.append(("sheet", label, sign))
            positions[("sheet", label, sign)] = (mid[label], Fraction(sign))
            step[("sheet", label, sign)] = ("sheet", (label + 1) % s_m, sign)
    return ExtensionSystem(scheme, levels, tail, refine, rate, k, slack, ids, positions, step)


def verify_extension_lrs(ext: ExtensionSystem) -> VerifyReport:
    """Certify the extension's shrinking structure with exact margins.

    Checks, in order: the critical repellor pairs ((z,-1), y_{-k_n}); strict
    isolation of every orbit point; monotone approach of the tail to the
    repellor sheet away from return times, and to the attractor sheet beyond
    -k_1; and a full radial-shrinking sweep of the truncated system.  The
    report declares one scale, and writes every margin and slack as signed
    binary digits over it.
    """
    checks = []  # (entry, margin): the entry passes when its margin is positive
    system = ext.as_system()  # rho, the sum metric on the two coordinates
    z_sheet = ("sheet", 0, -1)  # the anchor's point on the repellor
    for n in range(1, ext.levels + 1):
        anchor = ("y", -ext.k[n])
        before = system.d(z_sheet, anchor)
        after = system.d(ext.map[z_sheet], ext.map[anchor])
        checks.append(({"kind": "critical-pair", "n": n}, before - after))

    orbit = [system.index[u] for u in ext.ids if u[0] == "y"]
    isolation = scaled_fraction(
        min(min(d for v, d in enumerate(system.dist[u]) if v != u) for u in orbit), system.scale
    )
    checks.append(({"kind": "isolation"}, isolation))

    returns = {-ext.k[n] for n in range(1, ext.levels + 1)}
    for j in range(-ext.k[ext.levels], -ext.k[1]):
        if j in returns:
            continue
        drop = (ext.pi2(j) + 1) - (ext.pi2(j + 1) + 1)
        checks.append(({"kind": "repellor-monotone", "j": j}, drop))
    for j in range(-ext.k[1], ext.tail):
        rise = ext.pi2(j + 1) - ext.pi2(j)
        checks.append(({"kind": "attractor-monotone", "j": j}, rise))

    sweep = check_lrs(system)
    if sweep.ok and sweep.min_margin is not None:
        checks.append(({"kind": "sweep"}, sweep.min_margin))
    scale, margins, witnesses, slack = split_margins(checks, ext.slack[1:])
    if not sweep.ok:
        witnesses.append({"kind": "sweep", "pair": [list(sweep.witness[0]), list(sweep.witness[1])]})

    return VerifyReport(
        check="extension-lrs",
        passed=not witnesses,
        witnesses=witnesses,
        margins=margins,
        stats={"points": len(ext.ids), "k": ext.k[1:], "slack": slack},
        scale=scale,
    )


def extension_to_json(ext: ExtensionSystem) -> dict:
    """The extension's JSON form: one ``scale``, and every slack and every
    point's coordinates x and y as signed binary digits over it."""
    slack = ext.slack[1:]
    scale, ints = common_scale([*slack, *(c for u in ext.ids for c in ext.positions[u])])
    digits = [int_to_digits(x) for x in ints]
    xy = iter(digits[len(slack):])
    return {
        "kind": "extension",
        "source": deepcopy(ext.scheme.source),
        "anchor": 0,
        "levels": ext.levels,
        "tail": ext.tail,
        "refine": ext.refine,
        "rate": ext.rate,
        "k": ext.k[1:],
        "scale": int_to_digits(scale),
        "slack": digits[: len(slack)],
        "points": [{"id": list(u), "x": x, "y": y} for u, x, y in zip(ext.ids, xy, xy)],
        "map": [[list(u), list(ext.map[u])] for u in ext.ids],
    }
