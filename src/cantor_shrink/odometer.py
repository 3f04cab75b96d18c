"""Adding-machine (odometer) systems truncated at finite depth.

An odometer is determined by a divisibility tower s_1 | s_2 | s_3 | …; a point
is a compatible residue thread (r_1, r_2, …) with r_n in [0, s_n), and the map
adds one to every coordinate.  Finite truncations at depth d are exact objects:
the depth-d cylinder structure is the ring Z/s_d with its tower of projections.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OdometerSpec:
    """Modulus tower s_1, s_2, … read from `values`.

    The tower must have s_1 >= 2 and a proper divisibility step
    s_n | s_{n+1}, s_{n+1} > s_n.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if not self.values:
            raise ValueError("a modulus tower needs at least one modulus")
        if self.values[0] < 2:
            raise ValueError(f"s_1 must be at least 2, got {self.values[0]}")
        for a, b in zip(self.values, self.values[1:]):
            if b % a != 0 or b <= a:
                raise ValueError(f"modulus {b} does not properly extend {a}")

    @classmethod
    def from_list(cls, values) -> "OdometerSpec":
        return cls(tuple(values))

    def s(self, n: int) -> int:
        """Modulus s_n (1-indexed); s_0 = 1 by convention."""
        if n == 0:
            return 1
        if n < 0:
            raise ValueError(f"depth must be nonnegative, got {n}")
        if n > len(self.values):
            raise ValueError(f"depth {n} exceeds the {len(self.values)} listed moduli")
        return self.values[n - 1]

    def k(self, n: int) -> int:
        """Branching factor k_n = s_n / s_{n-1} (k_1 = s_1)."""
        return self.s(n) // self.s(n - 1)

    def extended_modulus(self, n: int) -> int:
        """s_n, continuing the listed tower geometrically past its last entry.

        Interval lengths at depth d involve s_{d+1}, so building a listed
        tower to its full depth needs one modulus beyond the list; it is
        extended by the final branching factor.
        """
        if n <= len(self.values):
            return self.s(n)
        last = self.values[-1]
        ratio = last // (self.values[-2] if len(self.values) >= 2 else 1)
        return last * ratio ** (n - len(self.values))

    def extended_k(self, n: int) -> int:
        return self.extended_modulus(n) // self.extended_modulus(n - 1)

    def descriptor(self) -> dict:
        """JSON-ready description sufficient to rebuild the spec."""
        return {"rule": "list", "s": list(self.values)}

    @classmethod
    def from_descriptor(cls, obj: dict) -> "OdometerSpec":
        rule = obj.get("rule", "list")
        if rule != "list":
            raise ValueError(f"unknown odometer rule {rule!r}")
        return cls.from_list(obj["s"])

    def point(self, value: int, depth: int) -> "ResiduePoint":
        """Depth-d truncation of the integer orbit point `value`."""
        moduli = tuple(self.s(n) for n in range(1, depth + 1))
        return ResiduePoint(tuple(value % m for m in moduli), moduli)


@dataclass(frozen=True)
class ResiduePoint:
    """Compatible residue thread (r_1, …, r_d) modulo (s_1, …, s_d)."""

    residues: tuple[int, ...]
    moduli: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "residues", tuple(int(r) for r in self.residues))
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
        if len(self.residues) != len(self.moduli) or not self.residues:
            raise ValueError("residues and moduli must align and be nonempty")
        for a, b in zip(self.moduli, self.moduli[1:]):
            if b % a != 0 or b <= a:
                raise ValueError(f"modulus {b} does not properly extend {a}")
        for r, m in zip(self.residues, self.moduli):
            if not 0 <= r < m:
                raise ValueError(f"residue {r} out of range for modulus {m}")
        for (r1, m1), r2 in zip(zip(self.residues, self.moduli), self.residues[1:]):
            if r2 % m1 != r1:
                raise ValueError(
                    f"incompatible thread: {r2} mod {m1} != {r1}"
                )


def predecessor(point: ResiduePoint) -> ResiduePoint:
    return ResiduePoint(
        tuple((r - 1) % m for r, m in zip(point.residues, point.moduli)),
        point.moduli,
    )
