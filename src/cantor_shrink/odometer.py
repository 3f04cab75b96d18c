"""Adding-machine (odometer) systems truncated at finite depth.

An odometer is determined by a divisibility tower s_1 | s_2 | s_3 | …; a point
is a compatible residue thread (r_1, r_2, …) with r_n in [0, s_n), and the map
adds one to every coordinate.  Finite truncations at depth d are exact objects:
the depth-d cylinder structure is the ring Z/s_d with its tower of projections.

Both records are ``typing.NamedTuple`` subclasses that validate in
``__new__``, as does their ``_make`` (which ``_replace`` calls): every scheme
command imports this module, and ``dataclasses`` would load ``inspect`` into
each launch.  Being tuples, they compare equal to plain tuples of their
fields.
"""

from __future__ import annotations

from typing import NamedTuple


class _Tower(NamedTuple):
    values: tuple[int, ...]


class OdometerSpec(_Tower):
    """Modulus tower s_1, s_2, … read from `values`.

    The tower must have s_1 >= 2 and a proper divisibility step
    s_n | s_{n+1}, s_{n+1} > s_n.
    """

    __slots__ = ()

    def __new__(cls, values):
        values = tuple(int(v) for v in values)
        if not values:
            raise ValueError("a modulus tower needs at least one modulus")
        if values[0] < 2:
            raise ValueError(f"s_1 must be at least 2, got {values[0]}")
        for a, b in zip(values, values[1:]):
            if b % a != 0 or b <= a:
                raise ValueError(f"modulus {b} does not properly extend {a}")
        return super().__new__(cls, values)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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


class _Thread(NamedTuple):
    residues: tuple[int, ...]
    moduli: tuple[int, ...]


class ResiduePoint(_Thread):
    """Compatible residue thread (r_1, …, r_d) modulo (s_1, …, s_d)."""

    __slots__ = ()

    def __new__(cls, residues, moduli):
        residues = tuple(int(r) for r in residues)
        moduli = tuple(int(m) for m in moduli)
        if len(residues) != len(moduli) or not residues:
            raise ValueError("residues and moduli must align and be nonempty")
        for a, b in zip(moduli, moduli[1:]):
            if b % a != 0 or b <= a:
                raise ValueError(f"modulus {b} does not properly extend {a}")
        for r, m in zip(residues, moduli):
            if not 0 <= r < m:
                raise ValueError(f"residue {r} out of range for modulus {m}")
        for (r1, m1), r2 in zip(zip(residues, moduli), residues[1:]):
            if r2 % m1 != r1:
                raise ValueError(
                    f"incompatible thread: {r2} mod {m1} != {r1}"
                )
        return super().__new__(cls, residues, moduli)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def predecessor(point: ResiduePoint) -> ResiduePoint:
    return ResiduePoint(
        tuple((r - 1) % m for r, m in zip(point.residues, point.moduli)),
        point.moduli,
    )
