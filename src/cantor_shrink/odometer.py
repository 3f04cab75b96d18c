"""Adding-machine (odometer) systems truncated at finite depth.

An odometer is determined by a divisibility tower s_1 | s_2 | s_3 | …; a point
is a compatible residue thread (r_1, r_2, …) with r_n in [0, s_n), and the map
adds one to every coordinate.  Finite truncations at depth d are exact objects:
the depth-d cylinder structure is the ring Z/s_d with its tower of projections.
Its first return time to a depth-n cylinder, in either direction, is s_n.

The tower is a ``typing.NamedTuple`` subclass that validates in ``__new__``,
as does its ``_make`` (which ``_replace`` calls): every scheme command imports
this module, and ``dataclasses`` would load ``inspect`` into each launch.
Being a tuple, it compares equal to a plain tuple of its field.
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

    def extended_modulus(self, n: int) -> int:
        """s_n: s_0 = 1, then the listed moduli, then the tower continued
        geometrically by its final branching factor.

        Interval lengths at depth d involve s_{d+1}, so building a listed
        tower to its full depth needs one modulus beyond the list.
        """
        if n < 0:
            raise ValueError(f"depth must be nonnegative, got {n}")
        if n <= len(self.values):
            return self.values[n - 1] if n else 1
        last = self.values[-1]
        ratio = last // (self.values[-2] if len(self.values) >= 2 else 1)
        return last * ratio ** (n - len(self.values))

    def extended_k(self, n: int) -> int:
        return self.extended_modulus(n) // self.extended_modulus(n - 1)

    def descriptor(self) -> dict:
        """JSON-ready description sufficient to rebuild the spec."""
        return {"rule": "list", "s": list(self.values)}
