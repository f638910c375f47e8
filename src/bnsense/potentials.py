"""Dense potential tables over sorted variable axes.

A Potential is a nonnegative table indexed by the states of a sorted tuple of
variable ids.  Keeping the axes sorted makes alignment between any two
potentials a pure broadcasting exercise.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistentPotentialError
from .network import Network


def family_table(net: Network, var: int) -> np.ndarray:
    """A view of the variable's CPT with one axis per family member, in sorted id order."""
    listed = net.parents[var] + (var,)
    table = np.asarray(net.cpts[var], dtype=float).reshape([net.arity(v) for v in listed])
    return table.transpose(sorted(range(len(listed)), key=listed.__getitem__))


class Potential:
    __slots__ = ("vars", "table")

    def __init__(self, vars: tuple[int, ...], table: np.ndarray):
        assert tuple(sorted(vars)) == tuple(vars), "potential axes must be sorted"
        self.vars = tuple(vars)
        self.table = np.asarray(table, dtype=float)

    # -- constructors ------------------------------------------------------

    @classmethod
    def ones(cls, net: Network, vars: tuple[int, ...]) -> "Potential":
        vars = tuple(sorted(vars))
        return cls(vars, np.ones(tuple(net.arity(v) for v in vars)))

    @classmethod
    def from_cpt(cls, net: Network, var: int) -> "Potential":
        """The CPT of a variable as a potential over its (sorted) family."""
        return cls(net.family(var), family_table(net, var))

    def copy(self) -> "Potential":
        return Potential(self.vars, self.table.copy())

    # -- algebra -----------------------------------------------------------

    def _aligned(self, vars: tuple[int, ...]) -> np.ndarray:
        """View of the table broadcastable over a superset axis tuple."""
        shape = tuple(
            self.table.shape[self.vars.index(v)] if v in self.vars else 1 for v in vars)
        order = tuple(self.vars.index(v) for v in vars if v in self.vars)
        return self.table.transpose(order).reshape(shape)

    def multiply(self, other: "Potential") -> "Potential":
        vars = tuple(sorted(set(self.vars) | set(other.vars)))
        return Potential(vars, self._aligned(vars) * other._aligned(vars))

    def divide(self, other: "Potential") -> "Potential":
        """Elementwise quotient with the 0/0 := 0 convention.

        positive/0 means the tree algebra went wrong somewhere; it is raised,
        not patched over.
        """
        denom = other._aligned(self.vars)
        num = self.table
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)
        if np.any((np.broadcast_to(denom, num.shape) == 0) & (num > 0)):
            raise InconsistentPotentialError("positive/0 in potential division")
        return Potential(self.vars, out)

    def multiply_vector(self, var: int, vec: np.ndarray) -> "Potential":
        shape = tuple(len(vec) if v == var else 1 for v in self.vars)
        return Potential(self.vars, self.table * np.asarray(vec, float).reshape(shape))

    def marginalize(self, keep: tuple[int, ...]) -> "Potential":
        keep = tuple(sorted(keep))
        axes = tuple(i for i, v in enumerate(self.vars) if v not in keep)
        return Potential(keep, self.table.sum(axis=axes) if axes else self.table.copy())

    def total(self) -> float:
        return float(self.table.sum())

    def value(self, assignment: dict[int, int]) -> float:
        """Entry at a full assignment of this potential's variables."""
        idx = tuple(assignment[v] for v in self.vars)
        return float(self.table[idx])

    def __repr__(self) -> str:
        return f"Potential(vars={self.vars}, shape={self.table.shape})"
