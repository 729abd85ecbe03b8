"""Irreducible characters of an index-2-abelian extension, exactly.

The group has 2d one-dimensional characters, indexed by a residue vector I
(0 <= I_i < d_i) and a sign, and (n-d)/2 two-dimensional characters, indexed
by the orbit {J, J*s} of a character of the abelian part that is nontrivial
on the twisted commutator subgroup.  All values are products of roots of
unity or sums of two, and are represented as exact RootSum terms over the
group's common root order; the b-coset values of the linear characters need
the doubled order because they are square roots of values on the abelian
part.  The sign convention: the "+" character takes the principal square
root on the coset.  Swapping the two signs permutes rows but never changes
the table as a multiset (tested, not assumed).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iterproduct

import numpy as np

from .conjugacy import COSET, ClassList, ConjClass, conjugacy_classes
from .cyclotomic import RootSum
from .errors import CharacterTableFailure, OrthogonalityFailure
from .groups import D2Group, per_group, read_only


@dataclass(frozen=True)
class LinearLabel:
    """One-dimensional character chi_{I,sign}; I_i is taken mod d_i."""

    i_vec: tuple[int, ...]
    sign: int  # 1: principal square root on the coset, 2: negated

    @property
    def degree(self) -> int:
        return 1

    def describe(self) -> str:
        return f"chi[{','.join(map(str, self.i_vec))};{self.sign}]"


@dataclass(frozen=True)
class TwoDimLabel:
    """Two-dimensional character phi_J; J is the orbit minimum of {J, J*s}."""

    j_vec: tuple[int, ...]

    @property
    def degree(self) -> int:
        return 2

    def describe(self) -> str:
        return f"phi[{','.join(map(str, self.j_vec))}]"


CharLabel = LinearLabel | TwoDimLabel


def character_labels(group: D2Group) -> list[CharLabel]:
    """All irreducible characters in canonical order: linear labels by
    mixed-radix I then sign, then two-dimensional labels by orbit minimum."""
    fx = group.fixed
    labels: list[CharLabel] = []
    for i_vec in _iterproduct(*(range(d) for d in fx.d_vec)):
        labels.append(LinearLabel(i_vec=i_vec, sign=1))
        labels.append(LinearLabel(i_vec=i_vec, sign=2))

    A = group.abelian
    s = group.twist.s
    moduli = A.moduli
    twodim: list[TwoDimLabel] = []
    for j_vec in A.elements():
        # trivial on B <=> n_i | k_i for every coordinate
        if all(k % n == 0 for k, n in zip(j_vec, fx.n_vec)):
            continue
        partner = tuple((k * si) % m for k, si, m in zip(j_vec, s, moduli))
        if A.index(partner) < A.index(j_vec):
            continue
        twodim.append(TwoDimLabel(j_vec=j_vec))
    labels.extend(twodim)

    n, d = group.n, group.d
    if len(twodim) != (n - d) // 2 or len(labels) != 2 * d + (n - d) // 2:
        raise CharacterTableFailure(
            f"{len(twodim)} two-dimensional and {len(labels)} labels in all, "
            f"expected {(n - d) // 2} and {2 * d + (n - d) // 2} for n = {n}, d = {d}"
        )
    return labels


def char_value(group: D2Group, label: CharLabel, cls: ConjClass) -> RootSum:
    """Exact character value on a conjugacy class."""
    order = group.root_order
    fx = group.fixed
    rep_a, _ = cls.rep

    if isinstance(label, LinearLabel):
        if cls.kind == COSET:
            # value at z*b: product over coordinates of the (2*d_i)-th root
            # with exponent l_i * (2*z_i + v_i), sign from the label
            exp = 0
            for li, zi, vi, di in zip(label.i_vec, rep_a, group.square, fx.d_vec):
                exp += li * (2 * zi + vi) * (order // (2 * di))
            coeff = 1 if label.sign == 1 else -1
            return RootSum.root(order, exp, coeff)
        exp = 0
        for li, ti, di in zip(label.i_vec, rep_a, fx.d_vec):
            exp += li * ti * (order // di)
        return RootSum.root(order, exp)

    if cls.kind == COSET:
        return RootSum.zero(order)
    moduli = group.abelian.moduli
    e1 = 0
    e2 = 0
    for ki, ti, si, mi in zip(label.j_vec, rep_a, group.twist.s, moduli):
        e1 += ki * ti * (order // mi)
        e2 += ki * ti * si * (order // mi)
    return RootSum.root(order, e1) + RootSum.root(order, e2)


@dataclass
class CharacterTable:
    """Rows are irreducible characters, columns are conjugacy classes.

    It keeps the group's order and root order, not the group, because the
    group keeps the table.
    """

    order: int
    root_order: int
    classes: ClassList
    labels: tuple[CharLabel, ...]
    rows: tuple[tuple[RootSum, ...], ...]

    @property
    def degrees(self) -> list[int]:
        return [label.degree for label in self.labels]

    def value(self, row: int, col: int) -> RootSum:
        return self.rows[row][col]

    @cached_property
    def complex_matrix(self) -> np.ndarray:
        return read_only(
            np.array([[v.eval_complex() for v in row] for row in self.rows], dtype=complex)
        )

    # -- exports -----------------------------------------------------------

    def to_text(self) -> str:
        def fmt(v: RootSum) -> str:
            n = v.is_integer(1e-9)
            if n is not None:
                return str(n)
            z = v.eval_complex()
            return f"{z.real:.4g}{z.imag:+.4g}i"

        headers = [""] + [f"{c.kind[0].upper()}{c.index}|{c.size}" for c in self.classes]
        grid = [headers]
        for label, row in zip(self.labels, self.rows):
            grid.append([label.describe()] + [fmt(v) for v in row])
        widths = [max(len(r[i]) for r in grid) for i in range(len(headers))]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in grid
        )

    def to_csv(self) -> str:
        def fmt(z: complex) -> str:
            return f"{z.real:.12g}{z.imag:+.12g}i"

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["character"] + [f"class_{c.index}" for c in self.classes]
        )
        for label, row in zip(self.labels, self.rows):
            writer.writerow([label.describe()] + [fmt(v.eval_complex()) for v in row])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        def encode(v: RootSum) -> dict:
            z = v.eval_complex()
            return {
                "terms": v.sorted_terms(),
                "complex": [z.real, z.imag],
            }

        return {
            "root_order": self.root_order,
            "classes": [
                {"index": c.index, "kind": c.kind, "size": c.size, "rep": elem_json(c.rep)}
                for c in self.classes
            ],
            "characters": [
                {
                    "label": label.describe(),
                    "degree": label.degree,
                    "values": [encode(v) for v in row],
                }
                for label, row in zip(self.labels, self.rows)
            ],
        }


def elem_json(g) -> list:
    a, beta = g
    return [list(a), beta]


@per_group
def character_table(group: D2Group) -> CharacterTable:
    """Build the full character table; row count always equals class count."""
    classes = conjugacy_classes(group)
    labels = tuple(character_labels(group))
    if len(labels) != len(classes):
        raise CharacterTableFailure(f"{len(labels)} characters but {len(classes)} classes")
    rows = tuple(tuple(char_value(group, label, cls) for cls in classes) for label in labels)
    table = CharacterTable(group.order, group.root_order, classes, labels, rows)
    sum_sq = sum(deg * deg for deg in table.degrees)
    if sum_sq != group.order:
        raise CharacterTableFailure(f"sum of squared degrees {sum_sq} != |G| = {group.order}")
    return table


@dataclass(frozen=True)
class OrthogonalityReport:
    first_max_deviation: float
    second_max_deviation: float


def verify_orthogonality(table: CharacterTable, tol: float = 1e-9) -> OrthogonalityReport:
    """Check both orthogonality relations numerically.

    First: (1/|G|) sum_u |Cl_u| chi_r(u) conj(chi_t(u)) = delta_rt.
    Second: sum_r chi_r(u) conj(chi_r(v)) = delta_uv |G| / |Cl_u|.
    """
    mat = table.complex_matrix
    sizes = np.array([c.size for c in table.classes], dtype=float)
    order = table.order

    gram = (mat * sizes) @ mat.conj().T / order
    dev1 = np.abs(gram - np.eye(len(table.labels)))
    first = float(dev1.max())
    if first >= tol:
        r, t = np.unravel_index(int(dev1.argmax()), dev1.shape)
        raise OrthogonalityFailure("first", (int(r), int(t)), first)

    col = mat.conj().T @ mat
    target = np.diag(order / sizes)
    dev2 = np.abs(col - target)
    second = float(dev2.max())
    if second >= tol:
        u, v = np.unravel_index(int(dev2.argmax()), dev2.shape)
        raise OrthogonalityFailure("second", (int(u), int(v)), second)

    return OrthogonalityReport(first_max_deviation=first, second_max_deviation=second)
