"""Finite opetopic sets: presheaves on a truncation of the opetope category.

An opetopic set is given by cell sets indexed by opetope shapes together
with an assignment, for every cell and every generating face embedding
into its shape, of a cell of the face's shape.  Each cell keeps these as
one tuple of cell names in ``faces_of`` order, target first.
Functoriality is not free: it holds exactly when the four relation squares
commute on every cell, which is what ``validate_oset`` checks.
"""

from __future__ import annotations

from collections.abc import Sequence

from .category import Face, MorphismClass, faces_of, relation_instances, slice_table, source_index
from .errors import CompositionError, OpetopicError, Report, UnknownNameError, Value
from .opetope import Opetope, print_key


class OpetopicSet(Value):
    """Cell sets per opetope: ``cells[shape][name]`` is the cell's faces,
    the image of each face of ``faces_of(shape)`` in turn."""

    __slots__ = ("max_dim", "cells")
    __hash__ = None

    def __init__(
        self, max_dim: int, cells: dict[Opetope, dict[str, tuple[str, ...]]] | None = None
    ):
        self.max_dim, self.cells = max_dim, {} if cells is None else cells

    def support(self) -> list[Opetope]:
        return sorted((o for o in self.cells if self.cells[o]), key=print_key)

    def cells_at(self, shape: Opetope) -> list[str]:
        return list(self.cells.get(shape, ()))

    def add_cell(self, shape: Opetope, name: str, faces: Sequence[str] = ()) -> None:
        expected = len(faces_of(shape))
        if len(faces) != expected:
            raise OpetopicError(
                f"cell {name!r} at {shape}: {len(faces)} faces given, "
                f"its shape has {expected}"
            )
        bucket = self.cells.setdefault(shape, {})
        if name in bucket:
            raise UnknownNameError(f"duplicate cell {name!r} at shape {shape}")
        bucket[name] = tuple(faces)

    def face(self, shape: Opetope, name: str, face: Face) -> str:
        """The cell that ``face``, a face of ``shape``, gives cell ``name``."""
        faces = self.cells.get(shape, {}).get(name)
        if faces is None:
            raise UnknownNameError(f"no cell {name!r} at shape {shape}")
        if face.codomain is not shape:
            raise CompositionError(f"face {face} of {face.codomain} is not a face of {shape}")
        return faces[_index(face)]

    def apply(self, cls: MorphismClass, name: str) -> str:
        """Contravariant action of a whole morphism class on a cell.

        Folds the generating faces along the canonical representative; on
        a validated set the result does not depend on the representative.
        """
        shape = cls.codomain
        if name not in self.cells.get(shape, ()):
            raise UnknownNameError(f"no cell {name!r} at shape {shape}")
        current = name
        for face in cls.word:
            current = self.face(face.codomain, current, face)
        return current


def _index(face: Face) -> int:
    """The position of ``face`` in ``faces_of`` of its codomain."""
    return 0 if face.address is None else source_index(face.codomain, face.address)


def _position(side: tuple[Face, Face]):
    """A square's side as (shape, position of outer face, of inner face);
    the inner face's codomain is the outer face's domain, not computed."""
    outer, inner = side
    return inner.codomain, _index(outer), _index(inner)


def validate_oset(X: OpetopicSet) -> Report:
    """Face-closure of the support plus every relation square on every cell."""
    report = Report()
    for shape in X.support():
        faces = faces_of(shape)
        for name, values in X.cells[shape].items():
            for face, value in zip(faces, values):
                if value not in X.cells.get(face.domain, ()):
                    report.fail(
                        f"cell {name!r} at {shape}: face {face} maps to "
                        f"{value!r}, absent at shape {face.domain}"
                    )
    if not report.ok:
        return report
    for shape in X.support():
        squares = [
            (square, _position(square.left), _position(square.right))
            for square in relation_instances(shape)
        ]
        for name, values in X.cells[shape].items():
            for square, (d1, k1, m1), (d2, k2, m2) in squares:
                left = X.cells[d1][values[k1]][m1]
                right = X.cells[d2][values[k2]][m2]
                if left != right:
                    report.fail(
                        f"cell {name!r} at {shape}: relation {square.kind} "
                        f"broken: {square.left[1]}.{square.left[0]} gives "
                        f"{left!r} but {square.right[1]}.{square.right[0]} "
                        f"gives {right!r}"
                    )
    return report


def yoneda(omega: Opetope, max_dim: int) -> OpetopicSet:
    """The representable opetopic set of an opetope.

    Cells at a shape are the morphism classes into ``omega``, named by
    their canonical words, in order of dimension and then of class; faces
    act by precomposition.  Names and precompositions are read from the
    slice table of ``omega``.
    """
    if omega.dim > max_dim:
        raise ValueError(f"representable of a {omega.dim}-opetope needs max_dim >= {omega.dim}")
    X = OpetopicSet(max_dim=max_dim)
    table = slice_table(omega)
    names, domains = table.names, table.domains
    for i in sorted(range(len(domains)), key=lambda i: domains[i].dim):
        X.add_cell(domains[i], names[i], [names[j] for j in table.action[i]])
    return X
