"""Finite opetopic sets: presheaves on a truncation of the opetope category.

An opetopic set is given by cell sets indexed by opetope shapes together
with an assignment, for every cell and every generating face embedding
into its shape, of a cell of the face's shape.  Functoriality is not free:
it holds exactly when the four relation squares commute on every cell,
which is what ``validate_oset`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .category import Face, MorphismClass, faces_of, relation_instances, slice_table
from .errors import Report, UnknownNameError
from .opetope import Opetope, print_key


@dataclass
class OpetopicSet:
    """Cell sets per opetope plus generating-face actions."""

    max_dim: int
    cells: dict[Opetope, list[str]] = field(default_factory=dict)
    faces: dict[tuple[Opetope, str, Face], str] = field(default_factory=dict)

    def support(self) -> list[Opetope]:
        return sorted((o for o in self.cells if self.cells[o]), key=print_key)

    def cells_at(self, shape: Opetope) -> list[str]:
        return list(self.cells.get(shape, ()))

    def add_cell(self, shape: Opetope, name: str) -> None:
        bucket = self.cells.setdefault(shape, [])
        if name in bucket:
            raise UnknownNameError(f"duplicate cell {name!r} at shape {shape}")
        bucket.append(name)

    def set_face(self, shape: Opetope, name: str, face: Face, value: str) -> None:
        self.faces[(shape, name, face)] = value

    def face(self, shape: Opetope, name: str, face: Face) -> str:
        try:
            return self.faces[(shape, name, face)]
        except KeyError:
            raise UnknownNameError(
                f"cell {name!r} at {shape} has no assigned face {face}"
            )

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


def validate_oset(X: OpetopicSet) -> Report:
    """Face-closure of the support plus every relation square on every cell."""
    report = Report()
    for shape in X.support():
        for name in X.cells_at(shape):
            for face in faces_of(shape):
                try:
                    value = X.face(shape, name, face)
                except UnknownNameError as error:
                    report.fail(str(error))
                    continue
                if value not in X.cells.get(face.domain, ()):
                    report.fail(
                        f"cell {name!r} at {shape}: face {face} maps to "
                        f"{value!r}, absent at shape {face.domain}"
                    )
    if not report.ok:
        return report
    for shape in X.support():
        squares = relation_instances(shape)
        for name in X.cells_at(shape):
            for square in squares:
                left = X.face(
                    square.left[1].codomain,
                    X.face(shape, name, square.left[0]),
                    square.left[1],
                )
                right = X.face(
                    square.right[1].codomain,
                    X.face(shape, name, square.right[0]),
                    square.right[1],
                )
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
        domain, name = domains[i], names[i]
        X.add_cell(domain, name)
        for face, j in zip(faces_of(domain), table.action[i]):
            X.set_face(domain, name, face, names[j])
    return X
