import pytest

from opetopic.address import EMPTY
from opetopic.category import (
    Face,
    compose,
    faces_of,
    hom,
    identity,
    morphism,
    slice_classes,
)
from opetopic.errors import CompositionError, OpetopicError, UnknownNameError
from opetopic.formats import print_oset
from opetopic.opetope import arrow, enumerate_opetopes, opetopic_integer, point
from opetopic.oset import OpetopicSet, validate_oset, yoneda
from test_category import members

O1 = opetopic_integer(1)
O2 = opetopic_integer(2)


def sizes(X):
    return {str(shape): len(X.cells_at(shape)) for shape in X.support()}


class TestYoneda:
    def test_arrow(self):
        X = yoneda(arrow(), 1)
        assert sizes(X) == {"point": 2, "arrow": 1}
        assert validate_oset(X).ok

    def test_degenerate(self):
        X = yoneda(opetopic_integer(0), 2)
        assert sizes(X) == {"point": 1, "arrow": 1, "<<point>>": 1}
        assert validate_oset(X).ok

    def test_below_the_dimension_of_the_opetope(self):
        with pytest.raises(ValueError) as info:
            yoneda(opetopic_integer(2), 1)
        assert str(info.value) == "representable of a 2-opetope needs max_dim >= 2"

    def test_two_cell(self):
        X = yoneda(O2, 2)
        assert sizes(X) == {
            "point": 3,
            "arrow": 3,
            "{[] <- arrow, [*] <- arrow}": 1,
        }
        assert validate_oset(X).ok

    def test_counts_equal_hom(self):
        for omega in [arrow(), opetopic_integer(0), O2, opetopic_integer(3)]:
            X = yoneda(omega, omega.dim)
            for shape in X.support():
                assert len(X.cells_at(shape)) == len(hom(shape, omega))

    def test_action_is_composition(self):
        X = yoneda(O2, 2)
        top = str(identity(O2))
        for face in [Face(O2), Face(O2, EMPTY)]:
            assert X.face(O2, top, face) == str(morphism(O2, (face,)))


def oracle_yoneda(omega, max_dim):
    """The representable built class by class: names joined from the least
    word, faces found by composing with a one-face morphism."""
    X = OpetopicSet(max_dim=max_dim)
    classes = slice_classes(omega)
    names = {
        cls.index: ".".join(str(face) for face in reversed(cls.word)) or "id"
        for group in classes.values()
        for cls in group
    }
    for dim in sorted(classes):
        for cls in classes[dim]:
            images = [
                compose(cls, morphism(cls.domain, (face,)))
                for face in faces_of(cls.domain)
            ]
            X.add_cell(cls.domain, names[cls.index], [names[i.index] for i in images])
    return X


class TestYonedaOracle:
    def test_prints_match_oracle(self):
        # every opetope of dims 0-3 at bound 3 and of dims 4-5 at bound 2
        corpus = [o for dim in range(4) for o in enumerate_opetopes(dim, 3)]
        corpus += [o for dim in (4, 5) for o in enumerate_opetopes(dim, 2)]
        assert len(corpus) == 339
        for omega in corpus:
            expected = print_oset(oracle_yoneda(omega, omega.dim))
            assert print_oset(yoneda(omega, omega.dim)) == expected, str(omega)

    def test_class_names_match_words(self):
        for omega in [arrow(), opetopic_integer(0), O2, opetopic_integer(3)]:
            for group in slice_classes(omega).values():
                for cls in group:
                    word = ".".join(str(face) for face in reversed(cls.word))
                    assert str(cls) == (word or "id")


class TestValidation:
    def test_empty_passes(self):
        assert validate_oset(OpetopicSet(max_dim=2)).ok

    def test_missing_face_cell_reported(self):
        X = OpetopicSet(max_dim=1)
        X.add_cell(point(), "p")
        X.add_cell(arrow(), "f", ("p", "ghost"))
        report = validate_oset(X)
        assert not report.ok
        assert any("ghost" in failure for failure in report.failures)

    def test_root_globularity_square_violation(self):
        # two arrows with different targets assigned as t and s[] of a
        # 2-cell: the square comparing their endpoints must fail
        X = OpetopicSet(max_dim=2)
        for name in ("x", "y"):
            X.add_cell(point(), name)
        X.add_cell(arrow(), "f", ("x", "y"))
        X.add_cell(arrow(), "g", ("y", "x"))
        X.add_cell(O1, "c", ("f", "g"))
        report = validate_oset(X)
        assert not report.ok
        assert any("glob1" in failure for failure in report.failures)

    def test_fixing_the_square_passes(self):
        X = OpetopicSet(max_dim=2)
        for name in ("x", "y"):
            X.add_cell(point(), name)
        for name in ("f", "g"):
            X.add_cell(arrow(), name, ("y", "x"))
        X.add_cell(O1, "c", ("f", "g"))
        assert validate_oset(X).ok


class TestApply:
    def test_identity(self):
        X = yoneda(O2, 2)
        top = str(identity(O2))
        assert X.apply(identity(O2), top) == top

    def test_representative_independence(self):
        X = yoneda(O2, 2)
        top = str(identity(O2))
        for cls in hom(point(), O2):
            results = set()
            for word in members(cls):
                current = top
                for face in word:
                    current = X.face(face.codomain, current, face)
                results.add(current)
            assert len(results) == 1
            assert results.pop() == X.apply(cls, top)

    def test_unknown_cell(self):
        X = yoneda(O2, 2)
        with pytest.raises(UnknownNameError):
            X.apply(identity(O2), "nope")

    def test_functoriality_on_yoneda(self):
        X = yoneda(O2, 2)
        top = str(identity(O2))
        outer = hom(arrow(), O2)[0]
        for inner in hom(point(), outer.domain):
            composite = compose(outer, inner)
            assert X.apply(composite, top) == X.apply(
                inner, X.apply(outer, top)
            )


class TestFaceStore:
    def test_cell_keeps_its_faces_in_faces_of_order(self):
        X = yoneda(O2, 2)
        top = str(identity(O2))
        expected = tuple(X.face(O2, top, face) for face in faces_of(O2))
        assert X.cells[O2][top] == expected == ("t", "s[]", "s[*]")

    @pytest.mark.parametrize("faces", [(), ("x",), ("x", "y", "z")])
    def test_add_cell_rejects_a_tuple_of_the_wrong_length(self, faces):
        X = OpetopicSet(max_dim=1)
        with pytest.raises(OpetopicError) as info:
            X.add_cell(arrow(), "f", faces)
        message = str(info.value)
        assert "'f'" in message and "arrow" in message
        assert f"{len(faces)} faces given" in message and "has 2" in message
        assert X.cells_at(arrow()) == []

    def test_add_cell_of_a_point_takes_no_faces(self):
        X = OpetopicSet(max_dim=0)
        with pytest.raises(OpetopicError, match="1 faces given, its shape has 0"):
            X.add_cell(point(), "p", ("q",))

    def test_face_of_an_unknown_cell_or_shape(self):
        X = yoneda(O2, 2)
        with pytest.raises(UnknownNameError, match="no cell 'nope'"):
            X.face(O2, "nope", Face(O2))
        with pytest.raises(UnknownNameError, match="no cell 'id'"):
            X.face(opetopic_integer(3), "id", Face(opetopic_integer(3)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_face_of_another_opetope_is_rejected(self, k):
        X = yoneda(O2, 2)
        face = faces_of(opetopic_integer(3))[k]
        with pytest.raises(CompositionError) as info:
            X.face(O2, str(identity(O2)), face)
        assert str(info.value) == f"face {face} of {face.codomain} is not a face of {O2}"

    def test_apply_on_an_unknown_shape(self):
        X = yoneda(O2, 2)
        omega = opetopic_integer(3)
        with pytest.raises(UnknownNameError, match="no cell 'id'"):
            X.apply(identity(omega), "id")
