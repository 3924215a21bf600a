from functools import cache

import pytest

from opetopic.address import EMPTY, Address, parse_address
from opetopic.category import (
    Face,
    RelationInstance,
    compose,
    faces_of,
    hom,
    identity,
    morphism,
    relation_instances,
    slice_classes,
    source_index,
)
from opetopic.errors import CompositionError, OpetopicError
from opetopic.opetope import (
    Opetope,
    arrow,
    degenerate,
    enumerate_opetopes,
    opetopic_integer,
    point,
)

STAR = Address((EMPTY,))


def face_key(face):
    """Target before sources, sources by address."""
    if face.address is None:
        return (0, (), str(face.codomain))
    return (1, tuple(face.address), str(face.codomain))


def kinds(omega):
    out = {}
    for instance in relation_instances(omega):
        out[instance.kind] = out.get(instance.kind, 0) + 1
    return out


class TestFaces:
    def test_faces_of_arrow(self):
        faces = faces_of(arrow())
        assert [str(f) for f in faces] == ["t", "s[]"]
        assert faces[0].domain == point()
        assert faces[1].domain == point()

    def test_faces_of_integer(self):
        assert [str(f) for f in faces_of(opetopic_integer(2))] == [
            "t",
            "s[]",
            "s[*]",
        ]

    def test_faces_of_degenerate(self):
        assert [str(f) for f in faces_of(opetopic_integer(0))] == ["t"]

    def test_faces_of_point(self):
        assert faces_of(point()) == ()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_faces_are_built_once_and_equal_fresh_ones(self, dim):
        for omega in enumerate_opetopes(dim, 2):
            shared = faces_of(omega)
            assert faces_of(omega) is shared
            sources = tuple(Face(omega, p) for p in omega.node_addresses())
            fresh = (Face(omega),) + sources
            assert fresh == shared
            for new, old in zip(fresh, shared):
                assert new is not old and hash(new) == hash(old)
                assert {new: 1}[old] == 1

    @pytest.mark.parametrize(
        "codomain, address, message",
        [
            (point(), None, "the point has no target embedding"),
            (arrow(), STAR, "[*] is not a node address of arrow"),
            (
                opetopic_integer(2),
                parse_address("[**]"),
                "[**] is not a node address of {[] <- arrow, [*] <- arrow}",
            ),
            (point(), EMPTY, "[] is not a node address of point"),
            (degenerate(point()), EMPTY, "[] is not a node address of <<point>>"),
        ],
    )
    def test_face_rejects_what_its_codomain_lacks(self, codomain, address, message):
        with pytest.raises(CompositionError) as info:
            Face(codomain, address)
        assert str(info.value) == message

    @pytest.mark.parametrize("omega", [point(), arrow(), degenerate(arrow())])
    def test_source_index_rejects_what_its_opetope_lacks(self, omega):
        with pytest.raises(CompositionError, match=r"^\[\*\] is not a node address of "):
            source_index(omega, STAR)

    def test_source_index_is_the_position_in_faces_of(self):
        for omega in enumerate_opetopes(4, 2) + enumerate_opetopes(3, 3):
            faces = faces_of(omega)
            for k, face in enumerate(faces[1:], 1):
                assert source_index(omega, face.address) == k
                assert faces.index(Face(omega, face.address)) == k

    def test_faces_of_different_opetopes_differ(self):
        # equal addresses into different codomains are different faces
        assert Face(arrow(), EMPTY) != Face(opetopic_integer(1), EMPTY)
        assert Face(arrow()) != Face(opetopic_integer(0))


class TestRelationInstances:
    def test_degenerate_has_one_degen_square(self):
        assert kinds(opetopic_integer(0)) == {"degen": 1}

    def test_counts_follow_the_definition(self):
        # one inner square per non-root node, one root-globularity square,
        # one leaf-globularity square per leaf
        assert kinds(opetopic_integer(1)) == {"glob1": 1, "glob2": 1}
        assert kinds(opetopic_integer(2)) == {
            "glob1": 1,
            "inner": 1,
            "glob2": 1,
        }

    def test_counts_on_enumerated(self):
        for omega in enumerate_opetopes(3, 3):
            expected = {}
            if omega.is_degenerate:
                expected["degen"] = 1
            else:
                expected["glob1"] = 1
                inner = len(omega.node_addresses()) - 1
                if inner:
                    expected["inner"] = inner
                leaves = len(omega.leaf_addresses())
                if leaves:
                    expected["glob2"] = leaves
            assert kinds(omega) == expected

    def test_sides_share_domains(self):
        for omega in enumerate_opetopes(3, 3):
            for instance in relation_instances(omega):
                assert instance.left[1].domain == instance.right[1].domain

    def test_squares_use_the_shared_faces(self):
        for omega in enumerate_opetopes(3, 3):
            for instance in relation_instances(omega):
                for face in instance.left + instance.right:
                    assert any(face is shared for shared in faces_of(face.codomain))

    def test_sides_with_unequal_domains_are_rejected(self):
        omega = opetopic_integer(2)
        left = (Face(omega), Face(arrow()))
        right = (Face(omega, EMPTY), Face(omega))
        with pytest.raises(OpetopicError) as info:
            RelationInstance("glob1", left, right)
        assert str(info.value) == (
            f"relation glob1 of {omega} has unequal domains; the face identities are broken"
        )

    def test_readdressing_off_the_target_is_a_composition_error(self):
        # a private twin, unknown to the intern table, whose one leaf is
        # sent to an address that its target lacks
        omega = opetopic_integer(1)
        twin = Opetope(2, omega.tree)
        twin._leaves = omega.leaf_addresses()
        twin._boundary = (omega.target(), (STAR,))
        with pytest.raises(CompositionError, match=r"\[\*\] is not a node address of arrow"):
            relation_instances(twin)


class TestEquality:
    def test_glob1(self):
        omega = opetopic_integer(2)
        target = omega.target()
        left = (Face(omega), Face(target))
        right = (Face(omega, EMPTY), Face(omega.source_at(EMPTY)))
        assert words_equal(left, right)

    def test_degen(self):
        omega = opetopic_integer(0)
        target = omega.target()
        assert words_equal(
            (Face(omega), Face(target)),
            (Face(omega), Face(target, EMPTY)),
        )

    def test_glob2(self):
        omega = opetopic_integer(2)
        leaf = parse_address("[**]")
        rho = omega.readdress()
        left = (Face(omega, STAR), Face(omega.source_at(STAR), EMPTY))
        right = (Face(omega), Face(omega.target(), rho[leaf]))
        assert words_equal(left, right)

    def test_canonical_member_is_least(self):
        for omega in enumerate_opetopes(3, 2):
            for classes in slice_classes(omega).values():
                for cls in classes:
                    keyed = sorted(
                        members(cls),
                        key=lambda w: tuple(face_key(f) for f in w),
                    )
                    assert cls.word == keyed[0]


class TestComposition:
    def test_identity_unit(self):
        omega = opetopic_integer(2)
        f = hom(arrow(), omega)[0]
        assert compose(f, identity(f.domain)) == f
        assert compose(identity(omega), f) == f

    def test_degen_composites_agree(self):
        omega = opetopic_integer(0)
        target = omega.target()
        left = compose(
            morphism(omega, (Face(omega),)), morphism(target, (Face(target),))
        )
        right = compose(
            morphism(omega, (Face(omega),)),
            morphism(target, (Face(target, EMPTY),)),
        )
        assert left == right

    def test_mismatch_rejected(self):
        with pytest.raises(CompositionError):
            compose(
                morphism(opetopic_integer(2), (Face(opetopic_integer(2)),)),
                morphism(opetopic_integer(0), (Face(opetopic_integer(0)),)),
            )

    def test_associative(self):
        from opetopic.opetope import from_tree
        from opetopic.trees import corolla

        omega = from_tree(corolla(opetopic_integer(3)))
        f = morphism(omega, (Face(omega),))
        g = morphism(f.domain, (Face(f.domain),))
        h = morphism(g.domain, (Face(g.domain),))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_well_defined_on_representatives(self):
        from opetopic.opetope import from_tree
        from opetopic.trees import corolla

        omega = from_tree(corolla(opetopic_integer(2)))
        for outer in hom(arrow(), omega):
            for inner in hom(point(), outer.domain):
                expected = compose(outer, inner)
                for outer_word in members(outer):
                    for inner_word in members(inner):
                        assert (
                            morphism(omega, outer_word + inner_word) == expected
                        )


def union_find_hom_counts(omega):
    """Independent brute-force quotient: all words at once, one global
    union-find, merging along every relation square at every position."""
    words = [()]
    frontier = [()]
    while frontier:
        word = frontier.pop()
        cod = word[-1].domain if word else omega
        for face in faces_of(cod):
            extended = word + (face,)
            words.append(extended)
            frontier.append(extended)
    index = {word: k for k, word in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for word in words:
        for position in range(len(word) - 1):
            pair = (word[position], word[position + 1])
            for instance in relation_instances(pair[0].codomain):
                other = None
                if instance.left == pair:
                    other = instance.right
                elif instance.right == pair:
                    other = instance.left
                if other is not None:
                    rewritten = (
                        word[:position] + other + word[position + 2 :]
                    )
                    parent[find(index[word])] = find(index[rewritten])
    classes = {}
    for word, k in index.items():
        domain = word[-1].domain if word else omega
        classes.setdefault(domain, set()).add(find(k))
    return {domain: len(roots) for domain, roots in classes.items()}


def all_words_into(omega):
    """Every face word into omega, by the enumeration of the oracle above."""
    words = [()]
    frontier = [()]
    while frontier:
        word = frontier.pop()
        cod = word[-1].domain if word else omega
        for face in faces_of(cod):
            extended = word + (face,)
            words.append(extended)
            frontier.append(extended)
    return words


@cache
def word_classes(omega):
    """Brute-force quotient of every word into omega by the relation
    squares at every position: each word mapped to its whole class."""
    words = all_words_into(omega)
    index = {word: k for k, word in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for word in words:
        for position in range(len(word) - 1):
            pair = (word[position], word[position + 1])
            for instance in relation_instances(pair[0].codomain):
                for side, other in (
                    (instance.left, instance.right),
                    (instance.right, instance.left),
                ):
                    if side == pair:
                        rewritten = word[:position] + other + word[position + 2 :]
                        parent[find(index[word])] = find(index[rewritten])
    blocks = {}
    for word, k in index.items():
        blocks.setdefault(find(k), set()).add(word)
    return {word: frozenset(blocks[find(k)]) for word, k in index.items()}


def members(cls):
    """Every face word in a morphism class, found without the class table."""
    return word_classes(cls.codomain)[cls.word]


def words_equal(first, second):
    """Whether two nonempty words into the same opetope are related."""
    return second in word_classes(first[0].codomain)[first]


def edge_count_oracle(omega, phi):
    """Structural count for codimension 2: classes correspond to the edges
    of the tree, counted by their decorating opetope."""
    if omega.is_degenerate:
        colors = [omega.shell]
    else:
        colors = [omega.source_at(EMPTY).target()]
        for address in omega.node_addresses():
            if address != EMPTY:
                colors.append(omega.source_at(address).target())
        for leaf in omega.leaf_addresses():
            p, q = leaf.parent, leaf.last
            colors.append(omega.source_at(p).source_at(q))
    return sum(1 for color in colors if color == phi)


class TestHom:
    def test_point_into_arrow(self):
        assert len(hom(point(), arrow())) == 2

    def test_point_into_degenerate(self):
        assert len(hom(point(), opetopic_integer(0))) == 1

    def test_integers(self):
        for k in range(1, 6):
            omega = opetopic_integer(k)
            assert len(hom(point(), omega)) == k + 1
            assert len(hom(arrow(), omega)) == k + 1

    def test_no_morphisms_downward(self):
        assert hom(opetopic_integer(2), arrow()) == []

    def test_identity_is_the_only_endomorphism(self):
        for omega in enumerate_opetopes(3, 2):
            endos = hom(omega, omega)
            assert len(endos) == 1 and endos[0].is_identity

    def test_matches_union_find_oracle(self):
        for dim in (3, 4, 5):
            for omega in enumerate_opetopes(dim, 2):
                oracle = union_find_hom_counts(omega)
                mine = {
                    domain: len(hom(domain, omega))
                    for domain in oracle
                }
                assert mine == oracle

    def test_codimension_two_matches_edge_count(self):
        for omega in enumerate_opetopes(3, 3):
            for phi in enumerate_opetopes(1, 3):
                assert len(hom(phi, omega)) == edge_count_oracle(omega, phi)
        for k in range(5):
            omega = opetopic_integer(k)
            assert len(hom(point(), omega)) == edge_count_oracle(omega, point())

    def test_deterministic_order(self):
        omega = opetopic_integer(3)
        assert [str(c) for c in hom(point(), omega)] == [
            str(c) for c in hom(point(), omega)
        ]
