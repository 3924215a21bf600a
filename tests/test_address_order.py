"""Every tree keeps its node map in address order.

``Tree.of`` (and the constructor) sort a map once, ``flatten`` sorts the
tree it returns, and every other builder derives its map in order from an
ordered one: grafting, the grower, the parser, the shape of a generator,
relabelling by a morphism, peeling a generator off a cell.  Each test here
builds trees one of these ways and checks the order of their keys.
"""

import random

import pytest

from opetopic.formats import parse_opetope_file, parse_polygraph, print_polygraph
from opetopic.opetope import (
    OPETOPE_SIG,
    enumerate_opetopes,
    from_tree,
    iter_opetopes,
    opetopic_integer,
)
from opetopic.polygraph import Cell, CompositeShape, decompose
from opetopic.realization import nerve, realize_opetope, terminal_polygraph
from opetopic.trees import Tree, corolla, edge_color, flatten, graft, leaf_addresses

from conftest import PolygraphMorphism
from randomized import RandomPolygraphConfig, random_cell, random_polygraph


def in_order(tree: Tree) -> bool:
    if tree.is_unit:
        return tree.node_addresses() == ()
    keys = list(tree.nodes)
    return keys == sorted(keys) and tree.node_addresses() == tuple(keys)


def shuffled(rng: random.Random, nodes: dict) -> dict:
    items = list(nodes.items())
    rng.shuffle(items)
    return dict(items)


def random_opetope_tree(rng: random.Random, sources, size: int) -> Tree:
    """A tree of opetopes grown by grafting corollas at random leaves, in
    whatever order the leaves come up."""
    tree = corolla(rng.choice(sources))
    while tree.size < size and (leaves := leaf_addresses(OPETOPE_SIG, tree)):
        leaf = rng.choice(leaves)
        color = edge_color(OPETOPE_SIG, tree, leaf)
        fitting = [op for op in sources if op.target() is color]
        tree = graft(OPETOPE_SIG, tree, leaf, corolla(rng.choice(fitting)))
    return tree


@pytest.fixture(scope="module")
def polygraphs():
    rng = random.Random(2024)
    config = RandomPolygraphConfig(max_dim=4, max_cell_size=4, max_generators=30)
    return [random_polygraph(rng, config) for _ in range(25)]


def generator_trees(P):
    for dim in range(2, P.max_dim + 1):
        for name in P.generators(dim):
            yield dim, name, P.gen_data(dim, name).source_tree


class TestConstructors:
    def test_of_and_the_constructor_sort_shuffled_maps(self):
        rng = random.Random(7)
        for omega in enumerate_opetopes(4, 3):
            if omega.is_degenerate:
                continue
            for build in (Tree.of, lambda nodes: Tree(None, nodes)):
                tree = build(shuffled(rng, omega.tree.nodes))
                assert in_order(tree), str(omega)
                assert tree == omega.tree

    def test_opetopic_integers(self):
        for k in range(6):
            assert in_order(opetopic_integer(k).tree)


class TestGraftAndFlatten:
    def test_graft_at_every_leaf(self):
        integers = [opetopic_integer(k) for k in range(3)]
        for omega in enumerate_opetopes(3, 3):
            if omega.is_degenerate:
                continue
            for leaf in omega.leaf_addresses():
                for scion in integers:
                    grafted = graft(OPETOPE_SIG, omega.tree, leaf, corolla(scion))
                    assert in_order(grafted), (str(omega), str(leaf))

    def test_random_grafts_flatten_and_targets(self):
        rng = random.Random(11)
        sources = enumerate_opetopes(3, 2)
        for _ in range(300):
            tree = random_opetope_tree(rng, sources, rng.randint(2, 6))
            assert in_order(tree)
            result = flatten(OPETOPE_SIG, tree)
            assert in_order(result.tree)
            omega = from_tree(tree)
            assert in_order(omega.target().tree)

    @pytest.mark.parametrize("dim, bound", [(3, 3), (4, 3), (5, 2)])
    def test_flatten_of_enumerated_trees(self, dim, bound):
        for omega in enumerate_opetopes(dim, bound):
            assert in_order(omega.tree)
            assert in_order(flatten(OPETOPE_SIG, omega.tree).tree), str(omega)

    def test_cells_sources_and_decompositions(self, polygraphs):
        rng = random.Random(5)
        for P in polygraphs:
            for dim in range(2, P.max_dim + 1):
                for _ in range(10):
                    cell = random_cell(rng, P, dim, 5)
                    if cell is None:
                        continue
                    assert in_order(cell.tree)
                    assert in_order(P.source_cell(cell).tree)
                    shape = decompose(cell)
                    if isinstance(shape, CompositeShape):
                        assert in_order(shape.rest.tree)
                        recomposed = P.compose_at(
                            shape.rest, shape.leaf, P.generator_cell(dim, shape.generator)
                        )
                        assert recomposed == cell


class TestDerivedTrees:
    def test_map_tree(self, polygraphs):
        rng = random.Random(3)
        for P in polygraphs:
            maps = {d: {g: g for g in P.generators(d)} for d in range(P.max_dim + 1)}
            morphism = PolygraphMorphism(P, P, maps)
            for dim, _, tree in generator_trees(P):
                if tree.is_unit:
                    continue
                relabelled = morphism.map_tree(dim - 1, Tree.of(shuffled(rng, tree.nodes)))
                assert in_order(relabelled)
                assert relabelled == tree

    def test_shapes_and_generator_trees(self, polygraphs):
        for P in polygraphs:
            for _, _, tree in generator_trees(P):
                assert in_order(tree)
            # every shape of the nerve is the shape of some generator
            shapes = nerve(P, P.max_dim).cells
            assert all(in_order(shape.tree) for shape in shapes if shape.dim >= 2)

    def test_realized_generator_trees(self):
        for omega in enumerate_opetopes(4, 2):
            P = realize_opetope(omega)
            for _, _, tree in generator_trees(P):
                assert in_order(tree), str(omega)


class TestParsedTrees:
    def test_opetope_bindings_in_any_order(self):
        rng = random.Random(13)
        sources = enumerate_opetopes(3, 2)
        texts = []
        for _ in range(100):
            omega = from_tree(random_opetope_tree(rng, sources, rng.randint(2, 7)))
            items = list(omega.tree.nodes.items())
            rng.shuffle(items)
            body = ", ".join(f"{address} <- {op}" for address, op in items)
            texts.append((str(omega), f"opetope x = {{{body}}}\n"))
        # the opetopes built here are dropped, so parsing builds them anew
        del omega
        for canonical, text in texts:
            parsed = parse_opetope_file(text)["x"]
            assert in_order(parsed.tree) and str(parsed) == canonical

    def test_cell_bindings_in_any_order(self, polygraphs):
        rng = random.Random(17)
        for P in polygraphs:
            lines = []
            for line in print_polygraph(P).splitlines():
                head, sep, rest = line.partition(" : {")
                if sep:
                    body, _, target = rest.rpartition("} -> ")
                    bindings = body.split(", ")
                    rng.shuffle(bindings)
                    line = f"{head} : {{{', '.join(bindings)}}} -> {target}"
                lines.append(line)
            Q = parse_polygraph("\n".join(lines) + "\n")
            for _, _, tree in generator_trees(Q):
                assert in_order(tree)
            assert print_polygraph(Q) == print_polygraph(P)


class TestGrownTrees:
    def test_iter_opetopes(self):
        count = 0
        for omega in iter_opetopes(4, 3):
            assert in_order(omega.tree), str(omega)
            count += 1
        assert count == len(enumerate_opetopes(4, 3))

    def test_terminal_polygraph_cells(self):
        P = terminal_polygraph(4, 3)
        trees = list(generator_trees(P))
        assert len(trees) > 1000
        for dim, name, tree in trees:
            assert in_order(tree), (dim, name)
            assert dim == 2 or in_order(P.source_cell(Cell(dim - 1, tree)).tree)
