"""Value semantics of the package's records: equality within one class,
hashing, keyword construction and repr."""

import subprocess
import sys
from pathlib import Path

import pytest

from opetopic.address import EMPTY
from opetopic.category import (
    Face,
    MorphismClass,
    RelationInstance,
    faces_of,
    relation_instances,
)
from opetopic.errors import Report
from opetopic.opetope import arrow, opetopic_integer
from opetopic.oset import OpetopicSet, yoneda
from opetopic.polygraph import (
    Cell,
    CompositeShape,
    GeneratorShape,
    GenN,
    IdentityShape,
    MtoPolygraph,
)
from opetopic.realization import ShapeResult
from opetopic.trees import FlattenResult, Tree, corolla

from conftest import PolygraphMorphism

SRC = Path(__file__).resolve().parent.parent / "src"
O2 = opetopic_integer(2)
POINT = MtoPolygraph()
POINT.add_point("p")


def square():
    return relation_instances(O2)[0]


# each case names the fields and builds two equal records, one
# positionally and one by keyword
CASES = {
    "Report": (
        ("failures",),
        lambda: Report(["x"]),
        lambda: Report(failures=["x"]),
    ),
    "FlattenResult": (
        ("tree", "readdress"),
        lambda: FlattenResult(corolla("a"), {EMPTY: EMPTY}),
        lambda: FlattenResult(tree=corolla("a"), readdress={EMPTY: EMPTY}),
    ),
    "Face": (
        ("codomain", "address"),
        lambda: faces_of(O2)[1],
        lambda: Face(codomain=O2, address=EMPTY),
    ),
    "RelationInstance": (
        ("kind", "left", "right"),
        square,
        lambda: RelationInstance(kind=square().kind, left=square().left, right=square().right),
    ),
    "MorphismClass": (
        ("codomain", "index"),
        lambda: MorphismClass(O2, 1),
        lambda: MorphismClass(codomain=O2, index=1),
    ),
    "OpetopicSet": (
        ("max_dim", "cells"),
        lambda: yoneda(arrow(), 1),
        lambda: OpetopicSet(max_dim=1, cells=yoneda(arrow(), 1).cells),
    ),
    "GenN": (
        ("source_tree", "target"),
        lambda: GenN(corolla("f"), "g"),
        lambda: GenN(source_tree=corolla("f"), target="g"),
    ),
    "Cell": (
        ("dim", "tree"),
        lambda: Cell(2, corolla("m")),
        lambda: Cell(dim=2, tree=Tree.of({EMPTY: "m"})),
    ),
    "IdentityShape": (
        ("generator",),
        lambda: IdentityShape("f"),
        lambda: IdentityShape(generator="f"),
    ),
    "GeneratorShape": (
        ("generator",),
        lambda: GeneratorShape("f"),
        lambda: GeneratorShape(generator="f"),
    ),
    "CompositeShape": (
        ("rest", "leaf", "generator"),
        lambda: CompositeShape(Cell(2, corolla("m")), EMPTY, "m"),
        lambda: CompositeShape(rest=Cell(2, corolla("m")), leaf=EMPTY, generator="m"),
    ),
    "PolygraphMorphism": (
        ("source", "target", "maps"),
        lambda: PolygraphMorphism(POINT, POINT, {0: {"p": "p"}}),
        lambda: PolygraphMorphism(source=POINT, target=POINT, maps={0: {"p": "p"}}),
    ),
    "ShapeResult": (
        ("shape", "induced"),
        lambda: ShapeResult(O2, {2: {"id": "m"}}),
        lambda: ShapeResult(shape=O2, induced={2: {"id": "m"}}),
    ),
}
UNHASHABLE = {"Report", "OpetopicSet"}
# hashable classes whose fields include a dict, so hashing an instance raises
DICT_FIELDS = {"FlattenResult", "PolygraphMorphism", "ShapeResult"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_records_of_one_class(name):
    fields, positional, keyword = CASES[name]
    a, b = positional(), keyword()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    assert repr(a) == repr(b)
    shown = ", ".join(f"{field}={getattr(a, field)!r}" for field in fields)
    assert repr(a) == f"{name}({shown})"
    if name in UNHASHABLE:
        assert type(a).__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
    elif name in DICT_FIELDS:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and {a: 1}[b] == 1


def test_records_equal_only_within_their_class():
    assert IdentityShape("f") != GeneratorShape("f")
    records = {name: positional() for name, (_, positional, _) in CASES.items()}
    for name, a in records.items():
        for other, b in records.items():
            assert (a == b) == (name == other)
    assert Cell(2, corolla("m")) != Cell(3, corolla("m"))
    assert Face(O2) != faces_of(O2)[1]


def test_importing_the_cli_loads_no_dataclasses():
    # cold start: dataclasses pulls in inspect, ast and dis and execs
    # generated code for every class it decorates
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import opetopic.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
