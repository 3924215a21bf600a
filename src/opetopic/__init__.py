"""Opetopes as decorated trees, their category, many-to-one polygraphs,
and the nerve/realization equivalence, all on finite data."""

from .address import EMPTY, Address, parse_address
from .category import Face, MorphismClass, compose, faces_of, hom, identity
from .errors import OpetopicError, Report
from .opetope import (
    Opetope,
    arrow,
    check_identities,
    degenerate,
    enumerate_opetopes,
    iter_opetopes,
    node_map,
    opetopic_integer,
    point,
)
from .oset import OpetopicSet, validate_oset, yoneda
from .polygraph import Cell, MtoPolygraph, count, decompose
from .realization import (
    ShapeResult,
    boundary_polygraph,
    cells_of_shape,
    counit_check,
    nerve,
    realize_opetope,
    realize_oset,
    shape_of,
    terminal_polygraph,
    unit_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
