"""Per-layer numbers from a cProfile run, aggregated by module.

The layers are the modules of ``src/opetopic``.  A layer's self time is
the sum of ``tottime`` over the functions defined in its module; counts
are ``ncalls`` and entry-point times ``cumtime`` of named functions.
Functions are found by attribute lookup, so a metric whose functions no
longer exist after a refactor is reported as absent (value 0) instead of
failing the run.  Time spent outside ``src/opetopic`` (builtins,
dataclass-generated methods, the standard library), and in modules that
are not a listed layer, is ``other.self_s``.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

LAYERS = (
    "address", "trees", "opetope", "category", "polygraph",
    "oset", "realization", "formats", "cli",
)

# metric -> "module:qualname" of the functions whose ncalls are summed
CALLS = {
    "address.new_calls": ["address:Address.__new__"],
    "address.parse_calls": ["address:parse_address", "formats:Scanner.address"],
    "trees.substitute_calls": ["trees:_substitute_core"],
    "trees.flatten_calls": ["trees:flatten"],
    "trees.graft_calls": ["trees:graft"],
    "opetope.make_calls": ["opetope:Opetope.__init__"],
    "opetope.target_calls": ["opetope:Opetope.target"],
    "polygraph.source_cell_calls": ["polygraph:MtoPolygraph.source_cell"],
    "realization.shape_opetope_calls": ["realization:shape_opetope"],
}

# metric -> functions whose cumtime is summed; none calls another
CUMULATIVE = {
    "opetope.check_identities_s": ["opetope:check_identities"],
    "category.hom_s": ["category:hom"],
    "category.slice_s": ["category:slice_classes"],
    "polygraph.validate_s": ["polygraph:MtoPolygraph.validate"],
    "oset.validate_s": ["oset:validate_oset"],
    "oset.yoneda_s": ["oset:yoneda"],
    "realization.realize_s": ["realization:realize_opetope", "realization:realize_oset"],
    "realization.nerve_s": ["realization:nerve"],
    "realization.unit_s": ["realization:unit_check"],
    "realization.counit_s": ["realization:counit_check"],
    "formats.parse_s": [
        "formats:parse_polygraph", "formats:parse_oset", "formats:parse_opetope_file",
    ],
    "formats.print_s": [
        "formats:print_polygraph", "formats:print_oset", "formats:print_opetope_file",
    ],
}

# the lru-cached face-word closure whose hit rate the slices workload moves
WORD_CLASS = "category:word_class"


def _module(name: str):
    return importlib.import_module(f"opetopic.{name}")


def _resolve(target: str):
    """The function a "module:qualname" names, or None if it is gone."""
    module_name, qualname = target.split(":")
    obj = _module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return inspect.unwrap(obj)


def _profile_key(function) -> tuple | None:
    code = getattr(function, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


class ModuleState:
    """Counters the library keeps itself, read before and after the
    profiled work: interned opetopes and the lru caches of ``category``."""

    def __init__(self) -> None:
        self.word_class = _resolve_cached(WORD_CLASS)
        self.before = self._word_class_info()

    def _word_class_info(self) -> tuple[int, int] | None:
        if self.word_class is None:
            return None
        info = self.word_class.cache_info()
        return info.hits, info.misses

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        values: dict[str, float] = {}
        absent: list[str] = []
        intern = getattr(_module("opetope"), "_INTERN", None)
        if intern is None:
            absent.append("opetope.intern_entries")
        values["opetope.intern_entries"] = len(intern) if intern is not None else 0
        values["category.cache_entries"] = sum(
            obj.cache_info().currsize
            for obj in vars(_module("category")).values()
            if callable(getattr(obj, "cache_info", None))
        )
        after = self._word_class_info()
        if after is None:
            absent += ["category.word_class_calls", "category.word_class_hit_rate"]
            values["category.word_class_calls"] = 0
            values["category.word_class_hit_rate"] = 0
        else:
            hits, misses = (a - b for a, b in zip(after, self.before))
            values["category.word_class_calls"] = hits + misses
            values["category.word_class_hit_rate"] = hits / (hits + misses) if hits + misses else 0
        return values, absent


def _resolve_cached(target: str):
    """The lru-cache wrapper a "module:qualname" names, if it has one."""
    module_name, qualname = target.split(":")
    obj = getattr(_module(module_name), qualname, None)
    return obj if callable(getattr(obj, "cache_info", None)) else None


def aggregate(stats: dict, items: int) -> tuple[dict[str, float], list[str], dict[str, float]]:
    """Per-layer metrics from ``pstats.Stats(...).stats``.

    Returns the metrics, the names reported as absent, and the self time
    of every module seen (for the record, beyond the listed layers).
    """
    src = Path(_module("cli").__file__).resolve().parent
    by_module: dict[str, float] = {}
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        path = Path(filename)
        if path.suffix == ".py" and path.resolve().parent == src:
            module = path.stem
        elif path.suffix == ".py" and path.resolve().parent == Path(__file__).resolve().parent:
            module = "bench"
        else:
            module = "other"
        by_module[module] = by_module.get(module, 0.0) + tottime

    values: dict[str, float] = {}
    absent: list[str] = []
    for layer in LAYERS:
        values[f"{layer}.self_s"] = by_module.get(layer, 0.0)
    values["other.self_s"] = sum(
        t for module, t in by_module.items() if module not in LAYERS and module != "bench"
    )

    def lookup(metric: str, targets: list[str], field: int) -> None:
        keys = {_profile_key(f) for f in map(_resolve, targets) if f is not None}
        keys.discard(None)
        if not keys:
            absent.append(metric)
        values[metric] = sum(stats[key][field] for key in keys if key in stats)

    for metric, targets in CALLS.items():
        lookup(metric, targets, 1)
    for metric, targets in CUMULATIVE.items():
        lookup(metric, targets, 3)
    values["opetope.made_per_item"] = values["opetope.make_calls"] / items
    if "opetope.make_calls" in absent:
        absent.append("opetope.made_per_item")
    return values, absent, by_module
