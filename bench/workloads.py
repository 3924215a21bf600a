"""The four workloads: seeded inputs, a closed loop over the public API,
and checks of every output against references pinned in ``reference/``.

Each workload is built once per interpreter (its set-up) and then
serves requests from ``stream()``, a generator that does one request per
step and yields ``(ok, items)``: whether the request agreed with its
reference, and how many items it completed.  A request is one opetope
for ``sweep``, one cold ``opetopic enumerate`` call for ``enumerate``,
one opetope queried for ``slices`` and one polygraph round-tripped for
``roundtrip``.  Checks that span requests (a shard that yields the wrong
number of opetopes) go to ``errors``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from opetopic import cli
from opetopic.category import hom
from opetopic.opetope import check_identities, enumerate_opetopes, iter_opetopes
from opetopic.oset import yoneda
from opetopic.realization import realize_opetope, unit_check

from polygraphs import RandomPolygraph

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
GOLDEN_HOM = ROOT / "tests" / "golden" / "hom_counts.json"

# the criterion-1 sweep of the acceptance suite, cut into 64 shards; a run
# streams the eight shards that make up its shard (0, 8)
SWEEP_DIM, SWEEP_BOUND, SWEEP_SHARDS = 4, 4, 64
SWEEP_SUBSET = tuple(range(0, SWEEP_SHARDS, 8))
SWEEP_TOTAL = 1_453_450

ENUMERATE_DIM, ENUMERATE_BOUND = 8, 2

SLICES_DIM, SLICES_BOUND, SLICES_STRATA = 4, 3, 16

ROUNDTRIP_INPUTS = 700

MAX_REPORTED_FAILURES = 5


def load_reference(name: str):
    return json.loads((REFERENCE / name).read_text(encoding="utf-8"))


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Sink:
    """A write-only text stream that keeps what it is given, as given."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def run_cli(argv: list[str]) -> tuple[int, Sink, Sink]:
    out, err = Sink(), Sink()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out, err


class Workload:
    """Shared failure bookkeeping; subclasses set up in ``__init__``."""

    # requests in the fixed, traced share of the workload
    trace_requests = 1
    # requests a timed run makes at least: enough that p95 has ten samples
    # beyond it; peak memory is read when they are done
    min_requests = 1

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.reported = 0
        # whether the run used up the inputs and began them again
        self.cycled = False

    def report(self, what: str) -> None:
        """Print the first few failures with their traceback, if any."""
        if self.reported < MAX_REPORTED_FAILURES:
            self.reported += 1
            print(f"{type(self).__name__}: {what}", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc(file=sys.stderr)

    def guarded(self, check, *args) -> bool:
        """Run one request's check; a raise counts as a failed request."""
        try:
            if check(*args):
                return True
            self.report(f"{args[0]}: disagrees with the reference")
        except Exception:
            self.report(f"{args[0]}: raised")
        return False


# -- sweep -------------------------------------------------------------------


def readdressing_is_bijective(omega) -> bool:
    """The readdressing check of acceptance criterion 2."""
    rho = omega.readdress()
    leaves = omega.leaf_addresses()
    targets = omega.target().node_addresses()
    values = sorted(rho.values())
    return (
        len(rho) == len(leaves)
        and sorted(rho) == sorted(leaves)
        and values == sorted(targets)
        and all(a != b for a, b in zip(values, values[1:]))
    )


def sweep_check(omega) -> bool:
    return check_identities(omega).ok and readdressing_is_bijective(omega)


class Sweep(Workload):
    trace_requests = 30_000
    min_requests = 100_000

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        counts = load_reference("sweep.json")["shard_counts"]
        if len(counts) != SWEEP_SHARDS or sum(counts) != SWEEP_TOTAL:
            raise ValueError("reference/sweep.json does not add up to the sweep total")
        self.counts = counts
        self.order = list(SWEEP_SUBSET)
        random.Random(seed).shuffle(self.order)
        # the dimensions below the sweep, which every shard reads
        enumerate_opetopes(SWEEP_DIM - 1, SWEEP_BOUND)

    def shard_stream(self, shard: int):
        """The shard's opetopes with their checks, over and over; a shard
        that ends with the wrong count is an error."""
        while True:
            produced = 0
            opetopes = iter_opetopes(
                SWEEP_DIM, SWEEP_BOUND, shard=(shard, SWEEP_SHARDS), intern_results=False
            )
            while True:
                try:
                    omega = next(opetopes)
                except StopIteration:
                    break
                except Exception:
                    self.report(f"enumeration of shard {shard} raised")
                    yield False, 1
                    break
                produced += 1
                yield self.guarded(sweep_check, omega), 1
            if produced != self.counts[shard]:
                self.errors.append(
                    f"shard {shard}/{SWEEP_SHARDS}: {produced} opetopes, "
                    f"expected {self.counts[shard]}"
                )

    def stream(self):
        # one opetope from each shard in turn, so that every stretch of
        # the run sees the same mix of shards
        streams = [self.shard_stream(shard) for shard in self.order]
        while True:
            for shard_stream in streams:
                yield next(shard_stream)


# -- enumerate ---------------------------------------------------------------


def lines_of(parts: list[str]):
    """The lines of the concatenated parts, without concatenating them."""
    carry = ""
    for part in parts:
        start = 0
        while (end := part.find("\n", start)) >= 0:
            yield carry + part[start:end]
            carry, start = "", end + 1
        carry += part[start:]
    if carry:
        yield carry


def shortlex_strictly_increasing(lines) -> tuple[int, bool]:
    """Count the lines and check that each sorts strictly after the one
    before by (length, text): sorted, and without duplicates."""
    count, ok, previous = 0, True, None
    for line in lines:
        key = (len(line), line)
        if previous is not None and not previous < key:
            ok = False
        previous = key
        count += 1
    return count, ok


def parts_digest(parts: list[str], chunk: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    for part in parts:
        for start in range(0, len(part), chunk):
            digest.update(part[start : start + chunk].encode("utf-8"))
    return digest.hexdigest()


class Enumerate(Workload):
    """One cold enumeration per interpreter; the runner starts one
    interpreter per request."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.reference = load_reference("enumerate.json")
        self.argv = [
            "enumerate", "--dim", str(ENUMERATE_DIM), "--max-nodes", str(ENUMERATE_BOUND)
        ]

    def check(self, code: int, out: Sink) -> bool:
        # reads the output where it lies: a copy would count in peak_rss_mb
        count, ordered = shortlex_strictly_increasing(lines_of(out.parts))
        return (
            code == 0
            and ordered
            and count == self.reference["count"]
            and parts_digest(out.parts) == self.reference["sha256"]
        )

    def stream(self):
        yield self.guarded(self.request, " ".join(self.argv)), self.reference["count"]

    def request(self, command: str) -> bool:
        code, out, _ = run_cli(self.argv)
        return self.check(code, out)


# -- slices ------------------------------------------------------------------


def faces(omega) -> list:
    """The domains of the generating faces: target, then sources."""
    if omega.dim == 0:
        return []
    return [omega.target()] + [omega.source_at(p) for p in omega.node_addresses()]


def face_closure(omega) -> dict:
    """Every iterated face of ``omega``, itself included, by print."""
    seen = {str(omega): omega}
    frontier = [omega]
    while frontier:
        for face in faces(frontier.pop()):
            key = str(face)
            if key not in seen:
                seen[key] = face
                frontier.append(face)
    return seen


def face_words(omega, memo: dict[str, int]) -> int:
    """The number of words of face embeddings into ``omega``."""
    key = str(omega)
    if key not in memo:
        memo[key] = 1 + sum(face_words(face, memo) for face in faces(omega))
    return memo[key]


def hom_table(counts: dict[str, int]) -> str:
    """Digest of a table of morphism counts keyed by domain print."""
    rows = sorted(counts.items())
    return short_digest(json.dumps(rows, separators=(",", ":")))


class Slices(Workload):
    trace_requests = 60
    min_requests = 200

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        reference = load_reference("slices.json")
        self.reference = reference["opetopes"]
        self.golden = json.loads(GOLDEN_HOM.read_text(encoding="utf-8"))
        pool = enumerate_opetopes(SLICES_DIM, SLICES_BOUND)
        if len(pool) != len(self.reference):
            raise ValueError(
                f"{len(pool)} opetopes at dim {SLICES_DIM}, bound {SLICES_BOUND}; "
                f"reference/slices.json has {len(self.reference)}"
            )
        # strata of equal size by the number of face words into the
        # opetope, which the slice search walks; interleaved, so that every
        # prefix of the request sequence has the same mix of sizes
        words: dict[str, int] = {}
        keyed = sorted(((face_words(o, words), str(o)), o) for o in pool)
        width = -(-len(keyed) // SLICES_STRATA)
        rng = random.Random(seed)
        strata = []
        for start in range(0, len(keyed), width):
            stratum = [o for _, o in keyed[start : start + width]]
            rng.shuffle(stratum)
            strata.append(stratum)
        self.order = [
            o for row in itertools.zip_longest(*strata) for o in row if o is not None
        ]

    def query(self, omega) -> bool:
        closure = face_closure(omega)
        counts = {key: len(hom(phi, omega)) for key, phi in closure.items()}
        digest, total = self.reference[short_digest(str(omega))]
        if hom_table(counts) != digest or sum(counts.values()) != total:
            return False
        P = realize_opetope(omega)
        generators = sum(len(P.generators(d)) for d in range(P.max_dim + 1))
        if generators != total or not P.validate().ok:
            return False
        if not unit_check(yoneda(omega, omega.dim)).ok:
            return False
        target = omega.target()
        golden = self.golden[str(target)]
        target_faces = face_closure(target)
        return set(golden) == set(target_faces) and all(
            len(hom(target_faces[key], target)) == count for key, count in golden.items()
        )

    def stream(self):
        for omega in itertools.cycle(self.order):
            yield self.guarded(self.query, omega), 1


# -- roundtrip ---------------------------------------------------------------


class Roundtrip(Workload):
    trace_requests = 60
    min_requests = 200

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = random.Random(seed)
        self.inputs = []
        for index in range(ROUNDTRIP_INPUTS):
            polygraph = RandomPolygraph(rng)
            path = workdir / f"p{index}.poly"
            path.write_text(polygraph.text, encoding="utf-8")
            names = sorted(record[1] for record in polygraph.records)
            self.inputs.append((path, polygraph.canonical(), names))

    def roundtrip(self, path: Path, canonical: str, names: list[str]) -> bool:
        code, out, _ = run_cli(["roundtrip", str(path)])
        if code != 0 or out.text() != canonical:
            return False
        code, out, _ = run_cli(["nerve", str(path)])
        nerve_text = out.text()
        oset_path = path.with_suffix(".oset")
        oset_path.write_text(nerve_text, encoding="utf-8")
        cells = sorted(line.split()[1] for line in nerve_text.splitlines())
        if code != 0 or cells != names:
            return False
        code, out, _ = run_cli(["roundtrip", str(oset_path)])
        return code == 0 and out.text() == nerve_text

    def stream(self):
        for index in itertools.count():
            if index == len(self.inputs):
                self.cycled = True
            item = self.inputs[index % len(self.inputs)]
            yield self.guarded(self.roundtrip, *item), 1


WORKLOADS = {
    "sweep": Sweep,
    "enumerate": Enumerate,
    "slices": Slices,
    "roundtrip": Roundtrip,
}
