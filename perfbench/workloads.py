"""Seeded benchmark inputs and the expectations every output row is checked against.

Each builder writes its inputs under a work directory and returns a
`Workload`: the paths handed to `ontoprof extract`, one `Expect` per file
the run must give an outcome for, and the input size.  References come
from the hand vectors in `tests/golden_data.py`, from the naive oracles in
`tests/oracles.py`, or from the generator's own knowledge of the structure
it built, never from the matrix under test.
"""

from __future__ import annotations

import random
import re
import shutil
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ontoprof.model import (
    LOGICAL_AXIOM_TYPES, Declaration, Entity, EntityKind, EquivalentClasses,
    NamedClass, ObjectComplementOf, ObjectIntersectionOf, ObjectSomeValuesFrom,
    Ontology, SubClassOf, SubObjectPropertyOf, TransitiveObjectProperty,
)
from ontoprof.parser import parse_ontology
from ontoprof.serializer import serialize

import gen
import oracles
from equivalence import check_against_oracles
from golden_data import GOLDEN, GOLDEN_DIR, expected_vector

# Outcome statuses that are never right for a readable, well-formed-or-not file.
WRONG_STATUSES = ("io_error", "timeout")
POSITIONED = re.compile(r":\d+:\d+: ")
RATIO_TOL = 5e-7     # the matrix prints ratios with six fractional digits
DEEP_LIMIT = 20000   # recursion limit for building references of deep chains


@dataclass
class Expect:
    """What one file's outcome must be.

    kind "row": status ok, and every feature in `values` matches.
    kind "diagnostic": a failure status other than io_error/timeout whose
    diagnostics all carry line:col.
    kind "row-or-diagnostic": either of the two.
    """

    kind: str
    values: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    inputs: list[str]
    expect: dict[str, Expect]
    axioms: int
    bytes: int

    @property
    def files(self) -> int:
        return len(self.expect)


@contextmanager
def recursion_limit(limit: int):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def same_value(expected, cell: str) -> bool:
    """Compare a reference value with one printed matrix cell."""
    if isinstance(expected, str):
        return cell == expected
    if isinstance(expected, int) and not isinstance(expected, bool):
        return cell == str(expected)
    try:
        return abs(float(cell) - expected) <= RATIO_TOL + 1e-9 * abs(expected)
    except ValueError:
        return False


def check_outcome(expect: Expect, status: str, diagnostics: list[str],
                  row: dict[str, str] | None) -> str | None:
    """None when the outcome meets the expectation, else what is wrong."""
    if status == "ok" and expect.kind in ("row", "row-or-diagnostic"):
        if row is None:
            return "status ok but no matrix row"
        bad = [f"{fid}={row.get(fid)!r} want {want!r}"
               for fid, want in expect.values.items()
               if fid not in row or not same_value(want, row[fid])]
        return f"row differs: {'; '.join(bad[:5])}" if bad else None
    if status != "ok" and expect.kind in ("diagnostic", "row-or-diagnostic"):
        if status in WRONG_STATUSES:
            return f"wrong status {status}: {' | '.join(diagnostics)[:200]}"
        if not diagnostics or not all(POSITIONED.search(d) for d in diagnostics):
            return f"{status} without a line:col diagnostic: {diagnostics[:2]}"
        return None
    return f"status {status} where {expect.kind} was expected: {' | '.join(diagnostics)[:200]}"


def _write(path: Path, text: str) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(data)


def _round_trip(m: Ontology, text: str) -> None:
    if parse_ontology(text) != m:
        raise AssertionError("parse_ontology(serialize(m)) != m for a generated model")


def _checked_model_row(m: Ontology) -> dict:
    """The model's own row, after it passed every oracle comparison."""
    return dict(check_against_oracles(m).values)


def cheap_oracle_values(m: Ontology) -> dict:
    """Signature sizes, KB partition, axiom-type frequencies and depths,
    recomputed by the scratch walkers in tests/oracles.py."""
    names = oracles.signature_names(m)
    cats = Counter(oracles.category(ax) for ax in m.axioms)
    logical = [ax for ax in m.axioms if oracles.category(ax) != "NonLogical"]
    sla = len(logical)
    types = Counter(oracles.tag(ax) for ax in logical)
    depths = [oracles.axiom_depth(ax) for ax in logical]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "SC": len(names["classes"]), "SOP": len(names["object_properties"]),
        "SDP": len(names["data_properties"]), "SI": len(names["individuals"]),
        "SDT": len(names["datatypes"]), "SLA": sla, "SA": len(m.axioms),
        "RTBx": ratio(cats["TBox"], sla), "RRBx": ratio(cats["RBox"], sla),
        "RABx": ratio(cats["ABox"], sla),
        "AMP": max(depths, default=0), "AAP": ratio(sum(depths), sla),
    }
    values.update({f"ATF_{t}": ratio(types[t], sla) for t in LOGICAL_AXIOM_TYPES})
    return values


# ---------------------------------------------------------------------------
# corpus-small


def complement_chain(depth: int, tag: str) -> Ontology:
    """`SubClassOf(:A ObjectComplementOf^depth(:B))` with its declarations."""
    expr = NamedClass(gen.NS + f"{tag}B")
    for _ in range(depth):
        expr = ObjectComplementOf(expr)
    a, b = gen.NS + f"{tag}A", gen.NS + f"{tag}B"
    return Ontology(axioms=(Declaration(Entity(a, EntityKind.CLASS)),
                            Declaration(Entity(b, EntityKind.CLASS)),
                            SubClassOf(NamedClass(a), expr)),
                    iri=gen.NS.rstrip("#"))


def write_deep_chains(directory: Path, depths) -> tuple[dict[str, Expect], int, int]:
    """Deeply nested files; each must yield its model's row or a positioned
    diagnostic.  References are built under a raised recursion limit."""
    expect: dict[str, Expect] = {}
    size = 0
    with recursion_limit(DEEP_LIMIT):
        for depth in depths:
            m = complement_chain(depth, f"D{depth}")
            text = serialize(m)
            _round_trip(m, text)
            path = directory / f"deep_{depth:04d}.ofn"
            size += _write(path, text)
            expect[str(path)] = Expect("row-or-diagnostic", _checked_model_row(m))
    return expect, size, 3 * len(depths)


def _truncated(text: str, rng: random.Random) -> str:
    """Cut a document strictly before its closing parenthesis."""
    end = text.rstrip().rindex(")")
    start = text.index("Ontology(")
    return text[:rng.randrange(start, end)]


def build_corpus_small(work: Path, seed: int, scale: float) -> Workload:
    rng = random.Random(f"corpus-small:{seed}")
    root = work / "corpus"
    expect: dict[str, Expect] = {}
    size = axioms = 0
    for i in range(max(3, round(200 * scale))):
        m = gen.random_ontology(rng, max_axioms=60)
        text = serialize(m)
        _round_trip(m, text)
        path = root / "random" / f"r{i:04d}.ofn"
        size += _write(path, text)
        axioms += len(m.axioms)
        expect[str(path)] = Expect("row", _checked_model_row(m))
    for name in sorted(GOLDEN):
        text = (GOLDEN_DIR / f"{name}.ofn").read_text(encoding="utf-8")
        path = root / "golden" / f"{name}.ofn"
        size += _write(path, text)
        axioms += len(parse_ontology(text).axioms)
        expect[str(path)] = Expect("row", expected_vector(name))
    golden_names = sorted(GOLDEN)
    for i in range(8):
        source = (GOLDEN_DIR / f"{rng.choice(golden_names)}.ofn").read_text(encoding="utf-8")
        path = root / "hostile" / f"truncated_{i}.ofn"
        size += _write(path, _truncated(source, rng))
        expect[str(path)] = Expect("diagnostic")
    deep, deep_size, deep_axioms = write_deep_chains(root / "hostile", (100, 200, 300))
    expect.update(deep)
    return Workload("corpus-small", [str(root)], expect, axioms + deep_axioms,
                    size + deep_size)


# ---------------------------------------------------------------------------
# large-mixed


class LargeVocabulary:
    """`gen.Vocabulary` with fixed, enlarged pools."""

    def __init__(self, classes: int, props: int, dprops: int, individuals: int):
        self.classes = [gen.NS + f"C{i}" for i in range(classes)]
        self.props = [gen.NS + f"p{i}" for i in range(props)]
        self.dprops = [gen.NS + f"d{i}" for i in range(dprops)]
        self.individuals = [gen.NS + f"i{i}" for i in range(individuals)]
        self.datatypes = [gen.XSD_NS + n for n in ("string", "integer", "boolean")]


def _single_document(work: Path, name: str, m: Ontology, values: dict) -> Workload:
    text = serialize(m)
    _round_trip(m, text)
    path = work / f"{name}.ofn"
    size = _write(path, text)
    return Workload(name, [str(path)], {str(path): Expect("row", values)},
                    len(m.axioms), size)


def build_large_mixed(work: Path, seed: int, scale: float) -> Workload:
    rng = random.Random(f"large-mixed:{seed}")
    vocab = LargeVocabulary(classes=max(8, round(1000 * scale)),
                            props=max(4, round(80 * scale)),
                            dprops=max(2, round(40 * scale)),
                            individuals=max(4, round(800 * scale)))
    m = Ontology(axioms=tuple(gen.random_axiom(rng, vocab)
                              for _ in range(max(20, round(20000 * scale)))),
                 iri=gen.NS.rstrip("#"))
    return _single_document(work, "large-mixed", m, cheap_oracle_values(m))


# ---------------------------------------------------------------------------
# taxonomy-el

TAX_NS = "http://example.org/taxonomy#"


def _tree_stats(parents: list[list[int]]) -> dict:
    """Depth, fan-out, tangledness and reachable pairs of a DAG whose
    parents always have lower indices."""
    n = len(parents)
    depth = [0] * n
    ancestors = [0] * n
    children = Counter()
    for i, ps in enumerate(parents):
        for p in ps:
            depth[i] = max(depth[i], depth[p] + 1)
            ancestors[i] |= ancestors[p] | (1 << p)
            children[p] += 1
    edges = sum(len(ps) for ps in parents)
    return {
        "MD": max(depth, default=0),
        "MSB": max(children.values(), default=0),
        "ASB": edges / n if n else 0.0,
        "Tangledness": sum(1 for ps in parents if len(ps) >= 2),
        "MTangledness": max((len(ps) for ps in parents), default=0),
        "edges": edges,
        "pairs": sum(a.bit_count() for a in ancestors),
    }


def taxonomy(rng: random.Random, n_classes: int, n_props: int = 60):
    """An EL taxonomy shaped like SNOMED or GO.

    Every class but the root has a named parent chosen among earlier
    classes (so the hierarchy is acyclic and ~e*ln(n) deep), 10% get a
    second parent, 30% an existential restriction and 5% an
    EquivalentClasses definition; the properties form their own tree with
    one transitive property.  Returns the model and the expected values
    the structure fixes.
    """
    classes = [TAX_NS + f"T{i}" for i in range(n_classes)]
    props = [TAX_NS + f"r{j}" for j in range(n_props)]
    cparents: list[list[int]] = [[]]
    for i in range(1, n_classes):
        first = rng.randrange(i)
        ps = [first]
        if i > 1 and rng.random() < 0.10:
            second = rng.randrange(i - 1)
            ps.append(second if second < first else second + 1)
        cparents.append(ps)
    pparents: list[list[int]] = [[]] + [[rng.randrange(j)] for j in range(1, n_props)]

    axioms: list = [Declaration(Entity(p, EntityKind.OBJECT_PROPERTY)) for p in props]
    for j, ps in enumerate(pparents):
        axioms += [SubObjectPropertyOf(props[j], props[p]) for p in ps]
    axioms.append(TransitiveObjectProperty(rng.choice(props)))
    for i, ps in enumerate(cparents):
        cls = NamedClass(classes[i])
        axioms.append(Declaration(Entity(classes[i], EntityKind.CLASS)))
        axioms += [SubClassOf(cls, NamedClass(classes[p])) for p in ps]
        if rng.random() < 0.30:
            axioms.append(SubClassOf(cls, ObjectSomeValuesFrom(
                rng.choice(props), NamedClass(rng.choice(classes)))))
        if ps and rng.random() < 0.05:
            axioms.append(EquivalentClasses((cls, ObjectIntersectionOf((
                NamedClass(classes[ps[0]]),
                ObjectSomeValuesFrom(rng.choice(props), NamedClass(rng.choice(classes))))))))
    m = Ontology(axioms=tuple(axioms), iri=TAX_NS.rstrip("#"))

    cstats, pstats = _tree_stats(cparents), _tree_stats(pparents)
    n = n_classes
    values = {
        "OPR": "EL",
        "CCOH": min(1.0, 2 * cstats["pairs"] / (n * n - n)) if n > 1 else 0.0,
        "RRichness": n_props / (n_props + cstats["edges"]),
    }
    for prefix, stats in (("C", cstats), ("P", pstats)):
        values.update({f"{prefix}_{k}": stats[k]
                       for k in ("MD", "MSB", "ASB", "Tangledness", "MTangledness")})
    return m, values


def build_taxonomy_el(work: Path, seed: int, scale: float) -> Workload:
    rng = random.Random(f"taxonomy-el:{seed}")
    m, values = taxonomy(rng, max(10, round(6000 * scale)))
    values.update(cheap_oracle_values(m))
    return _single_document(work, "taxonomy-el", m, values)


BUILDERS = {
    "corpus-small": build_corpus_small,
    "large-mixed": build_large_mixed,
    "taxonomy-el": build_taxonomy_el,
}


def build(name: str, work: Path, seed: int, scale: float) -> Workload:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return BUILDERS[name](work, seed, scale)
