"""Memory held per class while a taxonomy is parsed and its features taken.

The library builds the model, its signature and census included, and one
hierarchy's transient comes on top of it at the extraction peak. A worker
holds no model: it folds each parser window's axioms into the signature
and the census and drops them, so at its peak it holds the source text,
the parser's name memos, the census and the signature, and later one
hierarchy's transient. None of them may keep a container per class beyond
the model's own nodes.

The readings, in B per class (parse transient, extraction peak, worker
peak, worker's hold):

    CPython 3.10.13   156  219  525  146
    CPython 3.11.7    127  204  496  146
    CPython 3.12.1    111  204  472  138
    CPython 3.13.0    111  204  472  138

The parse transient is the parse peak less the model it keeps, so it
moves against the kept model: a model that shrinks raises it, one that
grows lowers it, although the peak itself may move the other way.

Each bound sits below what one container too many reads. A parser kept
alive while the model is built gives a parse transient of 255-294. A set
per class in the census gives a worker peak of 720-795 and a hold of
389-411. A worker that collects a document's axioms in one list and
folds them once after the parse peaks at 641-664 and holds 439-447. A
census that numbers the classes as it reads them, in an id map dropped
at `finish`, peaks at 548-623, which the worker bound catches on 3.10
and 3.11 only.

    python tests/test_memory.py

prints the readings and checks them without pytest.
"""

import gc
import random
import sys
import tracemalloc
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ontoprof import runner
from ontoprof.features import extract_all
from ontoprof.parser import parse_ontology

CLASSES = 6000
PARSE_BOUND = 210    # B per class: parse peak less the source text and the kept model
EXTRACT_BOUND = 520  # B per class: extract_all's peak over the parsed model
WORKER_BOUND = 560   # B per class: a worker's peak over the text it is handed
HOLD_BOUND = 250     # B per class: what a worker keeps over the text once the parse is over


def tree_taxonomy(n: int, seed: int = 1) -> str:
    """An EL tree of `n` classes: each but the first under one earlier class,
    and three in ten with an existential restriction, as in SNOMED or GO."""
    rng = random.Random(seed)
    lines = ["Prefix(:=<http://example.org/tree#>)", "Ontology(<http://example.org/tree>"]
    lines += [f"Declaration(ObjectProperty(:r{j}))" for j in range(20)]
    for i in range(n):
        lines.append(f"Declaration(Class(:C{i}))")
        if i:
            lines.append(f"SubClassOf(:C{i} :C{rng.randrange(i)})")
        if rng.random() < 0.3:
            lines.append(f"SubClassOf(:C{i} ObjectSomeValuesFrom(:r{rng.randrange(20)} "
                         f":C{rng.randrange(n)}))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def per_class_peaks(n: int = CLASSES) -> tuple[float, float, float, float]:
    """(parse transient, extraction peak, worker peak, worker's hold) in
    bytes per class, traced with the cyclic collector off as in a worker,
    after a small file has loaded what every file shares (such as the
    profile rules). The hold is what the worker keeps over the text when
    its extraction starts."""
    weights = (1 / 3, 1 / 3, 1 / 3)
    extract_all(parse_ontology(tree_taxonomy(10)))
    runner._extract_file("small.ofn", tree_taxonomy(10), False, weights)
    text = tree_taxonomy(n)
    tracing = tracemalloc.is_tracing()
    enabled = gc.isenabled()
    gc.disable()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        model = parse_ontology(text)
        kept, peak = tracemalloc.get_traced_memory()
        parse = peak - kept
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        vector = extract_all(model)
        extract = tracemalloc.get_traced_memory()[1] - base
        del model, vector
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]  # the text is held by this frame
        held = []

        def extract_after_the_parse(summary, **options):
            held.append(tracemalloc.get_traced_memory()[0] - base)
            return extract_all(summary, **options)

        runner.extract_all = extract_after_the_parse
        try:
            outcome = runner._extract_file("tree.ofn", text, False, weights)
        finally:
            runner.extract_all = extract_all
        worker = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
        if enabled:
            gc.enable()
    assert outcome.vector["SC"] == n and outcome.vector["C_MSB"] > 0
    return parse / n, extract / n, worker / n, held[0] / n


def test_taxonomy_memory_per_class():
    parse, extract, worker, hold = per_class_peaks()
    assert parse < PARSE_BOUND, f"parse transient {parse:.0f} B per class"
    assert extract < EXTRACT_BOUND, f"extraction peak {extract:.0f} B per class"
    assert worker < WORKER_BOUND, f"worker peak {worker:.0f} B per class"
    assert hold < HOLD_BOUND, f"worker's hold {hold:.0f} B per class"


if __name__ == "__main__":
    parse, extract, worker, hold = per_class_peaks()
    print(f"Python {sys.version.split()[0]}: parse transient {parse:.0f} B per class, "
          f"extraction peak {extract:.0f} B per class, worker peak {worker:.0f} B per class, "
          f"worker's hold {hold:.0f} B per class")
    test_taxonomy_memory_per_class()
