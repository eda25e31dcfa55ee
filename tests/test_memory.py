"""Memory held per class while a taxonomy is parsed and its features taken.

The library builds the model, its signature and census included, and one
hierarchy's transient comes on top of it at the extraction peak. A worker
holds no model and never the whole source: it reads and decodes the file
a window at a time, folds each window's axioms into the signature and the
census and drops them, so at its peak it holds about one window of text,
the parser's name memos, the census and the signature, and later one
hierarchy's transient. None of them may keep a container per class beyond
the model's own nodes.

The readings, in B per class (library parse peak over the text, which
includes the model it keeps; extraction peak; worker peak, the text it
reads included; worker's hold):

    CPython 3.11.7    584  204  513  146

Only this interpreter was at hand when these bounds were set; the CI job
prints the readings of 3.10, 3.12 and 3.13, which read 15-30 B per class
from 3.11 on the earlier readings of these quantities.

Each bound sits below what one container too many reads on 3.11.7. A
parser kept alive while the model is built gives a library parse peak of
722. A set per class in the census gives a worker peak of 761 and a hold
of 397. A worker that collects a document's axioms in one list and folds
them once after the parse peaks at 649 and holds 447. A census that
numbers the classes as it reads them, in an id map dropped at `finish`,
peaks at 589; earlier readings put it 75 B higher on 3.10 and 25 B lower
on 3.12 and 3.13, where the worker bound may miss it. A worker that
decodes the whole file before it parses peaks at 564, which the worker
bound does not catch; `tests/test_runner.py` checks that directly.

    python tests/test_memory.py

prints the readings and checks them without pytest.
"""

import gc
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ontoprof import runner
from ontoprof.features import extract_all
from ontoprof.parser import parse_ontology

CLASSES = 6000
PARSE_BOUND = 680    # B per class: parse_ontology's peak over the text, the kept model included
EXTRACT_BOUND = 520  # B per class: extract_all's peak over the parsed model
WORKER_BOUND = 570   # B per class: a worker's peak, reading the file
HOLD_BOUND = 250     # B per class: what a worker keeps once the parse is over


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
    """(library parse peak, extraction peak, worker peak, worker's hold) in
    bytes per class, traced with the cyclic collector off as in a worker,
    after a small file has loaded what every file shares (such as the
    profile rules). The parse peak is taken over the text `parse_ontology`
    is handed, and includes the model it keeps. The worker reads the
    document from a file, so its peak and its hold, what it keeps when its
    extraction starts, include all the text it reads."""
    weights = (1 / 3, 1 / 3, 1 / 3)
    with tempfile.TemporaryDirectory() as scratch:
        small, tree = Path(scratch, "small.ofn"), Path(scratch, "tree.ofn")
        small.write_text(tree_taxonomy(10), encoding="utf-8")
        tree.write_text(tree_taxonomy(n), encoding="utf-8")
        extract_all(parse_ontology(tree_taxonomy(10)))
        runner._extract_file(str(small), None, False, weights)
        tracing = tracemalloc.is_tracing()
        enabled = gc.isenabled()
        gc.disable()
        if not tracing:
            tracemalloc.start()
        try:
            text = tree_taxonomy(n)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            model = parse_ontology(text)
            parse = tracemalloc.get_traced_memory()[1] - base
            del text
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            vector = extract_all(model)
            extract = tracemalloc.get_traced_memory()[1] - base
            del model, vector
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            held = []

            def extract_after_the_parse(summary, **options):
                held.append(tracemalloc.get_traced_memory()[0] - base)
                return extract_all(summary, **options)

            runner.extract_all = extract_after_the_parse
            try:
                outcome = runner._extract_file(str(tree), None, False, weights)
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
    assert parse < PARSE_BOUND, f"library parse peak {parse:.0f} B per class"
    assert extract < EXTRACT_BOUND, f"extraction peak {extract:.0f} B per class"
    assert worker < WORKER_BOUND, f"worker peak {worker:.0f} B per class"
    assert hold < HOLD_BOUND, f"worker's hold {hold:.0f} B per class"


if __name__ == "__main__":
    parse, extract, worker, hold = per_class_peaks()
    print(f"Python {sys.version.split()[0]}: library parse peak {parse:.0f} B per class, "
          f"extraction peak {extract:.0f} B per class, worker peak {worker:.0f} B per class, "
          f"worker's hold {hold:.0f} B per class")
    test_taxonomy_memory_per_class()
