"""Spans recorded from outside the library, around calls into its layers.

`parse_ontology` and `extract_all` reach the other layers through module
globals, so `installed()` swaps span-recording wrappers in for those names
while a traced pass runs and puts the originals back afterwards.  Spans
stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

# (module, global name, span name): the calls the traced passes time.
LAYER_CALLS = (
    ("ontoprof.parser", "Ontology", "model.build"),
    ("ontoprof.features", "build_class_hierarchy", "hierarchy.class"),
    ("ontoprof.features", "build_property_hierarchy", "hierarchy.property"),
    ("ontoprof.features", "cyclic_classes", "hierarchy.cyclic"),
    ("ontoprof.features", "owl_profile", "expressivity.profile"),
    ("ontoprof.features", "dl_family_name", "expressivity.dfn"),
)
RUNNER_CALLS = (
    ("ontoprof.cli", "run", "runner.run"),
    ("ontoprof.cli", "write_outputs", "runner.write"),
    ("ontoprof.runner", "emit_matrix", "runner.emit"),
)
# Spans whose return value is kept, so counts can be read from it.
KEEP_RESULT = frozenset({"hierarchy.class"})


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int      # index of the enclosing span, -1 for a root
    run_id: int      # which pass recorded it
    file: int        # index of the input file, -1 outside per-file work
    result: Any = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run_id = 0
        self.file = -1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = Span(name, 0, 0, parent, self.run_id, self.file)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start_ns = time.perf_counter_ns()
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, fn, name: str):
        keep = name in KEEP_RESULT

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if keep:
                    record.result = result
                return result

        return traced

    @contextmanager
    def installed(self, calls):
        """Swap wrappers in for the named module globals, then restore them."""
        saved = []
        try:
            for module_name, attr, span_name in calls:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(original, span_name))
                saved.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration_ns
        return out

    def as_records(self) -> list[dict]:
        return [{"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "parent": s.parent, "run_id": s.run_id, "file": s.file}
                for s in self.spans]
