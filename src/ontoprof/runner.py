"""Corpus orchestration: walk inputs, extract per file in worker processes,
emit deterministic feature matrices and a run report.

At most `parallelism` long-lived workers are started, each fed one file at a
time over a pipe. A file's timeout starts when it is sent; a worker that
overruns it or dies is terminated alone, and a replacement is started only
if files are still waiting. Results are reordered by discovery order before
emission, so parallel and serial runs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import multiprocessing.connection
import os
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .features import FEATURE_SCHEMA, SCHEMA_VERSION, extract_all, FeatureVector
from .parser import OntologyParseError, parse_ontology

DEFAULT_TIMEOUT = 300.0
STDIN_ID = "<stdin>"  # the ontology id of input read from `-`


@dataclass
class RunConfig:
    inputs: list[str]
    output_path: str | None = None
    format: str = "csv"
    feature_groups: tuple[str, ...] = ("size", "expressivity", "structural", "syntactic")
    per_file_timeout: float = DEFAULT_TIMEOUT
    parallelism: int = field(default_factory=lambda: os.cpu_count() or 1)
    on_error: str = "skip"
    follow_imports: bool = False
    cohesion_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.per_file_timeout <= 0:
            raise ValueError("per_file_timeout must be positive")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format: {self.format}")
        if self.on_error not in ("skip", "abort"):
            raise ValueError(f"unknown on_error policy: {self.on_error}")
        unknown = set(self.feature_groups) - {"size", "expressivity", "structural", "syntactic"}
        if unknown:
            raise ValueError(f"unknown feature groups: {sorted(unknown)}")


@dataclass
class FileOutcome:
    path: str
    status: str  # "ok" | "parse_error" | "timeout" | "io_error" | "internal_error"
    vector: FeatureVector | None = None
    diagnostics: list[str] = field(default_factory=list)
    imports: list[str] = field(default_factory=list)
    anonymous_individuals: int = 0


@dataclass
class CorpusReport:
    outcomes: list[FileOutcome]
    aborted: bool
    wall_time_s: float
    schema_version: str = SCHEMA_VERSION

    @property
    def totals(self) -> dict[str, int]:
        counts = {"ok": 0, "parse_error": 0, "timeout": 0, "io_error": 0,
                  "internal_error": 0}
        for out in self.outcomes:
            counts[out.status] += 1
        return counts

    def vectors(self) -> list[tuple[str, FeatureVector]]:
        return [(o.path, o.vector) for o in self.outcomes if o.status == "ok"]

    def as_dict(self, config: RunConfig) -> dict:
        cfg = asdict(config)
        cfg["feature_groups"] = list(config.feature_groups)
        cfg["cohesion_weights"] = list(config.cohesion_weights)
        return {
            "schema_version": self.schema_version,
            "aborted": self.aborted,
            "totals": self.totals,
            "wall_time_s": self.wall_time_s,
            "config": cfg,
            "outcomes": [
                {
                    "path": o.path,
                    "status": o.status,
                    "diagnostics": o.diagnostics,
                    "imports": o.imports,
                    "anonymous_individuals": o.anonymous_individuals,
                }
                for o in self.outcomes
            ],
        }


def discover_inputs(config: RunConfig) -> list[str]:
    """Explicit files plus recursive .ofn walks, lexicographic, deduplicated.

    `-` stands for standard input and is listed as STDIN_ID. Missing paths
    raise under the abort policy; under skip they stay in the list and
    become io_error outcomes when the run reaches them.
    """
    files: set[str] = set()
    missing: set[str] = set()
    for raw in config.inputs:
        p = Path(raw)
        if raw == "-":
            files.add(STDIN_ID)
        elif p.is_dir():
            files.update(str(f) for f in p.rglob("*.ofn") if f.is_file())
        elif p.is_file():
            files.add(raw)
        else:
            missing.add(raw)
    if missing and config.on_error == "abort":
        raise FileNotFoundError(sorted(missing)[0])
    return sorted(files | missing)


def _extract_file(path: str, text: str | None, follow_imports: bool,
                  weights: tuple[float, float, float]) -> FileOutcome:
    """Outcome for one input; `text` is read from `path` when it is None."""
    try:
        if text is None:
            text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return FileOutcome(path=path, status="io_error", diagnostics=[str(exc)])
    try:
        onto = parse_ontology(text, origin=path)
        if follow_imports and onto.imports:
            onto = _resolve_imports(onto, path)
        vector = extract_all(onto, cohesion_weights=weights)
        return FileOutcome(
            path=path, status="ok", vector=vector,
            imports=list(onto.imports),
            anonymous_individuals=len(onto.signature.anonymous_individuals),
        )
    except OntologyParseError as exc:
        return FileOutcome(path=path, status="parse_error",
                           diagnostics=[d.format() for d in exc.diagnostics])


def _resolve_imports(onto, path: str, seen: set[str] | None = None):
    """Merge axioms from imports that point at reachable local files;
    anything else is left to the report as an unresolved import."""
    from .model import Ontology

    seen = seen or {str(Path(path).resolve())}
    merged = list(onto.axioms)
    for iri in onto.imports:
        candidate = iri[len("file://"):] if iri.startswith("file://") else iri
        target = Path(candidate)
        if not target.is_absolute():
            target = Path(path).parent / candidate
        try:
            resolved = str(target.resolve())
            if resolved in seen or not target.is_file():
                continue
            seen.add(resolved)
            imported = parse_ontology(target.read_text(encoding="utf-8"), origin=str(target))
        except (OSError, UnicodeDecodeError, OntologyParseError):
            continue
        imported = _resolve_imports(imported, str(target), seen)
        merged.extend(imported.axioms)
    return Ontology(axioms=tuple(merged), iri=onto.iri, version_iri=onto.version_iri,
                    imports=onto.imports, annotations=onto.annotations)


def _serve(conn, follow_imports: bool, weights) -> None:
    """Worker loop: answer each (path, text) job with its FileOutcome until
    the None sentinel arrives."""
    for path, text in iter(conn.recv, None):
        try:
            outcome = _extract_file(path, text, follow_imports, weights)
        except Exception as exc:  # a bug or resource limit: report it, keep serving
            outcome = FileOutcome(path=path, status="internal_error",
                                  diagnostics=[f"{type(exc).__name__}: {exc}"])
        conn.send(outcome)


class _Worker:
    """One long-lived worker process, the parent's end of its pipe and the
    file it is working on, if any."""

    def __init__(self, ctx, config: RunConfig):
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, daemon=True,
                                args=(child_conn, config.follow_imports,
                                      config.cohesion_weights))
        self.proc.start()
        child_conn.close()
        self.job: tuple[int, str] | None = None
        self.deadline = 0.0

    def send(self, idx: int, path: str, text: str | None, timeout: float) -> None:
        self.job = (idx, path)
        self.deadline = time.monotonic() + timeout
        try:
            self.conn.send((path, text))
        except OSError:
            pass  # the worker is gone; its pipe reads as EOF and recv reports it

    def receive(self) -> FileOutcome:
        try:
            return self.conn.recv()
        except (EOFError, OSError):  # OSError: reset by a worker that died unread
            self.stop(kill=True)
            return FileOutcome(path=self.job[1], status="internal_error",
                               diagnostics=[f"worker exited with code {self.proc.exitcode}"])

    def stop(self, kill: bool) -> None:
        """Send the sentinel to an idle worker, or kill a busy one; then reap
        it and close the pipe."""
        if kill:
            self.proc.terminate()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass  # already exited
        self.proc.join()
        self.conn.close()


def run(config: RunConfig) -> CorpusReport:
    """Extract every discovered input under the configured limits."""
    started = time.monotonic()
    try:
        files = discover_inputs(config)
    except FileNotFoundError as exc:
        outcome = FileOutcome(path=str(exc), status="io_error",
                              diagnostics=["input path does not exist"])
        return CorpusReport(outcomes=[outcome], aborted=True,
                            wall_time_s=time.monotonic() - started)
    outcomes: dict[int, FileOutcome] = {}
    pending = list(enumerate(files))[::-1]
    workers: list[_Worker] = []
    aborted = False
    ctx = multiprocessing.get_context()

    def record(idx: int, outcome: FileOutcome) -> None:
        nonlocal aborted
        outcomes[idx] = outcome
        if outcome.status != "ok" and config.on_error == "abort":
            aborted = True

    try:
        while not aborted:
            while pending and not aborted:
                worker = next((w for w in workers if w.job is None), None)
                if worker is None and len(workers) >= config.parallelism:
                    break
                idx, path = pending.pop()
                text = None
                try:
                    if path == STDIN_ID and "-" in config.inputs:
                        text = sys.stdin.read()
                    elif not Path(path).exists():
                        raise FileNotFoundError("input path does not exist")
                except (OSError, ValueError) as exc:
                    record(idx, FileOutcome(path=path, status="io_error",
                                            diagnostics=[str(exc)]))
                    continue
                if worker is None:
                    worker = _Worker(ctx, config)
                    workers.append(worker)
                worker.send(idx, path, text, config.per_file_timeout)
            busy = [w for w in workers if w.job is not None]
            if aborted or not busy:
                break
            wait_for = max(0.0, min(w.deadline for w in busy) - time.monotonic())
            ready = multiprocessing.connection.wait([w.conn for w in busy], timeout=wait_for)
            for worker in busy:
                idx, path = worker.job
                if worker.conn in ready:
                    outcome = worker.receive()
                elif time.monotonic() >= worker.deadline:
                    outcome = FileOutcome(path=path, status="timeout")
                    worker.stop(kill=True)
                else:
                    continue
                if worker.conn.closed:
                    workers.remove(worker)
                worker.job = None
                record(idx, outcome)
    finally:
        # On abort, files still in flight are terminated and get no outcome.
        for worker in workers:
            worker.stop(kill=aborted or worker.job is not None)
    ordered = [outcomes[i] for i in sorted(outcomes)]
    return CorpusReport(outcomes=ordered, aborted=aborted,
                        wall_time_s=time.monotonic() - started)


# ---------------------------------------------------------------------------
# Matrix emission.


def _selected_ids(groups) -> list[str]:
    wanted = set(groups)
    return [s.id for s in FEATURE_SCHEMA if s.group in wanted]


def _render_number(value) -> str:
    if isinstance(value, int):
        return str(value)
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text else "0"


def emit_matrix(vectors: list[tuple[str, FeatureVector]], format: str = "csv",
                groups=("size", "expressivity", "structural", "syntactic")) -> bytes:
    """Byte-deterministic matrix; one row per ontology in the given order."""
    versions = {v.schema_version for _, v in vectors}
    if len(versions) > 1:
        raise ValueError(f"mixed schema versions: {sorted(versions)}")
    ids = _selected_ids(groups)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["ontology_id"] + ids)
        for name, vector in vectors:
            row = [name]
            for fid in ids:
                value = vector[fid]
                row.append(value if isinstance(value, str) else _render_number(value))
            writer.writerow(row)
        return buf.getvalue().encode("utf-8")
    if format == "json":
        records = []
        for name, vector in vectors:
            record: dict = {"ontology_id": name, "schema_version": vector.schema_version}
            for fid in ids:
                record[fid] = vector[fid]
            records.append(record)
        return (json.dumps(records, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown format: {format}")


def write_outputs(report: CorpusReport, config: RunConfig) -> bytes:
    """Emit the matrix (returned; also written when output_path is set) and
    drop the JSON report alongside the matrix file."""
    matrix = emit_matrix(report.vectors(), config.format, config.feature_groups)
    if config.output_path:
        out = Path(config.output_path)
        out.write_bytes(matrix)
        report_path = out.with_name(out.name + ".report.json")
        report_path.write_text(json.dumps(report.as_dict(config), indent=2) + "\n",
                               encoding="utf-8")
    return matrix


__all__ = [
    "RunConfig", "CorpusReport", "FileOutcome", "discover_inputs", "run",
    "emit_matrix", "write_outputs",
]
