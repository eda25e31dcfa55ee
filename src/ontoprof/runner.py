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
import gc
import io
import json
import multiprocessing
import multiprocessing.connection
import os
import re
import sys
import time
from pathlib import Path

from .features import FeatureVector, extract_all
from .model import Ontology, Record
from .parser import OntologyParseError, decode_source, parse_ontology
from .schema import COHESION_WEIGHTS, FEATURE_GROUPS, FEATURE_SCHEMA, SCHEMA_VERSION

DEFAULT_TIMEOUT = 300.0
_MAX_WAIT = 3600.0  # seconds; poll() takes an int of ms, which ~24.9 days overflows
STDIN_ID = "<stdin>"  # the ontology id of input read from `-`
_URI_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")  # RFC 3986 scheme


class RunConfig(Record):
    """The options of one run; the report lists them in `_fields` order.
    `parallelism` None means one worker per CPU."""

    _fields = ("inputs", "output_path", "format", "feature_groups", "per_file_timeout",
               "parallelism", "on_error", "follow_imports", "cohesion_weights")

    def __init__(self, inputs: list[str], output_path: str | None = None, format: str = "csv",
                 feature_groups: tuple[str, ...] = FEATURE_GROUPS,
                 per_file_timeout: float = DEFAULT_TIMEOUT, parallelism: int | None = None,
                 on_error: str = "skip", follow_imports: bool = False,
                 cohesion_weights: tuple[float, float, float] = COHESION_WEIGHTS):
        if parallelism is None:
            parallelism = os.cpu_count() or 1
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if not 0 < per_file_timeout < float("inf"):  # also false for NaN
            raise ValueError("per_file_timeout must be a finite positive number")
        if not all(0 <= w < float("inf") for w in cohesion_weights):
            raise ValueError("cohesion weights must be finite and non-negative")
        if format not in ("csv", "json"):
            raise ValueError(f"unknown format: {format}")
        if on_error not in ("skip", "abort"):
            raise ValueError(f"unknown on_error policy: {on_error}")
        unknown = set(feature_groups).difference(FEATURE_GROUPS)
        if unknown:
            raise ValueError(f"unknown feature groups: {sorted(unknown)}")
        if not feature_groups:
            raise ValueError("no feature groups selected; choose from "
                             + ",".join(FEATURE_GROUPS))
        self.inputs, self.output_path, self.format = inputs, output_path, format
        self.feature_groups, self.per_file_timeout = feature_groups, per_file_timeout
        self.parallelism, self.on_error = parallelism, on_error
        self.follow_imports, self.cohesion_weights = follow_imports, cohesion_weights


class FileOutcome(Record):
    """What one input gave: its status, its vector if "ok", and messages."""

    _fields = ("path", "status", "vector", "diagnostics", "imports", "anonymous_individuals",
               "warnings")

    def __init__(self, path: str, status: str, vector: FeatureVector | None = None,
                 diagnostics: list[str] | None = None, imports: list[str] | None = None,
                 anonymous_individuals: int = 0, warnings: list[str] | None = None):
        self.path = path
        self.status = status  # "ok" | "parse_error" | "timeout" | "io_error" | "internal_error"
        self.vector = vector
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.imports = [] if imports is None else imports
        self.anonymous_individuals = anonymous_individuals
        self.warnings = [] if warnings is None else warnings


class CorpusReport(Record):
    _fields = ("outcomes", "aborted", "wall_time_s", "schema_version")

    def __init__(self, outcomes: list[FileOutcome], aborted: bool, wall_time_s: float,
                 schema_version: str = SCHEMA_VERSION):
        self.outcomes, self.aborted = outcomes, aborted
        self.wall_time_s, self.schema_version = wall_time_s, schema_version

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
        cfg = dict(zip(config._fields, config._values()))
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
                    "warnings": o.warnings,
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
    """Outcome for one input; when `text` is None it is decoded from the
    bytes of `path` by `decode_source`, as standard input is, so carriage
    returns reach the parser as written."""
    try:
        if text is None:
            text = decode_source(Path(path).read_bytes())
    except (OSError, UnicodeDecodeError) as exc:
        return FileOutcome(path=path, status="io_error", diagnostics=[str(exc)])
    warnings: list[str] = []
    try:
        onto = parse_ontology(text, origin=path)
        del text  # extraction reads only the model; the source can be freed
        if follow_imports and onto.imports:
            onto = _resolve_imports(onto, path, warnings)
        vector = extract_all(onto, cohesion_weights=weights)
        return FileOutcome(
            path=path, status="ok", vector=vector,
            imports=list(onto.imports),
            anonymous_individuals=len(onto.signature.anonymous_individuals),
            warnings=warnings,
        )
    except OntologyParseError as exc:
        return FileOutcome(path=path, status="parse_error",
                           diagnostics=[d.format() for d in exc.diagnostics])


def _resolve_imports(onto, path: str, warnings: list[str], seen: set[str] | None = None):
    """Merge axioms from imports that are local files (a `file://` IRI or
    one without a URI scheme); remote imports are left to the report as
    unresolved. A local file that is missing, unreadable or unparsable is
    not merged, and a warning naming the import and the reason is appended
    to `warnings`."""
    seen = seen or {str(Path(path).resolve())}
    merged = list(onto.axioms)
    for iri in onto.imports:
        if iri.startswith("file://"):
            candidate = iri[len("file://"):]
        elif _URI_SCHEME.match(iri):
            continue  # remote: never fetched
        else:
            candidate = iri
        target = Path(candidate)
        if not target.is_absolute():
            target = Path(path).parent / candidate
        try:
            resolved = str(target.resolve())
            if resolved in seen:
                continue
            seen.add(resolved)
            imported = parse_ontology(decode_source(target.read_bytes()), origin=str(target))
        except (OSError, UnicodeDecodeError) as exc:
            warnings.append(f"{path}: warning: import <{iri}> not merged: {exc}")
            continue
        except OntologyParseError as exc:
            warnings.append(f"{path}: warning: import <{iri}> not merged: "
                            f"{exc.diagnostics[0].format()}")
            continue
        imported = _resolve_imports(imported, str(target), warnings, seen)
        merged.extend(imported.axioms)
    return Ontology(axioms=tuple(merged), iri=onto.iri, version_iri=onto.version_iri,
                    imports=onto.imports, annotations=onto.annotations)


def _serve(conn, follow_imports: bool, weights) -> None:
    """Worker loop: answer each (path, text) job with its FileOutcome until
    the None sentinel arrives.

    The cyclic garbage collector is off while a file is handled: the parse
    and the extraction build no reference cycles, so its passes over the
    model would find nothing to free (tests/test_runner.py checks that they
    leave none). A cycle one file might leave waits only for the collector's
    next pass after that file."""
    for path, text in iter(conn.recv, None):
        gc.disable()
        try:
            outcome = _extract_file(path, text, follow_imports, weights)
        except Exception as exc:  # a bug or resource limit: report it, keep serving
            outcome = FileOutcome(path=path, status="internal_error",
                                  diagnostics=[f"{type(exc).__name__}: {exc}"])
        finally:
            gc.enable()
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
                        text = decode_source(sys.stdin.buffer.read())
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
            ready = multiprocessing.connection.wait([w.conn for w in busy],
                                                    timeout=min(wait_for, _MAX_WAIT))
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
                groups=FEATURE_GROUPS) -> bytes:
    """Byte-deterministic matrix; one row per ontology in the given order."""
    versions = {v.schema_version for _, v in vectors}
    if len(versions) > 1:
        raise ValueError(f"mixed schema versions: {sorted(versions)}")
    ids = _selected_ids(groups)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["ontology_id"] + ids)
        # Each distinct value is rendered once, keyed by its type so that 1 and
        # 1.0 differ, and a float zero by its text too so that -0.0 and 0.0 do.
        rendered: dict = {}
        for name, vector in vectors:
            row = [name]
            values = vector.values
            for fid in ids:
                value = values[fid]
                t = type(value)
                key = (t, value) if value or t is not float else (t, value, str(value))
                text = rendered.get(key)
                if text is None:
                    text = rendered[key] = value if t is str else _render_number(value)
                row.append(text)
            writer.writerow(row)
        return buf.getvalue().encode("utf-8")
    if format == "json":
        records = []
        for name, vector in vectors:
            values = vector.values
            record = {"ontology_id": name, "schema_version": vector.schema_version}
            record.update({fid: values[fid] for fid in ids})
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
