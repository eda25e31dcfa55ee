"""Corpus orchestration: walk inputs, extract per file in worker processes,
emit deterministic feature matrices and a run report.

At most `parallelism` long-lived workers are forked. Each gets two pipes:
the parent writes chunks of files down one and reads the answers from the
other. A message is the length and bytes of one `marshal` dump of plain
data: a chunk [(path, text or None), ...] or the None sentinel down, and
one answer per file back, (time.monotonic_ns() when the file was done, its
outcome's `_entry`), written as soon as the file is done. A worker never
waits on the parent between the files of a chunk. Both ends are this
program, so `marshal` is safe. A chunk holds ceil(files left / (4 *
parallelism)) files, the heuristic of `multiprocessing.Pool.map`
recomputed from what is left.

Since every file is answered, the parent knows which file a worker is on
and when it started it: the first file of a chunk when the chunk was
sent, each later one when the answer before it was done. A worker that
overruns a file's timeout or dies is killed alone: that file gets
`timeout` or `internal_error`, and only the files after it go back to be
sent again, to a replacement that is started only if files are still
waiting. No file is extracted twice. Outcomes are recorded as they arrive
and reported in discovery order, so parallel and serial runs produce
identical bytes. Under the abort policy no file after the earliest
failure known is sent, and the run ends once every file up to that
failure has its outcome, so an aborted run reports the same outcomes at
any parallelism. A worker closes the parent's ends of the pipes of the
workers forked before it, so no worker holds another's pipes open.

A worker builds no model and never holds a file's whole text. The parser
reads and decodes the file a window at a time, holding about one window
of text (a CR-only document, one line, is one window). It adds each name
to the signature sets of one `census.Summary` as it reads it, and hands
each window's axioms to that Summary, which folds them into the census
and drops them; the features are taken from the Summary. So a worker's
memory grows with the signature and the census, not with the document.
Standard input is the exception: the parent reads it whole and sends its
text.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import marshal
import math
import os
import re
import select
import signal
import struct
import sys
import time
from pathlib import Path
from urllib.parse import unquote

# The parser, the largest module, is compiled first: compiled after the census
# and the feature layers, it sets a higher peak RSS for the whole run.
from .parser import OntologyParseError, _parse_fields, decode_source
from .census import Summary
from .features import FeatureVector, extract_all
from .model import Record
from .schema import (COHESION_WEIGHTS, FEATURE_GROUPS, FEATURE_IDS, FEATURE_SCHEMA, FORMATS,
                     ON_ERROR_POLICIES, SCHEMA_VERSION)

DEFAULT_TIMEOUT = 300.0
_MAX_WAIT = 3600.0  # seconds; poll() takes an int of ms, which ~24.9 days overflows
STDIN_ID = "<stdin>"  # the ontology id of input read from `-`
_URI_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")  # RFC 3986 scheme
_FILE_IRI = re.compile(r"file:(?://([^/]*))?", re.IGNORECASE)  # RFC 8089, with its authority
_LENGTH = struct.Struct("Q")  # the byte length of a message on a worker's pipe


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
        if len(cohesion_weights) != 3:
            raise ValueError("cohesion weights must be three numbers")
        if not all(0 <= w < float("inf") for w in cohesion_weights):
            raise ValueError("cohesion weights must be finite and non-negative")
        if format not in FORMATS:
            raise ValueError(f"unknown format: {format}")
        if on_error not in ON_ERROR_POLICIES:
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
    """Outcome for one input: `text`, decoded standard input, or when it is
    None the file at `path`, which the parser reads and decodes a window at
    a time, so carriage returns reach it as written and the worker never
    holds the whole source.

    The axioms are never held together: the parser adds each name to the
    signature sets of one Summary as it reads it and hands each window's
    axioms to that Summary, which folds them into the census and drops
    them, and the features are taken from the Summary."""
    warnings: list[str] = []
    summary = Summary()
    try:
        if text is None:
            with open(path, "rb") as source:
                _, _, imports, annotations = _parse_fields(source, path, summary.add,
                                                           summary.sets)
        else:
            _, _, imports, annotations = _parse_fields(text, path, summary.add, summary.sets)
    except (OSError, UnicodeDecodeError) as exc:
        return FileOutcome(path=path, status="io_error", diagnostics=[str(exc)])
    except OntologyParseError as exc:
        return FileOutcome(path=path, status="parse_error",
                           diagnostics=[d.format() for d in exc.diagnostics])
    del text  # extraction reads only the summary; the source can be freed
    if follow_imports and imports:
        _fold_imports(imports, path, warnings, {str(Path(path).resolve())}, summary)
    vector = extract_all(summary.finish(annotations), cohesion_weights=weights)
    return FileOutcome(path=path, status="ok", vector=vector, imports=list(imports),
                       anonymous_individuals=len(summary.signature.anonymous_individuals),
                       warnings=warnings)


def _fold_imports(imports, path: str, warnings: list[str], seen: set[str],
                  summary: Summary) -> None:
    """Fold into `summary` the axioms of the `imports` of the file at `path`
    that are local files, each file's own before its imports', none of a
    file in `seen`; remote imports are left to the report as unresolved. A
    local import is a reference without a URI scheme, or a `file:` IRI with
    no authority or an empty or `localhost` one (RFC 8089); percent escapes
    in its path are decoded. An imported file is folded in once it has
    parsed whole, its axioms and the names the parser read into sets of
    its own, so only its own axioms are ever held. A local file that is
    missing, unreadable or unparsable is not merged, and a warning naming
    the import and the reason joins `warnings`."""
    for iri in imports:
        file = _FILE_IRI.match(iri)
        if file:
            if (file[1] or "localhost").lower() != "localhost":
                continue  # on another host: never fetched
            reference = iri[file.end():]
        elif _URI_SCHEME.match(iri):
            continue  # remote: never fetched
        else:
            reference = iri
        target = Path(path).parent / unquote(reference)  # an absolute path stays as it is
        try:
            resolved = str(target.resolve())
            if resolved in seen:
                continue
            seen.add(resolved)
            axioms, sets = [], [set() for _ in summary.sets]
            with open(target, "rb") as source:
                _, _, nested, _ = _parse_fields(source, str(target), axioms.extend, sets)
        except (OSError, UnicodeDecodeError) as exc:
            warnings.append(f"{path}: warning: import <{iri}> not merged: {exc}")
            continue
        except OntologyParseError as exc:
            warnings.append(f"{path}: warning: import <{iri}> not merged: "
                            f"{exc.diagnostics[0].format()}")
            continue
        summary.add(axioms)
        for names, found in zip(summary.sets, sets):
            names |= found
        del axioms, sets  # before the nested imports are parsed
        _fold_imports(nested, str(target), warnings, seen, summary)


def _exactly(reader, size: int) -> bytes:
    """`size` bytes from `reader`, fewer only if the pipe ends first. A raw
    reader's read() returns what one system call gives, so read until done."""
    parts = []
    while size and (part := reader.read(size)):
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _send(writer, message) -> None:
    """Write `message` to a pipe as its marshalled length and bytes."""
    data = marshal.dumps(message)
    writer.write(_LENGTH.pack(len(data)))
    writer.write(data)
    writer.flush()


def _read(reader):
    """The next message `_send` wrote to the pipe; EOFError if it ends first."""
    head = _exactly(reader, _LENGTH.size)
    if len(head) == _LENGTH.size:
        (size,) = _LENGTH.unpack(head)
        data = _exactly(reader, size)
        if len(data) == size:
            return marshal.loads(data)
    raise EOFError("the pipe ended before a whole message")


def _entry(outcome: FileOutcome) -> tuple:
    """`outcome` as plain data for the pipe, without its path: (status,
    feature values in FEATURE_IDS order or None, diagnostics, imports,
    anonymous individuals, warnings)."""
    values = None if outcome.vector is None else [outcome.vector.values[f] for f in FEATURE_IDS]
    return (outcome.status, values, outcome.diagnostics, outcome.imports,
            outcome.anonymous_individuals, outcome.warnings)


def _failure(status: str, *diagnostics: str) -> tuple:
    """The `_entry` of an outcome the parent gives a file it cannot send or
    whose worker failed on it."""
    return (status, None, list(diagnostics), [], 0, [])


def _outcome(path: str, entry: tuple) -> FileOutcome:
    """The FileOutcome of `path` that `_entry` turned into `entry`."""
    status, values, diagnostics, imports, anonymous, warnings = entry
    vector = None if values is None else FeatureVector(SCHEMA_VERSION,
                                                       dict(zip(FEATURE_IDS, values)))
    return FileOutcome(path, status, vector, diagnostics, imports, anonymous, warnings)


def _serve(reader, writer, follow_imports: bool, weights) -> None:
    """Worker loop: for each chunk [(path, text), ...] read from `reader`,
    write one answer per file to `writer` as soon as the file is done,
    (time.monotonic_ns() at its finish, its outcome's `_entry`), until the
    None sentinel arrives.

    The cyclic garbage collector is off while a file is handled: the parse
    and the extraction build no reference cycles, so its passes over the
    signature and the census would find nothing to free
    (tests/test_runner.py checks that they leave none). A cycle one file
    might leave waits only for the collector's next pass after that file."""
    while (chunk := _read(reader)) is not None:
        for path, text in chunk:
            gc.disable()
            try:
                outcome = _extract_file(path, text, follow_imports, weights)
            except Exception as exc:  # a bug or resource limit: report it, keep serving
                outcome = FileOutcome(path=path, status="internal_error",
                                      diagnostics=[f"{type(exc).__name__}: {exc}"])
            finally:
                gc.enable()
            _send(writer, (time.monotonic_ns(), _entry(outcome)))


def _flush_std_streams() -> None:
    """Flush what the process has buffered for stdout and stderr, so a
    forked worker that writes to them cannot repeat it."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # None, or closed
            pass


def _detach_stdin() -> None:
    """Point a worker's standard input, descriptor and `sys.stdin`, at
    /dev/null, so it can never read what the parent has yet to read."""
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.close(devnull)
    sys.stdin = open(0, encoding="utf-8", closefd=False)


class _Worker:
    """One long-lived worker process and the parent's ends of its two pipes.
    `chunk` holds the files it was sent and has not answered, as (discovery
    index, path, text) each, the one it is on last; `started` is the
    monotonic time at which it started that file. `others` are the workers
    forked before it and still running."""

    def __init__(self, config: RunConfig, others: list[_Worker]):
        from_parent, to_worker = os.pipe()
        from_worker, to_parent = os.pipe()
        _flush_std_streams()
        try:
            self.pid = os.fork()
        except OSError:  # e.g. out of processes: release what was opened for it
            for fd in (from_parent, to_worker, from_worker, to_parent):
                os.close(fd)
            raise
        if self.pid == 0:
            # The worker leaves only here, never by unwinding into the
            # parent's frames or its exit handlers.
            code = 1
            try:
                os.close(to_worker)
                os.close(from_worker)
                # The parent's ends of the earlier workers' pipes, closed by
                # descriptor: closing their file objects would flush what
                # the parent has buffered into another worker's pipe.
                for other in others:
                    os.close(other.writer.fileno())
                    os.close(other.reader.fileno())
                _detach_stdin()
                _serve(open(from_parent, "rb"), open(to_parent, "wb"),
                       config.follow_imports, config.cohesion_weights)
                code = 0
            except EOFError:  # the parent is gone
                code = 0
            finally:
                os._exit(code)
        os.close(from_parent)
        os.close(to_parent)
        # Unbuffered, so no answer waits in a buffer where poll() cannot see it.
        self.writer, self.reader = open(to_worker, "wb"), open(from_worker, "rb", buffering=0)
        self.chunk: list[tuple[int, str, str | None]] = []
        self.started = 0.0
        self.exitcode: int | None = None

    def send(self, chunk: list[tuple[int, str, str | None]]) -> None:
        """Hand the worker `chunk`, in discovery order; its first file's
        timeout runs from now."""
        self.chunk, self.started = chunk[::-1], time.monotonic()
        try:
            _send(self.writer, [(path, text) for _, path, text in chunk])
        except BrokenPipeError:
            pass  # the worker is gone; its pipe reads as EOF and receive reports it

    def receive(self) -> tuple[int, tuple] | None:
        """The discovery index and outcome `_entry` of the file the worker
        was on, or None if it died on it (its answer ends early or cannot be
        read)."""
        try:
            finished_ns, entry = _read(self.reader)
        except (EOFError, ValueError):
            return None
        self.started = finished_ns / 1e9
        return self.chunk.pop()[0], entry

    def stop(self, kill: bool) -> None:
        """Send the sentinel to an idle worker, or kill a busy one; then reap
        it, keep its exit code and release its pipes."""
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        else:
            try:
                _send(self.writer, None)
            except BrokenPipeError:
                pass  # already exited
        self.exitcode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.reader.close()
        try:
            self.writer.close()
        except BrokenPipeError:  # what the worker never read; the pipe is closed anyway
            pass


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
    # The `_entry` of each file's outcome; they become FileOutcomes once the
    # run is over, so the parent does little per answer. The report covers
    # files[:end], `left` of which have no outcome yet; under abort, `end`
    # is just past the earliest failure known.
    outcomes: list = [None] * len(files)
    end = left = len(files)
    # Files still to send, the next one last, as (discovery index, path, text or None).
    pending = [(idx, path, None) for idx, path in enumerate(files)][::-1]
    workers: list[_Worker] = []
    timeout = config.per_file_timeout

    def record(idx: int, entry: tuple) -> None:
        nonlocal end, left
        if idx >= end:
            return  # past the failure an aborted run stops at: not reported
        outcomes[idx] = entry
        left -= 1
        if entry[0] != "ok" and config.on_error == "abort":
            left -= outcomes[idx + 1:end].count(None)
            end = idx + 1

    def take_chunk() -> list[tuple[int, str, str | None]]:
        """The next files before `end` for a worker, ceil(left / (4 *
        parallelism)) at most; one the parent cannot read is recorded."""
        size = -(-len(pending) // (4 * config.parallelism))
        chunk = []
        while pending and len(chunk) < size and pending[-1][0] < end:
            idx, path, text = pending.pop()
            if text is None:
                try:
                    if path == STDIN_ID and "-" in config.inputs:
                        text = decode_source(sys.stdin.buffer.read())
                    elif not Path(path).exists():
                        raise FileNotFoundError("input path does not exist")
                except (OSError, ValueError) as exc:
                    record(idx, _failure("io_error", str(exc)))
                    continue
            chunk.append((idx, path, text))
        return chunk

    try:
        while True:
            while pending and pending[-1][0] < end:
                worker = next((w for w in workers if not w.chunk), None)
                if worker is None and len(workers) >= config.parallelism:
                    break
                chunk = take_chunk()
                if chunk:
                    if worker is None:
                        worker = _Worker(config, workers)
                        workers.append(worker)
                    worker.send(chunk)
            if not left:
                break
            busy = [w for w in workers if w.chunk]
            wait_for = max(0.0, min(w.started for w in busy) + timeout - time.monotonic())
            poller = select.poll()
            for worker in busy:
                poller.register(worker.reader, select.POLLIN)
            # Whole ms, rounded up, so the wait never ends just short of a deadline.
            ready = {fd for fd, _ in poller.poll(math.ceil(min(wait_for, _MAX_WAIT) * 1000))}
            now = time.monotonic()
            for worker in busy:
                answered = worker.reader.fileno() in ready
                if answered and (answer := worker.receive()) is not None:
                    record(*answer)
                    continue
                if not answered and now < worker.started + timeout:
                    continue
                worker.stop(kill=True)
                workers.remove(worker)
                record(worker.chunk.pop()[0],
                       _failure("internal_error", f"worker exited with code {worker.exitcode}")
                       if answered else _failure("timeout"))
                # Only the files after the failed one go back.
                pending.extend(worker.chunk)
                pending.sort(reverse=True)
    finally:
        # A worker still on a chunk, say after an abort, is killed.
        for worker in workers:
            worker.stop(kill=bool(worker.chunk))
    for idx in range(end):  # in place, so each entry is freed as it is replaced
        outcomes[idx] = _outcome(files[idx], outcomes[idx])
    ordered = outcomes[:end]
    aborted = config.on_error == "abort" and any(o.status != "ok" for o in ordered)
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
