"""Corpus orchestration: walk inputs, extract per file in worker processes,
emit deterministic feature matrices and a run report.

At most `parallelism` long-lived workers are forked. Each gets two pipes:
the parent writes chunks of files down one and reads the answers from the
other. A message is the length and bytes of one `marshal` dump of plain
data: (chunk number, [(path, text or None), ...]) or the None sentinel
down, and one list of outcome entries (see `_entry`) back, so a run of
small files pays one round trip per chunk, not per file. Both ends are
this program, so `marshal` is safe. A chunk holds ceil(files left /
(4 * parallelism)) files, the heuristic of `multiprocessing.Pool.map`
recomputed from what is left.

Before each file the worker stamps (chunk number, position in the chunk,
start time) into a word of memory it shares with the parent, so a file's
timeout starts when the worker starts it; until the chunk is stamped, it
runs from when the chunk was sent. A worker that overruns a file's timeout
or dies is killed alone: the file the word names gets `timeout` or
`internal_error`, and the rest of its chunk is extracted again by a
replacement, which is started only if files are still waiting. Results are
reordered by discovery order before emission, so parallel and serial runs
produce identical bytes.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import marshal
import math
import mmap
import os
import re
import select
import signal
import struct
import sys
import time
from pathlib import Path

from .features import FeatureVector, extract_all
from .model import Ontology, Record
from .parser import OntologyParseError, _parse_fields, decode_source, parse_ontology
from .schema import (COHESION_WEIGHTS, FEATURE_GROUPS, FEATURE_IDS, FEATURE_SCHEMA, FORMATS,
                     ON_ERROR_POLICIES, SCHEMA_VERSION)

DEFAULT_TIMEOUT = 300.0
_MAX_WAIT = 3600.0  # seconds; poll() takes an int of ms, which ~24.9 days overflows
STDIN_ID = "<stdin>"  # the ontology id of input read from `-`
_URI_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")  # RFC 3986 scheme
# A worker's progress word: chunk number (from 1), position in the chunk and
# time.monotonic_ns() when it started the file there.
_STAMP = struct.Struct("qqq")
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
        if follow_imports and onto.imports:  # one merged model, built once all are read
            imported = _imported_axioms(onto.imports, path, warnings,
                                        {str(Path(path).resolve())})
            onto = Ontology(onto.axioms + tuple(imported), onto.iri, onto.version_iri,
                            onto.imports, onto.annotations)
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


def _imported_axioms(imports, path: str, warnings: list[str], seen: set[str]) -> list:
    """The axioms of the `imports` of the file at `path` that are local files
    (a `file://` IRI or one without a URI scheme), each file's own before its
    imports', none of a file in `seen`; remote imports are left to the report
    as unresolved. An imported file is only parsed: its axioms are walked
    once, in the merged model. A local file that is missing, unreadable or
    unparsable is not merged, and a warning naming the import and the reason
    joins `warnings`."""
    merged = []
    for iri in imports:
        candidate = iri.removeprefix("file://")
        if candidate == iri and _URI_SCHEME.match(iri):
            continue  # remote: never fetched
        target = Path(path).parent / candidate  # an absolute candidate stays as it is
        try:
            resolved = str(target.resolve())
            if resolved in seen:
                continue
            seen.add(resolved)
            axioms, _, _, nested, _ = _parse_fields(decode_source(target.read_bytes()),
                                                    str(target))
        except (OSError, UnicodeDecodeError) as exc:
            warnings.append(f"{path}: warning: import <{iri}> not merged: {exc}")
            continue
        except OntologyParseError as exc:
            warnings.append(f"{path}: warning: import <{iri}> not merged: "
                            f"{exc.diagnostics[0].format()}")
            continue
        merged.extend(axioms)
        merged.extend(_imported_axioms(nested, str(target), warnings, seen))
    return merged


def _stamp(progress, number: int, position: int) -> None:
    """Write (number, position, now) into a worker's progress word. The start
    time goes in first, so a read between the two writes never pairs the
    file with an earlier file's start."""
    stamp = _STAMP.pack(number, position, time.monotonic_ns())
    progress[16:] = stamp[16:]
    progress[:16] = stamp[:16]


def _send(writer, message) -> None:
    """Write `message` to a pipe as its marshalled length and bytes."""
    data = marshal.dumps(message)
    writer.write(_LENGTH.pack(len(data)))
    writer.write(data)
    writer.flush()


def _read(reader):
    """The next message `_send` wrote to the pipe; EOFError if it ends first."""
    head = reader.read(_LENGTH.size)
    if len(head) == _LENGTH.size:
        (size,) = _LENGTH.unpack(head)
        data = reader.read(size)
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


def _outcome(path: str, entry: tuple) -> FileOutcome:
    """The FileOutcome of `path` that `_entry` turned into `entry`."""
    status, values, diagnostics, imports, anonymous, warnings = entry
    vector = None if values is None else FeatureVector(SCHEMA_VERSION,
                                                       dict(zip(FEATURE_IDS, values)))
    return FileOutcome(path, status, vector, diagnostics, imports, anonymous, warnings)


def _serve(reader, writer, progress, follow_imports: bool, weights) -> None:
    """Worker loop: answer each (chunk number, [(path, text), ...]) message
    read from `reader` with the list of its outcomes' `_entry`s, written to
    `writer`, until the None sentinel arrives. Before each file, stamp the
    chunk number, the file's position in the chunk and the time into the
    shared word `progress`.

    The cyclic garbage collector is off while a file is handled: the parse
    and the extraction build no reference cycles, so its passes over the
    model would find nothing to free (tests/test_runner.py checks that they
    leave none). A cycle one file might leave waits only for the collector's
    next pass after that file."""
    while (message := _read(reader)) is not None:
        number, jobs = message
        entries = []
        for position, (path, text) in enumerate(jobs):
            _stamp(progress, number, position)
            gc.disable()
            try:
                outcome = _extract_file(path, text, follow_imports, weights)
            except Exception as exc:  # a bug or resource limit: report it, keep serving
                outcome = FileOutcome(path=path, status="internal_error",
                                      diagnostics=[f"{type(exc).__name__}: {exc}"])
            finally:
                gc.enable()
            entries.append(_entry(outcome))
        _send(writer, entries)


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
    """One long-lived worker process, the parent's ends of its two pipes, the
    progress word the two share, and the chunk it is working on, if any, as
    (discovery index, path, text) per file."""

    def __init__(self, config: RunConfig):
        from_parent, to_worker = os.pipe()
        from_worker, to_parent = os.pipe()
        self.progress = mmap.mmap(-1, _STAMP.size)  # shared with the forked worker
        _flush_std_streams()
        try:
            self.pid = os.fork()
        except OSError:  # e.g. out of processes: release what was opened for it
            for fd in (from_parent, to_worker, from_worker, to_parent):
                os.close(fd)
            self.progress.close()
            raise
        if self.pid == 0:
            # The worker leaves only here, never by unwinding into the
            # parent's frames or its exit handlers.
            code = 1
            try:
                os.close(to_worker)
                os.close(from_worker)
                _detach_stdin()
                _serve(open(from_parent, "rb"), open(to_parent, "wb"), self.progress,
                       config.follow_imports, config.cohesion_weights)
                code = 0
            except EOFError:  # the parent is gone
                code = 0
            finally:
                os._exit(code)
        os.close(from_parent)
        os.close(to_parent)
        self.writer, self.reader = open(to_worker, "wb"), open(from_worker, "rb")
        self.chunk: list[tuple[int, str, str | None]] | None = None
        self.number = 0
        self.sent = 0.0
        self.exitcode: int | None = None

    def send(self, number: int, chunk: list[tuple[int, str, str | None]]) -> None:
        self.chunk, self.number, self.sent = chunk, number, time.monotonic()
        try:
            _send(self.writer, (number, [(path, text) for _, path, text in chunk]))
        except BrokenPipeError:
            pass  # the worker is gone; its pipe reads as EOF and receive reports it

    def receive(self) -> list[tuple] | None:
        """The entries of the chunk's outcomes, or None if the worker died on
        it (its answer ends early or cannot be read)."""
        try:
            return _read(self.reader)
        except (EOFError, ValueError):
            return None

    def current(self, timeout: float) -> tuple[int, float]:
        """The position in the chunk of the file the worker is on, and the
        monotonic time at which that file's timeout runs out: `timeout` after
        the worker stamped it, or after the chunk was sent while the chunk
        is unstamped. The word is read until two reads agree, so a read torn
        by a stamp being written is not used."""
        stamp = _STAMP.unpack_from(self.progress)
        while (again := _STAMP.unpack_from(self.progress)) != stamp:
            stamp = again
        number, position, started_ns = stamp
        if number != self.number:
            return 0, self.sent + timeout
        return position, started_ns / 1e9 + timeout

    def stop(self, kill: bool) -> None:
        """Send the sentinel to an idle worker, or kill a busy one; then reap
        it, keep its exit code and release its pipes and progress word."""
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
        self.progress.close()


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
    # Files still to extract, the next one last, as (discovery index, path,
    # text or None); `failed` holds the outcomes the parent gave some of them.
    pending = [(idx, path, None) for idx, path in enumerate(files)][::-1]
    failed: dict[int, FileOutcome] = {}
    workers: list[_Worker] = []
    aborted = False
    timeout = config.per_file_timeout
    number = 0  # of the last chunk sent

    def record(idx: int, outcome: FileOutcome) -> None:
        nonlocal aborted
        outcomes[idx] = outcome
        if outcome.status != "ok" and config.on_error == "abort":
            aborted = True

    def take_chunk() -> list[tuple[int, str, str | None]]:
        """The next files for a worker, ceil(left / (4 * parallelism)) at
        most. A file whose outcome the parent holds (it cannot be read, or
        its worker failed on it) is recorded if it comes first and ends the
        chunk otherwise, so outcomes are recorded in discovery order."""
        size = -(-len(pending) // (4 * config.parallelism))
        chunk = []
        while pending and len(chunk) < size and not aborted:
            idx, path, text = pending[-1]
            if text is None and idx not in failed:
                try:
                    if path == STDIN_ID and "-" in config.inputs:
                        text = decode_source(sys.stdin.buffer.read())
                    elif not Path(path).exists():
                        raise FileNotFoundError("input path does not exist")
                except (OSError, ValueError) as exc:
                    failed[idx] = FileOutcome(path=path, status="io_error",
                                              diagnostics=[str(exc)])
            if idx in failed and chunk:
                break
            pending.pop()
            if idx in failed:
                record(idx, failed.pop(idx))
            else:
                chunk.append((idx, path, text))
        return chunk

    try:
        while not aborted:
            while pending and not aborted:
                worker = next((w for w in workers if w.chunk is None), None)
                if worker is None and len(workers) >= config.parallelism:
                    break
                chunk = take_chunk()
                if chunk:
                    if worker is None:
                        worker = _Worker(config)
                        workers.append(worker)
                    number += 1
                    worker.send(number, chunk)
            busy = [w for w in workers if w.chunk is not None]
            if aborted or not busy:
                break
            wait_for = max(0.0, min(w.current(timeout)[1] for w in busy) - time.monotonic())
            poller = select.poll()
            for worker in busy:
                poller.register(worker.reader, select.POLLIN)
            # Whole ms, rounded up, so the wait never ends just short of a deadline.
            ready = {fd for fd, _ in poller.poll(math.ceil(min(wait_for, _MAX_WAIT) * 1000))}
            for worker in busy:
                chunk, answered = worker.chunk, worker.reader.fileno() in ready
                entries = worker.receive() if answered else None
                if entries is not None:
                    worker.chunk = None
                    for (idx, path, _), entry in zip(chunk, entries):
                        record(idx, _outcome(path, entry))
                        if aborted:
                            break
                    continue
                position, deadline = worker.current(timeout)
                if not answered and time.monotonic() < deadline:
                    continue
                worker.stop(kill=True)
                workers.remove(worker)
                idx, path, _ = chunk[position]
                failed[idx] = (FileOutcome(path=path, status="internal_error",
                                           diagnostics=[f"worker exited with code "
                                                        f"{worker.exitcode}"])
                               if answered else FileOutcome(path=path, status="timeout"))
                # The chunk goes back whole: the outcomes of the files before
                # the failed one died with the worker.
                pending.extend(chunk)
                pending.sort(reverse=True)
    finally:
        # On abort, chunks still in flight are terminated and get no outcome.
        for worker in workers:
            worker.stop(kill=aborted or worker.chunk is not None)
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
