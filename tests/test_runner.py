"""Corpus runner: discovery, isolation, timeouts, deterministic emission."""

import errno
import gc
import io
import json
import math
import os
import random
import re
import select
import signal
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from ontoprof import runner
from ontoprof.census import Summary
from ontoprof.features import FeatureVector, extract_all
from ontoprof.model import Ontology
from ontoprof.parser import decode_source, parse_ontology
from ontoprof.runner import RunConfig, discover_inputs, emit_matrix, run, write_outputs

from golden_data import GOLDEN_DIR

VALID = """Prefix(:=<http://example.org/r#>)
Ontology(
SubClassOf(:A :B)
SubClassOf(:B :C)
)
"""

MALFORMED = "Ontology(SubClassOf(:A))\n"


def no_child_left() -> bool:
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def make_corpus(tmp_path, names=("a", "b", "c")):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in names:
        (corpus / f"{name}.ofn").write_text(VALID)
    return corpus


def test_discover_lexicographic(tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "b.ofn").write_text(VALID)
    (corpus / "a.ofn").write_text(VALID)
    config = RunConfig(inputs=[str(corpus)])
    found = discover_inputs(config)
    assert [f.rsplit("/", 1)[-1] for f in found] == ["a.ofn", "b.ofn"]


def test_discover_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert discover_inputs(RunConfig(inputs=[str(empty)])) == []


def test_discover_filters_extension(tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "a.ofn").write_text(VALID)
    (corpus / "notes.txt").write_text("not an ontology")
    found = discover_inputs(RunConfig(inputs=[str(corpus)]))
    assert len(found) == 1 and found[0].endswith("a.ofn")


def test_run_ok_corpus(tmp_path):
    corpus = make_corpus(tmp_path)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=2, per_file_timeout=60))
    assert not report.aborted
    assert report.totals == {"ok": 3, "parse_error": 0, "timeout": 0, "io_error": 0,
                             "internal_error": 0}
    matrix = emit_matrix(report.vectors())
    assert matrix.decode().count("\n") == 4  # header + 3 rows


def test_run_skip_records_parse_error(tmp_path):
    corpus = make_corpus(tmp_path, names=("good",))
    (corpus / "bad.ofn").write_text(MALFORMED)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=60))
    assert not report.aborted
    assert report.totals["ok"] == 1 and report.totals["parse_error"] == 1
    bad = [o for o in report.outcomes if o.status == "parse_error"][0]
    assert bad.diagnostics and ":" in bad.diagnostics[0]
    assert len(report.vectors()) == 1


def test_run_abort_on_first_failure(tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "0bad.ofn").write_text(MALFORMED)
    (corpus / "1good.ofn").write_text(VALID)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1,
                           per_file_timeout=60, on_error="abort"))
    assert report.aborted


def test_run_missing_input_io_error(tmp_path):
    report = run(RunConfig(inputs=[str(tmp_path / "nowhere.ofn")], per_file_timeout=60))
    assert report.totals["io_error"] == 1


def test_timeout_abandons_stuck_file(tmp_path):
    big = tmp_path / "big.ofn"
    lines = ["Prefix(:=<http://example.org/big#>)", "Ontology("]
    lines.extend(f"SubClassOf(:C{i} :C{i + 1})" for i in range(400_000))
    lines.append(")")
    big.write_text("\n".join(lines))
    ok = tmp_path / "ok.ofn"
    ok.write_text(VALID)
    report = run(RunConfig(inputs=[str(big), str(ok)], parallelism=2,
                           per_file_timeout=0.2))
    statuses = {o.path.rsplit("/", 1)[-1]: o.status for o in report.outcomes}
    assert statuses["big.ofn"] == "timeout"
    assert statuses["ok.ofn"] == "ok"


def test_parallel_matches_serial(tmp_path):
    corpus = make_corpus(tmp_path, names=tuple(f"o{i}" for i in range(8)))
    serial = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=60))
    parallel = run(RunConfig(inputs=[str(corpus)], parallelism=8, per_file_timeout=60))
    assert emit_matrix(serial.vectors()) == emit_matrix(parallel.vectors())


def test_emit_matrix_formats():
    onto = parse_ontology(VALID)
    vectors = [("one.ofn", extract_all(onto))]
    csv_bytes = emit_matrix(vectors, "csv")
    header, row = csv_bytes.decode().strip().split("\n")
    assert header.startswith("ontology_id,SC,")
    assert row.startswith("one.ofn,3,")
    records = json.loads(emit_matrix(vectors, "json"))
    assert records[0]["ontology_id"] == "one.ofn"
    assert records[0]["SC"] == 3
    assert records[0]["schema_version"] == "1"


def test_emit_matrix_number_rendering():
    onto = parse_ontology(VALID)
    vector = extract_all(onto)
    text = emit_matrix([("x", vector)]).decode()
    assert "0.666667" in text  # C_ASB = 2/3 trimmed to six digits
    assert "1.000000" not in text  # trailing zeros trimmed


# Each value with its rendering; values that compare equal but render
# differently, or do not compare equal to themselves, share one matrix.
RENDERINGS = [
    (0, "0"), (0.0, "0"), (-0.0, "-0"), (1, "1"), (1.0, "1"), (1e-7, "0"),
    (2.5e300, "2500000000000000131261900638011050621761171452770397887289635288779506144972"
              "27048946592843770111966010926110958220969544235630808840107643911198046196676"
              "74571209680023164395093445755844869702251484223830874269998627027975974191022"
              "00186631856950356236448146972050142107095289173680490967163648501350400"),
    (float("nan"), "nan"), (float("inf"), "inf"), (True, "True"), (-1.5, "-1.5"),
    ("ALC(D)", "ALC(D)"),
]


def test_emit_matrix_renders_each_value_alike_wherever_it_occurs():
    ids = list(extract_all(parse_ontology(VALID)).values)
    rows, expected = [], []
    for shift in range(len(RENDERINGS)):  # every value after every other one
        pairs = [RENDERINGS[(shift + i) % len(RENDERINGS)] for i in range(len(ids))]
        rows.append((f"r{shift}", FeatureVector("1", {fid: v for fid, (v, _) in zip(ids, pairs)})))
        expected.append([f"r{shift}"] + [text for _, text in pairs])
    lines = emit_matrix(rows).decode().splitlines()
    assert lines[0] == ",".join(["ontology_id"] + ids)
    assert [line.split(",") for line in lines[1:]] == expected


def test_emit_matrix_group_filter():
    onto = parse_ontology(VALID)
    matrix = emit_matrix([("x", extract_all(onto))], "csv", groups=("size",))
    header = matrix.decode().splitlines()[0]
    assert header == "ontology_id,SC,SOP,SDP,SI,SDT,SLA,SA"


def test_emit_matrix_rejects_mixed_versions():
    onto = parse_ontology(VALID)
    a = extract_all(onto)
    b = extract_all(onto)
    b.schema_version = "999"
    with pytest.raises(ValueError):
        emit_matrix([("a", a), ("b", b)])


def test_write_outputs_report(tmp_path):
    corpus = make_corpus(tmp_path, names=("x",))
    out = tmp_path / "matrix.csv"
    config = RunConfig(inputs=[str(corpus)], output_path=str(out), per_file_timeout=60)
    report = run(config)
    write_outputs(report, config)
    assert out.exists()
    payload = json.loads((tmp_path / "matrix.csv.report.json").read_text())
    assert payload["totals"]["ok"] == 1
    assert payload["schema_version"] == "1"
    assert payload["config"]["on_error"] == "skip"
    assert payload["outcomes"][0]["status"] == "ok"


def test_follow_imports_merges_local_file(tmp_path):
    imported = tmp_path / "base.ofn"
    imported.write_text(VALID)
    importer = tmp_path / "main.ofn"
    importer.write_text(
        "Prefix(:=<http://example.org/r#>)\n"
        "Ontology(<http://example.org/main>\n"
        "Import(<base.ofn>)\n"
        "SubClassOf(:X :Y)\n)"
    )
    plain = run(RunConfig(inputs=[str(importer)], per_file_timeout=60))
    merged = run(RunConfig(inputs=[str(importer)], per_file_timeout=60,
                           follow_imports=True))
    assert plain.vectors()[0][1]["SLA"] == 1
    assert merged.vectors()[0][1]["SLA"] == 3


def test_follow_imports_drops_a_leading_byte_order_mark(tmp_path):
    (tmp_path / "base.ofn").write_bytes("\ufeff".encode() + VALID.encode())
    importer = tmp_path / "main.ofn"
    importer.write_bytes("\ufeffPrefix(:=<http://example.org/r#>)\n"
                         "Ontology(<http://example.org/main>\nImport(<base.ofn>)\n"
                         "SubClassOf(:X :Y)\n)".encode())
    merged = run(RunConfig(inputs=[str(importer)], per_file_timeout=60,
                           follow_imports=True))
    assert merged.outcomes[0].warnings == []
    assert merged.vectors()[0][1]["SLA"] == 3


def test_follow_imports_reports_imports_it_cannot_merge(tmp_path):
    (tmp_path / "broken.ofn").write_text("Prefix(:=<http://example.org/b#>)\n"
                                         "Ontology(\n  SubClassOf(:A)\n)\n")
    (tmp_path / "latin1.ofn").write_bytes(b"Ontology(\xff)")
    (tmp_path / "base.ofn").write_text(VALID)
    importer = tmp_path / "main.ofn"
    importer.write_text(
        "Prefix(:=<http://example.org/r#>)\n"
        "Ontology(\nImport(<broken.ofn>)\nImport(<latin1.ofn>)\nImport(<base.ofn>)\n"
        "Import(<http://example.org/remote>)\nSubClassOf(:X :Y)\n)"
    )
    out = tmp_path / "m.csv"
    config = RunConfig(inputs=[str(importer)], per_file_timeout=60, follow_imports=True,
                       output_path=str(out))
    report = run(config)
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.vector["SLA"] == 3  # only base.ofn was merged
    broken, latin1 = outcome.warnings
    assert broken == (f"{importer}: warning: import <broken.ofn> not merged: "
                      f"{tmp_path / 'broken.ofn'}:3:3: error: arity violation: "
                      "SubClassOf needs at least 2 class expressions")
    assert latin1.startswith(f"{importer}: warning: import <latin1.ofn> not merged: "
                             "'utf-8' codec can't decode byte 0xff")
    write_outputs(report, config)
    payload = json.loads((tmp_path / "m.csv.report.json").read_text())
    assert payload["outcomes"][0]["warnings"] == outcome.warnings
    # The warnings change no matrix byte.
    # Both now parse as empty ontologies, so the merge adds nothing.
    (tmp_path / "broken.ofn").write_text("Ontology()")
    (tmp_path / "latin1.ofn").write_text("Ontology()")
    clean = run(config)
    assert clean.outcomes[0].warnings == []
    assert emit_matrix(clean.vectors()) == emit_matrix(report.vectors())


def test_follow_imports_warns_about_missing_local_files(tmp_path):
    (tmp_path / "base.ofn").write_text(VALID)
    gone = tmp_path / "gone.ofn"
    importer = tmp_path / "main.ofn"
    importer.write_text(
        "Prefix(:=<http://example.org/r#>)\n"
        f"Ontology(\nImport(<missing.ofn>)\nImport(<file://{gone}>)\nImport(<base.ofn>)\n"
        "Import(<missing.ofn>)\nImport(<http://example.org/remote.ofn>)\nSubClassOf(:X :Y)\n)"
    )
    out = tmp_path / "m.csv"
    config = RunConfig(inputs=[str(importer)], per_file_timeout=60, follow_imports=True,
                       output_path=str(out))
    report = run(config)
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.vector["SLA"] == 3  # only base.ofn was merged
    # One warning per missing local file; the repeat and the remote import are silent.
    assert outcome.warnings == [
        f"{importer}: warning: import <missing.ofn> not merged: "
        f"[Errno 2] No such file or directory: '{tmp_path / 'missing.ofn'}'",
        f"{importer}: warning: import <file://{gone}> not merged: "
        f"[Errno 2] No such file or directory: '{gone}'",
    ]
    # The warnings change no matrix byte: empty files merge nothing either.
    (tmp_path / "missing.ofn").write_text("Ontology()")
    gone.write_text("Ontology()")
    clean = run(config)
    assert clean.outcomes[0].warnings == []
    assert emit_matrix(clean.vectors()) == emit_matrix(report.vectors())


def test_an_import_chain_is_folded_into_one_summary(tmp_path, monkeypatch):
    """A worker builds no model: every axiom of a 20-file chain is folded
    into the importer's summary exactly once, and the vector is that of
    the merged model of the axioms in import order."""
    files = [tmp_path / f"{k}.ofn" for k in range(20)]
    for k, f in enumerate(files):
        imports = f"Import(<{k + 1}.ofn>)\n" if k + 1 < len(files) else ""
        f.write_text(f"Prefix(:=<http://example.org/{k}#>)\nOntology(<http://example.org/{k}>\n"
                     + imports + "".join(f"SubClassOf(:C{j} :C{j + 1})\n" for j in range(50))
                     + f"SubClassOf(:C0 <http://example.org/{k + 1}#C0>)\n)")
    parts = [parse_ontology(f.read_text(), origin=str(f)) for f in files]
    top = parts[0]
    expected = extract_all(Ontology(tuple(ax for p in parts for ax in p.axioms), top.iri,
                                    top.version_iri, top.imports, top.annotations))
    folded: Counter = Counter()
    models = []
    add, init = Summary.add, Ontology.__init__

    def counting(self, axioms):
        folded.update(axioms)
        add(self, axioms)

    def building(self, *args, **kwargs):
        models.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Summary, "add", counting)
    monkeypatch.setattr(Ontology, "__init__", building)
    outcome = runner._extract_file(str(files[0]), None, True, (1 / 3, 1 / 3, 1 / 3))
    assert outcome.status == "ok" and outcome.warnings == []
    assert models == []
    assert folded == Counter(ax for p in parts for ax in p.axioms)
    assert set(folded.values()) == {1} and len(folded) == 20 * 51
    assert outcome.vector.values == expected.values


def test_the_import_fixture_merges_each_file_once_in_import_order():
    """tests/fixtures/imports/app.ofn imports mid.ofn, which imports
    base.ofn; side.ofn, which imports base.ofn again and app.ofn, a cycle;
    and missing.ofn, which does not exist."""
    folder = GOLDEN_DIR.parent / "imports"
    parts = {name: parse_ontology((folder / f"{name}.ofn").read_text(encoding="utf-8"))
             for name in ("app", "mid", "base", "side")}
    app = parts["app"]
    merged = Ontology(tuple(ax for part in parts.values() for ax in part.axioms), app.iri,
                      app.version_iri, app.imports, app.annotations)
    path = str(folder / "app.ofn")
    for follow, expected in ((True, extract_all(merged)), (False, extract_all(app))):
        outcome = runner._extract_file(path, None, follow, (1 / 3, 1 / 3, 1 / 3))
        assert outcome.status == "ok" and outcome.imports == list(app.imports)
        assert list(outcome.vector.values) == list(expected.values)
        for fid, value in outcome.vector.items():
            assert _same_value(value, expected[fid]), (follow, fid, value)
    assert outcome.warnings == []
    assert runner._extract_file(path, None, True, (1 / 3, 1 / 3, 1 / 3)).warnings == [
        f"{path}: warning: import <missing.ofn> not merged: "
        f"[Errno 2] No such file or directory: '{folder / 'missing.ofn'}'"]
    assert extract_all(merged).values != extract_all(app).values


def test_shared_local_imports_give_the_same_bytes_at_any_jobs_level(tmp_path):
    """Files that import each other (cycles, a shared base, a missing and a
    remote import) give byte-identical matrices and reports at --jobs 1 and
    2, whether imports are followed or not."""
    from gen import random_ontology
    from ontoprof.serializer import serialize

    rng = random.Random(20261019)
    corpus = tmp_path / "corpus"
    (corpus / "lib").mkdir(parents=True)
    names = [f"f{i:02d}.ofn" for i in range(16)] + [f"lib/l{i}.ofn" for i in range(4)]
    for name in names:
        imports = [f"lib/l{i}.ofn" for i in range(4) if rng.random() < 0.4]
        imports += rng.sample([n for n in names if n.startswith("f")], 2)
        imports += ["missing.ofn", "http://example.org/remote.ofn"][:rng.randrange(3)]
        onto = random_ontology(rng)
        if name.startswith("lib/"):  # relative to the importing file
            imports = [i.removeprefix("lib/") if i.startswith("lib/") else f"../{i}"
                       for i in imports]
        text = serialize(Ontology(onto.axioms, onto.iri, imports=tuple(imports)))
        (corpus / name).write_text(text, encoding="utf-8")
    matrices = {}
    for follow in (False, True):
        for jobs in (1, 2):
            config = RunConfig(inputs=[str(corpus)], parallelism=jobs, per_file_timeout=60,
                               follow_imports=follow)
            report = run(config)
            assert report.totals["ok"] == len(names)
            outcomes = report.as_dict(config)["outcomes"]
            matrices[follow, jobs] = (emit_matrix(report.vectors(), "csv"),
                                      emit_matrix(report.vectors(), "json"), outcomes)
        assert matrices[follow, 1] == matrices[follow, 2]
    assert matrices[True, 1][0] != matrices[False, 1][0]  # the imports were merged
    assert any(o["warnings"] for o in matrices[True, 1][2])


def test_abort_on_missing_input(tmp_path):
    report = run(RunConfig(inputs=[str(tmp_path / "ghost.ofn")], on_error="abort",
                           per_file_timeout=60))
    assert report.aborted
    assert report.outcomes[0].status == "io_error"


def test_undecodable_file_is_io_error(tmp_path):
    target = tmp_path / "binary.ofn"
    target.write_bytes(b"Ontology(\xff\xfe\x00junk)")
    report = run(RunConfig(inputs=[str(target)], per_file_timeout=60))
    assert report.totals["io_error"] == 1
    assert report.outcomes[0].diagnostics


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(inputs=[], parallelism=0)
    with pytest.raises(ValueError):
        RunConfig(inputs=[], per_file_timeout=0)
    with pytest.raises(ValueError):
        RunConfig(inputs=[], format="xml")
    with pytest.raises(ValueError):
        RunConfig(inputs=[], feature_groups=("bogus",))


def _patch_extractor(monkeypatch, name, action):
    """Run `action` instead of extracting the file called `name`; forked
    workers inherit the patch."""
    extract = runner._extract_file

    def patched(path, *args):
        if path.endswith(name):
            action()
        return extract(path, *args)

    monkeypatch.setattr(runner, "_extract_file", patched)


def test_workers_are_reused(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=tuple(f"o{i:02d}" for i in range(20)))
    started = []
    init = runner._Worker.__init__

    def spy(worker, *args):
        started.append(worker)
        init(worker, *args)

    monkeypatch.setattr(runner._Worker, "__init__", spy)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=2, per_file_timeout=60))
    assert report.totals["ok"] == 20
    assert 1 <= len(started) <= 2
    assert no_child_left()


def _pipes() -> set[str]:
    """The pipes this process holds a descriptor of, as /proc names them."""
    pipes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the directory listdir had open
            continue
        if target.startswith("pipe:"):
            pipes.add(target)
    return pipes


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_a_worker_holds_no_other_workers_pipes(tmp_path, monkeypatch):
    """The worker forked second closes the parent's ends of the first
    worker's pipes: each worker holds its own two pipes and no other's."""
    corpus = make_corpus(tmp_path, names=tuple(f"o{i}" for i in range(8)))
    inherited = _pipes()  # this process's own, which every worker inherits

    def report_pipes(path, *args):
        return runner.FileOutcome(path, "parse_error",
                                  diagnostics=[str(os.getpid()), *(_pipes() - inherited)])

    monkeypatch.setattr(runner, "_extract_file", report_pipes)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=2, per_file_timeout=60))
    by_worker = {o.diagnostics[0]: frozenset(o.diagnostics[1:]) for o in report.outcomes}
    assert len(by_worker) == 2
    first, second = by_worker.values()
    assert len(first) == len(second) == 2
    assert first.isdisjoint(second)
    assert no_child_left()


def test_timeout_replaces_only_the_stuck_worker(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=("0stuck", "a", "b", "c"))
    _patch_extractor(monkeypatch, "0stuck.ofn", lambda: time.sleep(60))
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=1.0))
    statuses = [o.status for o in report.outcomes]
    assert statuses == ["timeout", "ok", "ok", "ok"]
    assert no_child_left()


def _spy_chunks(monkeypatch):
    """The stems of the files of each chunk the parent sends, in order."""
    chunks = []
    send = runner._Worker.send

    def spy(worker, chunk):
        chunks.append([Path(path).stem for _, path, _ in chunk])
        send(worker, chunk)

    monkeypatch.setattr(runner._Worker, "send", spy)
    return chunks


FILLERS = tuple("efghijklmnop")  # 16 files in all make a first chunk of 4 at --jobs 1


def test_a_files_timeout_starts_when_the_worker_starts_it(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=("a_slow", "b_slow", "c_slow", "d_slow") + FILLERS)
    _patch_extractor(monkeypatch, "_slow.ofn", lambda: time.sleep(0.6))
    chunks = _spy_chunks(monkeypatch)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=1.0))
    assert chunks[0] == ["a_slow", "b_slow", "c_slow", "d_slow"]  # 2.4 s from its send
    assert report.totals["ok"] == 16


def test_a_stuck_file_inside_a_chunk_times_out_alone(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=("a", "b_stuck", "c", "d") + FILLERS)
    _patch_extractor(monkeypatch, "b_stuck.ofn", lambda: time.sleep(60))
    chunks = _spy_chunks(monkeypatch)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=1.0))
    assert chunks[0] == ["a", "b_stuck", "c", "d"]
    assert [o.status for o in report.outcomes] == ["ok", "timeout"] + ["ok"] * 14
    assert no_child_left()


def test_abort_inside_a_chunk_keeps_the_outcomes_before_the_failure(tmp_path, monkeypatch):
    """The files before a stuck one were answered one by one before the
    kill, so an aborted --jobs 1 run records them, as it would file by file,
    and never sends them again."""
    corpus = make_corpus(tmp_path, names=("a", "b", "c_stuck", "d") + FILLERS)
    _patch_extractor(monkeypatch, "c_stuck.ofn", lambda: time.sleep(60))
    chunks = _spy_chunks(monkeypatch)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=1.0,
                           on_error="abort"))
    assert chunks == [["a", "b", "c_stuck", "d"]]
    assert report.aborted
    assert [o.status for o in report.outcomes] == ["ok", "ok", "timeout"]
    assert no_child_left()


def _log_extractions(monkeypatch, log):
    """Append the path of each file a worker starts to extract to `log`."""
    extract = runner._extract_file

    def logged(path, *args):
        with open(log, "a", encoding="utf-8") as out:
            out.write(path + "\n")
        return extract(path, *args)

    monkeypatch.setattr(runner, "_extract_file", logged)


@pytest.mark.parametrize("failure, status", [(lambda: time.sleep(60), "timeout"),
                                             (lambda: os._exit(3), "internal_error")])
def test_a_failed_file_after_instant_ones_in_its_chunk_is_named_alone(tmp_path, monkeypatch,
                                                                      failure, status):
    """The parent pauses after each send, so the answers of the instant
    files are all waiting when it reads the first; each must be seen before
    it waits again, or the wait would time the wrong file. After the kill
    only the files after the failed one are sent again, so no file is
    extracted twice."""
    corpus = make_corpus(tmp_path, names=("a", "b", "c", "d_stuck") + FILLERS)
    _patch_extractor(monkeypatch, "d_stuck.ofn", failure)
    log = tmp_path / "extracted"
    _log_extractions(monkeypatch, log)
    send = runner._Worker.send
    monkeypatch.setattr(runner._Worker, "send",
                        lambda worker, chunk: (send(worker, chunk), time.sleep(0.3)))
    chunks = _spy_chunks(monkeypatch)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=1.0))
    assert chunks[:2] == [["a", "b", "c", "d_stuck"], ["e", "f", "g"]]
    assert [o.status for o in report.outcomes] == ["ok"] * 3 + [status] + ["ok"] * 12
    assert [Path(o.path).stem for o in report.outcomes if o.status != "ok"] == ["d_stuck"]
    assert Counter(log.read_text().splitlines()) == {o.path: 1 for o in report.outcomes}
    assert no_child_left()


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_aborted_run_reports_the_same_outcomes_at_any_jobs_level(tmp_path, monkeypatch,
                                                                     capsys, jobs):
    """A failure found while an earlier file is still being extracted stops
    the run only once that file has its outcome."""
    from ontoprof.cli import main

    corpus = make_corpus(tmp_path, names=("a_slow", "c", "d"))
    (corpus / "b_bad.ofn").write_text(MALFORMED)
    (corpus / "e_bad.ofn").write_text(MALFORMED)
    _patch_extractor(monkeypatch, "a_slow.ofn", lambda: time.sleep(0.5))
    report = run(RunConfig(inputs=[str(corpus)], parallelism=jobs, per_file_timeout=60,
                           on_error="abort"))
    assert report.aborted
    assert [(Path(o.path).stem, o.status) for o in report.outcomes] == [
        ("a_slow", "ok"), ("b_bad", "parse_error")]
    assert no_child_left()
    assert main(["extract", "--on-error", "abort", "--jobs", str(jobs), str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"{d}\n" for d in report.outcomes[1].diagnostics) + \
        "ontoprof: run aborted\n"


def test_input_from_stdin_is_kept_when_its_chunk_goes_back(tmp_path, monkeypatch):
    """"#" sorts before "<", so the stuck file comes just before the
    standard input, whose text is in the part of the chunk that goes back."""
    (tmp_path / "#stuck").mkdir()
    (tmp_path / "#stuck" / "a_stuck.ofn").write_text(VALID)
    make_corpus(tmp_path, names=FILLERS + ("q", "r"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(VALID.encode())))
    _patch_extractor(monkeypatch, "a_stuck.ofn", lambda: time.sleep(60))
    chunks = _spy_chunks(monkeypatch)
    report = run(RunConfig(inputs=["#stuck", "-", "corpus"], parallelism=1,
                           per_file_timeout=1.0))
    assert chunks[:2] == [["a_stuck", "<stdin>", "e", "f"], ["<stdin>", "e", "f", "g"]]
    assert [o.status for o in report.outcomes] == ["timeout"] + ["ok"] * 15
    assert report.vectors()[0] == ("<stdin>", report.vectors()[1][1])


def test_a_corpus_of_small_files_takes_few_round_trips(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=tuple(f"o{i:02d}" for i in range(40)))
    chunks = _spy_chunks(monkeypatch)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=60))
    assert report.totals["ok"] == 40
    assert len(chunks) < 20


def test_worker_death_is_internal_error(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=("a", "b", "c", "d"))
    _patch_extractor(monkeypatch, "b.ofn", lambda: os._exit(3))
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=60))
    statuses = {o.path.rsplit("/", 1)[-1]: o.status for o in report.outcomes}
    assert statuses == {"a.ofn": "ok", "b.ofn": "internal_error",
                        "c.ofn": "ok", "d.ofn": "ok"}
    died = report.outcomes[1]
    assert died.diagnostics == ["worker exited with code 3"]
    assert no_child_left()


def test_worker_exception_is_internal_error(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=("a", "b", "c"))

    def fail():
        raise RuntimeError("extractor bug")

    _patch_extractor(monkeypatch, "b.ofn", fail)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=60))
    assert [o.status for o in report.outcomes] == ["ok", "internal_error", "ok"]
    assert report.outcomes[1].diagnostics == ["RuntimeError: extractor bug"]


def test_extraction_leaves_no_cyclic_garbage():
    """The worker turns the collector off while it handles a file, which is
    sound only while parsing and extracting build no reference cycles: with
    the collector off, every kind of outcome must leave nothing for it."""
    from gen import random_ontology
    from ontoprof.serializer import serialize
    from test_parser import MALFORMED_CASES

    rng = random.Random(20261018)
    texts = [p.read_text(encoding="utf-8") for p in sorted(GOLDEN_DIR.glob("*.ofn"))]
    texts += [serialize(random_ontology(rng, every_form=True)) for _ in range(200)]
    texts += [text for text, _ in MALFORMED_CASES]
    texts.append(f"Ontology(SubClassOf(<http://x/A> {'ObjectComplementOf(' * 1000}"
                 f"<http://x/B>{')' * 1000}))")
    statuses = []
    gc.collect()
    gc.disable()
    try:
        for i, text in enumerate(texts):
            outcome = runner._extract_file(f"{i}.ofn", text, False, (1 / 3, 1 / 3, 1 / 3))
            statuses.append(outcome.status)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert statuses[-1] == "parse_error"
    assert "limit exceeded" in outcome.diagnostics[0]
    assert statuses.count("parse_error") == len(MALFORMED_CASES) + 1
    assert statuses.count("ok") == len(texts) - len(MALFORMED_CASES) - 1


class _WorkerEnd:
    """The worker's ends of its pipes: `reader` holds the chunks and the
    sentinel, and each write to this end is kept with whether the collector
    was on when it was made."""

    def __init__(self, chunks):
        self.reader = io.BytesIO()
        for message in [*chunks, None]:
            runner._send(self.reader, message)
        self.reader.seek(0)
        self.writes = []

    def write(self, data):
        self.writes.append((bytes(data), gc.isenabled()))

    def flush(self):
        pass

    def answers(self):
        """The messages written, each (finish time in ns, outcome entry)."""
        written = io.BytesIO(b"".join(data for data, _ in self.writes))
        return [runner._read(written) for _ in range(len(self.writes) // 2)]


def test_worker_turns_the_collector_back_on_after_each_file(monkeypatch):
    def extract(path, text, *args):
        if gc.isenabled():
            return runner.FileOutcome(path=path, status="ok")  # the pause is missing
        if path == "bug.ofn":
            raise RuntimeError("extractor bug")
        return runner.FileOutcome(path=path, status="parse_error")

    monkeypatch.setattr(runner, "_extract_file", extract)
    end = _WorkerEnd([[("bug.ofn", ""), ("bad.ofn", "")]])
    before = time.monotonic_ns()
    try:
        runner._serve(end.reader, end, False, (1 / 3, 1 / 3, 1 / 3))
    finally:
        enabled = gc.isenabled()
        gc.enable()
    answers = end.answers()
    assert [entry[:3] for _, entry in answers] == [("internal_error", None,
                                                    ["RuntimeError: extractor bug"]),
                                                   ("parse_error", None, [])]
    finished = [finished_ns for finished_ns, _ in answers]
    assert before <= finished[0] <= finished[1] <= time.monotonic_ns()
    # One answer per file, each its length and then its entry.
    assert [on for _, on in end.writes] == [True] * 4
    assert enabled


def test_nesting_too_deep_to_parse_is_a_positioned_parse_error(tmp_path):
    deep = tmp_path / "deep.ofn"
    expr = ":B"
    for _ in range(1000):
        expr = f"ObjectComplementOf({expr})"
    deep.write_text(f"Prefix(:=<http://example.org/d#>)\nOntology(\nSubClassOf(:A {expr})\n)\n")
    report = run(RunConfig(inputs=[str(deep)], parallelism=1, per_file_timeout=60))
    assert report.totals["parse_error"] == 1
    (diagnostic,) = report.outcomes[0].diagnostics
    assert re.fullmatch(re.escape(f"{deep}:3:") + r"\d+: error: limit exceeded: nesting is "
                        r"deeper than the parser's recursion limit", diagnostic)


def test_values_the_model_cannot_hold_are_parse_errors(tmp_path):
    """An empty entity IRI and a cardinality too long for int() are the
    input's fault: positioned parse errors, never internal errors."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "empty_iri.ofn").write_text("Ontology(Declaration(Class(<>)))\n")
    digits = "9" * 5000
    (corpus / "long_int.ofn").write_text(
        f"Prefix(:=<http://example.org/r#>)\nOntology(\nSubClassOf(:A ObjectMinCardinality("
        f"{digits} :p))\nSubClassOf(:B DataMinCardinality({digits} :d))\n)\n")
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=60))
    assert [o.status for o in report.outcomes] == ["parse_error", "parse_error"]
    assert report.outcomes[0].diagnostics == [
        f"{corpus / 'empty_iri.ofn'}:1:28: error: syntax error: entity IRI must be non-empty"]
    assert report.outcomes[1].diagnostics == [
        f"{corpus / 'long_int.ofn'}:3:36: error: limit exceeded: integer has more than "
        f"4300 digits"]


def test_abort_leaves_no_worker_behind(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=("a", "b", "c", "d"))
    (corpus / "0bad.ofn").write_text(MALFORMED)
    _patch_extractor(monkeypatch, "a.ofn", lambda: time.sleep(60))
    report = run(RunConfig(inputs=[str(corpus)], parallelism=2,
                           per_file_timeout=60, on_error="abort"))
    assert report.aborted
    assert [o.status for o in report.outcomes] == ["parse_error"]
    assert no_child_left()


def _mutants(count, seed):
    """Seeded damage to the golden fixtures: truncate, drop or duplicate a
    parenthesis, or swap two tokens."""
    rng = random.Random(seed)
    texts = [p.read_text(encoding="utf-8") for p in sorted(GOLDEN_DIR.glob("*.ofn"))]
    for _ in range(count):
        text = rng.choice(texts)
        kind = rng.randrange(4)
        if kind == 0:
            yield text[:rng.randrange(len(text))]
        elif kind in (1, 2):
            at = rng.choice([m.start() for m in re.finditer(r"[()]", text)])
            yield text[:at] + (text[at] * 2 if kind == 2 else "") + text[at + 1:]
        else:
            first, second = sorted(rng.sample(list(re.finditer(r"[^\s()]+", text)), 2),
                                   key=lambda m: m.start())
            yield (text[:first.start()] + second.group() + text[first.end():second.start()]
                   + first.group() + text[second.end():])


def test_mutation_fuzz_yields_rows_or_positioned_diagnostics(tmp_path):
    corpus = tmp_path / "mutants"
    corpus.mkdir()
    for i, text in enumerate(_mutants(300, seed=2015)):
        (corpus / f"m{i:03d}.ofn").write_text(text, encoding="utf-8")
    started = time.monotonic()
    report = run(RunConfig(inputs=[str(corpus)], parallelism=2, per_file_timeout=30))
    assert time.monotonic() - started < 60
    assert len(report.outcomes) == 300
    positioned = re.compile(r":\d+:\d+: error: ")
    for outcome in report.outcomes:
        assert outcome.status in ("ok", "parse_error"), (outcome.path, outcome.diagnostics)
        if outcome.status == "parse_error":
            assert outcome.diagnostics, outcome.path
            assert all(positioned.search(d) for d in outcome.diagnostics), outcome.diagnostics


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("ending", ["ok", "timeout", "dead_worker", "abort", "fork_fails"])
def test_no_descriptor_or_child_is_left_behind(tmp_path, monkeypatch, ending):
    """Raw pipes raise no ResourceWarning when they leak, so count them."""
    corpus = make_corpus(tmp_path, names=("a", "b", "c", "d"))
    if ending == "abort":
        (corpus / "0bad.ofn").write_text(MALFORMED)
    if ending in ("timeout", "dead_worker", "abort"):
        _patch_extractor(monkeypatch, "a.ofn", {"timeout": lambda: time.sleep(60),
                                                "dead_worker": lambda: os._exit(3),
                                                "abort": lambda: time.sleep(60)}[ending])
    if ending == "fork_fails":
        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
    before = sorted(os.listdir("/proc/self/fd"))
    config = RunConfig(inputs=[str(corpus)], parallelism=2, per_file_timeout=1.0,
                       on_error="abort" if ending == "abort" else "skip")
    if ending == "fork_fails":
        with pytest.raises(BlockingIOError):
            run(config)
    else:
        report = run(config)
        assert [o.status for o in report.outcomes] == {
            "ok": ["ok"] * 4, "timeout": ["timeout", "ok", "ok", "ok"],
            "dead_worker": ["internal_error", "ok", "ok", "ok"], "abort": ["parse_error"]}[ending]
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert no_child_left()


def _same_value(a, b) -> bool:
    """Equal with the same type; NaN matches NaN, and -0.0 does not match 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (a == b or a != a and b != b) and math.copysign(1, a) == math.copysign(1, b)
    return a == b


@pytest.mark.parametrize("jobs", [1, 2])
def test_feature_values_keep_their_type_through_the_pipe(tmp_path, jobs):
    from gen import random_ontology
    from ontoprof.serializer import serialize

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for fixture in sorted(GOLDEN_DIR.glob("*.ofn")):
        (corpus / f"golden_{fixture.name}").write_bytes(fixture.read_bytes())
    for seed in range(50):
        (corpus / f"random_{seed:02d}.ofn").write_text(
            serialize(random_ontology(random.Random(seed))), encoding="utf-8")
    # A cardinality beyond 64 bits, and a mean cardinality beyond the float range.
    (corpus / "huge.ofn").write_text("Prefix(:=<http://example.org/h#>)\nOntology(\n"
                                     f"SubClassOf(:A ObjectMinCardinality({'9' * 400} :p))\n)\n")
    expected = {str(path): extract_all(parse_ontology(decode_source(path.read_bytes()),
                                                      origin=str(path))).values
                for path in sorted(corpus.iterdir())}
    report = run(RunConfig(inputs=[str(corpus)], parallelism=jobs, per_file_timeout=60))
    assert report.totals["ok"] == len(expected)
    for path, vector in report.vectors():
        assert vector.schema_version == "1"
        assert list(vector.values) == list(expected[path])
        for fid, value in vector.items():
            assert _same_value(value, expected[path][fid]), (path, fid, value)
    assert dict(report.vectors())[str(corpus / "huge.ofn")]["HVC_Min"] == int("9" * 400)


def test_output_buffered_before_a_fork_is_written_once(tmp_path, monkeypatch, capfd):
    """Text the parent has buffered is flushed before a worker is forked, so
    a worker that writes to stdout or stderr does not repeat it."""
    corpus = make_corpus(tmp_path, names=("a",))
    # Block-buffered: under capfd neither descriptor is a terminal.
    out, err = (open(fd, "w", encoding="utf-8", closefd=False) for fd in (1, 2))
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)

    def speak():
        print("worker", file=sys.stdout, flush=True)
        print("worker", file=sys.stderr, flush=True)

    _patch_extractor(monkeypatch, "a.ofn", speak)
    print("parent", end="", file=sys.stdout)
    print("parent", end="", file=sys.stderr)
    try:
        report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=60))
    finally:
        monkeypatch.undo()
        out.close()
        err.close()
    assert report.totals["ok"] == 1
    assert capfd.readouterr() == ("parentworker\n", "parentworker\n")


def test_a_worker_reads_nothing_of_the_parents_stdin(tmp_path, monkeypatch):
    """The parent reads `-` only when its chunk comes up; a worker that
    reads standard input before that gets end of input, and the parent
    still gets all of it."""
    corpus = make_corpus(tmp_path, names=("a",))  # discovered before "<stdin>"
    seen = tmp_path / "seen"
    _patch_extractor(monkeypatch, "a.ofn", lambda: seen.write_text(
        repr((os.read(0, 1 << 16), sys.stdin.read()))))
    read_end, write_end = os.pipe()
    os.write(write_end, VALID.encode())
    os.close(write_end)
    saved = os.dup(0)
    os.dup2(read_end, 0)
    os.close(read_end)
    stdin = open(0, encoding="utf-8", closefd=False)
    monkeypatch.setattr(sys, "stdin", stdin)
    try:
        report = run(RunConfig(inputs=[str(corpus), "-"], parallelism=1, per_file_timeout=60))
    finally:
        os.dup2(saved, 0)
        os.close(saved)
        stdin.close()
    assert seen.read_text() == repr((b"", ""))
    assert [o.status for o in report.outcomes] == ["ok", "ok"]
    assert report.vectors()[1] == ("<stdin>", report.vectors()[0][1])


def test_a_worker_never_returns_into_the_parents_frames(tmp_path, monkeypatch):
    """A worker that raises, even a BaseException, exits with code 1; it
    never unwinds into the frames it was forked from."""
    corpus = make_corpus(tmp_path, names=("a", "b"))

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "_serve", interrupted)
    parent, unwound = os.getpid(), tmp_path / "unwound"
    try:
        report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=60))
    finally:
        if os.getpid() != parent:  # a worker got back here
            unwound.touch()
            os._exit(0)
    assert not unwound.exists()
    assert [o.diagnostics for o in report.outcomes] == [["worker exited with code 1"]] * 2


def test_the_parent_does_not_spin_before_a_deadline(tmp_path, monkeypatch):
    """Waits are whole ms rounded up, so none ends just short of the
    deadline it waits for: the stuck file costs two waits, one per start."""
    corpus = make_corpus(tmp_path, names=("stuck",))
    _patch_extractor(monkeypatch, "stuck.ofn", lambda: time.sleep(60))
    waits = []
    poll = select.poll

    class Poller:
        def __init__(self):
            self.poller = poll()
            self.register = self.poller.register

        def poll(self, ms):
            waits.append(ms)
            return self.poller.poll(ms)

    monkeypatch.setattr(select, "poll", Poller)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=0.5))
    assert [o.status for o in report.outcomes] == ["timeout"]
    assert 1 <= len(waits) <= 3, waits
    assert all(type(ms) is int and ms > 0 for ms in waits), waits


def _write_garbage(reader, writer, *args):
    """A worker that answers its chunk with bytes no message is made of,
    then waits for its pipe to close, so the parent kills it."""
    writer.write(runner._LENGTH.pack(3) + b"\xff\xff\xff")
    writer.flush()
    reader.read()


def _write_half(reader, writer, *args):
    """A worker that dies half way through its answer."""
    writer.write(runner._LENGTH.pack(100) + b"\x00" * 10)
    writer.flush()
    os._exit(4)


@pytest.mark.parametrize("serve, code", [(_write_garbage, -signal.SIGKILL),
                                         (_write_half, 4)])
def test_an_answer_that_cannot_be_read_is_a_dead_worker(tmp_path, monkeypatch, serve, code):
    corpus = make_corpus(tmp_path, names=("a", "b"))
    monkeypatch.setattr(runner, "_serve", serve)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=60))
    assert [(o.status, o.diagnostics) for o in report.outcomes] == [
        ("internal_error", [f"worker exited with code {code}"])] * 2
    assert no_child_left()


def test_a_send_to_a_dead_worker_is_a_dead_worker(monkeypatch):
    """A chunk larger than a pipe holds meets a worker that has exited."""
    text = VALID + "# padding\n" * 200_000
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    monkeypatch.setattr(runner, "_serve", lambda *args: os._exit(5))
    report = run(RunConfig(inputs=["-"], parallelism=1, per_file_timeout=60))
    assert [(o.path, o.status, o.diagnostics) for o in report.outcomes] == [
        ("<stdin>", "internal_error", ["worker exited with code 5"])]
    assert no_child_left()
