"""Corpus runner: discovery, isolation, timeouts, deterministic emission."""

import json
import multiprocessing
import os
import random
import re
import time

import pytest

from ontoprof import runner
from ontoprof.features import extract_all
from ontoprof.parser import parse_ontology
from ontoprof.runner import RunConfig, discover_inputs, emit_matrix, run, write_outputs

from golden_data import GOLDEN_DIR

VALID = """Prefix(:=<http://example.org/r#>)
Ontology(
SubClassOf(:A :B)
SubClassOf(:B :C)
)
"""

MALFORMED = "Ontology(SubClassOf(:A))\n"


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
    start = multiprocessing.process.BaseProcess.start

    def spy(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", spy)
    report = run(RunConfig(inputs=[str(corpus)], parallelism=2, per_file_timeout=60))
    assert report.totals["ok"] == 20
    assert 1 <= len(started) <= 2
    assert multiprocessing.active_children() == []


def test_timeout_replaces_only_the_stuck_worker(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=("0stuck", "a", "b", "c"))
    _patch_extractor(monkeypatch, "0stuck.ofn", lambda: time.sleep(60))
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=1.0))
    statuses = [o.status for o in report.outcomes]
    assert statuses == ["timeout", "ok", "ok", "ok"]
    assert multiprocessing.active_children() == []


def test_worker_death_is_internal_error(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=("a", "b", "c", "d"))
    _patch_extractor(monkeypatch, "b.ofn", lambda: os._exit(3))
    report = run(RunConfig(inputs=[str(corpus)], parallelism=1, per_file_timeout=60))
    statuses = {o.path.rsplit("/", 1)[-1]: o.status for o in report.outcomes}
    assert statuses == {"a.ofn": "ok", "b.ofn": "internal_error",
                        "c.ofn": "ok", "d.ofn": "ok"}
    died = report.outcomes[1]
    assert died.diagnostics == ["worker exited with code 3"]
    assert multiprocessing.active_children() == []


def test_worker_exception_is_internal_error(tmp_path):
    deep = tmp_path / "deep.ofn"
    expr = ":B"
    for _ in range(1000):
        expr = f"ObjectComplementOf({expr})"
    deep.write_text(f"Prefix(:=<http://example.org/d#>)\nOntology(\nSubClassOf(:A {expr})\n)\n")
    report = run(RunConfig(inputs=[str(deep)], parallelism=1, per_file_timeout=60))
    assert report.totals["internal_error"] == 1
    assert report.outcomes[0].diagnostics[0].startswith("RecursionError: ")


def test_abort_leaves_no_worker_behind(tmp_path, monkeypatch):
    corpus = make_corpus(tmp_path, names=("a", "b", "c", "d"))
    (corpus / "0bad.ofn").write_text(MALFORMED)
    _patch_extractor(monkeypatch, "a.ofn", lambda: time.sleep(60))
    report = run(RunConfig(inputs=[str(corpus)], parallelism=2,
                           per_file_timeout=60, on_error="abort"))
    assert report.aborted
    assert [o.status for o in report.outcomes] == ["parse_error"]
    assert multiprocessing.active_children() == []


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
