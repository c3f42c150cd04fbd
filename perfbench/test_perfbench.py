"""Tests of the benchmark's own code: generator, output checks and span arithmetic.

Run from the repository root with ``src`` importable:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import traced  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def small_specs(monkeypatch):
    """Every workload at a few hundred records; same generator code paths."""
    for name, spec in corpus.SPECS.items():
        monkeypatch.setitem(corpus.SPECS, name, dataclasses.replace(
            spec, table_size=300, samples=min(spec.samples, 120),
            train_lines=min(spec.train_lines, 200)))


def _files_bytes(files: dict[str, Path]) -> dict[str, bytes]:
    return {role: path.read_bytes() for role, path in files.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(small_specs, tmp_path, workload):
    first = corpus.generate(workload, 7, run.ROOT).write(tmp_path / "a")
    again = corpus.generate(workload, 7, run.ROOT).write(tmp_path / "b")
    other = corpus.generate(workload, 8, run.ROOT).write(tmp_path / "c")
    assert _files_bytes(first) == _files_bytes(again)
    assert _files_bytes(first)["table"] != _files_bytes(other)["table"]


def test_generator_shape(small_specs):
    data = corpus.generate("eval-lines", 3, run.ROOT)
    sample = [line for line in (run.ROOT / corpus.SAMPLE_TABLE).read_text("utf-8").splitlines()
              if line and not line.startswith("#")]
    assert [f"{c}\t{' '.join(t)}" for c, t in data.table_rows[:len(sample)]] == sample
    assert len({c for c, _ in data.table_rows}) == len(data.table_rows) == 300
    assert all(3 <= len(t) < corpus.MAX_LEN for _, t in data.table_rows[len(sample):])
    assert all(10 <= len(text) <= 40 for text in data.gt.values())
    chars = corpus.generate("eval-chars", 3, run.ROOT)
    assert all(len(text) == 1 for text in chars.gt.values())
    assert all(len(text) <= 1 for text in chars.pred.values())


def _cli_output(workload: str, data: corpus.Corpus, tmp_path: Path, *, cut=False) -> Path:
    """Run the CLI in-process on ``data`` (or its cut); returns the output directory."""
    from radtree import cli

    files = (data.cut() if cut else data).write(tmp_path / "in", cut=cut)
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(run.cli_argv(workload, files, out)) == 0
    return out


@pytest.mark.parametrize("cut", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_checks_accept_real_output(small_specs, tmp_path, workload, cut):
    data = corpus.generate(workload, 5, run.ROOT)
    out = _cli_output(workload, data, tmp_path, cut=cut)
    check = run.OutputCheck(workload, data.cut() if cut else data, out, cut=cut)
    assert check(0) and check.problems == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_checker_rejects_one_flipped_byte(small_specs, tmp_path, workload):
    data = corpus.generate(workload, 5, run.ROOT)
    out = _cli_output(workload, data, tmp_path)
    pin = hashlib.sha256(b"".join(p.read_bytes() for p in run.output_files(workload, out)))
    pin = pin.hexdigest()
    check = run.OutputCheck(workload, data, out, pinned=pin)
    assert check(0) and check.problems == []

    target = run.output_files(workload, out)[0]
    original = target.read_bytes()
    # The last digit of a float that the invariants cannot pin down exactly.
    field = rb'"mean_treesim": 0\.\d{12}' if workload.startswith("eval") \
        else rb'"weights": \[1\.\d{16}'
    hidden = re.search(field, original).end() - 1
    for position in (0, len(original) // 2, len(original) - 2, hidden):
        flipped = bytearray(original)
        flipped[position] ^= 0x01
        target.write_bytes(bytes(flipped))
        fresh = run.OutputCheck(workload, data, out, pinned=pin)
        assert not fresh(0) and fresh.problems
        assert not check(0)  # differs from the first run's bytes
    unpinned = run.OutputCheck(workload, data, out)
    assert unpinned(0), "only the pinned hash can catch the last flip"


def test_invariants_reject_a_changed_count_without_a_pin(small_specs, tmp_path):
    data = corpus.generate("eval-lines", 5, run.ROOT)
    report = json.loads((_cli_output("eval-lines", data, tmp_path) / "report.json").read_bytes())
    for key, delta in (("line_count", 1), ("char_count", -1), ("line_correct", 1)):
        bad = dict(report, **{key: report[key] + delta})
        assert checks.check_eval_report(json.dumps(bad).encode(), data, single_chars=False)
    bad = dict(report, missing_ids=report["missing_ids"][1:] + ["nope"])
    assert checks.check_eval_report(json.dumps(bad).encode(), data, single_chars=False)


def test_invariants_reject_bad_export_rows(small_specs, tmp_path):
    data = corpus.generate("export-targets", 5, run.ROOT)
    out = _cli_output("export-targets", data, tmp_path)
    targets, vocab = (p.read_bytes() for p in run.output_files("export-targets", out))
    chars = [c for c, _ in data.table_rows]
    rows = [json.loads(line) for line in targets.decode().splitlines()]
    rows[3]["weights"][0] += 0.5
    bad = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode()
    assert checks.check_export(bad, vocab, data, chars)
    assert checks.check_export(targets, vocab, data, chars[::-1])
    assert checks.check_export(targets, vocab.replace(b"<pad>\t0", b"<pad>\t1"), data, chars)


def test_self_time_of_a_synthetic_span_tree():
    #  root [0, 10]
    #    a [1, 4]        b [5, 9]
    #      c [2, 3]        c [6, 7]   d [7, 8.5]
    tree = [
        spans.Span(2, "c", 2.0, 3.0, 1),
        spans.Span(1, "a", 1.0, 4.0, 0),
        spans.Span(4, "c", 6.0, 7.0, 3),
        spans.Span(5, "d", 7.0, 8.5, 3),
        spans.Span(3, "b", 5.0, 9.0, 0),
        spans.Span(0, "root", 0.0, 10.0, None),
    ]
    times = spans.layer_times(tree)
    assert times["root"] == {"total": 10.0, "self": 3.0, "calls": 1}
    assert times["a"] == {"total": 3.0, "self": 2.0, "calls": 1}
    assert times["b"] == {"total": 4.0, "self": 1.5, "calls": 1}
    assert times["c"] == {"total": 2.0, "self": 2.0, "calls": 2}
    assert sum(row["self"] for row in times.values()) == spans.root_time(tree) == 10.0


def test_tracer_nests_spans_and_charges_hooks_to_no_layer():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    def hook(counts, args, kwargs, result):
        counts["leaf.calls_seen"] += 1

    traced_leaf = tracer.wrap("leaf", leaf, hook)

    def outer():
        return traced_leaf(1) + traced_leaf(2)

    assert tracer.wrap("outer", outer)() == 5
    recorded, counts = tracer.take()
    times = spans.layer_times(recorded)
    assert counts == {"leaf.calls_seen": 2}
    assert times["leaf"]["calls"] == 2 and times["trace.hook"]["calls"] == 2
    assert times["outer"]["self"] == times["outer"]["total"] - times["leaf"]["total"] \
        - times["trace.hook"]["total"]
    assert sum(row["self"] for row in times.values()) == spans.root_time(recorded)
    assert tracer.spans == []


def test_tracer_patches_classmethods_and_reports_absent_names():
    class Owner:
        @classmethod
        def load(cls, value):
            return (cls, value)

    tracer = spans.Tracer()
    original = Owner.__dict__["load"]
    assert tracer.patch(Owner, "load", "owner.load")
    assert not tracer.patch(Owner, "gone", "owner.gone")
    assert Owner.load(3) == (Owner, 3)
    tracer.unpatch()
    assert Owner.__dict__["load"] is original
    assert [s.name for s in tracer.take()[0]] == ["owner.load"]


def test_install_wraps_present_names_and_restores_them():
    from radtree import cli

    before = cli.evaluate
    tracer = spans.Tracer()
    try:
        absent = traced.install(tracer)
        assert set(absent) <= {span for _, _, span, _ in traced.PATCHES}
        assert cli.evaluate.__wrapped__ is before
    finally:
        tracer.unpatch()
    assert cli.evaluate is before


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
