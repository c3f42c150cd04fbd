"""The traced run: ``radtree.cli.main(argv)`` in-process, with spans per layer.

Names are wrapped where their callers bind them, so the spans see every
call the CLI makes.  A name that the code no longer has is reported as
absent and its metrics read 0.  Traced and untraced calls alternate, so
the ratio of their median wall times is the tracing overhead.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Tracer, layer_times, root_time


def _hook_evaluate(counts, args, kwargs, report):
    gt, pred, table = args[:3]
    counts["metrics.missing_ids"] += len(report.missing_ids)
    counts["metrics.untabulated_gt_chars"] += sum(
        char not in table for text in gt.values() for char in text)
    counts["metrics.pred_ids_not_in_gt"] += sum(sid not in gt for sid in pred)


def _hook_export(counts, args, kwargs, records):
    counts["targets.records"] += len(records)


def _hook_write_jsonl(counts, args, kwargs, result):
    counts["targets.output_bytes"] += Path(args[1]).stat().st_size


def _hook_table_load(counts, args, kwargs, table):
    counts["table.entries"] += len(table)


def _hook_parse_sequence(counts, args, kwargs, tree):
    counts["tree.nodes"] += len(args[0])


def _hook_levenshtein(counts, args, kwargs, distance):
    counts["metrics.dp_cells"] += len(args[0]) * len(args[1])


def _hook_align(counts, args, kwargs, ops):
    counts["metrics.dp_cells"] += len(args[0]) * len(args[1])
    counts.update("metrics.align_ops_" + op.kind for op in ops)


# (module, attribute, span name, hook).  Span names are <layer>.<function>;
# the layer is the module that defines the function.
PATCHES = (
    ("radtree.cli", "read_corpus_tsv", "metrics.read_corpus", None),
    ("radtree.cli", "read_labels", "stats.read_labels", None),
    ("radtree.cli", "count_occurrences", "stats.count_occurrences", None),
    ("radtree.cli", "evaluate", "metrics.evaluate", _hook_evaluate),
    ("radtree.cli", "build_vocab", "targets.build_vocab", None),
    ("radtree.cli", "export_targets", "targets.export", _hook_export),
    ("radtree.cli", "write_targets_jsonl", "targets.write_jsonl", _hook_write_jsonl),
    ("radtree.table", "DecompositionTable.load", "table.load", _hook_table_load),
    ("radtree.table", "parse_sequence", "tree.parse_sequence", _hook_parse_sequence),
    ("radtree.metrics", "levenshtein", "metrics.levenshtein", _hook_levenshtein),
    ("radtree.metrics", "align", "metrics.align", _hook_align),
    ("radtree.metrics", "char_sim", "treesim.char_sim", None),
    ("radtree.metrics", "rssl", "tree.rssl", None),
    ("radtree._kernels", "distance", "kernels.distance", None),
    ("radtree._kernels", "matrix", "kernels.matrix", None),
    ("radtree.targets", "radical_weights", "targets.radical_weights", None),
    ("radtree.targets", "tree_weights", "treesim.tree_weights", None),
    ("radtree.targets", "to_preorder", "tree.to_preorder", None),
)
ROOT_SPAN = "cli.main"


def install(tracer: Tracer) -> list[str]:
    """Patch every name in PATCHES; returns the span names that are absent."""
    absent = []
    for module_name, attr, span, hook in PATCHES:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(span)
            continue
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if not tracer.patch(owner, name, span, hook):
            absent.append(span)
    return absent


def run(src: Path, argv: list[str], seconds: float, after_call) -> dict:
    """Alternate traced and untraced ``main(argv)`` calls for ``seconds``.

    ``after_call(rc)`` checks the output of each call and returns whether
    it passed.  Returns per-layer metrics averaged per traced call plus
    bookkeeping for the caller.
    """
    sys.path.insert(0, str(src))
    # The standard-library modules this process already loaded are not
    # counted; numpy and radtree are.
    start = time.perf_counter()
    cli = importlib.import_module("radtree.cli")
    import_s = time.perf_counter() - start

    attempted = failed = 0

    def call(main) -> float:
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        wall = time.perf_counter() - t0
        failed += not after_call(rc)
        return wall

    call(cli.main)  # warm-up: first-call caches, bytecode and kernel set-up
    tracer = Tracer()
    traced_walls, plain_walls, root_walls = [], [], []
    totals: dict[str, dict[str, float]] = {}
    counts: Counter = Counter()
    absent: list[str] = []
    deadline = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < deadline:
        absent = install(tracer)
        try:
            traced_walls.append(call(tracer.wrap(ROOT_SPAN, cli.main)))
        finally:
            tracer.unpatch()
        spans, call_counts = tracer.take()
        root_walls.append(root_time(spans))
        counts.update(call_counts)
        for name, row in layer_times(spans).items():
            acc = totals.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            for key in acc:
                acc[key] += row[key]
        plain_walls.append(call(cli.main))

    n = len(traced_walls)
    wall = sum(traced_walls) / n
    unattributed = (sum(traced_walls) - sum(root_walls)) / n
    self_sum = sum(row["self"] for row in totals.values()) / n
    return {
        "import_s": import_s,
        "per_call": {name: {k: v / n for k, v in row.items()} for name, row in totals.items()},
        "counts": {name: value / n for name, value in counts.items()},
        "wall_s": wall,
        "unattributed_s": unattributed,
        "self_sum_s": self_sum,
        "overhead_ratio": statistics.median(traced_walls) / statistics.median(plain_walls) - 1,
        "traced_calls": n,
        "absent": absent,
        "attempted": attempted,
        "failed": failed,
    }
