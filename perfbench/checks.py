"""Output checks that do not call radtree.

Every expectation comes from the generator's own data (``corpus.Corpus``):
counts, missing ids, per-character tree sizes and training frequencies.
For the default seed the exact output bytes are also pinned by SHA-256.
Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from corpus import MAX_LEN, Corpus

# Default bucket bounds of the CLI: rssl <= 4 / 5-6 / >= 7 and
# occn >= 100 / 50-99 / 20-49 / 0-19.
RSSL_BOUNDS = (4, 7)
OCCN_BOUNDS = (100, 50, 20)
LAMBDA = 1.0
PAD_INDEX, EOS_INDEX = 0, 1
REPORT_KEYS = ("line_count", "line_correct", "line_accuracy", "mean_one_minus_ned",
               "char_count", "char_correct", "char_accuracy", "mean_treesim",
               "treesim_scope", "rssl_buckets", "occn_buckets", "missing_ids")
BUCKET_KEYS = ("count", "correct", "accuracy", "mean_treesim")


def _rssl_bucket(n: int) -> str:
    return "simple" if n <= RSSL_BOUNDS[0] else "sub_complex" if n < RSSL_BOUNDS[1] else "complex"


def _occn_bucket(n: int) -> str:
    head, mid, low = OCCN_BOUNDS
    return "head" if n >= head else "mid" if n >= mid else "low" if n >= low else "tail"


def check_eval_report(raw: bytes, corpus: Corpus, *, single_chars: bool) -> list[str]:
    """Check an ``eval`` report against the facts of the corpus it scored."""
    try:
        report = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(report, dict) or tuple(report) != REPORT_KEYS:
        return ["report keys differ from the documented schema"]
    problems = []

    def expect(name, want):
        got = report[name]
        if got != want:
            problems.append(f"{name}: expected {want!r}, got {got!r}")

    texts = list(corpus.gt.values())
    n_lines = len(texts)
    n_chars = sum(len(t) for t in texts)
    correct = sum(corpus.pred.get(sid) == text for sid, text in corpus.gt.items())
    expect("line_count", n_lines)
    expect("char_count", n_chars)
    expect("line_correct", correct)
    expect("line_accuracy", correct / n_lines)
    expect("missing_ids", sorted(sid for sid in corpus.gt if sid not in corpus.pred))
    expect("treesim_scope", "all")
    if single_chars:
        # one character per sample: a line is right iff its only character is
        expect("char_correct", correct)
        expect("char_accuracy", report["line_accuracy"])
        expect("mean_one_minus_ned", report["line_accuracy"])
    elif report["char_count"]:
        expect("char_accuracy", report["char_correct"] / report["char_count"])

    rssl = corpus.rssl
    chars = [char for text in texts for char in text]
    problems += _check_buckets(report, "rssl_buckets",
                               Counter(_rssl_bucket(rssl.get(c, 1)) for c in chars))
    counts = Counter("".join(corpus.train))
    problems += _check_buckets(report, "occn_buckets",
                               Counter(_occn_bucket(counts.get(c, 0)) for c in chars))
    for name in ("mean_one_minus_ned", "mean_treesim"):
        value = report[name]
        if not (isinstance(value, float) and 0.0 <= value <= 1.0):
            problems.append(f"{name}: {value!r} is not in [0, 1]")
    return problems


def _check_buckets(report: dict, section: str, want: Counter) -> list[str]:
    buckets = report.get(section)
    if not isinstance(buckets, dict):
        return [f"{section}: missing"]
    problems = []
    for name, row in buckets.items():
        if tuple(row) != BUCKET_KEYS:
            problems.append(f"{section}.{name}: keys {tuple(row)!r}")
            continue
        if row["count"] != want.get(name, 0):
            problems.append(f"{section}.{name}.count: expected {want.get(name, 0)}, "
                            f"got {row['count']}")
        if not 0 <= row["correct"] <= row["count"]:
            problems.append(f"{section}.{name}.correct out of range")
        if row["count"] and row["accuracy"] != row["correct"] / row["count"]:
            problems.append(f"{section}.{name}.accuracy != correct / count")
    if sum(want.values()) != sum(row.get("count", 0) for row in buckets.values()):
        problems.append(f"{section}: counts do not cover every ground-truth character")
    return problems


def check_export(targets_raw: bytes, vocab_raw: bytes, corpus: Corpus,
                 chars: list[str]) -> list[str]:
    """Check ``export-targets`` output for the characters ``chars``."""
    try:
        vocab_lines = vocab_raw.decode("utf-8").split("\n")
        records = [json.loads(line) for line in targets_raw.decode("utf-8").splitlines()]
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"output is not UTF-8 JSON lines: {exc}"]
    problems = []
    tokens_of = dict(corpus.table_rows)
    inventory = sorted({tok for _, toks in corpus.table_rows for tok in toks})
    want_vocab = [f"<pad>\t{PAD_INDEX}", f"<eos>\t{EOS_INDEX}"]
    want_vocab += [f"{tok}\t{i}" for i, tok in enumerate(inventory, 2)]
    if vocab_lines != want_vocab + [""]:
        problems.append("vocabulary is not PAD=0, EOS=1, then sorted table tokens from 2")
    index = {tok: i for i, tok in enumerate(inventory, 2)}

    if [r.get("char") if isinstance(r, dict) else None for r in records] != chars:
        return problems + ["records are not one per character in file order"]
    for record in records:
        char = record["char"]
        if tuple(record) != ("char", "tokens", "indices", "weights"):
            problems.append(f"{char}: record keys {tuple(record)!r}")
            continue
        tokens = tokens_of[char]
        n = len(tokens)
        indices, weights = record["indices"], record["weights"]
        if record["tokens"] != tokens:
            problems.append(f"{char}: tokens differ from the table")
        if len(indices) != MAX_LEN or len(weights) != MAX_LEN:
            problems.append(f"{char}: row length is not {MAX_LEN}")
            continue
        pad = MAX_LEN - n - 1
        if indices != [index[t] for t in tokens] + [EOS_INDEX] + [PAD_INDEX] * pad:
            problems.append(f"{char}: indices are not tokens, EOS, then PAD")
        if weights[n:] != [1.0] + [0.0] * pad:
            problems.append(f"{char}: EOS weight is not 1 or PAD weights are not 0")
        data = weights[:n]
        if not all(1.0 <= w <= 1.0 + LAMBDA for w in data) or \
                not math.isclose(math.fsum(data), n + LAMBDA, rel_tol=1e-12):
            problems.append(f"{char}: data weights do not sum to rssl + lambda")
    return problems
