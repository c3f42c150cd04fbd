"""Batch command-line interface.

Subcommands: parse, treesim, weights, stats, eval, export-targets; each
takes only the flags it reads.  Outputs are deterministic JSON, JSON lines
or (treesim) one number; ``--pretty`` indents JSON and, for eval, prints a
human-readable summary table.  Argv and the files it names are the only
input: no environment variable is read.
Exit codes: 0 success, 2 domain or parse error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import EmptyCorpus, MalformedLine, RadtreeError
from .metrics import BucketSpec, EvalReport, evaluate, read_corpus_tsv
from .stats import count_occurrences, read_labels, rssl_distribution
from .table import DecompositionTable
from .targets import _export_ratios, _weight_ratios, build_vocab, export_lines
from .textio import numbered_lines, write_lines
from .tree import ArityTable, check_sequence
from .treesim import char_sim


# Every line break of str.splitlines, escaped: a failure prints one line.
_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _single_char(text: str, what: str) -> str:
    if len(text) != 1:
        raise RadtreeError(f"{what} must be a single character, got {text!r}")
    return text


def _load_table(args, keep=None) -> DecompositionTable:
    """The ``--table`` (every line checked), holding only the entries of ``keep``
    unless it is None; an empty table without the flag."""
    arities = ArityTable() if args.arities is None else ArityTable.from_file(args.arities)
    if args.table is not None:  # "" too is a path, and fails as one
        return DecompositionTable.load(args.table, arities, keep=keep)
    return DecompositionTable(arities=arities)


def _bucket_spec(args) -> BucketSpec:
    kwargs = {}
    for flag, form, fields in (
        ("--rssl-buckets", "SIMPLE_MAX,COMPLEX_MIN", ("rssl_simple_max", "rssl_complex_min")),
        ("--occn-buckets", "HEAD,MID,LOW", ("occn_head_min", "occn_mid_min", "occn_low_min")),
    ):
        spec = getattr(args, flag[2:].replace("-", "_"), None)  # absent: not this command's flag
        if spec is None:  # "" is a spec, and fails as one
            continue
        try:
            bounds = [int(x) for x in spec.split(",")]
        except ValueError:
            bounds = []
        if len(bounds) != len(fields):
            raise RadtreeError(f"{flag} expects {form}, got {spec!r}")
        kwargs.update(zip(fields, bounds))
    return BucketSpec(**kwargs)


def _write(path, lines) -> None:
    if path is not None:
        write_lines(path, lines)
    elif sys.stdout is None:  # file descriptor 1 is closed
        raise OSError("stdout is closed")
    elif hasattr(sys.stdout, "buffer"):  # the bytes -o writes, whatever stdout's encoding
        sys.stdout.flush()  # text printed before goes first
        sys.stdout.buffer.writelines(line.encode("utf-8") for line in lines)
    else:  # a str stream, such as io.StringIO: it takes only what -o could write
        text = "".join(lines)
        text.encode("utf-8")
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    indent = 2 if args.pretty else None
    _write(args.output, [json.dumps(payload, ensure_ascii=False, indent=indent) + "\n"])


def _tree_text(tokens, ends, arities: ArityTable, indent: int | None) -> str:
    """``json.dumps`` text, as a top-level key's value, of the nested node dicts
    ``{"symbol", "kind"[, "children"]}`` of a checked preorder sequence with its
    subtree ends, written in one walk without recursion: a tree may nest past
    the recursion limit."""
    def nl(depth: int) -> str:  # break before an item at ``depth``; compact: "" (sep ", ")
        return "" if indent is None else "\n" + " " * (indent * depth)

    out, open_ends = [], []  # the subtree end of each unfinished structure, innermost last
    for pos, token in enumerate(tokens):
        depth = 2 * len(open_ends) + 1
        kind = "structure" if token in arities else "radical"
        out.append(f'{{{nl(depth + 1)}"symbol": {json.dumps(token, ensure_ascii=False)},'
                   f'{nl(depth + 1) or " "}"kind": "{kind}"')
        if ends[pos] > pos + 1:  # a structure: its children follow
            out.append(f',{nl(depth + 1) or " "}"children": [{nl(depth + 2)}')
            open_ends.append(ends[pos])
            continue
        out.append(nl(depth) + "}")
        while open_ends and open_ends[-1] == pos + 1:  # close each structure ending here
            open_ends.pop()
            depth -= 2
            out.append(nl(depth + 1) + "]" + nl(depth) + "}")
        if open_ends:  # the next token is a sibling at this depth
            out.append("," + (nl(depth) or " "))
    return "".join(out)


def cmd_parse(args) -> int:
    if (args.char is None) == (args.seq is None):
        raise RadtreeError("give exactly one of CHAR or --seq")
    if args.seq is not None and not args.seq.split():
        raise RadtreeError(f"--seq has no tokens, got {args.seq!r}")
    char = None if args.char is None else _single_char(args.char, "CHAR")
    table = _load_table(args, keep={char})  # --seq: {None}, which keeps no entry
    if args.seq is not None:
        tokens = args.seq.split()
        ends = check_sequence(tokens, table.arities.child_counts(tokens))
        payload = {}
    else:
        tokens, _, ends = table._preorder(char)
        payload = {"char": char}
    indent = 2 if args.pretty else None
    payload.update(tokens=tokens, rssl=len(tokens), tree=None)  # "tree" last: its null is last
    head, _, end = json.dumps(payload, ensure_ascii=False, indent=indent).rpartition("null")
    _write(args.output, [head + _tree_text(tokens, ends, table.arities, indent) + end + "\n"])
    return 0


def cmd_treesim(args) -> int:
    char1, char2 = _single_char(args.char1, "CHAR1"), _single_char(args.char2, "CHAR2")
    score = char_sim(char1, char2, _load_table(args, keep={char1, char2}))
    _write(args.output, [f"{float(score):.12f}\n"])
    return 0


def cmd_weights(args) -> int:
    char = _single_char(args.char, "--char")
    ratios = _weight_ratios(args.mode, args.lam)  # before any file is read
    _emit_json(args, [n / d for n, d in ratios(_load_table(args, keep={char})._preorder(char))])
    return 0


def cmd_stats(args) -> int:
    buckets = _bucket_spec(args)
    labels = read_labels(args.input, args.input_format)  # first: the table keeps only its chars
    line_count, counts = len(labels), count_occurrences(labels)
    del labels
    if not counts:
        raise EmptyCorpus(f"no characters in {args.input}")
    table = _load_table(args, keep=counts.keys())
    payload = {
        "line_count": line_count,
        "char_total": sum(counts.values()),
        "distinct_chars": len(counts),
        "occn": {char: counts[char] for char in sorted(counts)},
        "rssl_distribution": rssl_distribution(counts, table, buckets),
    }
    _emit_json(args, payload)
    return 0


def _summary_lines(report: EvalReport) -> list[str]:
    def fmt(value):
        return "-" if value is None else f"{value:.4f}"

    lines = [f"lines {report.line_count}  accuracy {fmt(report.line_accuracy)}  "
             f"1-NED {fmt(report.mean_one_minus_ned)}\n",
             f"chars {report.char_count}  accuracy {fmt(report.char_accuracy)}  "
             f"treesim {fmt(report.mean_treesim)}\n"]
    sections = [("rssl", report.rssl_buckets)]
    if report.occn_buckets is not None:
        sections.append(("occn", report.occn_buckets))
    for label, section in sections:
        lines.append(f"{label:<6} {'bucket':<12} {'count':>8} {'accuracy':>9} {'treesim':>8}\n")
        lines += (f"{'':<6} {name:<12} {row['count']:>8} "
                  f"{fmt(row['accuracy']):>9} {fmt(row['mean_treesim']):>8}\n"
                  for name, row in section.items())
    return lines


def cmd_eval(args) -> int:
    buckets = _bucket_spec(args)
    for flag in ("--occn-buckets", "--train-format"):  # read only with a training file
        if args.train is None and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise RadtreeError(f"{flag} needs --train")
    occn = (None if args.train is None else  # first: its labels are freed before the rest
            count_occurrences(read_labels(args.train, args.train_format or "plain")))
    strings: dict[str, str] = {}  # pred's ids are gt's objects; each distinct text is one str
    gt = read_corpus_tsv(args.gt, strings=strings)
    pred = read_corpus_tsv(args.pred, strings=strings)
    del strings
    # Last: it keeps only the characters evaluate can look up, those of the texts.
    table = _load_table(args, keep=set().union(*gt.values(), *pred.values()))
    report = evaluate(
        gt, pred, table,
        occn=occn,
        buckets=buckets,
        strict=args.strict,
        treesim_scope=args.treesim_scope,
    )
    _emit_json(args, report.to_dict())
    if args.pretty and args.output is not None:
        _write(None, _summary_lines(report))
    return 0


def _read_charset(path) -> list[str]:
    chars = []
    for lineno, line in numbered_lines(path):
        if len(line) > 1:
            raise MalformedLine(f"{path}:{lineno}: expected one character per line, got {line!r}")
        if line:
            chars.append(line)
    return chars


def cmd_export_targets(args) -> int:
    if (args.charset is not None) == args.from_table:
        raise RadtreeError("give exactly one of --charset or --from-table")
    _export_ratios(args.mode, args.lam, args.max_len)  # before any file is read
    table = _load_table(args)
    chars = table.chars() if args.from_table else _read_charset(args.charset)
    vocab = build_vocab(table, chars)
    lines = export_lines(chars, table, args.max_len, args.mode, args.lam, vocab)
    if args.vocab_out is not None:  # first: a vocabulary that cannot be saved stops all output
        vocab.save(args.vocab_out)
    _write(args.output, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "-1e3", "-inf" and "-nan" as values, as argparse reads "-1"; no flag looks so.
        self._negative_number_matcher = re.compile(
            r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):  # one stderr line, like every other failure
        self.exit(2, f"radtree: error: {message.translate(_BREAKS)}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", help="decomposition table TSV")
    common.add_argument("--arities",
                        help="arity table TSV overriding the built-in structure set")
    common.add_argument("--output", "-o", help="output path (default: stdout)")

    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true",
                        help="indent JSON; eval also prints a summary table")

    rssl_buckets = argparse.ArgumentParser(add_help=False)
    rssl_buckets.add_argument("--rssl-buckets", metavar="SIMPLE_MAX,COMPLEX_MIN",
                              help="complexity bucket bounds, e.g. 4,7")

    weighting = argparse.ArgumentParser(add_help=False)
    weighting.add_argument("--mode", choices=("naive", "treesim"), default="treesim")
    weighting.add_argument("--lambda", dest="lam", type=float, default=1.0)

    parser = _Parser(
        prog="radtree",
        description="Radical-tree decomposition, similarity, loss-weight, and evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common, pretty],
                       help="parse a character or preorder sequence into a tree")
    p.add_argument("char", nargs="?", help="character to look up in the table")
    p.add_argument("--seq", help="space-separated preorder token sequence")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("treesim", parents=[common],
                       help="similarity score between two characters")
    p.add_argument("char1")
    p.add_argument("char2")
    p.set_defaults(func=cmd_treesim)

    p = sub.add_parser("weights", parents=[common, pretty, weighting],
                       help="per-position loss weights for one character")
    p.add_argument("--char", required=True)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("stats", parents=[common, pretty, rssl_buckets],
                       help="occurrence counts and complexity distribution of a corpus")
    p.add_argument("--input", required=True, help="label file")
    p.add_argument("--input-format", choices=("plain", "tsv"), default="plain")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", parents=[common, pretty, rssl_buckets],
                       help="score predictions against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth TSV (<id><TAB><text>)")
    p.add_argument("--pred", required=True, help="prediction TSV (<id><TAB><text>)")
    p.add_argument("--train", help="training label file; enables occn buckets")
    p.add_argument("--train-format", choices=("plain", "tsv"), help="default: plain")
    p.add_argument("--treesim-scope", choices=("all", "aligned"), default="all")
    p.add_argument("--occn-buckets", metavar="HEAD,MID,LOW",
                   help="frequency bucket bounds, e.g. 100,50,20")
    p.add_argument("--strict", action="store_true",
                   help="fail when a ground-truth id has no prediction")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-targets", parents=[common, weighting],
                       help="emit per-character index/weight records as JSON lines")
    p.add_argument("--charset", help="file with one character per line")
    p.add_argument("--from-table", action="store_true",
                   help="use every tabulated character, in table order")
    p.add_argument("--max-len", type=int, required=True,
                   help="padded sequence length including the EOS slot")
    p.add_argument("--vocab-out", help="also write the vocabulary as <token><TAB><index>")
    p.set_defaults(func=cmd_export_targets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RadtreeError, ValueError, MemoryError) as exc:  # a bare MemoryError has no message
        code, kind, message = 2, "error", str(exc) or type(exc).__name__
    except OSError as exc:
        code, kind, message = 3, "io error", str(exc)
    print(f"radtree: {kind}: {message.translate(_BREAKS)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
