"""Sequence- and character-level evaluation of recognition output.

Line metrics are exact-match accuracy and 1-NED (one minus the Levenshtein
distance normalized by the longer string).  Character metrics pair ground
truth and prediction through an optimal edit alignment: a ground-truth
character is correct iff its aligned op is a match, and its tree-similarity
contribution is char_sim for matches/substitutions and 0 for deletions.
Insertions only affect the line metrics.  Character results are bucketed by
decomposition-tree size (rssl) and, when a frequency map is supplied, by
training-corpus occurrence count (occn).  Only the part of a line between
its common prefix and suffix with the prediction is aligned.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from fractions import Fraction
from itertools import compress, islice
from math import isqrt
from operator import ne
from typing import Iterator, Mapping, NamedTuple

from .errors import DuplicateEntry, EmptyCorpus, MissingId
from .table import DecompositionTable
from .textio import numbered_lines, two_fields
from .treesim import _matched_denominators

SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"

RSSL_BUCKETS = ("simple", "sub_complex", "complex")
OCCN_BUCKETS = ("head", "mid", "low", "tail")

# _edits holds all DP rows of a row table under _WHOLE_TABLE_BITS bits
# (2·len(pred) per row) as one block, else blocks of about √len(gt) rows.
_WHOLE_TABLE_BITS = 1 << 22


def _pred_masks(pred: str) -> tuple[dict[str, int], int]:
    """Per character, the bits j where pred[j] is it; and the mask of len(pred) ones."""
    peq: dict[str, int] = {}
    bit = 1
    for char in pred:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    return peq, bit - 1


def _rows(gt: str, peq: dict[str, int], mask: int,
          row: tuple[int, int]) -> Iterator[tuple[int, int]]:
    """Bit-parallel edit-distance DP rows (Myers 1999, Hyyrö's Levenshtein form).

    Yields ``row``, the DP row of some i, then one row per char of ``gt``,
    which holds the ground truth's chars from index i on, so a caller keeps
    only the rows it needs.  A row is (Pv, Mv): bit j-1 of Pv (Mv) is
    set when D[i][j] - D[i][j-1] is +1 (-1), so D[i][j] = i + popcount(Pv &
    low_j) - popcount(Mv & low_j) with low_j = 2**j - 1.  Python ints make
    the vectors as long as the prediction; ``peq`` and ``mask`` are its
    _pred_masks.
    """
    pv, mv = row
    yield row
    for char in gt:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = (ph << 1) | 1  # column 0 grows by one per row: D[i][0] = i
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
        yield pv, mv


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance over Unicode scalar values."""
    peq, mask = _pred_masks(b)
    pv, mv = deque(_rows(a, peq, mask, (mask, 0)), maxlen=1)[0]  # row 0, D[0][j] = j, to the last
    return len(a) + pv.bit_count() - mv.bit_count()


def one_minus_ned(gt: str, pred: str) -> float:
    """1 - distance/max(len); two empty strings score 1."""
    if not gt and not pred:
        return 1.0
    return float(1 - Fraction(levenshtein(gt, pred), max(len(gt), len(pred))))


def _trim(a: str, b: str) -> tuple[str, str]:
    """``a`` and ``b`` without their common prefix and suffix; iterators that run
    in C find the first unequal pair from either end."""
    if a[:1] != b[:1] and a[-1:] != b[-1:]:  # nothing to cut, as on any one-char line
        return a, b
    start = next(compress(range(len(a)), map(ne, a, b)), min(len(a), len(b)))
    a, b = a[start:], b[start:]
    end = next(compress(range(len(a)), map(ne, reversed(a), reversed(b))), min(len(a), len(b)))
    return a[:len(a) - end], b[:len(b) - end]


def _edits(gt: str, pred: str) -> list[tuple[str, int | None, int | None]]:
    """The substitutions, deletions and insertions of one optimal alignment
    as ``(kind, gt_index, pred_index)``, last first.

    Ties resolve match/substitute first, then delete, then insert; the gaps
    between the edits are the matches, so the edits fix the whole alignment.
    The walk steps over matches without recording them and stops once the
    distance left is 0, where only matches remain.  The DP rows come in
    blocks of ``size``: the forward pass keeps the first row of each block
    and the whole last block, and ``rows`` holds None for the rest.  The
    walk's row only falls, so on reaching a None it recomputes the rows from
    that block's first and drops every row above: about 2·√len(gt) rows are
    held, not all len(gt) + 1.  A row table under _WHOLE_TABLE_BITS is one
    block, kept whole from the one pass.
    """
    peq, mask = _pred_masks(pred)
    i, j = len(gt), len(pred)
    size = i + 1 if 2 * (i + 1) * j < _WHOLE_TABLE_BITS else isqrt(i) + 1
    forward = _rows(gt, peq, mask, (mask, 0))
    base = i // size * size  # the last block's first row
    rows = [None] * base
    if base:  # the first row of each earlier block
        rows[::size] = islice(forward, 0, base, size)
    rows += forward
    pv, mv = rows[i]
    d = i + pv.bit_count() - mv.bit_count()  # D[i][j], tracked along the walk
    edits = []
    while d and i and j:
        if gt[i - 1] == pred[j - 1]:
            # Neighbouring cells differ by at most 1, so a match is optimal.
            i -= 1
            j -= 1
            continue
        d -= 1  # every other step costs 1, so its source cell holds d
        try:
            pv, mv = rows[i - 1]
        except TypeError:  # None: recompute rows base..i - 1 from the block's first
            base = (i - 1) // size * size
            rows[base:] = _rows(gt[base:i - 1], peq, mask, rows[base])
            pv, mv = rows[i - 1]
        low = (1 << (j - 1)) - 1
        diag = i - 1 + (pv & low).bit_count() - (mv & low).bit_count()  # D[i-1][j-1]
        if diag == d:
            edits.append((SUBSTITUTE, i - 1, j - 1))
            i -= 1
            j -= 1
        elif diag + (pv >> (j - 1) & 1) - (mv >> (j - 1) & 1) == d:  # D[i-1][j]
            edits.append((DELETE, i - 1, None))
            i -= 1
        else:
            edits.append((INSERT, None, j - 1))
            j -= 1
    if not j:  # the rest of gt, if any, is deleted
        edits.extend((DELETE, k, None) for k in range(i - 1, -1, -1))
    elif not i:
        edits.extend((INSERT, None, k) for k in range(j - 1, -1, -1))
    return edits


class _BucketBounds(NamedTuple):
    rssl_simple_max: int = 4
    rssl_complex_min: int = 7
    occn_head_min: int = 100
    occn_mid_min: int = 50
    occn_low_min: int = 20


class BucketSpec(_BucketBounds):
    """Boundaries for the complexity (rssl) and frequency (occn) breakdowns.

    rssl: simple <= rssl_simple_max < sub_complex < rssl_complex_min <= complex.
    occn: head >= occn_head_min > mid >= occn_mid_min > low >= occn_low_min > tail.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if not 1 <= spec.rssl_simple_max < spec.rssl_complex_min:
            raise ValueError("need 1 <= rssl_simple_max < rssl_complex_min")
        if not 0 < spec.occn_low_min < spec.occn_mid_min < spec.occn_head_min:
            raise ValueError("need 0 < occn_low_min < occn_mid_min < occn_head_min")
        return spec

    @classmethod
    def _make(cls, iterable) -> BucketSpec:  # _replace builds through here: check it too
        return cls(*iterable)


DEFAULT_BUCKETS = BucketSpec()


def bucket_rssl(length: int, spec: BucketSpec = DEFAULT_BUCKETS) -> str:
    """Complexity bucket for a tree of ``length`` nodes."""
    if length < 1:
        raise ValueError("rssl is at least 1")
    if length <= spec.rssl_simple_max:
        return "simple"
    if length < spec.rssl_complex_min:
        return "sub_complex"
    return "complex"


def bucket_occn(count: int, spec: BucketSpec = DEFAULT_BUCKETS) -> str:
    """Frequency bucket for a character seen ``count`` times in training."""
    if count < 0:
        raise ValueError("occurrence count is non-negative")
    if count >= spec.occn_head_min:
        return "head"
    if count >= spec.occn_mid_min:
        return "mid"
    if count >= spec.occn_low_min:
        return "low"
    return "tail"


class _BucketAcc:
    __slots__ = ("count", "substituted", "deleted", "sub_ks")

    def __init__(self):
        self.count = 0
        self.substituted = 0
        self.deleted = 0
        self.sub_ks = Counter()  # k -> matched nodes of weight 1/k

    @property
    def correct(self) -> int:
        return self.count - self.substituted - self.deleted

    def add(self, other: _BucketAcc) -> None:
        self.count += other.count
        self.substituted += other.substituted
        self.deleted += other.deleted
        self.sub_ks.update(other.sub_ks)

    def mean_treesim(self, scope: str) -> float | None:
        # Matches score 1 and deletions 0; "aligned" leaves deletions out.
        sim_count = self.count if scope == "all" else self.count - self.deleted
        sub_sim = sum((Fraction(c, k) for k, c in self.sub_ks.items()), Fraction(0))
        return float((self.correct + sub_sim) / sim_count) if sim_count else None

    def as_dict(self, scope: str) -> dict:
        return {
            "count": self.count,
            "correct": self.correct,
            "accuracy": self.correct / self.count if self.count else None,
            "mean_treesim": self.mean_treesim(scope),
        }


class EvalReport(NamedTuple):
    """Aggregate evaluation results; to_dict() gives the JSON layout."""

    line_count: int
    line_correct: int
    line_accuracy: float
    mean_one_minus_ned: float
    char_count: int
    char_correct: int
    char_accuracy: float | None
    mean_treesim: float | None
    treesim_scope: str
    rssl_buckets: dict[str, dict]
    occn_buckets: dict[str, dict] | None
    missing_ids: list[str]

    def to_dict(self) -> dict:
        """The fields in order; the bucket rows and the id list are copies,
        so the result shares no container with the report."""
        out = self._asdict()
        for name in ("rssl_buckets", "occn_buckets"):
            if out[name] is not None:
                out[name] = {bucket: dict(row) for bucket, row in out[name].items()}
        out["missing_ids"] = list(self.missing_ids)
        return out


def evaluate(gt: Mapping[str, str], pred: Mapping[str, str],
             table: DecompositionTable, *,
             occn: Mapping[str, int] | None = None,
             buckets: BucketSpec = DEFAULT_BUCKETS,
             strict: bool = False,
             treesim_scope: str = "all") -> EvalReport:
    """Score predictions against ground truth, both keyed by sample id.

    Ground-truth ids missing from ``pred`` count as empty predictions and
    are listed in the report, unless ``strict`` is set, in which case
    MissingId is raised.  ``treesim_scope`` picks the mean-similarity
    denominator: "all" covers every ground-truth character (deletions
    score 0), "aligned" restricts to matched/substituted pairs.

    Samples are processed in sorted id order, so the report is identical
    for identical inputs.

    Only the middle of a line between its common prefix and suffix with the
    prediction is aligned.  The report equals that of whole lines: their
    traceback takes the trailing matches, then the same steps (D[p+a][p+b]
    under a prefix of length p is the trimmed D[a][b]) to the prefix, where
    the cost left is the length difference, so only matches and deletions
    (or insertions) of the same characters remain.  A middle with an empty side
    is all deletions or all insertions; trimming leaves the two chars of a 1×1
    one different, and one substitution (cost 1) beats a deletion plus an
    insertion (2).  Counts are summed per cell, a gt char's (rssl, occn) buckets,
    then per bucket: exact integer sums, equal in any order, feed the Fractions.
    """
    if treesim_scope not in ("all", "aligned"):
        raise ValueError(f"treesim_scope must be 'all' or 'aligned', got {treesim_scope!r}")
    ids = sorted(gt)
    if not ids:
        raise EmptyCorpus("no ground-truth samples")
    missing = sorted(k for k in ids if k not in pred)
    if missing and strict:
        shown = ", ".join(repr(m) for m in missing[:5])
        raise MissingId(f"{len(missing)} sample id(s) have no prediction: {shown}")

    cells = defaultdict(_BucketAcc)  # (rssl bucket, occn bucket or None) -> tally
    # gt char -> its count, then its cell.  A one-char text's own object is its
    # char's key, so single-character samples copy no char; other texts' come after.
    cell_of = Counter(text for text in gt.values() if len(text) == 1)
    cell_of.update("".join(text for text in gt.values() if len(text) != 1))
    for char, count in cell_of.items():  # each value replaced in place: no second dict
        occn_name = bucket_occn(occn.get(char, 0), buckets) if occn is not None else None
        cell = cell_of[char] = cells[bucket_rssl(len(table.tokens(char)), buckets), occn_name]
        cell.count += count

    line_correct = 0
    ned_by_len: dict[int, int] = {}  # max(len) -> sum of (max(len) - distance)
    substituted: dict[tuple[str, str], int] = {}  # (gt char, pred char) -> times

    for sid in ids:
        gt_text = gt[sid]
        pred_text = pred.get(sid, "")
        line_correct += gt_text == pred_text
        distance = 0
        if gt_text != pred_text:
            gt_mid, pred_mid = _trim(gt_text, pred_text)
            if not gt_mid or not pred_mid:  # only deletions, or only insertions
                for char in gt_mid:
                    cell_of[char].deleted += 1
                distance = len(gt_mid) + len(pred_mid)
            elif len(gt_mid) == len(pred_mid) == 1:  # _trim left two different chars
                pair = gt_mid, pred_mid  # dict.get: a Counter's __missing__ costs 2x here
                substituted[pair] = substituted.get(pair, 0) + 1
                distance = 1
            else:
                edits = _edits(gt_mid, pred_mid)
                for kind, i, j in edits:
                    if kind == SUBSTITUTE:
                        pair = gt_mid[i], pred_mid[j]
                        substituted[pair] = substituted.get(pair, 0) + 1
                    elif kind == DELETE:
                        cell_of[gt_mid[i]].deleted += 1
                distance = len(edits)
        # Two empty strings have distance 0 and score 1.
        longest = max(len(gt_text), len(pred_text), 1)
        ned_by_len[longest] = ned_by_len.get(longest, 0) + longest - distance

    for (gt_char, pred_char), times in substituted.items():
        cell = cell_of[gt_char]
        cell.substituted += times
        for k in _matched_denominators(table._preorder(gt_char), table._preorder(pred_char)):
            cell.sub_ks[k] += times

    total = _BucketAcc()
    rssl_acc = {name: _BucketAcc() for name in RSSL_BUCKETS}
    occn_acc = {name: _BucketAcc() for name in (*OCCN_BUCKETS, None)}  # None: no occn map
    for (rssl_name, occn_name), cell in cells.items():
        for acc in (total, rssl_acc[rssl_name], occn_acc[occn_name]):
            acc.add(cell)

    n = len(ids)
    ned_sum = sum((Fraction(v, length) for length, v in ned_by_len.items()), Fraction(0))
    return EvalReport(
        line_count=n,
        line_correct=line_correct,
        line_accuracy=line_correct / n,
        mean_one_minus_ned=float(ned_sum / n),
        char_count=total.count,
        char_correct=total.correct,
        char_accuracy=total.correct / total.count if total.count else None,
        mean_treesim=total.mean_treesim(treesim_scope),
        treesim_scope=treesim_scope,
        rssl_buckets={name: acc.as_dict(treesim_scope) for name, acc in rssl_acc.items()},
        occn_buckets=(
            {name: occn_acc[name].as_dict(treesim_scope) for name in OCCN_BUCKETS}
            if occn is not None else None
        ),
        missing_ids=missing,
    )


def read_corpus_tsv(path, *, strings: dict[str, str] | None = None) -> dict[str, str]:
    """Read ``<id><TAB><text>`` lines into an id -> text mapping.

    Only the first tab separates the fields, so text may contain tabs.
    Blank lines are skipped; duplicate ids are an error.  Each id and text is
    stored as ``strings.setdefault(s, s)``: reads that share one ``strings``
    dict hold one ``str`` object per distinct value (a fresh dict by default).
    """
    out: dict[str, str] = {}
    share = ({} if strings is None else strings).setdefault
    for lineno, line in numbered_lines(path):
        if not line:
            continue
        sid, text = two_fields(path, lineno, line, "<id><TAB><text>", 1)
        if sid in out:
            raise DuplicateEntry(f"{path}:{lineno}: duplicate sample id {sid!r}")
        out[share(sid, sid)] = share(text, text)
    return out
