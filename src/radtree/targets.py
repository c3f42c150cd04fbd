"""Radical vocabulary, per-character target sequences, and loss weights.

Targets are the preorder token sequence of a character's tree, turned into
vocabulary indices, terminated with EOS, and padded with PAD up to a fixed
length.  Weights come in two modes: "treesim" gives position i weight
1 + lambda * w_i where w_i = 1/k_i is the node's tree weight (so per
character the data weights sum to rssl + lambda); "naive" is lambda = 0.
The EOS slot always carries weight 1 and PAD slots 0, so exported records
need no extra masking downstream.

weighted_ce is a reference implementation for validating a trainer's loss:
the standard negative log-likelihood, non-negative and zero exactly when
every positively weighted position is predicted one-hot correct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring
from math import fsum, inf, isfinite, log
from numbers import Integral, Real
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    DuplicateEntry,
    InvalidDistribution,
    MalformedLine,
    SequenceTooLong,
    ShapeMismatch,
    UnknownToken,
)
from .table import DecompositionTable
from .textio import numbered_lines, two_fields, utf8, write_lines
from .treesim import _matched_denominators

PAD_TOKEN = "<pad>"
EOS_TOKEN = "<eos>"
PAD_INDEX = 0
EOS_INDEX = 1
MAX_LEN_LIMIT = 10**6  # each record holds max_len indices and max_len weights


class RadicalVocab:
    """Token-to-index map with PAD=0 and EOS=1 reserved.

    Data tokens occupy indices 2 upward in sorted order, so rebuilding from
    the same table always gives the identical mapping; ``load`` returns only
    such a vocabulary.  A token with a lone surrogate raises ValueError: no
    vocabulary file or export line can hold it.
    """

    def __init__(self, data_tokens: Iterable[str]):
        ordered = sorted(set(data_tokens))
        for token in ordered:
            if token == PAD_TOKEN or token == EOS_TOKEN:
                raise ValueError(f"data token collides with reserved {token!r}")
            if not utf8(token):
                raise ValueError(f"token {token!r} is not UTF-8")
        self._tokens: tuple[str, ...] = (PAD_TOKEN, EOS_TOKEN, *ordered)
        self._index = {token: i for i, token in enumerate(self._tokens)}

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def encode(self, tokens: Iterable[str]) -> list[int]:
        try:
            return list(map(self._index.__getitem__, tokens))
        except KeyError as exc:
            raise UnknownToken(f"token {exc.args[0]!r} is not in the vocabulary") from None

    def save(self, path) -> None:
        """Write ``<token><TAB><index>`` lines by index; ValueError first for a tab, LF or CR."""
        for token in self._tokens:
            if "\t" in token or "\n" in token or "\r" in token:
                raise ValueError(f"token {token!r} cannot be saved in the vocabulary format")
        write_lines(path, (f"{token}\t{i}\n" for i, token in enumerate(self._tokens)))

    @classmethod
    def load(cls, path) -> RadicalVocab:
        """Return ``cls(data tokens)`` if the file's tokens by index are what ``save`` writes for
        it, else raise MalformedLine (``path:lineno`` for a bad line) or DuplicateEntry (index)."""
        pairs: dict[int, str] = {}
        for lineno, line in numbered_lines(path):
            if not line:
                continue
            token, text = two_fields(path, lineno, line, "<token><TAB><index>")
            try:
                idx = int(text)
            except ValueError:
                raise MalformedLine(f"{path}:{lineno}: index {text!r} is not an integer") from None
            if idx in pairs:
                raise DuplicateEntry(f"{path}:{lineno}: duplicate index {idx}")
            pairs[idx] = token
        vocab = cls(set(pairs.values()) - {PAD_TOKEN, EOS_TOKEN})
        if vocab.tokens != tuple(map(pairs.get, range(len(pairs)))):
            raise MalformedLine(f"{path}: expected {PAD_TOKEN} 0, {EOS_TOKEN} 1, then sorted "
                                "distinct data tokens from 2 with no gap")
        return vocab

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadicalVocab):
            return NotImplemented
        return self._tokens == other._tokens

    def __repr__(self) -> str:
        return f"RadicalVocab({len(self._tokens)} tokens)"


def build_vocab(table: DecompositionTable, chars: Iterable[str] = ()) -> RadicalVocab:
    """PAD/EOS, the table's token inventory and the single-leaf token of each character
    of ``chars`` that the table lacks: the vocabulary an export of ``chars`` needs."""
    return RadicalVocab(table.radical_inventory().union(c for c in chars if c not in table))


def _weight_ratios(mode: str, lam) -> Callable[[tuple], list[tuple[int, int]]]:
    """Validate mode and lam = n/d once; return a tree's preorder arrays -> per-node
    integer ratios (d*k + n, d*k) = 1 + lam/k for node weight 1/k.  Naive mode is lam = 0."""
    if mode not in ("naive", "treesim"):
        raise ValueError(f"mode must be 'naive' or 'treesim', got {mode!r}")
    try:
        n, d = Fraction(lam).as_integer_ratio()
    except (OverflowError, ValueError):  # inf, nan
        raise ValueError(f"lambda must be a finite number, got {lam!r}") from None
    if n < 0:
        raise ValueError("lambda must be >= 0")
    n, d = (n, d) if mode == "treesim" else (0, 1)
    return lambda tree: [(d * k + n, d * k) for k in _matched_denominators(tree, tree)]


def _export_ratios(mode: str, lam, max_len: int) -> Callable[[tuple], list[tuple[int, int]]]:
    """_weight_ratios(mode, lam), then ValueError for a treesim ``lam`` whose largest
    weight, a lone leaf's 1 + lam, has no finite float, or ``max_len`` outside 1..MAX_LEN_LIMIT."""
    ratios = _weight_ratios(mode, lam)
    if mode == "treesim":
        try:
            float(1 + Fraction(lam))
        except OverflowError:
            raise ValueError("lambda too large for a float: 1 + lambda overflows") from None
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if max_len > MAX_LEN_LIMIT:
        raise ValueError(f"max_len must be at most {MAX_LEN_LIMIT}, got {max_len}")
    return ratios


def radical_weights(char: str, table: DecompositionTable, mode: str,
                    lam=1) -> list[Fraction]:
    """Per-position loss weights for a character's preorder sequence.

    No EOS or PAD entries; exact rationals (lam is converted exactly, so
    float inputs like 0.5 keep the identities w_treesim - w_naive =
    lam * tree_weights and sum = rssl + lam).
    """
    return [Fraction(num, den) for num, den in _weight_ratios(mode, lam)(table._preorder(char))]


class TargetRecord(NamedTuple):
    """One exported character: raw tokens plus fixed-length index/weight rows."""

    char: str
    tokens: tuple[str, ...]
    indices: tuple[int, ...]
    weights: tuple[float, ...]


# An export line: _HEAD (char, tokens, their indices), then its shape's _TAIL (EOS, PADs, weights).
_HEAD, _TAIL = '{"char": %s, "tokens": [%s], "indices": [%s', '%s], "weights": [%s, 1.0%s]}\n'


def export_targets(charset: Iterable[str], table: DecompositionTable,
                   max_len: int, mode: str, lam=1,
                   vocab: RadicalVocab | None = None) -> list[TargetRecord]:
    """Build one TargetRecord per character, in charset order, from _plan.

    Every record's index and weight rows have length ``max_len``: data
    positions, one EOS (weight 1), then PAD (weight 0).  ``vocab`` defaults
    to ``build_vocab(table, charset)``, as ``export-targets`` builds it.
    Each data weight is num / den, equal to float() of the radical_weights
    Fraction; records of one tree shape share one row.
    """
    chars = list(charset)
    vocab = build_vocab(table, chars) if vocab is None else vocab
    plan = _plan(chars, table, max_len, mode, lam, vocab)
    return [TargetRecord(char, tokens, (*vocab.encode(tokens), EOS_INDEX,
                                        *[PAD_INDEX] * (len(row) - len(tokens) - 1)), row)
            for char, tokens, (row, _) in zip(chars, map(table.tokens, chars), plan)]


def export_lines(charset: Iterable[str], table: DecompositionTable, max_len: int,
                 mode: str, lam, vocab: RadicalVocab) -> Iterator[str]:
    """Per ``export_targets`` record, two strings that join to ``json.dumps(record._asdict(),
    ensure_ascii=False)`` and a newline: its head, then its shape's ASCII tail (one object per
    shape), which a UTF-8 text file writes unencoded.  Floats are shortest round-trip, so
    identical inputs give identical bytes.  Every check passes before this returns: a failure
    writes nothing."""
    chars = list(charset)
    plan = _plan(chars, table, max_len, mode, lam, vocab)
    token_json = {token: encode_basestring(token) for token in vocab.tokens}
    index_text = {token: str(i) for i, token in enumerate(vocab.tokens)}
    return chain.from_iterable(
        (_HEAD % (encode_basestring(char), ", ".join(map(token_json.__getitem__, tokens)),
                  ", ".join(map(index_text.__getitem__, tokens))), tail)
        for char, tokens, (_, tail) in zip(chars, map(table.tokens, chars), plan))


def _plan(chars: list[str], table: DecompositionTable, max_len: int, mode: str, lam,
          vocab: RadicalVocab) -> list[tuple]:
    """Check an export in full; return its shape's ``(row, tail)`` entry per
    character, in ``chars`` order.

    Raises as _export_ratios, then SequenceTooLong for a character whose
    sequence plus EOS exceeds ``max_len``, UnknownToken for a token outside
    ``vocab``.  A node's weight depends only on the child counts along its
    root path, so a tree's shape decides its weight row (data weights, 1.0,
    0.0 ...), its length and so its line tail (the EOS/PAD indices and the
    row as JSON): each is made and checked once per distinct shape, and the
    characters of one shape share one entry object.  A weight's text is
    json's for a finite float, ``repr(num / den)``, made once per distinct
    ``(num, den)``.
    """
    ratios = _export_ratios(mode, lam, max_len)
    known, texts = set(vocab.tokens), {}
    shapes: dict[tuple[int, ...], tuple[tuple[float, ...], str]] = {}
    plan = []
    for char in chars:
        tokens, counts, ends = table._preorder(char)
        entry = shapes.get(counts)
        if entry is None:
            pad = max_len - len(tokens) - 1
            if pad < 0:
                raise SequenceTooLong(f"character {char!r} needs length {len(tokens) + 1} "
                                      f"(rssl {len(tokens)} + EOS) but max_len is {max_len}")
            weights = ratios((tokens, counts, ends))
            texts.update((w, repr(w[0] / w[1])) for w in weights if w not in texts)
            row = (*(num / den for num, den in weights), 1.0, *[0.0] * pad)
            tail = _TAIL % (f", {EOS_INDEX}" + f", {PAD_INDEX}" * pad,
                            ", ".join(map(texts.__getitem__, weights)), ", 0.0" * pad)
            entry = shapes[counts] = row, tail
        if not known.issuperset(tokens):
            vocab.encode(tokens)  # raises UnknownToken for the first missing token
        plan.append(entry)
    return plan


def weighted_ce(prob_rows, targets, weights, reduction: str = "sum") -> float:
    """Weighted cross-entropy (negative log-likelihood) of target indices.

    ``prob_rows`` holds one distribution per position, rows of one length each
    summing to 1 within 1e-6.  Positions with zero weight cost nothing, so PAD
    rows are excluded by their weight alone.  ``reduction`` "sum" adds the
    weighted terms with math.fsum, so their order cannot change the result;
    "mean" divides by the number of positions with positive weight.  Ragged or
    non-numeric input and targets that are not integer indices (bools are not)
    or fall outside a row raise ShapeMismatch, a row that is not a finite
    distribution InvalidDistribution, negative or non-finite weights ValueError.
    """
    if reduction not in ("sum", "mean"):
        raise ValueError(f"reduction must be 'sum' or 'mean', got {reduction!r}")
    try:
        rows, t, w = [list(row) for row in prob_rows], list(targets), list(weights)
    except TypeError:
        raise ShapeMismatch("prob_rows, targets or weights are not sequences") from None
    if not all(isinstance(x, Real) for row in (w, *rows) for x in row):
        raise ShapeMismatch("probabilities and weights must be real numbers")
    if not all(isinstance(k, Integral) and not isinstance(k, bool) for k in t):
        raise ShapeMismatch("targets must be integer indices")
    if len(set(map(len, rows))) > 1:
        raise ShapeMismatch("prob_rows are ragged")
    if not len(rows) == len(t) == len(w):
        raise ShapeMismatch(f"{len(rows)} rows but {len(t)} targets and {len(w)} weights")
    if not all(0 <= k < len(p) for p, k in zip(rows, t)):
        raise ShapeMismatch("target index out of range for the vocabulary axis")
    # isfinite first: fsum raises on inf + -inf.
    if not all(all(map(isfinite, row)) and min(row) >= 0 and abs(fsum(row) - 1.0) <= 1e-6
               for row in rows):
        raise InvalidDistribution(
            "every row must be a probability distribution (finite, sum 1 within 1e-6)")
    if not all(isfinite(x) and x >= 0 for x in w):
        raise ValueError("weights must be finite and >= 0")
    # A weighted target of probability 0 costs infinity, where log(0) would raise.
    terms = [float(x) * (-log(p[k]) if p[k] else inf) for p, k, x in zip(rows, t, w) if x > 0]
    total = fsum(terms)
    return total / len(terms) if reduction == "mean" and terms else total
