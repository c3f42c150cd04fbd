"""Seeded input generator for the radtree benchmark.

Everything here is derived from a workload name, a seed and
``data/sample_table.tsv``; the same arguments always give byte-identical
files.  The generator also returns the facts the output checks need
(line counts, missing ids, rssl per character, training counts), computed
from its own data so that the checks never call radtree.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

# The twelve ideographic description characters with their arities and
# relative frequencies: left-right and top-bottom dominate real tables.
IDCS = (
    ("⿰", 2, 45), ("⿱", 2, 30), ("⿲", 3, 3), ("⿳", 3, 3),
    ("⿴", 2, 2), ("⿵", 2, 3), ("⿶", 2, 1), ("⿷", 2, 2),
    ("⿸", 2, 4), ("⿹", 2, 2), ("⿺", 2, 3), ("⿻", 2, 2),
)
ARITY = {sym: arity for sym, arity, _ in IDCS}
IDC_SYMBOLS = [sym for sym, _, _ in IDCS]
IDC_CUM = list(accumulate(weight for _, _, weight in IDCS))

# Components: the Kangxi radicals and the CJK radicals supplement (U+2E9A
# is unassigned), a few hundred tokens in all.
RADICALS = tuple(chr(c) for c in range(0x2F00, 0x2FD6)) + tuple(
    chr(c) for c in range(0x2E80, 0x2EF4) if c != 0x2E9A)

# Synthesized table keys come from the CJK Unified Ideographs block.
CJK_FIRST, CJK_LAST = 0x4E00, 0x9FFF

# Characters the table never covers; they resolve to single leaves.
UNTABULATED = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                    "0123456789.,;:!?-()'\"/ ，。、！？：")

MAX_LEN = 33          # export row length; the deepest generated tree has 31 nodes
SAMPLE_TABLE = Path("data") / "sample_table.tsv"


@dataclass(frozen=True)
class Spec:
    """Fixed sizes and error model of one workload."""

    command: str                 # "eval" or "export-targets"
    table_size: int
    samples: int = 0             # gt records (eval only)
    min_len: int = 1
    max_len: int = 1
    train_lines: int = 0
    error_rate: float = 0.0
    # split of errors into substitution, deletion (an empty prediction for
    # single characters) and insertion
    sub_share: float = 0.0
    del_share: float = 0.0
    ins_share: float = 0.0
    untabulated_rate: float = 0.0
    missing_rate: float = 0.0
    extra_pred_rate: float = 0.0
    confusable_subs: bool = False


SPECS = {
    "eval-lines": Spec("eval", table_size=6000, samples=1500, min_len=10, max_len=40,
                       train_lines=4000, error_rate=0.12, sub_share=0.70, del_share=0.15,
                       ins_share=0.15, untabulated_rate=0.03, missing_rate=0.01, extra_pred_rate=0.005),
    "eval-chars": Spec("eval", table_size=20000, samples=20000, train_lines=40000,
                       error_rate=0.40, sub_share=0.85, del_share=0.15,
                       confusable_subs=True),
    "export-targets": Spec("export-targets", table_size=20000),
}

WHY = {
    "eval-lines": "text lines with ~12% char errors: per-character work (kernel rows, "
                  "traceback, Fraction bucket adds) dominates",
    "eval-chars": "single-char samples, large table, 40% confusable substitutions: "
                  "per-sample overhead, table load and char_sim over many distinct pairs",
    "export-targets": "treesim targets for a large table: table parse, exact weights and "
                      "JSON emit; never enters metrics or the edit-distance kernel",
}


@dataclass
class Corpus:
    """Generated files plus the facts the output checks are computed from."""

    workload: str
    seed: int
    table_rows: list[tuple[str, list[str]]]     # (char, preorder tokens) in file order
    gt: dict[str, str] = field(default_factory=dict)
    pred: dict[str, str] = field(default_factory=dict)
    train: list[str] = field(default_factory=list)

    @property
    def rssl(self) -> dict[str, int]:
        return {char: len(tokens) for char, tokens in self.table_rows}

    @property
    def items(self) -> int:
        """Work units: ground-truth characters for eval, records for export."""
        if SPECS[self.workload].command == "eval":
            return sum(len(text) for text in self.gt.values())
        return len(self.table_rows)

    def cut(self) -> Corpus:
        """The same table with every corpus input cut to its first record."""
        return Corpus(self.workload, self.seed, self.table_rows,
                      gt=dict(list(self.gt.items())[:1]),
                      pred=dict(list(self.pred.items())[:1]),
                      train=self.train[:1])

    def write(self, directory: Path, *, cut: bool = False) -> dict[str, Path]:
        """Write the input files; returns them by role."""
        directory.mkdir(parents=True, exist_ok=True)
        files = {"table": directory / "table.tsv"}
        _write_lines(files["table"], [f"{c}\t{' '.join(t)}" for c, t in self.table_rows])
        if SPECS[self.workload].command == "eval":
            files["gt"] = directory / "gt.tsv"
            files["pred"] = directory / "pred.tsv"
            files["train"] = directory / "train.txt"
            _write_lines(files["gt"], [f"{k}\t{v}" for k, v in self.gt.items()])
            _write_lines(files["pred"], [f"{k}\t{v}" for k, v in self.pred.items()])
            _write_lines(files["train"], self.train)
        elif cut:
            files["charset"] = directory / "charset.txt"
            _write_lines(files["charset"], [self.table_rows[0][0]])
        return files


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_sample_table(root: Path) -> list[tuple[str, list[str]]]:
    rows = []
    for raw in (root / SAMPLE_TABLE).read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            char, seq = raw.split("\t")
            rows.append((char, seq.split()))
    return rows


def _zipf_cum(n: int, s: float = 1.0) -> list[float]:
    """Cumulative Zipf weights of ranks 1..n."""
    return list(accumulate(rank ** -s for rank in range(1, n + 1)))


def _random_tree(rng: random.Random, radical_cum: list[float]) -> list[str]:
    """Preorder tokens of a random tree: mostly 3-9 nodes, a tail to 31."""
    r = rng.random()
    internal = 1 if r < 0.35 else 2 if r < 0.65 else 3 if r < 0.83 else 4 if r < 0.95 \
        else rng.randint(5, 10)
    # A tree as nested lists [symbol, child...]; leaves are None until filled.
    root = [rng.choices(IDC_SYMBOLS, cum_weights=IDC_CUM)[0]]
    root.extend([None] * ARITY[root[0]])
    open_slots = [(root, i) for i in range(1, len(root))]
    for _ in range(internal - 1):
        parent, i = open_slots.pop(rng.randrange(len(open_slots)))
        node = [rng.choices(IDC_SYMBOLS, cum_weights=IDC_CUM)[0]]
        node.extend([None] * ARITY[node[0]])
        parent[i] = node
        open_slots.extend((node, j) for j in range(1, len(node)))
    for parent, i in open_slots:
        parent[i] = rng.choices(RADICALS, cum_weights=radical_cum)[0]
    tokens: list[str] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            tokens.append(node)
        else:
            tokens.append(node[0])
            stack.extend(reversed(node[1:]))
    return tokens


def _make_table(rng: random.Random, root: Path, size: int) -> list[tuple[str, list[str]]]:
    rows = _read_sample_table(root)
    taken = {char for char, _ in rows}
    keys = [chr(c) for c in range(CJK_FIRST, CJK_LAST + 1) if chr(c) not in taken]
    keys = rng.sample(keys, size - len(rows))
    radical_cum = _zipf_cum(len(RADICALS), 0.9)
    rows.extend((key, _random_tree(rng, radical_cum)) for key in keys)
    return rows


def generate(workload: str, seed: int, root: Path) -> Corpus:
    """Build the corpus of ``workload`` from ``seed``; ``root`` is the repo root."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}:{seed}")
    rows = _make_table(rng, root, spec.table_size)
    corpus = Corpus(workload, seed, rows)
    if spec.command != "eval":
        return corpus

    # Ground-truth characters follow a Zipf law over a shuffled table.
    chars = [char for char, _ in rows]
    rng.shuffle(chars)
    char_cum = _zipf_cum(len(chars))

    def draw() -> str:
        if spec.untabulated_rate and rng.random() < spec.untabulated_rate:
            return rng.choice(UNTABULATED)
        return rng.choices(chars, cum_weights=char_cum)[0]

    confusable: dict[tuple[str, str], list[str]] = {}
    if spec.confusable_subs:
        for char, tokens in rows:
            confusable.setdefault((tokens[0], tokens[1]), []).append(char)
    token_of = dict(rows)

    def substitute(char: str) -> str:
        group = confusable.get(tuple(token_of[char][:2])) if char in token_of else None
        if group and len(group) > 1:
            while True:
                other = rng.choice(group)
                if other != char:
                    return other
        while True:
            other = draw()
            if other != char:
                return other

    sub_cut = spec.error_rate * spec.sub_share
    del_cut = sub_cut + spec.error_rate * spec.del_share
    ins_cut = del_cut + spec.error_rate * spec.ins_share
    width = len(str(spec.samples))
    prefix = "L" if spec.max_len > 1 else "C"
    for n in range(spec.samples):
        sid = f"{prefix}{n:0{width}d}"
        text = "".join(draw() for _ in range(rng.randint(spec.min_len, spec.max_len)))
        out = []
        for char in text:
            r = rng.random()
            if r < sub_cut:
                out.append(substitute(char))
            elif r < del_cut:
                continue
            elif r < ins_cut:
                out.extend((char, draw()))
            else:
                out.append(char)
        corpus.gt[sid] = text
        if rng.random() >= spec.missing_rate:
            corpus.pred[sid] = "".join(out)
    for n in range(int(spec.samples * spec.extra_pred_rate)):
        corpus.pred[f"X{n:0{width}d}"] = draw()
    corpus.train = ["".join(draw() for _ in range(rng.randint(spec.min_len, spec.max_len)))
                    for _ in range(spec.train_lines)]
    return corpus
