"""Shared test utilities: random tree generation and independent oracles.

The oracles here deliberately take different routes than the library:
a preorder sequence is parsed left to right with a stack of open nodes,
and each subtree's end is found by counting open subtrees forward from it;
similarity is scored by enumerating child-index paths and prefix-checking
ancestors, with node weights derived from the closed-form product of
1/(arity+1) along the root path; edit distance and alignment are the
textbook full-matrix DP in plain Python; the evaluation report is rebuilt
one ground-truth character at a time with Fraction sums; the output of
``radtree parse`` is rebuilt by walking a RadicalTree node by node; export
lines are ``json.dumps`` of each record's dict; the weighted loss is
numpy's gather, log and dot.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np

from radtree.errors import MalformedLine, TrailingTokens, Underflow
from radtree.metrics import DEFAULT_BUCKETS, BucketSpec, bucket_occn, bucket_rssl
from radtree.tree import ArityTable, RadicalTree, rssl, to_preorder

DEFAULT_ARITIES = ArityTable()
STRUCTURES = sorted(token for token, _ in DEFAULT_ARITIES.items())
STRUCTURES_BY_ARITY = {
    2: [t for t in STRUCTURES if DEFAULT_ARITIES.arity(t) == 2],
    3: [t for t in STRUCTURES if DEFAULT_ARITIES.arity(t) == 3],
}
LEAF_POOL = list("ABCDEFGHIJ")


def node(symbol: str, *children: RadicalTree) -> RadicalTree:
    return RadicalTree(symbol, tuple(children))


def random_tree(rng: random.Random, max_depth: int = 6,
                structure_prob: float = 0.6,
                leaf_pool: list[str] = LEAF_POOL) -> RadicalTree:
    """Random valid tree over the default structure set (arities 2 and 3)."""
    if max_depth == 0 or rng.random() > structure_prob:
        return RadicalTree(rng.choice(leaf_pool))
    symbol = rng.choice(STRUCTURES)
    n = DEFAULT_ARITIES.arity(symbol)
    return RadicalTree(
        symbol,
        tuple(random_tree(rng, max_depth - 1, structure_prob, leaf_pool) for _ in range(n)),
    )


def parse_oracle(tokens, arities: ArityTable) -> RadicalTree:
    """Left-to-right reference parser: a stack of open structure nodes, each
    closed when its last child arrives.  Same errors and messages as
    radtree.tree.parse_sequence."""
    # Open structure nodes, innermost last: (symbol, arity, children so far).
    stack: list[tuple[str, int, list[RadicalTree]]] = []
    pos = 0
    while True:
        if pos >= len(tokens):
            raise Underflow(
                f"sequence ended at token {pos} while a subtree was still incomplete"
            )
        token = tokens[pos]
        pos += 1
        if not token:
            raise MalformedLine(f"empty token at position {pos - 1}")
        if token in arities:
            stack.append((token, arities.arity(token), []))
            continue
        node = RadicalTree(token)
        while stack:
            symbol, arity, children = stack[-1]
            children.append(node)
            if len(children) < arity:
                break
            stack.pop()
            node = RadicalTree(symbol, tuple(children))
        if not stack:
            break
    if pos != len(tokens):
        raise TrailingTokens(
            f"{len(tokens) - pos} token(s) left over at position {pos} after the tree closed"
        )
    return node


def subtree_ends_oracle(counts) -> list[int]:
    """For each preorder index, the index one past the end of its subtree:
    from that index, count the subtrees still open forward until none is."""
    ends = []
    for start in range(len(counts)):
        end, open_subtrees = start, 1
        while open_subtrees:
            open_subtrees += counts[end] - 1
            end += 1
        ends.append(end)
    return ends


# Arity tables for the parser oracle: the default one, one with arity 3 as
# the only odd arity, and one whose huge arity only ever underflows.
ORACLE_ARITIES = (
    DEFAULT_ARITIES,
    ArityTable({"T": 3, "P": 2}),
    ArityTable({"H": 10**18, "P": 2}),
)


def json_text(value, indent: int | None) -> str:
    """``json.dumps(value, ensure_ascii=False, indent=indent)`` for dicts
    with str keys, lists, tuples and scalars, without recursion: a parsed
    tree may nest deeper than the interpreter's recursion limit."""
    out: list[str] = []
    todo: list[tuple] = [(value, 0)]  # (value, depth), or (literal text, None)
    while todo:
        item, depth = todo.pop()
        if depth is None:
            out.append(item)
            continue
        if isinstance(item, dict):
            entries = [(json.dumps(key, ensure_ascii=False) + ": ", v) for key, v in item.items()]
            brackets = "{}"
        elif isinstance(item, (list, tuple)):
            entries = [("", v) for v in item]
            brackets = "[]"
        else:
            out.append(json.dumps(item, ensure_ascii=False))
            continue
        if not entries:
            out.append(brackets)
            continue
        if indent is None:
            first, sep, last = "", ", ", ""
        else:
            first = "\n" + " " * (indent * (depth + 1))
            sep, last = "," + first, "\n" + " " * (indent * depth)
        pieces: list[tuple] = [(brackets[0] + first, None)]
        for n, (prefix, v) in enumerate(entries):
            pieces.append(((sep if n else "") + prefix, None))
            pieces.append((v, depth + 1))
        pieces.append((last + brackets[1], None))
        todo.extend(reversed(pieces))
    return "".join(out)


def dumps_lines(records) -> str:
    """The JSON lines of export records, one ``json.dumps`` call per record."""
    return "".join(json.dumps(r._asdict(), ensure_ascii=False) + "\n" for r in records)


def parse_output_oracle(tree: RadicalTree, arities: ArityTable, char: str | None = None,
                        pretty: bool = False) -> str:
    """Stdout of ``radtree parse`` for ``tree``, built by walking the tree:
    ``char`` is given for a table lookup and None for ``--seq``."""
    def node_json(node) -> dict:
        kind = "structure" if node.symbol in arities else "radical"
        return {"symbol": node.symbol, "kind": kind}

    root = node_json(tree)
    stack = [(tree, root)]
    while stack:
        node, out = stack.pop()
        if node.children:
            out["children"] = [node_json(child) for child in node.children]
            stack.extend(zip(node.children, out["children"]))
    payload = {} if char is None else {"char": char}
    payload.update(tokens=to_preorder(tree), rssl=rssl(tree), tree=root)
    return json_text(payload, 2 if pretty else None) + "\n"


def random_sequence(rng: random.Random, arities: ArityTable, max_depth: int = 5,
                    structure_prob: float = 0.6) -> list[str]:
    """Preorder tokens of a random valid tree over ``arities``; structures
    with more than 8 children are left out."""
    structures = sorted(token for token, n in arities.items() if n <= 8)
    out: list[str] = []
    todo = [max_depth]  # depth budget of each subtree still to emit
    while todo:
        depth = todo.pop()
        if depth and rng.random() < structure_prob:
            symbol = rng.choice(structures)
            out.append(symbol)
            todo.extend([depth - 1] * arities.arity(symbol))
        else:
            out.append(rng.choice(LEAF_POOL))
    return out


def parse_cases(rng: random.Random, n: int):
    """``n`` seeded (arities, tokens) pairs for the parser oracle: whole
    trees (random_tree under the default arities), truncated ones, ones with
    extra tokens, ones with an empty token, and random token soups."""
    for _ in range(n):
        arities = rng.choice(ORACLE_ARITIES)
        if arities is DEFAULT_ARITIES:
            tokens = to_preorder(random_tree(rng, max_depth=4))
        else:
            tokens = random_sequence(rng, arities)
        pool = sorted(token for token, _ in arities.items()) + LEAF_POOL
        kind = rng.randrange(5)
        if kind == 1:
            tokens = tokens[:rng.randrange(len(tokens))]
        elif kind == 2:
            tokens += rng.choices(pool, k=rng.randint(1, 3))
        elif kind == 3:
            tokens.insert(rng.randint(0, len(tokens)), "")
        elif kind == 4:
            tokens = rng.choices(pool, k=rng.randint(0, 8))
        yield arities, tokens


def all_paths(tree: RadicalTree) -> list[tuple[int, ...]]:
    """Child-index paths of every node, preorder."""
    out: list[tuple[int, ...]] = []

    def walk(t: RadicalTree, path: tuple[int, ...]) -> None:
        out.append(path)
        for i, child in enumerate(t.children):
            walk(child, path + (i,))

    walk(tree, ())
    return out


def subtree_at(tree: RadicalTree, path: tuple[int, ...]) -> RadicalTree:
    for i in path:
        tree = tree.children[i]
    return tree


def replace_at(tree: RadicalTree, path: tuple[int, ...],
               subtree: RadicalTree) -> RadicalTree:
    if not path:
        return subtree
    children = list(tree.children)
    children[path[0]] = replace_at(children[path[0]], path[1:], subtree)
    return RadicalTree(tree.symbol, tuple(children))


def mutate(rng: random.Random, tree: RadicalTree) -> RadicalTree:
    """Relabel one random node, keeping the tree valid (arities preserved)."""
    path = rng.choice(all_paths(tree))
    target = subtree_at(tree, path)
    if not target.children:
        choices = [s for s in LEAF_POOL if s != target.symbol]
    else:
        same_arity = STRUCTURES_BY_ARITY[len(target.children)]
        choices = [s for s in same_arity if s != target.symbol]
    replacement = RadicalTree(rng.choice(choices), target.children)
    return replace_at(tree, path, replacement)


def sim_oracle(a: RadicalTree, b: RadicalTree) -> Fraction:
    """Path-enumeration reference for the similarity score.

    A path matches when every prefix (itself included) exists in both trees
    with equal symbols; the score sums closed-form weights of matched paths.
    """

    def index(tree: RadicalTree) -> dict[tuple[int, ...], tuple[str, int]]:
        out = {}
        for path in all_paths(tree):
            t = subtree_at(tree, path)
            out[path] = (t.symbol, len(t.children))
        return out

    ia, ib = index(a), index(b)

    def weight(path: tuple[int, ...]) -> Fraction:
        budget = Fraction(1)
        for k in range(len(path)):
            _, n = ia[path[:k]]
            budget /= n + 1
        _, n = ia[path]
        return budget if n == 0 else budget / (n + 1)

    def matched(path: tuple[int, ...]) -> bool:
        for k in range(len(path) + 1):
            prefix = path[:k]
            if prefix not in ib or ia[prefix][0] != ib[prefix][0]:
                return False
        return True

    return sum((weight(p) for p in ia if p in ib and matched(p)), Fraction(0))


def _dp_matrix(a: str, b: str) -> list[list[int]]:
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d


def brute_levenshtein(a: str, b: str) -> int:
    """Textbook full-matrix DP, independent of the bit-parallel kernel."""
    return _dp_matrix(a, b)[len(a)][len(b)]


def brute_align(gt: str, pred: str) -> list[tuple[str, int | None, int | None]]:
    """(kind, gt_index, pred_index) of the alignment read back from the full DP.

    From the bottom-right cell, ties at equal cost take match/substitute
    first, then delete (consume a gt char), then insert (a pred char).
    """
    d = _dp_matrix(gt, pred)
    i, j = len(gt), len(pred)
    ops = []
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = 0 if gt[i - 1] == pred[j - 1] else 1
            if d[i][j] == d[i - 1][j - 1] + cost:
                ops.append(("match" if cost == 0 else "substitute", i - 1, j - 1))
                i, j = i - 1, j - 1
                continue
        if i > 0 and d[i][j] == d[i - 1][j] + 1:
            ops.append(("delete", i - 1, None))
            i -= 1
            continue
        ops.append(("insert", None, j - 1))
        j -= 1
    return ops[::-1]


def evaluate_oracle(gt: dict[str, str], pred: dict[str, str], table, occn=None,
                    treesim_scope: str = "all", buckets: BucketSpec = DEFAULT_BUCKETS) -> dict:
    """The evaluation report dict, one ground-truth character at a time.

    Each character adds its correctness and its Fraction similarity (1 for
    a match, sim_oracle for a substitution, 0 or nothing for a deletion) to
    the total and to its buckets; the DP is brute_align's.
    """
    def acc():
        return {"count": 0, "correct": 0, "sim_sum": Fraction(0), "sim_count": 0}

    total = acc()
    rssl_acc = {name: acc() for name in ("simple", "sub_complex", "complex")}
    occn_acc = {name: acc() for name in ("head", "mid", "low", "tail")} if occn is not None else None
    ids = sorted(gt)
    line_correct, ned_sum = 0, Fraction(0)
    for sid in ids:
        g, p = gt[sid], pred.get(sid, "")
        line_correct += g == p
        longest = max(len(g), len(p))
        ned_sum += 1 - Fraction(brute_levenshtein(g, p), longest) if longest else 1
        for kind, gi, pj in brute_align(g, p):
            if kind == "insert":
                continue
            char = g[gi]
            if kind == "match":
                sim = Fraction(1)
            elif kind == "substitute":
                sim = sim_oracle(table.lookup(char), table.lookup(p[pj]))
            else:
                sim = Fraction(0) if treesim_scope == "all" else None
            targets = [total, rssl_acc[bucket_rssl(rssl(table.lookup(char)), buckets)]]
            if occn_acc is not None:
                targets.append(occn_acc[bucket_occn(occn.get(char, 0), buckets)])
            for a in targets:
                a["count"] += 1
                a["correct"] += kind == "match"
                if sim is not None:
                    a["sim_sum"] += sim
                    a["sim_count"] += 1

    def row(a):
        return {
            "count": a["count"],
            "correct": a["correct"],
            "accuracy": a["correct"] / a["count"] if a["count"] else None,
            "mean_treesim": float(a["sim_sum"] / a["sim_count"]) if a["sim_count"] else None,
        }

    n = len(ids)
    total_row = row(total)
    return {
        "line_count": n,
        "line_correct": line_correct,
        "line_accuracy": line_correct / n,
        "mean_one_minus_ned": float(ned_sum / n),
        "char_count": total_row["count"],
        "char_correct": total_row["correct"],
        "char_accuracy": total_row["accuracy"],
        "mean_treesim": total_row["mean_treesim"],
        "treesim_scope": treesim_scope,
        "rssl_buckets": {name: row(a) for name, a in rssl_acc.items()},
        "occn_buckets": {name: row(a) for name, a in occn_acc.items()} if occn_acc is not None else None,
        "missing_ids": sorted(k for k in ids if k not in pred),
    }


def random_text(rng: random.Random, alphabet: str, max_len: int,
                min_len: int = 0) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))


def weighted_ce_oracle(prob_rows, targets, weights) -> float:
    """The summed weighted loss computed by numpy, values only: no input is checked."""
    p, t, w = np.asarray(prob_rows, float), np.asarray(targets), np.asarray(weights, float)
    keep = w > 0
    return float(np.dot(w[keep], -np.log(p[np.flatnonzero(keep), t[keep]])))
