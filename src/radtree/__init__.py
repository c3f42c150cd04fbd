"""radtree: radical-tree decomposition, similarity, loss targets, evaluation.

Characters are modeled as ordered trees whose leaves are radicals and whose
internal nodes are fixed-arity structure symbols.  On top of that the
package provides exact per-node weights summing to 1, a [0, 1] similarity
score between trees, loss-weight and target-sequence generation for
sequence trainers, and a structure-aware evaluation report (accuracy,
1-NED, complexity- and frequency-bucketed breakdowns).
"""

from .errors import RadtreeError
from .metrics import (
    DEFAULT_BUCKETS,
    OCCN_BUCKETS,
    RSSL_BUCKETS,
    BucketSpec,
    EvalReport,
    bucket_occn,
    bucket_rssl,
    evaluate,
    levenshtein,
    one_minus_ned,
    read_corpus_tsv,
)
from .stats import count_occurrences, read_labels, rssl_distribution
from .table import DecompositionTable
from .targets import (
    EOS_INDEX,
    EOS_TOKEN,
    PAD_INDEX,
    PAD_TOKEN,
    RadicalVocab,
    TargetRecord,
    build_vocab,
    export_lines,
    export_targets,
    radical_weights,
    weighted_ce,
)
from .tree import (
    ArityTable,
    RadicalTree,
    iter_preorder,
    parse_sequence,
    rssl,
    to_preorder,
)
from .treesim import char_sim, tree_sim, tree_weights

__version__ = "0.1.0"

__all__ = [
    "ArityTable",
    "BucketSpec",
    "DEFAULT_BUCKETS",
    "DecompositionTable",
    "EOS_INDEX",
    "EOS_TOKEN",
    "EvalReport",
    "OCCN_BUCKETS",
    "PAD_INDEX",
    "PAD_TOKEN",
    "RSSL_BUCKETS",
    "RadicalTree",
    "RadicalVocab",
    "RadtreeError",
    "TargetRecord",
    "bucket_occn",
    "bucket_rssl",
    "build_vocab",
    "char_sim",
    "count_occurrences",
    "evaluate",
    "export_lines",
    "export_targets",
    "iter_preorder",
    "levenshtein",
    "one_minus_ned",
    "parse_sequence",
    "radical_weights",
    "read_corpus_tsv",
    "read_labels",
    "rssl",
    "rssl_distribution",
    "to_preorder",
    "tree_sim",
    "tree_weights",
    "weighted_ce",
]
