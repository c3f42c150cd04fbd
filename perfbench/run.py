#!/usr/bin/env python3
"""radtree benchmark: seeded workloads through the real CLI.

Run from the repository root:

    python3 perfbench/run.py --workload eval-lines --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` spawns ``python -m radtree.cli`` once at a time (``src`` on
PYTHONPATH, every RADTREE_* variable removed) and reports the end-to-end
metrics.  ``--trace 1`` calls ``radtree.cli.main`` in-process with spans
around each layer and reports the per-layer metrics.  ``all`` runs every
workload both ways.  Every output is checked; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
import corpus
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = tuple(corpus.SPECS)
DEFAULT_SEED = 1
# SHA-256 of the output bytes (report, or targets then vocabulary) at
# DEFAULT_SEED.  Output must not change with any optimisation.
PINNED = {
    "eval-lines": "c0cb853dc7ddf26a790b4937656fbc5a1786cc363fab01668bde8d15aafbb674",
    "eval-chars": "ec4dd599eeb95c10d43c6c133fd8db099a38da349480adf9a8dd2564da8f4882",
    "export-targets": "d516a8d77d7e09948018644aef031d3a330432b0d2228f96f9cda4aeee6d10d2",
}

# Run times are reported at their 90th percentile, not their median.  On a
# shared host the CLI runs at one speed while other tenants contend for the
# core and about 40% faster in the minutes they do not; the median follows
# how much of a run fell in such minutes, the 90th percentile stays with the
# contended speed.  On a 2-vCPU VM, over two sets of 10 seeds with 36 s runs,
# the interquartile spread of the median wall time on eval-lines was 11% and
# 27%, that of the 90th percentile 7% and 13%.
END_TO_END = {
    "wall_p90_s": "s",      # 90th percentile spawn-to-exit time of one full CLI run
    "cpu_p90_s": "s",       # 90th percentile user+sys time of the child
    "items_per_s": "1/s",   # gt chars (eval) or records (export) over wall_p90_s
    "peak_rss_mb": "MB",    # median peak resident set of the child
    "setup_s": "s",         # median wall time with every corpus input cut to one record
}
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s",
    "table.load_s": "s", "table.entries": "count",
    "tree.parse_sequence_s": "s", "tree.parse_sequence_calls": "count", "tree.nodes": "count",
    "tree.rssl_s": "s", "tree.to_preorder_s": "s",
    "kernels.distance_s": "s", "kernels.matrix_s": "s",
    "metrics.levenshtein_s": "s", "metrics.levenshtein_calls": "count",
    "metrics.align_s": "s", "metrics.align_calls": "count", "metrics.align_self_s": "s",
    "metrics.dp_cells": "count",
    "metrics.align_ops_match": "count", "metrics.align_ops_substitute": "count",
    "metrics.align_ops_delete": "count", "metrics.align_ops_insert": "count",
    "metrics.evaluate_s": "s", "metrics.evaluate_self_s": "s", "metrics.read_corpus_s": "s",
    "metrics.missing_ids": "count", "metrics.untabulated_gt_chars": "count",
    "metrics.pred_ids_not_in_gt": "count",
    "treesim.char_sim_s": "s", "treesim.char_sim_calls": "count",
    "treesim.pair_reuse_ratio": "ratio", "treesim.tree_weights_s": "s",
    "targets.build_vocab_s": "s", "targets.radical_weights_s": "s",
    "targets.export_self_s": "s", "targets.write_jsonl_s": "s",
    "targets.records": "count", "targets.output_bytes": "bytes",
    "stats.read_labels_s": "s", "stats.count_occurrences_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.hook_s": "s",
    "trace.overhead_ratio": "ratio", "trace.calls": "count", "trace.absent_names": "count",
}
SETUP_REPEATS = 5
# A run must end within 180 s; children still running near the end are killed.
RUN_BUDGET_S = 170


class Sample(NamedTuple):
    wall: float
    cpu: float
    rss_mb: float


def pinned(workload: str, seed: int) -> str | None:
    return PINNED[workload] if seed == DEFAULT_SEED else None


def child_env() -> dict[str, str]:
    """The caller's environment without RADTREE_* and with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RADTREE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_argv(workload: str, files: dict[str, Path], out: Path) -> list[str]:
    if corpus.SPECS[workload].command == "eval":
        return ["eval", "--table", str(files["table"]), "--gt", str(files["gt"]),
                "--pred", str(files["pred"]), "--train", str(files["train"]),
                "-o", str(out / "report.json")]
    source = ["--charset", str(files["charset"])] if "charset" in files else ["--from-table"]
    return ["export-targets", "--table", str(files["table"]), *source, "--mode", "treesim",
            "--max-len", str(corpus.MAX_LEN), "-o", str(out / "targets.jsonl"),
            "--vocab-out", str(out / "vocab.tsv")]


def output_files(workload: str, out: Path) -> list[Path]:
    if corpus.SPECS[workload].command == "eval":
        return [out / "report.json"]
    return [out / "targets.jsonl", out / "vocab.tsv"]


class OutputCheck:
    """Checks the first output in full and later ones for identical bytes."""

    def __init__(self, workload: str, data: corpus.Corpus, out: Path, *,
                 pinned: str | None = None, cut: bool = False):
        self.workload, self.data, self.out = workload, data, out
        self.pinned, self.cut = pinned, cut
        self.digest: str | None = None
        self.problems: list[str] = []

    def __call__(self, rc) -> bool:
        if rc != 0:
            self.problems.append(f"exit code {rc}")
            return False
        try:
            raws = [path.read_bytes() for path in output_files(self.workload, self.out)]
        except OSError as exc:
            self.problems.append(f"output unreadable: {exc}")
            return False
        digest = hashlib.sha256(b"".join(raws)).hexdigest()
        if self.digest is None:
            found = self._check(raws)
            if self.pinned and digest != self.pinned:
                found.append(f"output SHA-256 {digest} differs from the pinned {self.pinned}")
            self.problems += found
            if found:
                return False
            self.digest = digest
            return True
        if digest != self.digest:
            self.problems.append("output bytes differ between identical runs")
            return False
        return True

    def _check(self, raws: list[bytes]) -> list[str]:
        if corpus.SPECS[self.workload].command == "eval":
            return checks.check_eval_report(raws[0], self.data,
                                            single_chars=self.workload == "eval-chars")
        chars = [c for c, _ in self.data.table_rows]
        return checks.check_export(raws[0], raws[1], self.data, chars[:1] if self.cut else chars)


class Launcher:
    """The launch.py process, which spawns every CLI child (see its docstring)."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.proc.terminate()  # the launcher kills and reaps its child first
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], timeout: float, log: Path) -> tuple[int, Sample]:
        request = {"argv": [sys.executable, "-m", "radtree.cli", *argv],
                   "timeout": timeout, "stderr": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited early")
        reply = json.loads(line)
        return reply["rc"], Sample(reply["wall"], reply["cpu"], reply["rss_mb"])


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def provenance(workload: str, seed: int, files: dict[str, Path], **extra) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    numba = importlib.util.find_spec("numba") is not None and subprocess.run(
        [sys.executable, "-c", "import numba"], env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "workload": workload, "why": corpus.WHY[workload], "seed": seed,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "numba_imports": numba, "commit": commit,
        "inputs_sha256": {role: corpus.sha256_file(path) for role, path in files.items()},
        **extra,
    }


def measure_untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    with Launcher(child_env()) as launcher:
        return _measure_untraced(launcher, workload, seed, seconds, work)


def _measure_untraced(launcher: Launcher, workload: str, seed: int, seconds: float,
                      work: Path) -> dict:
    budget_end = time.perf_counter() + RUN_BUDGET_S
    data = corpus.generate(workload, seed, ROOT)
    cut = data.cut()
    full_files = data.write(work / "in-full")
    cut_files = cut.write(work / "in-cut", cut=True)
    out_full, out_cut = work / "out-full", work / "out-cut"
    out_full.mkdir()
    out_cut.mkdir()
    check_full = OutputCheck(workload, data, out_full, pinned=pinned(workload, seed))
    check_cut = OutputCheck(workload, cut, out_cut, cut=True)
    failed = attempted = 0

    def one(argv, check) -> Sample:
        nonlocal failed, attempted
        timeout = max(1.0, budget_end - time.perf_counter())
        log = work / "stderr.log"
        rc, sample = launcher.run(argv, timeout, log)
        attempted += 1
        if not check(rc):
            failed += 1
            stderr = log.read_text(errors="replace").strip()
            if stderr:
                check.problems.append(f"stderr: {stderr[-300:]}")
        return sample

    setup_argv = cli_argv(workload, cut_files, out_cut)
    one(setup_argv, check_cut)  # warm-up: writes bytecode caches
    setups = [one(setup_argv, check_cut) for _ in range(SETUP_REPEATS)]
    runs: list[Sample] = []
    argv = cli_argv(workload, full_files, out_full)
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(one(argv, check_full))

    wall = p90([s.wall for s in runs])
    metrics = {
        "wall_p90_s": wall,
        "cpu_p90_s": p90([s.cpu for s in runs]),
        "items_per_s": data.items / wall,
        "peak_rss_mb": statistics.median(s.rss_mb for s in runs),
        "setup_s": statistics.median(s.wall for s in setups),
    }
    spread = {
        "wall_p90_s": quartiles([s.wall for s in runs]),
        "cpu_p90_s": quartiles([s.cpu for s in runs]),
        "peak_rss_mb": quartiles([s.rss_mb for s in runs]),
        "setup_s": quartiles([s.wall for s in setups]),
    }
    problems = check_full.problems + check_cut.problems
    info = provenance(workload, seed, full_files, items=data.items,
                      failed_ratio=failed / attempted,
                      wall_s_runs=[s.wall for s in runs], setup_s_runs=[s.wall for s in setups])
    return {"metrics": metrics, "spread": spread, "attempted": attempted, "failed": failed,
            "problems": problems, "provenance": info}


def measure_traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    # radtree reads RADTREE_* at import and parse time; clear them first.
    for name in [k for k in os.environ if k.startswith("RADTREE_")]:
        del os.environ[name]
    data = corpus.generate(workload, seed, ROOT)
    files = data.write(work / "in-full")
    out = work / "out-full"
    out.mkdir()
    check = OutputCheck(workload, data, out, pinned=pinned(workload, seed))
    result = traced.run(SRC, cli_argv(workload, files, out), seconds, check)

    per_call, counts = result["per_call"], result["counts"]

    def total(span, key="total"):
        return per_call.get(span, {}).get(key, 0.0)

    layer = {"cli.import_s": result["import_s"], "cli.self_s": total(traced.ROOT_SPAN, "self"),
             "trace.wall_s": result["wall_s"], "trace.unattributed_s": result["unattributed_s"],
             "trace.hook_s": total("trace.hook"), "trace.overhead_ratio": result["overhead_ratio"],
             "trace.calls": result["traced_calls"], "trace.absent_names": len(result["absent"])}
    subs = counts.get("metrics.align_ops_substitute", 0)
    layer["treesim.pair_reuse_ratio"] = 1 - total("treesim.char_sim", "calls") / subs if subs else 0.0
    for name in PER_LAYER:
        if name in layer:
            continue
        span, _, suffix = name.rpartition("_")
        if suffix == "s" and span.endswith("_self"):
            layer[name] = total(span[:-5], "self")
        elif suffix == "s":
            layer[name] = total(span)
        elif suffix == "calls":
            layer[name] = total(span, "calls")
        else:
            layer[name] = counts.get(name, 0)
    problems = list(check.problems)
    identity = result["self_sum_s"] + result["unattributed_s"]
    if abs(identity - result["wall_s"]) > 1e-6 * max(1.0, result["wall_s"]):
        problems.append(f"self times + unattributed = {identity} s, wall = {result['wall_s']} s")
    info = provenance(workload, seed, files, traced_calls=result["traced_calls"],
                      absent=result["absent"],
                      self_s={name: row["self"] for name, row in sorted(per_call.items())})
    return {"metrics": layer, "attempted": result["attempted"], "failed": result["failed"],
            "problems": problems, "provenance": info}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    work = WORK / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        measure = measure_traced if trace else measure_untraced
        result = measure(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    print(json.dumps({"provenance": result["provenance"]}, ensure_ascii=False))
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}")
    for name, unit in units.items():
        line = f"{workload:<15} {name:<30} {result['metrics'][name]:>16.6f} {unit}"
        if name in result.get("spread", {}):
            q1, _, q3 = result["spread"][name]
            line += f"  (p25 {q1:.6f}, p75 {q3:.6f})"
        print(line)
    failed = result["failed"]
    # Failures are reported through "attempted" and "failed", not as a metric.
    print(f"{workload:<15} {'failed_ratio':<30} {failed / result['attempted']:>16.6f} ratio"
          f"  ({failed} of {result['attempted']} invocations)")
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for workload in WORKLOADS:
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  capture_output=True, text=True)
            lines = done.stdout.splitlines()
            sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                return done.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main() -> int:
    # Exit through the cleanup paths (launcher, work directory) on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (SRC / "radtree" / "cli.py", ROOT / corpus.SAMPLE_TABLE):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a radtree checkout",
                  file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
