#!/usr/bin/env python3
"""Benchmark of the ``observe`` CLI: end-to-end job latency and per-layer time.

    python3 bench/run.py --workload systems --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --quick

Run from the repository root.  One closed-loop client in one process and one
thread drives ``observe`` in-process through click's CliRunner: each job
starts when the previous one ends.  Jobs come in rounds of a fixed mix
(see workloads.py), with fresh seeded input files per round.  A run takes as
many whole rounds as fill ``--seconds`` at a fixed nominal pace (and at
least 200 jobs), so every run of a seed times the same jobs.
Every job's exit code and stdout are checked against an answer that
oracles.py computes without the program.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds untraced and then traced, and prints the per-layer metrics.
``--quick`` runs one small round of every workload, checks every oracle and
exits non-zero on any disagreement.  METRICS.md lists every metric.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import weakref
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_JOBS = 200          # at least ten jobs beyond the p95
WALL_LIMIT_S = 140.0    # stop starting rounds after this, to exit well within 180 s
COLD_REPEATS = 7
# Job seconds of one round at reference speed.  A run measures the whole
# rounds that fill --seconds at this pace, so every run of a seed, and both
# sides of a comparison, time the same job list.
ROUND_S = {"systems": 1.0, "graph-search": 1.2, "short-jobs": 0.16}

# The machines this runs on change speed by up to 2x for seconds at a time
# (other tenants, frequency), which no setting here may pin.  So a fixed
# reference kernel is timed between jobs, at least every SAMPLE_EVERY_S of job
# time, and every time is scaled by the kernel's speed around it: times read
# as on a machine where one kernel pass takes REFERENCE_S.  The kernel mixes
# the operations the program spends its time on (tuple- and string-keyed
# lookups, integer bit work, calls), and it allocates no containers, so the
# program's heap cannot slow it through the garbage collector.
REFERENCE_S = 0.0015
SAMPLE_EVERY_S = 0.05
_KEYS = tuple((i % 97, i % 13, i) for i in range(256))
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_NAMES = tuple(f"k{i}" for i in range(256))
_NAME_TABLE = {name: i for i, name in enumerate(_NAMES)}
_NAME_SET = frozenset(_NAMES[::2])


def _add(x: int, y: int) -> int:
    return x + y


def reference_pass() -> float:
    start = time.perf_counter()
    total = 0
    for _ in range(10):
        for key in _KEYS:
            total += _TABLE[key] & 7
        for name in _NAMES:
            if name in _NAME_SET:
                total += _NAME_TABLE[name]
    for i in range(6000):
        total ^= (i * 2654435761) >> 7 & 1023
    for i in range(3000):
        total = _add(total, i) & 0xFFFF
    return time.perf_counter() - start


SUBCOMMANDS = ("system_classify", "system_verify", "grammar_check", "grammar_gen", "translate",
               "motif_match", "motif_derive", "graph_convert", "graph_iso", "graph_sub",
               "graph_motifs", "percolate", "tree_query", "tree_descendants", "complexity",
               "lzw_compress", "lzw_decompress")

END_TO_END = {
    "setup_s": "s", "job_p50_ms": "ms", "job_p95_ms": "ms", "jobs_per_s": "1/s",
    "completed_share": "share", "agreed_share": "share", "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> unit.  Times and counts are per round of the
# workload's job list, so runs of different length compare.
PER_LAYER = {
    "cli.self_s": "s/round", "cli.import_s": "s", "cli.bare_start_s": "s",
    **{f"cli.{sub}.p50_ms": "ms" for sub in SUBCOMMANDS},
    "cli.crashes": "count", "cli.probe_failures": "count", "cli.domain_errors": "count/round",
    "core.find_translation.self_s": "s/round", "core.find_translation.calls": "count/round",
    "core.translations_found_share": "share", "core.translation_space": "count/round",
    "core.verify_representation.self_s": "s/round",
    "core.verify_representation.calls": "count/round",
    "core.tuples": "count/round", "core.tuples_per_s": "1/s",
    "core.classify.self_s": "s/round", "core.parse_system_file.self_s": "s/round",
    "core.build.self_s": "s/round",
    "motifs.count_network_motifs.self_s": "s/round",
    "motifs.count_network_motifs.calls": "count/round",
    "motifs.subsets": "count/round", "motifs.subsets_per_s": "1/s",
    "motifs.motif_significance.self_s": "s/round", "motifs.rewire_attempts": "count/round",
    "motifs.parse_motif.self_s": "s/round", "motifs.match_motif.self_s": "s/round",
    "motifs.derive_motif.self_s": "s/round",
    "graphs.is_subgraph.self_s": "s/round", "graphs.is_subgraph.calls": "count/round",
    "graphs.is_subgraph.found_share": "share",
    "graphs.are_isomorphic.self_s": "s/round", "graphs.are_isomorphic.calls": "count/round",
    "graphs.are_isomorphic.found_share": "share",
    "graphs.parse_graph_text.self_s": "s/round", "graphs.build.self_s": "s/round",
    "graphs.format.self_s": "s/round",
    "graphs.percolation_sweep.self_s": "s/round", "graphs.er_random_graph.self_s": "s/round",
    "graphs.connected_components.self_s": "s/round",
    "complexity.canonical_string.self_s": "s/round",
    "complexity.canonical_string.calls": "count/round", "complexity.permutations": "count/round",
    "complexity.lzw_compress.self_s": "s/round", "complexity.lzw_decompress.self_s": "s/round",
    "complexity.relative_complexity.self_s": "s/round",
    "strings.membership.self_s": "s/round", "strings.membership.calls": "count/round",
    "strings.symbols": "count/round", "strings.generate.self_s": "s/round",
    "strings.generated": "count/round", "strings.parse_grammar.self_s": "s/round",
    "genetics.read_sequence_records.self_s": "s/round",
    "genetics.translate_gene.self_s": "s/round",
    "genetics.CodonTable.from_text.self_s": "s/round", "genetics.codons": "count/round",
    "familytree.parse_kinship_file.self_s": "s/round", "familytree.validate.self_s": "s/round",
    "familytree.query.self_s": "s/round", "familytree.descendants.self_s": "s/round",
    "share.core": "share", "share.search": "share", "share.glue": "share",
    "trace.overhead_share": "share",
}

# Metric groups made of more than one span name.
SPAN_GROUPS = {
    "graphs.format": ("graphs.format_graph_file", "graphs.format_matrix_text",
                      "graphs.format_adjacency_text", "graphs.encode_graph6"),
}


@dataclass
class Record:
    round: int
    sub: str
    wall: float         # measured seconds
    status: str         # ok, refused (expected domain error), wrong, failed
    detail: str = ""
    norm: float = 0.0   # seconds at reference speed


def normalise(records: list, samples: list) -> None:
    """Scale each job by the median of the five kernel passes before and after it."""
    positions = [position for position, _ in samples]
    for index, record in enumerate(records):
        at = bisect.bisect_right(positions, index)
        near = [seconds for _, seconds in samples[max(0, at - 5):at + 5]]
        record.norm = record.wall * REFERENCE_S / statistics.median(near)


def _malloc_trim():
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


# glibc only: hands freed heap back between rounds, so each round's peak
# memory starts from the same footprint, not from earlier rounds' fragments.
MALLOC_TRIM = _malloc_trim()


def release_click_streams() -> None:
    """Drop the stream wrappers click caches for each CliRunner call.

    click keeps them in WeakKeyDictionaries whose values refer to their keys,
    so they are never freed; left alone, the harness rather than the program
    would set peak memory and the collector's workload.
    """
    from click import _compat

    for func in (_compat._default_text_stdin, _compat._default_text_stdout,
                 _compat._default_text_stderr):
        for cell in getattr(func, "__closure__", None) or ():
            if isinstance(cell.cell_contents, weakref.WeakKeyDictionary):
                cell.cell_contents.clear()


def load_program():
    """Import observement from this checkout's src/, and nowhere else."""
    package = SRC / "observement"
    if not (package / "cli.py").is_file():
        sys.exit(f"bench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import observement.cli
    if Path(observement.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported observement from {observement.cli.__file__}, not {package}")
    return observement.cli.cli


def judge(job: workloads.Job, result) -> tuple:
    """Classify a CliRunner result: ok, refused, wrong or failed (with why).

    CliRunner turns any exception into exit code 1, so crashes are told apart
    by ``result.exception``: anything but SystemExit is a crash.
    """
    exc = result.exception
    if exc is not None and not isinstance(exc, SystemExit):
        return "failed", type(exc).__name__
    code = result.exit_code
    if code not in job.exits:
        return "failed", f"exit {code}" + (" after partial stdout" if result.stdout else "")
    if code != 0:
        return ("failed", f"exit {code} after partial stdout") if result.stdout else ("refused", "")
    expect = job.expect
    reason = (None if result.stdout == expect else "stdout differs") if isinstance(expect, str) \
        else expect(result.stdout)
    return ("wrong", reason) if reason else ("ok", "")


class Client:
    """The closed-loop client: writes a round's files, runs its jobs, judges them."""

    def __init__(self, cli, workdir: Path):
        from click.testing import CliRunner

        self.cli, self.workdir, self.runner = cli, workdir, CliRunner()
        self.tracer = None
        self.samples: list = []     # (index of the next record, kernel seconds)
        self._since_sample = 0.0

    def sample(self, position: int) -> None:
        self.samples.append((position, reference_pass()))
        self._since_sample = 0.0

    def run_round(self, index: int, rnd: workloads.Round, records: list) -> None:
        folder = self.workdir / f"round{index}"
        folder.mkdir()
        for name, text in rnd.files.items():
            (folder / name).write_text(text, encoding="utf-8")
        gc.collect()
        if MALLOC_TRIM:
            MALLOC_TRIM(0)
        gc.freeze()  # generator state stays out of the collections the jobs trigger
        try:
            self.sample(len(records))
            for job in rnd.jobs:
                args = [str(folder / a[1:]) if a.startswith("@") else a for a in job.args]
                if self._since_sample >= SAMPLE_EVERY_S:
                    self.sample(len(records))
                if self.tracer:
                    self.tracer.job = len(records)
                start = time.perf_counter()
                result = self.runner.invoke(self.cli, args)
                wall = time.perf_counter() - start
                self._since_sample += wall
                records.append(Record(index, job.sub, wall, *judge(job, result)))
        finally:
            gc.unfreeze()
            release_click_streams()
            shutil.rmtree(folder)


def planned_rounds(workload: str, seconds: float) -> int:
    per_round = len(workloads.make_round(workload, 0, 0, quick=True).jobs)
    return max(math.ceil(seconds / ROUND_S[workload]), math.ceil(MIN_JOBS / per_round))


def run_rounds(client: Client, workload: str, seed: int, rounds: int) -> list:
    """Run rounds 0..rounds-1, or fewer if WALL_LIMIT_S passes first.

    Returns the records with their times at reference speed filled in.
    """
    records: list = []
    client.samples = []
    started = time.perf_counter()
    for index in range(rounds):
        if index and time.perf_counter() - started > WALL_LIMIT_S:
            break
        client.run_round(index, workloads.make_round(workload, seed, index), records)
    client.sample(len(records))
    normalise(records, client.samples)
    return records


def cold_start(workdir: Path, kinds=("bare", "import", "command")) -> dict:
    """Median time of fresh interpreters: bare, importing the CLI, running a command.

    Each start is scaled to reference speed by kernel passes just before and after it.
    """
    gene = workdir / "cold.fa"
    gene.write_text(">g\natgaaatag\n", encoding="utf-8")
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r})"
    programs = {
        "bare": prelude,
        "import": prelude + "; import observement.cli",
        "command": prelude + "; sys.argv = ['observe', 'translate', sys.argv[1]]"
                             "; from observement.cli import main; main()",
    }
    times: dict = {kind: [] for kind in kinds}
    for _ in range(COLD_REPEATS):
        for kind in kinds:
            code = programs[kind]
            before = reference_pass()
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", code, str(gene)], cwd=workdir,
                                  capture_output=True, text=True, timeout=60)
            elapsed = time.perf_counter() - start
            times[kind].append(elapsed * 2 * REFERENCE_S / (before + reference_pass()))
            if done.returncode != 0 or (kind == "command" and done.stdout != "MK\n"):
                raise RuntimeError(f"cold start '{kind}' failed: {done.stderr.strip()}")
    return {kind: statistics.median(values) for kind, values in times.items()}


def percentile_ms(records: list, q: float, whole_run_s: float) -> float:
    """Nearest-rank percentile; a failed job ranks slower than every completed one
    and, if the percentile lands on it, reads as the whole run's job time."""
    walls = sorted(math.inf if r.status == "failed" else r.norm for r in records)
    value = walls[max(0, math.ceil(q * len(walls)) - 1)]
    return 1000.0 * (whole_run_s if math.isinf(value) else value)


def end_to_end(records: list, cold: dict) -> dict:
    total = sum(r.norm for r in records)
    failed = sum(r.status == "failed" for r in records)
    wrong = sum(r.status == "wrong" for r in records)
    return {
        "setup_s": cold["command"],
        "job_p50_ms": percentile_ms(records, 0.50, total),
        "job_p95_ms": percentile_ms(records, 0.95, total),
        "jobs_per_s": (len(records) - failed) / total,
        "completed_share": 1 - failed / len(records),
        "agreed_share": 1 - wrong / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain: list, traced: list, spans: list, rounds: int, cold: dict,
              probes: list) -> tuple:
    self_s: dict = {}
    calls: dict = {}
    counts: dict = {}
    shares = {"core": 0.0, "search": 0.0, "glue": 0.0}
    top = [0.0] * len(traced)
    scale = [r.norm / r.wall for r in traced]
    for job, name, parent, duration, own, extra in spans:
        duration, own = duration * scale[job], own * scale[job]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in extra.items():
            counts[(name, key)] = counts.get((name, key), 0) + value
        if parent is None:
            top[job] += duration
        kind = tracing.category(name, parent)
        if name.startswith("core."):
            shares["core"] += own
        if kind == "search":
            shares["search"] += own
        if kind in ("parse", "build", "format"):
            shares["glue"] += own
    for name, members in SPAN_GROUPS.items():
        self_s[name] = sum(self_s.get(m, 0.0) for m in members)
    traced_wall = sum(r.norm for r in traced)
    plain_wall = sum(r.norm for r in plain)
    cli_self = sum(r.norm - t for r, t in zip(traced, top))
    shares["glue"] += cli_self

    def ratio(a, b):
        return a / b if b else 0.0

    out = {"cli.self_s": cli_self / rounds,
           "cli.import_s": cold["import"] - cold["bare"], "cli.bare_start_s": cold["bare"]}
    for sub in SUBCOMMANDS:
        mine = [r for r in plain if r.sub == sub]
        out[f"cli.{sub}.p50_ms"] = percentile_ms(mine, 0.5, plain_wall) if mine else 0.0
    everything = plain + traced + probes
    out["cli.crashes"] = sum(r.status == "failed" and not r.detail.startswith("exit")
                             for r in everything)
    out["cli.probe_failures"] = sum(r.status == "failed" for r in probes)
    out["cli.domain_errors"] = sum(r.status == "refused" for r in traced) / rounds
    for metric in PER_LAYER:
        if metric in out or metric.startswith(("share.", "trace.")):
            continue
        base, _, leaf = metric.rpartition(".")
        if leaf == "self_s":
            out[metric] = self_s.get(base, 0.0) / rounds
        elif leaf == "calls":
            out[metric] = calls.get(base, 0) / rounds
        elif leaf == "found_share":
            out[metric] = ratio(counts.get((base, "found"), 0), calls.get(base, 0))
    out["core.translations_found_share"] = ratio(
        counts.get(("core.find_translation", "found"), 0), calls.get("core.find_translation", 0))
    per_round = {
        "core.translation_space": ("core.find_translation", "translation_space"),
        "core.tuples": ("core.verify_representation", "tuples"),
        "motifs.subsets": ("motifs.count_network_motifs", "subsets"),
        "motifs.rewire_attempts": ("motifs.motif_significance", "rewire_attempts"),
        "complexity.permutations": ("complexity.canonical_string", "permutations"),
        "strings.symbols": ("strings.membership", "symbols"),
        "strings.generated": ("strings.generate", "generated"),
        "genetics.codons": ("genetics.translate_gene", "codons"),
    }
    for metric, key in per_round.items():
        out[metric] = counts.get(key, 0) / rounds
    out["core.tuples_per_s"] = ratio(counts.get(per_round["core.tuples"], 0),
                                     self_s.get("core.verify_representation", 0.0))
    out["motifs.subsets_per_s"] = ratio(counts.get(per_round["motifs.subsets"], 0),
                                        self_s.get("motifs.count_network_motifs", 0.0))
    for key, value in shares.items():
        out[f"share.{key}"] = ratio(value, traced_wall)
    out["trace.overhead_share"] = ratio(traced_wall - plain_wall, plain_wall)
    return out, self_s, calls


def metadata(seed: int, load_start) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"python": sys.version.split()[0], "commit": commit, "nproc": os.cpu_count(),
            "loadavg_start": load_start, "loadavg_end": list(os.getloadavg()), "seed": seed}


def summarize_failures(records: list, label: str) -> list:
    tally: dict = {}
    for r in records:
        if r.status in ("failed", "wrong"):
            key = (r.status, r.sub, r.detail)
            tally[key] = tally.get(key, 0) + 1
    return [f"{label} {status}: {sub}: {detail} (x{count})"
            for (status, sub, detail), count in sorted(tally.items())]


def run_probes(client: Client, seed: int) -> list:
    records: list = []
    client.run_round(0, workloads.probe_round(seed), records)
    return records


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def run_workload(args, cli, workdir: Path) -> int:
    load_start = list(os.getloadavg())
    client = Client(cli, workdir)
    warm: list = []
    client.run_round(0, workloads.make_round(args.workload, args.seed, 0, quick=True), warm)
    cold = cold_start(workdir, ("bare", "import", "command") if args.trace else ("command",))
    probes = run_probes(client, args.seed) if args.workload == "short-jobs" else []
    planned = planned_rounds(args.workload, args.seconds / 2 if args.trace else args.seconds)
    if args.trace:
        plain = run_rounds(client, args.workload, args.seed, planned)
        rounds = plain[-1].round + 1
        tracer = tracing.Tracer()
        tracer.install()
        client.tracer = tracer
        try:
            traced = run_rounds(client, args.workload, args.seed, rounds)
        finally:
            tracer.uninstall()
            client.tracer = None
        records = plain + traced
        metrics, self_s, calls = per_layer(plain, traced, tracer.spans, rounds, cold, probes)
        units = PER_LAYER
    else:
        records = run_rounds(client, args.workload, args.seed, planned)
        metrics, units = end_to_end(records, cold), END_TO_END
    rounds = records[-1].round + 1
    meta = metadata(args.seed, load_start)
    meta.update(workload=args.workload, trace=args.trace, rounds=rounds, jobs=len(records),
                cut_short=rounds < planned)
    print("meta " + json.dumps(meta))
    for line in summarize_failures(warm, "warm-up") + summarize_failures(records, "timed") \
            + summarize_failures(probes, "probe"):
        print(line)
    if args.trace:
        print("spans (self s/round, calls/round):")
        for name in sorted(self_s, key=self_s.get, reverse=True):
            if name in calls:
                print(f"  {name:45s} {self_s[name] / rounds:10.6f} {calls[name] / rounds:10.1f}")
    kernel = statistics.median(seconds for _, seconds in client.samples)
    raw = sorted(r.wall for r in records)
    print(f"reference kernel median {1000 * kernel:.4f} ms (nominal {1000 * REFERENCE_S:g} ms); "
          f"measured job p50 {1000 * raw[len(raw) // 2]:.4f} ms")
    for name, unit in units.items():
        print(f"{name:45s} {metrics[name]:14.6f} {unit}")
    failed = sum(r.status == "failed" for r in records)
    wrong = sum(r.status == "wrong" for r in records + warm)
    emit(wrong == 0, len(records), failed, metrics, units)
    return 0


def run_quick(cli, workdir: Path) -> int:
    """One small round per workload plus the probes; every oracle still checked."""
    client = Client(cli, workdir)
    records: list = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names_ok = ([m["name"] for m in declared["end_to_end"]] == list(END_TO_END)
                and [m["name"] for m in declared["per_layer"]] == list(PER_LAYER))
    for workload in workloads.WORKLOADS:
        mine: list = []
        client.run_round(0, workloads.make_round(workload, 7, 0, quick=True), mine)
        records += mine
        print(f"{workload:14s} jobs={len(mine):3d} job_s={sum(r.wall for r in mine):.3f}")
    probes = run_probes(client, 7)
    for line in summarize_failures(records, "quick") + summarize_failures(probes, "probe"):
        print(line)
    print("BENCHMARK.json metric names match run.py" if names_ok
          else "BENCHMARK.json metric names differ from run.py")
    wrong = sum(r.status == "wrong" for r in records)
    failed = sum(r.status == "failed" for r in records)
    print(json.dumps({"correct": wrong == 0 and names_ok, "attempted": len(records),
                      "failed": failed, "metrics": {}}))
    return 0 if wrong == 0 and failed == 0 and names_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one small round of every workload; checks all oracles")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    cli = load_program()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        return run_quick(cli, workdir) if args.quick else run_workload(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
