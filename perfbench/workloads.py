"""Workloads, set-up, end-to-end timing and output checks.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one returned, and operations keep starting until the
measuring time is used up (at least one always runs).  The program receives
only ``synth_generate(default_spec(seed))`` data and
``AdvConfig(mode=..., seed=...)`` defaults, and is driven only through its
public functions.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from warpada import cli
from warpada.adversarial import AdvConfig
from warpada.data import default_spec, load_manifest, save_dataset, synth_generate
from warpada.model import save_checkpoint
from warpada.training import evaluate, run

from hostclock import HostClock

# Set-up is repeated and its median reported, because a single set-up is
# short enough for machine noise to dominate it.
SETUP_REPEATS = 3
# Evaluations of the trained model per run on the training workloads, so
# eval_s and eval_cmd_s are medians there too.
EVAL_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str      # AdvConfig mode of the model the workload trains
    trains: bool   # False: train once in set-up, then repeat only the evaluation


# tada_train: the paper's path; adversarial generation is ~60% of run().
# erm_train: SGD only, warp and ascent code never run, so a warp change must
#   leave it unchanged while a batched-SGD change shows here.
# eval_io: tapeless inference plus manifest/CSV/checkpoint I/O of `eval`.
WORKLOADS = {w.name: w for w in (
    Workload("tada_train", "tada", True),
    Workload("erm_train", "erm", True),
    Workload("eval_io", "erm", False),
)}


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Result:
    """Counts, raw samples and the reported metrics of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    intervals: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    wall: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    ungated: dict[str, tuple[float, str]] = field(default_factory=dict)
    absent: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def time(self, name: str, start: float, end: float) -> None:
        """Record a timed interval; ``resolve`` turns it into seconds."""
        self.intervals.setdefault(name, []).append((start, end))

    def resolve(self, clock) -> None:
        for name, spans in self.intervals.items():
            self.samples[name] = [clock.seconds(s, e) for s, e in spans]
            self.wall[name] = [e - s for s, e in spans]

    def attempt(self, what: str, fn, *args):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"FAILED {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def report_median(self, name: str, unit: str, into=None) -> None:
        if self.samples.get(name):
            target = self.metrics if into is None else into
            target[name] = (statistics.median(self.samples[name]), unit)

    def print_table(self) -> None:
        rows = [(name, "") for name in self.metrics]
        rows += [(name, "  [printed only, not in the result]") for name in self.ungated]
        for name, note in sorted(rows):
            value, unit = self.metrics.get(name) or self.ungated[name]
            values = self.samples.get(name, [])
            spread = (f"  (median of {len(values)}, min {min(values):.6g}, "
                      f"max {max(values):.6g})" if len(values) > 1 else "")
            if name in self.wall:
                spread += f"  [wall median {statistics.median(self.wall[name]):.6g} s]"
            print(f"metric {name} = {value:.6g} {unit}{spread}{note}")
        for name, reason in sorted(self.absent.items()):
            print(f"metric {name} absent: {reason}")
        frac = self.failed / self.attempted if self.attempted else 1.0
        print(f"metric failed_frac = {frac:.6g} frac  "
              f"({self.failed} of {self.attempted} operations)")

    def summary(self) -> dict:
        return {
            "correct": self.attempted > 0 and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


@dataclass
class Context:
    """Inputs made at set-up and shared by every operation of a run."""

    workload: Workload
    seed: int
    workdir: str
    source: object
    targets: list
    manifests: list[str]
    loaded_targets: list
    import_interval: tuple[float, float]
    generate: list[tuple[float, float]]  # perf_counter intervals, one per set-up
    save: list[tuple[float, float]]
    bytes_written: int

    def setup_seconds(self, clock) -> float:
        """Import time plus the median set-up."""
        return clock.seconds(*self.import_interval) + statistics.median(
            clock.seconds(g[0], s[1]) for g, s in zip(self.generate, self.save))

    @property
    def config(self) -> AdvConfig:
        return AdvConfig(mode=self.workload.mode, seed=self.seed)

    @property
    def tags(self) -> list[str]:
        return [d.samples[0].domain_tag for d in self.targets]

    @property
    def checkpoint(self) -> str:
        return os.path.join(self.workdir, "checkpoint.bin")


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def set_up(workload: Workload, seed: int, workdir: str,
           import_interval: tuple[float, float], tracer) -> Context:
    """Generate the data and write the three targets, SETUP_REPEATS times.
    The first repeat's data and files are the ones the run uses."""
    generate, save = [], []
    for rep in range(SETUP_REPEATS):
        data_dir = os.path.join(workdir, f"data{rep}")
        spec = default_spec(seed)
        with tracer.span("setup"):
            t0 = time.perf_counter()
            with tracer.span("data.synth_generate"):
                source, targets = synth_generate(spec)
            t1 = time.perf_counter()
            with tracer.span("data.save_dataset"):
                manifests = [save_dataset(domain, data_dir, shift.tag)
                             for shift, domain in zip(spec.targets, targets)]
            t2 = time.perf_counter()
        generate.append((t0, t1))
        save.append((t1, t2))
        if rep == 0:
            kept = (source, targets, manifests, _dir_bytes(data_dir))
    for rep in range(1, SETUP_REPEATS):
        shutil.rmtree(os.path.join(workdir, f"data{rep}"))
    source, targets, manifests, written = kept
    return Context(workload=workload, seed=seed, workdir=workdir, source=source,
                   targets=targets, manifests=manifests,
                   loaded_targets=[load_manifest(m) for m in manifests],
                   import_interval=import_interval, generate=generate, save=save,
                   bytes_written=written)


def check_report(report, cfg: AdvConfig, n_source: int) -> None:
    """Losses are finite and the dataset sizes follow the bookkeeping: each
    round appends one sample per original (erm runs no rounds)."""
    rounds = 0 if cfg.mode == "erm" else cfg.k_rounds
    expected = [n_source * (k + 1) for k in range(rounds + 1)]
    if list(report.dataset_sizes) != expected:
        raise CheckFailed(f"dataset_sizes {report.dataset_sizes}, expected {expected}")
    if len(report.round_losses) != rounds or any(len(r) != cfg.t_min
                                                 for r in report.round_losses):
        raise CheckFailed(f"round losses have the wrong shape: "
                          f"{[len(r) for r in report.round_losses]}")
    if len(report.final_losses) != cfg.t_final:
        raise CheckFailed(f"{len(report.final_losses)} final losses, "
                          f"expected {cfg.t_final}")
    losses = [v for r in report.round_losses for v in r] + list(report.final_losses)
    if not all(math.isfinite(v) for v in losses):
        raise CheckFailed("a training loss is not finite")


def check_f1(per_domain: dict, average: float, tags) -> None:
    if set(per_domain) != set(tags):
        raise CheckFailed(f"evaluated domains {sorted(per_domain)}, expected {sorted(tags)}")
    for tag, f1 in list(per_domain.items()) + [("average", average)]:
        if not 0.0 <= f1 <= 1.0:
            raise CheckFailed(f"macro-F1 of {tag} is {f1}, outside [0, 1]")


def _check_f1_file(path: str, per_domain: dict, average: float) -> None:
    """f1.txt holds one 'tag value' line per domain plus 'average', each
    value rounded to 4 decimals."""
    expected = dict(per_domain, average=average)
    found = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                tag, value = line.split()
                found[tag] = float(value)
    if set(found) != set(expected):
        raise CheckFailed(f"{path} lists {sorted(found)}, expected {sorted(expected)}")
    for tag, value in expected.items():
        if abs(found[tag] - value) > 0.5e-4 + 1e-12:
            raise CheckFailed(f"{path}: {tag} reads {found[tag]}, evaluate() gives {value}")


def _check_embeddings(path: str, n_series: int) -> None:
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if line.strip() and line.split(",")[0].isdigit()]
    if len(rows) != n_series:
        raise CheckFailed(f"{path} has {len(rows)} rows, expected one per series "
                          f"({n_series})")


def eval_command(ctx: Context, reference, result: Result, tracer) -> None:
    """`warpada eval` in-process on the written targets and checkpoint; its
    outputs must match ``reference``, evaluate() of the checkpointed model
    on the same loaded manifests."""
    out_dir = os.path.join(ctx.workdir, "eval")
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["eval", *ctx.manifests, "--checkpoint", ctx.checkpoint, "--out", out_dir]
    with tracer.wrapping(cli), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        with tracer.span("cli.main"):
            code = cli.main(argv)
        result.time("eval_cmd_s", t0, time.perf_counter())
    if code != 0:
        raise CheckFailed(f"warpada eval exited {code}")
    _check_f1_file(os.path.join(out_dir, "f1.txt"), *reference)
    _check_embeddings(os.path.join(out_dir, "embeddings.csv"),
                      sum(len(d) for d in ctx.loaded_targets))


def reference_scores(ctx: Context, model) -> tuple[dict, float]:
    """What the eval command must report: evaluate() on the loaded targets."""
    per_domain, average = evaluate(model, ctx.loaded_targets)
    check_f1(per_domain, average, ctx.tags)
    return per_domain, average


def train(ctx: Context, result: Result):
    """One run(), timed, with its report checked."""
    cfg = ctx.config
    t0 = time.perf_counter()
    model, report = run(ctx.source, cfg)
    result.time("train_s", t0, time.perf_counter())
    check_report(report, cfg, len(ctx.source))
    return model


def evaluation(ctx: Context, model, reference, result: Result, tracer) -> None:
    """evaluate() on the in-memory targets, then the eval command."""
    t0 = time.perf_counter()
    per_domain, average = evaluate(model, ctx.targets)
    result.time("eval_s", t0, time.perf_counter())
    check_f1(per_domain, average, ctx.tags)
    result.add("f1_avg", average)
    result.add("f1_warp", per_domain["warp"])
    eval_command(ctx, reference, result, tracer)


class NoTracer:
    """Tracing off: spans and wrappers cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def wrapping(self, module):
        return contextlib.nullcontext()


def measured_run(workload: Workload, seed: int, seconds: float, workdir: str,
                 import_interval: tuple[float, float]) -> Result:
    """Training workloads repeat run() until ``seconds`` are used, then
    evaluate the last model EVAL_REPEATS times; eval_io trains once and
    repeats the evaluation until ``seconds`` are used.  Times are in
    reference-speed seconds (hostclock)."""
    tracer = NoTracer()
    result = Result()
    with HostClock() as clock:
        ctx = set_up(workload, seed, workdir, import_interval, tracer)
        model, start = None, time.perf_counter()
        while model is None or (workload.trains and time.perf_counter() - start < seconds):
            trained = result.attempt("run()", train, ctx, result)
            if trained is None:
                break
            model = trained
        reference = None
        if model is not None:
            save_checkpoint(model, ctx.checkpoint)
            reference = result.attempt("reference evaluate()", reference_scores, ctx, model)
        if reference is not None:
            start, done = time.perf_counter(), 0
            while done < EVAL_REPEATS or (not workload.trains
                                          and time.perf_counter() - start < seconds):
                result.attempt("evaluation", evaluation, ctx, model, reference, result,
                               tracer)
                done += 1
    result.resolve(clock)
    result.metrics["setup_s"] = (ctx.setup_seconds(clock), "s")
    result.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")  # KiB on Linux
    for name, unit in (("train_s", "s"), ("eval_s", "s"), ("eval_cmd_s", "s"),
                       ("f1_warp", "F1")):
        result.report_median(name, unit)
    # Across seeds the mean F1 spreads wider than any allowed bound
    # (NOTES.md), so it is printed but not part of the result.
    result.report_median("f1_avg", "F1", into=result.ungated)
    return result
