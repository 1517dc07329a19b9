"""Alternating minimize/maximize training and held-out evaluation.

Each round fits the model on the current dataset, then generates one batch
of adversarial samples per ORIGINAL sample and appends them; the original
samples are never re-perturbed and never mutated.  After the last round
the model trains for a final stretch of epochs on the fully expanded
dataset.  Evaluation reports macro-F1 per held-out domain.
"""

from __future__ import annotations

import ctypes
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .adversarial import AdvConfig, AdvSample, maximize_many
from .model import FEATURE_DIM, Classifier, forward, loss_ce
from .signal import TimeSeries
from .tensor import Tape, Tensor, op_sum

__all__ = ["Dataset", "TrainReport", "minimize_phase", "maximize_phase", "run",
           "predict", "macro_f1", "evaluate", "export_features"]


@dataclass
class Dataset:
    """A list of equally shaped labeled series."""

    samples: list[TimeSeries]
    n_classes: int

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError(f"dataset needs two or more classes, got n_classes={self.n_classes}")
        if not self.samples:
            raise ValueError("dataset has no samples")
        c, n = self.samples[0].channels, self.samples[0].length
        for i, s in enumerate(self.samples):
            if (s.channels, s.length) != (c, n):
                raise ValueError(f"sample {i} has shape ({s.channels},{s.length}), "
                                 f"expected ({c},{n})")
            if not 0 <= s.label < self.n_classes:
                raise ValueError(f"sample {i} label {s.label} out of range "
                                 f"[0,{self.n_classes})")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def channels(self) -> int:
        return self.samples[0].channels

    @property
    def length(self) -> int:
        return self.samples[0].length

    def extended(self, extra: list[TimeSeries]) -> "Dataset":
        return Dataset(self.samples + list(extra), self.n_classes)


@dataclass
class TrainReport:
    """Everything needed to reproduce and compare a training run.

    ``wall_clock`` is the only field expected to differ between identical
    runs; ``identity()`` drops it for equality checks.
    """

    seed: int
    config: dict
    dataset_sizes: list[int] = field(default_factory=list)
    round_losses: list[list[float]] = field(default_factory=list)
    final_losses: list[float] = field(default_factory=list)
    f1_by_domain: dict[str, float] = field(default_factory=dict)
    wall_clock: float = 0.0

    def identity(self) -> dict:
        return {
            "seed": self.seed,
            "config": self.config,
            "dataset_sizes": list(self.dataset_sizes),
            "round_losses": [list(r) for r in self.round_losses],
            "final_losses": list(self.final_losses),
            "f1_by_domain": dict(self.f1_by_domain),
        }

    def to_text(self) -> str:
        lines = ["WARPADA-REPORT v1", f"seed: {self.seed}"]
        for key in sorted(self.config):
            lines.append(f"config.{key}: {self.config[key]}")
        lines.append("dataset_sizes: " + " ".join(str(s) for s in self.dataset_sizes))
        for k, losses in enumerate(self.round_losses, start=1):
            lines.append(f"round{k}_mean_loss: "
                         + " ".join(f"{v:.12g}" for v in losses))
        lines.append("final_mean_loss: " + " ".join(f"{v:.12g}" for v in self.final_losses))
        if self.f1_by_domain:
            lines.append("domain\tmacro_f1")
            for tag in sorted(self.f1_by_domain):
                lines.append(f"{tag}\t{self.f1_by_domain[tag]:.6f}")
        lines.append(f"wall_clock_s: {self.wall_clock:.3f}")
        return "\n".join(lines) + "\n"


# Series per batched forward in inference, so memory stays flat in the
# dataset size.  On the default benchmark chunks of 8 evaluated 1,800 series
# no slower than chunks of 64 and raised peak memory by 1.5 MB, not 4 MB.
EVAL_CHUNK = 8


# glibc's malloc policy for the process (mallopt parameters from malloc.h).
# By default free() hands a batch-32 SGD step's buffers back to the OS and
# the next step faults them in again: ~940 minor faults per step (see run()
# for whole runs).  A step peaks at 4.4 MiB above its start (tracemalloc)
# and its largest array is 0.5-1 MiB (a fixed mmap threshold of 512 KiB
# still faults, 1 MiB does not).  8/1, 16/2 and 64/32 MiB (trim/mmap) each
# cut a tada run() to ~7.8k faults; 64/32 leaves a margin of ~15x over the
# step's peak, and 32 MiB is the largest mmap threshold glibc accepts on
# 64-bit.  Both are set: a trim threshold alone freezes glibc's dynamic
# mmap threshold at 128 KiB, so every larger array is mmapped afresh.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_TRIM_BYTES, _HEAP_MMAP_BYTES = 64 << 20, 32 << 20
_heap_policy_set = False


def _libc():
    return ctypes.CDLL(None)


def _keep_freed_memory() -> None:
    """Set the malloc policy above, once per process; forked children
    inherit it.  A silent no-op where libc has no ``mallopt`` or refuses
    the value (anything but glibc)."""
    global _heap_policy_set
    if _heap_policy_set:
        return
    _heap_policy_set = True
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # the trim threshold only once the mmap one holds: alone it is worse
    if mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_BYTES)


def _stack(samples: list[TimeSeries]) -> Tensor:
    return Tensor(np.stack([s.values.data for s in samples]))


def _sgd_step(model: Classifier, batch: list[TimeSeries], lr: float) -> float:
    """One forward and one backward over the stacked minibatch, then the
    update; returns the mean loss.  A non-finite loss skips the update, so
    the model keeps its last finite weights.  numpy's overflow warnings on
    the way to such a loss are silenced: the caller reports the loss."""
    params = model.tensors(requires_grad=True)
    labels = np.array([s.label for s in batch])
    with np.errstate(over="ignore", invalid="ignore"), Tape() as tape:
        _, logits = forward(model, _stack(batch), params)
        mean = op_sum(loss_ce(logits, labels)) * (1.0 / len(batch))
        tape.backward(mean)
    loss = float(mean.data)
    if np.isfinite(loss):
        model.apply_gradients(params, lr)
    return loss


def minimize_phase(model: Classifier, dataset: Dataset, t_min: int, lr: float,
                   batch: int, rng: np.random.Generator) -> tuple[Classifier, list[float]]:
    """t_min SGD steps on uniformly drawn minibatches; mutates the model
    in place and returns it with the per-step mean losses.  A non-finite
    minibatch loss raises ValueError naming its step, and its update is
    not applied."""
    if len(dataset) == 0:
        raise ValueError("cannot minimize on an empty dataset")
    losses = []
    for step in range(t_min):
        idx = rng.integers(0, len(dataset), size=min(batch, len(dataset)))
        losses.append(_sgd_step(model, [dataset.samples[i] for i in idx], lr))
        if not np.isfinite(losses[-1]):
            raise ValueError(f"minibatch loss became non-finite at SGD step {step}")
    return model, losses


def maximize_phase(model: Classifier, d0: Dataset, cfg: AdvConfig) -> list[AdvSample]:
    """One batch of adversarial samples per element of the ORIGINAL dataset,
    against a frozen weight snapshot, in origin order.  Sets the malloc
    policy, as run() does, for callers that ascend without run()."""
    _keep_freed_memory()
    return maximize_many(model.frozen_copy(), d0.samples, cfg)


def run(d0: Dataset, cfg: AdvConfig,
        model_init: Classifier | None = None) -> tuple[Classifier, TrainReport]:
    """The full alternating procedure.

    K rounds of (fit on current data, expand with adversarial samples),
    then t_final epochs on the expanded dataset.  mode="erm" skips the
    rounds entirely.  Identical (data, cfg) reproduce the report exactly,
    wall clock aside.  A non-finite minibatch loss raises ValueError naming
    the round or final epoch (both counted from 1) and the step.

    The first call in a process sets glibc's malloc policy for the whole
    process, so each SGD step reuses the heap its predecessor freed instead
    of faulting fresh pages in; forked ascent children inherit it.  On the
    default benchmark (2-core x86 sandbox, seed 0) a tada run() fell from
    462k minor faults and 0.6-0.9 s of system time to 7.3k and
    0.01-0.04 s, an erm run() from 144k and 0.17-0.29 s to 1.3k and under
    0.01 s.  Elsewhere than glibc nothing is set.  Outputs are unchanged.
    """
    _keep_freed_memory()
    start = time.perf_counter()
    model = model_init if model_init is not None else Classifier(
        d0.channels, d0.n_classes, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0x5D]))
    report = TrainReport(seed=cfg.seed, config=asdict(cfg), dataset_sizes=[len(d0)])

    def fit(stage: str, dataset: Dataset, steps: int) -> list[float]:
        try:
            return minimize_phase(model, dataset, steps, cfg.lr, cfg.batch, rng)[1]
        except ValueError as exc:
            raise ValueError(f"{stage}: {exc}") from exc

    current = d0
    rounds = 0 if cfg.mode == "erm" else cfg.k_rounds
    for k in range(1, rounds + 1):
        report.round_losses.append(fit(f"round {k}", current, cfg.t_min))
        adv = maximize_phase(model, d0, cfg)
        current = current.extended([a.series for a in adv])
        report.dataset_sizes.append(len(current))

    steps_per_epoch = max(1, (len(current) + cfg.batch - 1) // cfg.batch)
    for e in range(1, cfg.t_final + 1):
        report.final_losses.append(float(np.mean(fit(f"final epoch {e}", current,
                                                     steps_per_epoch))))

    report.wall_clock = time.perf_counter() - start
    return model, report


def predict(model: Classifier, x: TimeSeries) -> int:
    _, logits = forward(model, x)
    return int(np.argmax(logits.data))


def _inference(model: Classifier, samples: list[TimeSeries]) -> tuple[np.ndarray, np.ndarray]:
    """Features (S, 64) and logits (S, n_classes) of every sample, from
    batched forwards of at most EVAL_CHUNK series."""
    z = np.empty((len(samples), FEATURE_DIM))
    logits = np.empty((len(samples), model.n_classes))
    for lo in range(0, len(samples), EVAL_CHUNK):
        z_t, logits_t = forward(model, _stack(samples[lo:lo + EVAL_CHUNK]))
        z[lo:lo + EVAL_CHUNK] = z_t.data
        logits[lo:lo + EVAL_CHUNK] = logits_t.data
    return z, logits


def macro_f1(preds, truth, n_classes: int) -> float:
    """Unweighted mean of per-class F1.

    A class absent from both vectors is skipped; a class present in exactly
    one scores 0.  Perfect agreement gives 1.0.
    """
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.shape != truth.shape or preds.ndim != 1:
        raise ValueError(f"shape mismatch: preds {preds.shape} vs truth {truth.shape}")
    if preds.size and not (0 <= preds.min() and preds.max() < n_classes
                           and 0 <= truth.min() and truth.max() < n_classes):
        raise ValueError(f"labels out of range [0,{n_classes})")
    scores = []
    for c in range(n_classes):
        tp = int(np.sum((preds == c) & (truth == c)))
        fp = int(np.sum((preds == c) & (truth != c)))
        fn = int(np.sum((preds != c) & (truth == c)))
        if tp + fp + fn == 0:
            continue
        scores.append(2.0 * tp / (2.0 * tp + fp + fn))
    return float(np.mean(scores)) if scores else 0.0


def evaluate(model: Classifier, domains: list[Dataset],
             logits: list[np.ndarray] | None = None) -> tuple[dict[str, float], float]:
    """Macro-F1 per domain (keyed by the domain's tag) and their mean.

    ``logits`` holds each domain's logits (``_inference``'s second output)
    when the caller has already run the forward; the model is then not run.
    """
    if not domains:
        raise ValueError("no domains to evaluate")
    if logits is None:
        logits = [_inference(model, domain.samples)[1] for domain in domains]
    per_domain: dict[str, float] = {}
    for i, (domain, domain_logits) in enumerate(zip(domains, logits)):
        preds = np.argmax(domain_logits, axis=1)
        truth = [x.label for x in domain.samples]
        tag = domain.samples[0].domain_tag or f"domain{i}"
        key = tag if tag not in per_domain else f"{tag}#{i}"
        per_domain[key] = macro_f1(preds, truth, domain.n_classes)
    return per_domain, float(np.mean(list(per_domain.values())))


_FEATURE_ROW = "%d,%s,%d," + ",".join(["%.12g"] * FEATURE_DIM) + "\n"


def export_features(model: Classifier, dataset: Dataset, out, header: bool = True,
                    features: np.ndarray | None = None) -> None:
    """CSV of pooled features: origin_id, domain_tag, label, then 64 values.

    ``out`` is a path to write, or an open text file to append the rows to
    (with ``header`` False, after the first dataset of several).
    ``features`` holds the dataset's features (``_inference``'s first
    output) when the caller has already run the forward.
    """
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", encoding="utf-8") as fh:
            export_features(model, dataset, fh, header, features)
        return
    if header:
        out.write("origin_id,domain_tag,label,"
                  + ",".join(f"f{i}" for i in range(FEATURE_DIM)) + "\n")
    if features is None:
        features, _ = _inference(model, dataset.samples)
    for i, (sample, z) in enumerate(zip(dataset.samples, features)):
        out.write(_FEATURE_ROW % (i, sample.domain_tag, sample.label, *z.tolist()))
