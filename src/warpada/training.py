"""Alternating minimize/maximize training and held-out evaluation.

Each round fits the model on the current dataset, then generates one batch
of adversarial samples per ORIGINAL sample and appends them; the original
samples are never re-perturbed and never mutated.  After the last round
the model trains for a final stretch of epochs on the fully expanded
dataset.  Evaluation reports macro-F1 per held-out domain.

Each SGD step is the sum of two half-batch gradients (_sgd_step).  A
minimize_phase call of PARTNER_MIN_STEPS steps or more may fork one partner
process that computes each step's second half while this process computes
the first (_Partner): one partner per round's fit, one for the whole final
stretch.  Inference over held-out domains (evaluate and the eval command,
through _share_domains) may fork one worker that runs every second
half-domain, for INFERENCE_MIN_CHUNKS forwards or more; export_features
only formats the features it is given.  Inference (evaluate, the eval
command and predict, all through _inference) forwards in float32
(INFERENCE_DTYPE); training and the ascent compute in float64.
Whether they do is procs.workers' decision.  Either way the weights,
losses and outputs are bitwise those of one process, as the ascent's
forked shares give bitwise the serial samples.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import procs
from .adversarial import AdvConfig, AdvSample, _check_window, maximize_many
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

    ``wall_clock`` and ``phase_wall`` (seconds per phase, in run order:
    each round's fit and generation, then the final stretch) are the only
    fields expected to differ between identical runs; ``identity()`` drops
    them for equality checks.
    """

    seed: int
    config: dict
    dataset_sizes: list[int] = field(default_factory=list)
    round_losses: list[list[float]] = field(default_factory=list)
    final_losses: list[float] = field(default_factory=list)
    wall_clock: float = 0.0
    phase_wall: dict[str, float] = field(default_factory=dict)

    def identity(self) -> dict:
        return {
            "seed": self.seed,
            "config": self.config,
            "dataset_sizes": list(self.dataset_sizes),
            "round_losses": [list(r) for r in self.round_losses],
            "final_losses": list(self.final_losses),
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
        lines.append(f"wall_clock_s: {self.wall_clock:.3f}")
        lines.append("phase_wall_s: " + " ".join(f"{name}={s:.3f}"
                                                 for name, s in self.phase_wall.items()))
        return "\n".join(lines) + "\n"


# Series per batched forward in inference, so memory stays flat in the
# dataset size.  One process forwarded the three default targets (1,800
# series; 2-core x86 KVM host, one pinned CPU, one BLAS thread) in float32 in
# 36 ms in chunks of 8, 28 in 16, 24 in 32, 24 in 64 and 26 in 128 (medians
# of 15; 45, 38, 36, 39 and 76 ms in float64).  The features were bitwise
# equal at every size and the logits from 16 up; in chunks of 8 OpenBLAS's
# float32 head product rounded 1,781 of the 1,800 logit rows differently in
# the last bit, changing no prediction.
EVAL_CHUNK = 32
# Inference of fewer forwards over all of a call's domains stays in one
# process (_share_domains).  On the same host, evaluate() of one domain with
# the worker taking its second half against serial, over 21 alternating
# calls per count in five rounds, the worker was faster in 0-7 calls at 12
# forwards, 0-16 at 16, 3-20 at 20 and 3-21 at 24.  In the three rounds
# where it was faster in 20 or more at 24, it was faster in 3, 18 and 20 at
# 20.  So 20 stays.
INFERENCE_MIN_CHUNKS = 20
# The precision of inference's forwards (_inference); training, the ascent
# and the gradient audit compute in float64.  On the same host the three
# default targets took 24 ms against 36 in float64 (one pinned CPU, chunks
# of 32, medians of 15).  Against float64, on erm and tada models at seeds
# 0-4, no prediction changed and no feature moved by more than 2.0e-7 of
# its file's largest feature value.
INFERENCE_DTYPE = np.float32


def _stack(samples: list[TimeSeries]) -> Tensor:
    return Tensor(np.stack([s.values.data for s in samples]))


def _half_gradient(model: Classifier, samples: list[TimeSeries],
                   scale: float) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Weight gradients of op_sum(per-row losses) * scale over one stacked
    half-batch, from one forward and one backward, and the (h, 1) per-row
    losses.  numpy's overflow warnings on the way to a non-finite loss are
    silenced: the caller reports the loss."""
    params = model.tensors(requires_grad=True)
    labels = np.array([s.label for s in samples])
    with np.errstate(over="ignore", invalid="ignore"), Tape() as tape:
        _, logits = forward(model, _stack(samples), params)
        rows = loss_ce(logits, labels)
        tape.backward(op_sum(rows) * scale)
    return {name: p.grad for name, p in params.items()}, rows.data


def _first_half(batch: int) -> int:
    """Series in the first half of a minibatch of ``batch``: ceil(batch / 2)."""
    return (batch + 1) // 2


def _sgd_step(model: Classifier, batch: list[TimeSeries], lr: float,
              second_half=None) -> float:
    """One SGD step on a minibatch of B series; returns its mean loss.

    The step is the sum of two half-batch gradients: the first ceil(B/2)
    series and the rest, each backpropagated from op_sum(its per-row
    losses) * (1/B), then w - lr * (g_first + g_second).  A batch of one is
    a single half.  The loss is op_sum over all B per-row losses, times
    1/B.  (A row's loss can depend on the rows it runs with in the last bit:
    OpenBLAS may round the head's (K, D) @ (D, B) product differently for
    different B.  A batch of 32 split into halves of 16 kept every row's
    loss bitwise on the default benchmark.)
    ``second_half``, when given, returns the second half's gradients and
    per-row losses computed elsewhere meanwhile (the SGD partner, see
    minimize_phase); otherwise this process computes them after the first.
    A non-finite loss skips the update, so the model keeps its last finite
    weights.
    """
    first, scale = _first_half(len(batch)), 1.0 / len(batch)
    halves = [_half_gradient(model, batch[:first], scale)]
    if len(batch) > first:
        halves.append(second_half() if second_half is not None
                      else _half_gradient(model, batch[first:], scale))
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(np.concatenate([rows for _, rows in halves]).sum() * scale)
    if np.isfinite(loss):
        grads = halves[0][0]
        if len(halves) == 2:
            grads = {name: g + halves[1][0][name] for name, g in grads.items()}
        model.apply_gradients(grads, lr)
    return loss


# minimize_phase calls of fewer SGD steps stay in one process.  On the
# default benchmark (2-core x86 sandbox, one BLAS thread) a partner that
# forks, reads EOF and is joined cost 6-9 ms, and the parent then faults
# ~1,350 copy-on-write pages; a batch-32 step gains 1.5-2.5 ms from it.
# Over 12 alternating pairs the partner was slower at 4 steps (+4.8 ms,
# faster in 1) and faster from 8 (-3.5 ms, faster in 9; -11.8 ms at 16).
PARTNER_MIN_STEPS = 8


class _Partner(procs.Child):
    """A forked process that computes the second half of every minibatch
    gradient of one minimize_phase call, from the dataset it inherited.

    Both processes map one anonymous shared mmap, holding one record: the
    weights and their gradients, each a sub-record of the model's named
    layers, then the second half's per-row losses and dataset indices.
    Before each step this process writes the weights and the indices into
    it and sends one byte down a pipe; the partner writes that half's weight
    gradients and per-row losses back and answers with one byte."""

    def __init__(self, model: Classifier, samples: list[TimeSeries], batch: int):
        super().__init__(self._serve, "SGD partner", "gradients")
        self._scale = 1.0 / batch
        self._first = _first_half(batch)
        n_second = batch - self._first
        layers = [(name, np.float64, w.shape) for name, w in model.weights.items()]
        record = np.dtype([("weights", layers), ("grads", layers),
                           ("rows", np.float64, (n_second, 1)), ("ids", np.int64, n_second)])
        self._shm = mmap.mmap(-1, record.itemsize)
        shared = np.ndarray((), record, self._shm)
        self._weights, self._grads = ({name: shared[part][name] for name in model.weights}
                                      for part in ("weights", "grads"))
        self._rows, self._ids = shared["rows"], shared["ids"]
        self._model, self._samples = model, samples

    def _serve(self, rx: int, tx: int) -> None:
        """The partner's loop: one second half per byte received."""
        self._model.weights = self._weights
        while os.read(rx, 1):
            grads, rows = _half_gradient(self._model, [self._samples[i] for i in self._ids],
                                         self._scale)
            for name, g in grads.items():
                self._grads[name][...] = g
            self._rows[...] = rows
            os.write(tx, b"\x01")

    def post(self, weights: dict[str, np.ndarray], ids: np.ndarray):
        """Hand the partner the second half of one step's minibatch, given
        by the dataset indices of the whole batch; returns the call that
        waits for that half's gradients and per-row losses."""
        for name, w in weights.items():
            self._weights[name][...] = w
        self._ids[...] = ids[self._first:]
        try:
            os.write(self.tx, b"\x01")
        except BrokenPipeError:
            self.fail()
        return self._receive

    def _receive(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        if not os.read(self.rx, 1):
            self.fail()
        return self._grads, self._rows


class _NonFiniteLoss(ValueError):
    """A minibatch loss that is not finite, at SGD step ``step`` of a call."""

    def __init__(self, step: int):
        super().__init__(f"minibatch loss became non-finite at SGD step {step}")
        self.step = step


def minimize_phase(model: Classifier, dataset: Dataset, t_min: int, lr: float,
                   batch: int, rng: np.random.Generator) -> tuple[Classifier, list[float]]:
    """t_min SGD steps on uniformly drawn minibatches; mutates the model
    in place and returns it with the per-step mean losses.  A non-finite
    minibatch loss raises ValueError naming its step, and its update is
    not applied.

    With minibatches of two series or more and two processes from
    procs.workers (PARTNER_MIN_STEPS steps or more), one forked partner
    process computes each step's second half while this process computes
    the first (_Partner); otherwise, or where the partner cannot be forked,
    this process computes both.  The two halves are the same computations
    either way, so weights and losses are bitwise those of the serial call.
    A partner that dies raises RuntimeError naming its pid and exit code.
    """
    if len(dataset) == 0:
        raise ValueError("cannot minimize on an empty dataset")
    size = min(batch, len(dataset))
    partnered = size > 1 and procs.workers(t_min, PARTNER_MIN_STEPS, 2) > 1
    losses = []
    with (_Partner(model, dataset.samples, size) if partnered
          else contextlib.nullcontext()) as partner:
        for step in range(t_min):
            idx = rng.integers(0, len(dataset), size=size)
            second = partner.post(model.weights, idx) if partner else None
            losses.append(_sgd_step(model, [dataset.samples[i] for i in idx], lr, second))
            if not np.isfinite(losses[-1]):
                raise _NonFiniteLoss(step)
    return model, losses


def maximize_phase(model: Classifier, d0: Dataset, cfg: AdvConfig) -> list[AdvSample]:
    """One batch of adversarial samples per element of the ORIGINAL dataset,
    in origin order, ascended against ``model`` itself: no code in the
    ascent writes its weights, so it needs no snapshot."""
    return maximize_many(model, d0.samples, cfg)


def run(d0: Dataset, cfg: AdvConfig,
        model_init: Classifier | None = None) -> tuple[Classifier, TrainReport]:
    """The full alternating procedure.

    K rounds of (fit on current data, expand with adversarial samples),
    then t_final epochs on the expanded dataset.  mode="erm" skips the
    rounds entirely.  Identical (data, cfg) reproduce the report exactly,
    wall clock and phase timings aside.  A non-finite minibatch loss raises
    ValueError naming the round or final epoch (both counted from 1) and
    the step.

    The first call in a process sets glibc's malloc policy for the whole
    process, so each SGD step reuses the heap its predecessor freed instead
    of faulting fresh pages in; forked ascent children inherit it.  On the
    default benchmark (2-core x86 sandbox, seed 0) a tada run() fell from
    462k minor faults and 0.6-0.9 s of system time to 7.3k and
    0.01-0.04 s, an erm run() from 144k and 0.17-0.29 s to 1.3k and under
    0.01 s.  Elsewhere than glibc nothing is set.  Outputs are unchanged.
    """
    procs._keep_freed_memory()
    start = time.perf_counter()
    model = model_init if model_init is not None else Classifier(
        d0.channels, d0.n_classes, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5D]))
    report = TrainReport(seed=cfg.seed, config=asdict(cfg), dataset_sizes=[len(d0)])

    def lap(phase: str, since: float) -> float:
        """Record the wall time of ``phase`` from ``since``; returns now."""
        now = time.perf_counter()
        report.phase_wall[phase] = now - since
        return now

    def fit(dataset: Dataset, steps: int, stage) -> list[float]:
        """minimize_phase's losses; an error names the round or final epoch
        and the step within it, which ``stage(step of the call)`` gives."""
        try:
            return minimize_phase(model, dataset, steps, cfg.lr, cfg.batch, rng)[1]
        except _NonFiniteLoss as exc:
            name, step = stage(exc.step)
            raise ValueError(f"{name}: {_NonFiniteLoss(step)}") from exc
        except ValueError as exc:
            raise ValueError(f"{stage(0)[0]}: {exc}") from exc

    current = d0
    rounds = 0 if cfg.mode == "erm" else cfg.k_rounds
    if rounds:  # a window the series cannot hold fails before the first fit, not after it
        _check_window(cfg, d0.samples)
    clock = time.perf_counter()
    for k in range(1, rounds + 1):
        report.round_losses.append(fit(current, cfg.t_min, lambda step: (f"round {k}", step)))
        clock = lap(f"round{k}_fit", clock)
        current = current.extended([a.series for a in maximize_phase(model, d0, cfg)])
        clock = lap(f"round{k}_generate", clock)
        report.dataset_sizes.append(len(current))

    # the final stretch is one call, so one partner serves all its epochs
    per_epoch = max(1, (len(current) + cfg.batch - 1) // cfg.batch)
    losses = fit(current, cfg.t_final * per_epoch,
                 lambda step: (f"final epoch {step // per_epoch + 1}", step % per_epoch))
    lap("final", clock)
    report.final_losses = [float(np.mean(losses[lo:lo + per_epoch]))
                           for lo in range(0, len(losses), per_epoch)]

    report.wall_clock = time.perf_counter() - start
    return model, report


def predict(model: Classifier, x: TimeSeries) -> int:
    """The class of ``x``: the first maximum of its _inference logits."""
    return int(np.argmax(_inference(model, [x], features=False)[1]))


def _inference(model: Classifier, samples: list[TimeSeries],
               features: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """Features (S, 64) and logits (S, n_classes) of the samples, in order,
    from batched INFERENCE_DTYPE forwards of at most EVAL_CHUNK series, each
    writing its rows straight into the float64 outputs.  With ``features``
    False the features are None, and not kept."""
    params = {name: Tensor(w.astype(INFERENCE_DTYPE)) for name, w in model.weights.items()}
    z = np.empty((len(samples), FEATURE_DIM)) if features else None
    logits = np.empty((len(samples), model.n_classes))
    for lo in range(0, len(samples), EVAL_CHUNK):
        batch = _stack(samples[lo:lo + EVAL_CHUNK]).data.astype(INFERENCE_DTYPE)
        z_t, logits_t = forward(model, Tensor(batch), params)
        logits[lo:lo + EVAL_CHUNK] = logits_t.data
        if z is not None:
            z[lo:lo + EVAL_CHUNK] = z_t.data
    return z, logits


def _share_domains(run_part, sizes: list[int], what: str) -> list[list]:
    """[[run_part(d, entries) for each part of domain d] for each domain d],
    ``entries`` a slice of its sizes[d] series: the one inference site, for
    evaluate and the eval command.  With two processes from
    procs.workers (INFERENCE_MIN_CHUNKS forwards or more over all domains),
    a domain of more than EVAL_CHUNK series is two contiguous halves cut at
    a multiple of EVAL_CHUNK, so every forward holds a serial forward's
    series, and one forked inference worker runs every second part
    (procs.map_chunks).  Otherwise each domain is one whole part in this
    process.  Outputs and errors are bitwise serial."""
    processes = procs.workers(sum(-(-n // EVAL_CHUNK) for n in sizes), INFERENCE_MIN_CHUNKS, 2)
    parts = []  # (domain, entries)
    for d, n in enumerate(sizes):
        cut = min(n, EVAL_CHUNK * -(-n // (2 * EVAL_CHUNK))) if processes > 1 else n
        parts += [(d, slice(cut)), (d, slice(cut, None))] if 0 < cut < n else [(d, slice(None))]
    done = procs.map_chunks(lambda part: run_part(*part), parts, processes,
                            "inference worker", what)
    return [[result for (e, _), result in zip(parts, done) if e == d] for d in range(len(sizes))]


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


def evaluate(model: Classifier, domains: list[Dataset | tuple[str, list[int]]],
             logits: list[np.ndarray] | None = None) -> tuple[dict[str, float], float]:
    """Macro-F1 per domain and their mean.  Domain i's F1 is keyed by its
    tag, by ``domain<i>`` when it has none, and, when that key is taken, by
    the first free one of ``<key>#<i>``, ``<key>#<i+1>``, ...

    ``logits`` holds each domain's logits (``_inference``'s second output)
    when the caller has already run the forward; the model is then not run,
    and a domain may be given as its tag and its samples' labels instead of
    as a Dataset (its classes are then the model's).
    """
    if not domains:
        raise ValueError("no domains to evaluate")
    if logits is None:  # one call, so a forked inference worker is started once
        logits = [np.concatenate(parts) for parts in _share_domains(
            lambda d, entries: _inference(model, domains[d].samples[entries], features=False)[1],
            [len(d) for d in domains], "logits")]
    labelled = [(d.samples[0].domain_tag, [x.label for x in d.samples], d.n_classes)
                if isinstance(d, Dataset) else (*d, model.n_classes) for d in domains]
    per_domain: dict[str, float] = {}
    for i, ((tag, labels, n_classes), domain_logits) in enumerate(zip(labelled, logits)):
        key = tag = tag or f"domain{i}"
        j = i
        while key in per_domain:
            key, j = f"{tag}#{j}", j + 1
        per_domain[key] = macro_f1(np.argmax(domain_logits, axis=1), labels, n_classes)
    return per_domain, float(np.mean(list(per_domain.values())))


_FEATURE_ROW = "%d,%s,%d," + ",".join(["%.12g"] * FEATURE_DIM) + "\n"


def export_features(dataset: Dataset, path, features: np.ndarray, header: bool = True,
                    first: int = 0) -> None:
    """Write ``path``, a CSV of the given pooled features: origin_id,
    domain_tag, label, then 64 values per sample, after a header line
    unless ``header`` is False.  ``features`` holds one row per sample, in
    order (``_inference``'s first output); any other shape raises
    ValueError before ``path`` is opened.  Origin ids count from
    ``first``, the first sample's place in its manifest.
    """
    if np.shape(features) != (len(dataset), FEATURE_DIM):
        raise ValueError(f"{path}: features of shape {np.shape(features)} given for "
                         f"{len(dataset)} samples, expected {(len(dataset), FEATURE_DIM)}")
    with open(path, "w", encoding="utf-8") as out:
        if header:
            out.write("origin_id,domain_tag,label,"
                      + ",".join(f"f{i}" for i in range(FEATURE_DIM)) + "\n")
        for i, (sample, z) in enumerate(zip(dataset.samples, features), start=first):
            out.write(_FEATURE_ROW % (i, sample.domain_tag, sample.label, *z.tolist()))
