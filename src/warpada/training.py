"""Alternating minimize/maximize training and held-out evaluation.

Each round fits the model on the current dataset, then generates one batch
of adversarial samples per ORIGINAL sample and appends them; the original
samples are never re-perturbed and never mutated.  After the last round
the model trains for a final stretch of epochs on the fully expanded
dataset.  Evaluation reports macro-F1 per held-out domain.

Each SGD step is the sum of two half-batch gradients (_sgd_step).  Where the
process may fork onto a second CPU (adversarial.fork_cpus) and BLAS runs one
thread (_one_blas_thread), a minimize_phase call of PARTNER_MIN_STEPS steps
or more forks one partner process that computes each step's second half while
this process computes the first (_Partner): one partner per round's fit, one
for the whole final stretch.  Shorter calls, and every call elsewhere,
compute both halves in this process.  Both ways give bitwise the same weights
and losses, as the ascent's forked shares give bitwise the serial samples.
Inference (_inference) forks one worker under the same rule, for calls of
INFERENCE_MIN_CHUNKS forwards or more, and so does the eval command
(cli.cmd_eval) for two target datasets or more.
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .adversarial import AdvConfig, AdvSample, Child, fork_cpus, map_chunks, maximize_many
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
# dataset size.  One process forwarded the three default targets (1,800
# series; 2-core x86 sandbox, one BLAS thread) in 57 ms in chunks of 8, 46 in
# 16, 45 in 32, 48 in 64 and 58 in 128 (medians of 15), all bitwise equal.
EVAL_CHUNK = 32
# Inference calls of fewer forwards stay in one process.  On the same host,
# over 21 alternating calls each, the inference worker was slower at 8 and
# 12 forwards (faster in 0 and 5-9 calls), even at 16 (11), and faster from
# 20 (15-16; 19-21 at the 57 forwards of the three targets, 61 -> 40-43 ms).
INFERENCE_MIN_CHUNKS = 20


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
    first, scale = (len(batch) + 1) // 2, 1.0 / len(batch)
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


# The variables through which OpenBLAS, MKL and OpenMP builds of BLAS take
# their thread count, read once when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
                    "OMP_NUM_THREADS")


def _one_blas_thread() -> bool:
    """Whether the environment holds BLAS to one thread: at least one of
    BLAS_THREAD_VARS is set, and each one set is 1.

    The partner starts only then.  A BLAS thread pool (OpenBLAS's default:
    one thread per CPU) spreads a step's larger products over the CPUs and
    spins between them, so no CPU is idle for a partner: with the pool, an
    erm run() on the default benchmark took 5.1-5.6 s with a partner and
    1.0-1.1 s without.  The pool cannot be told from the process's thread
    count, since OpenBLAS stops it for every fork and restarts it on the
    next large product.
    """
    values = [os.environ[name].strip() for name in BLAS_THREAD_VARS if name in os.environ]
    return bool(values) and all(v == "1" for v in values)


def _second_cpu() -> bool:
    """The one rule under which a forked process shares this one's work:
    fork_cpus() of two or more and one BLAS thread (_one_blas_thread)."""
    return fork_cpus() > 1 and _one_blas_thread()


class _Partner(Child):
    """A forked process that computes the second half of every minibatch
    gradient of one minimize_phase call, from the dataset it inherited.

    Both processes map one anonymous shared mmap.  Before each step this
    process writes the weights and the second half's dataset indices into
    it and sends one byte down a pipe; the partner writes that half's weight
    gradients and per-row losses back and answers with one byte."""

    def __init__(self, model: Classifier, samples: list[TimeSeries], batch: int):
        super().__init__(self._serve, "SGD partner", "gradients")
        self._scale = 1.0 / batch
        n_second = batch // 2
        self._first = batch - n_second
        n_weights = sum(w.size for w in model.weights.values())
        self._shm = mmap.mmap(-1, 8 * (2 * n_weights + 2 * n_second))
        floats = np.frombuffer(self._shm, np.float64, 2 * n_weights + n_second)
        self._ids = np.frombuffer(self._shm, np.int64, n_second, 8 * floats.size)
        self._rows = floats[2 * n_weights:].reshape(n_second, 1)
        self._weights, self._grads, offset = {}, {}, 0
        for name, w in model.weights.items():
            for views, base in ((self._weights, offset), (self._grads, n_weights + offset)):
                views[name] = floats[base:base + w.size].reshape(w.shape)
            offset += w.size
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

    With PARTNER_MIN_STEPS steps or more, minibatches of two series or
    more, fork_cpus() of two or more and one BLAS thread
    (_one_blas_thread), one forked partner process computes each step's
    second half while this process computes the first (_Partner);
    otherwise this process computes both.  The two halves are
    the same computations either way, so weights and losses are bitwise
    those of the serial call.  A partner that dies raises RuntimeError
    naming its pid and exit code.
    """
    if len(dataset) == 0:
        raise ValueError("cannot minimize on an empty dataset")
    size = min(batch, len(dataset))
    partnered = t_min >= PARTNER_MIN_STEPS and size > 1 and _second_cpu()
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
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5D]))
    report = TrainReport(seed=cfg.seed, config=asdict(cfg), dataset_sizes=[len(d0)])

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
    for k in range(1, rounds + 1):
        report.round_losses.append(fit(current, cfg.t_min, lambda step: (f"round {k}", step)))
        adv = maximize_phase(model, d0, cfg)
        current = current.extended([a.series for a in adv])
        report.dataset_sizes.append(len(current))

    # the final stretch is one call, so one partner serves all its epochs
    per_epoch = max(1, (len(current) + cfg.batch - 1) // cfg.batch)
    losses = fit(current, cfg.t_final * per_epoch,
                 lambda step: (f"final epoch {step // per_epoch + 1}", step % per_epoch))
    report.final_losses = [float(np.mean(losses[lo:lo + per_epoch]))
                           for lo in range(0, len(losses), per_epoch)]

    report.wall_clock = time.perf_counter() - start
    return model, report


def predict(model: Classifier, x: TimeSeries) -> int:
    _, logits = forward(model, x)
    return int(np.argmax(logits.data))


def _inference(model: Classifier, *domains: list[TimeSeries],
               features: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """Features (S, 64) and logits (S, n_classes) of every sample of the
    given lists, in order, from batched forwards of at most EVAL_CHUNK
    series; no forward spans two lists, whose series lengths may differ.
    With ``features`` False the features are None, and not kept.

    With INFERENCE_MIN_CHUNKS forwards or more, and under the SGD partner's
    rule (_second_cpu), one forked child runs every second forward
    (adversarial.map_chunks).  Each forward is the same in either process,
    so the outputs are bitwise the serial ones.  Every forward's rows go
    straight into the outputs, so beside them this process holds at most the
    child's rows, as they arrive."""
    chunks, size = [], 0  # (first output row, series) per forward
    for samples in domains:
        chunks += [(size + lo, samples[lo:lo + EVAL_CHUNK])
                   for lo in range(0, len(samples), EVAL_CHUNK)]
        size += len(samples)
    z = np.empty((size, FEATURE_DIM)) if features else None
    logits = np.empty((size, model.n_classes))
    forked = len(chunks) >= INFERENCE_MIN_CHUNKS and _second_cpu()

    def infer(chunk):
        lo, samples = chunk
        rows = slice(lo, lo + len(samples))
        z_t, logits_t = forward(model, _stack(samples))
        logits[rows] = logits_t.data
        if z is not None:
            z[rows] = z_t.data
        return None if z is None else z[rows], logits[rows]  # views: a child pickles these rows

    done = map_chunks(infer, chunks, 2 if forked else 1, "inference worker", "features")
    for (lo, samples), (z_rows, logit_rows) in zip(chunks, done):
        if logit_rows.base is not logits:  # a child's copies; this process's rows are in place
            rows = slice(lo, lo + len(samples))
            logits[rows] = logit_rows
            if z is not None:
                z[rows] = z_rows
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
    if logits is None:  # one call, so a forked inference worker is started once
        logits = np.split(_inference(model, *(d.samples for d in domains), features=False)[1],
                          np.cumsum([len(d) for d in domains])[:-1])
    f1s = [macro_f1(np.argmax(domain_logits, axis=1), [x.label for x in domain.samples],
                    domain.n_classes)
           for domain, domain_logits in zip(domains, logits)]
    return _keyed_scores([d.samples[0].domain_tag for d in domains], f1s)


def _keyed_scores(tags: list[str], f1s: list[float]) -> tuple[dict[str, float], float]:
    """evaluate's result from each domain's tag and macro-F1, in order: each
    F1 keyed by its tag, by ``domain<i>`` for an untagged domain i and by
    ``<tag>#<i>`` for a key already taken, and the mean of the keyed F1s."""
    per_domain: dict[str, float] = {}
    for i, (tag, f1) in enumerate(zip(tags, f1s)):
        tag = tag or f"domain{i}"
        per_domain[tag if tag not in per_domain else f"{tag}#{i}"] = f1
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
