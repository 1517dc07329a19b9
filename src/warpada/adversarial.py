"""Maximization phase: gradient ascent that manufactures hard samples.

Three perturbation families share one objective
J = CE(f(x'), y) + me_beta * H(f(x')) - gamma * ||z(x') - z(x)||^2:
additive amplitude noise (x' = x + P), a temporal warp (x' = warp(x, path)
with the path built from free parameters), and their combination.  The
constraint chain lives inside path construction, so ascent iterates are
admissible by construction and need no projection step.  All three run
through one ascent loop, which moves a chunk of origins at a time; the
chunks of one call are shared out between forked processes.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import traceback
from dataclasses import dataclass
from signal import SIGKILL

import numpy as np

from .model import entropy, forward, loss_ce, semantic_distance
from .signal import TimeSeries, warp_apply
from .tensor import Tape, Tensor, op_sum
from .warp import make_path

__all__ = ["AdvConfig", "AdvSample", "Child", "map_chunks", "maximize_one", "maximize_many"]

MODES = ("erm", "ada", "tada", "tada_plus")
COMBINE_MODES = ("union", "composed")
# Path construction is scale-invariant in phi, so the init scale only sets
# the Jacobian magnitude (~1/scale) of the first ascent steps.  Unit scale
# keeps eta = 1 steps well-behaved; 0.01 made them overshoot by ~100x.
PHI_INIT_SCALE = 1.0
# Origins ascended together on one tape.  Per-origin cost is Python dispatch
# at small chunks: on the default benchmark (600 origins, tada, 2 forked
# workers, warm repeats on a 2-core x86 sandbox) maximize took 0.87-1.02 s
# at 8, 0.69-0.83 s at 16 and 0.62-0.83 s from 24 to 48, while each chunk's
# live (B, C, N, L) warp arrays grow with it.  A chunk is also the unit
# maximize_many shares out between processes; a chunk's samples are bitwise
# the same whichever process ascends it.
ASCENT_CHUNK = 32
# Processes that share one call's chunks, at most: each extra one costs a
# fork and one pipe transfer of its samples.
MAX_ASCENT_WORKERS = 8
# Whether a map_chunks call's shares are running, in this process's share
# or in a forked child's (which inherits it set): a call made from inside a
# share runs its chunks where it is called, so a share never forks again.
_in_share = False


@dataclass(frozen=True)
class AdvConfig:
    """Hyperparameters for both phases of the alternating procedure.

    eta drives the warp-parameter ascent; eta_ada drives the additive
    ascent (the two act on very different scales: the additive iteration
    turns unstable once eta_ada * gamma * feature curvature passes 1).
    Zero eta or t_min and k_rounds=0 are allowed so baselines (fixed
    perturbation, plain ERM) run through the same code path.
    """

    # defaults tuned on the synthetic benchmark: gamma=0.1 leaves the
    # additive ascent room to move (at 1.0 the semantic penalty pins
    # perturbations near zero), and eta_ada=1.0 keeps it stable there
    gamma: float = 0.1
    eta: float = 1.0
    eta_ada: float = 1.0
    t_max: int = 10
    t_min: int = 10
    k_rounds: int = 2
    t_final: int = 10
    m_window: int = 10
    phi_max: float = 8.0
    mode: str = "tada"
    combine: str = "union"
    me_beta: float = 0.0
    lr: float = 0.05
    batch: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.combine not in COMBINE_MODES:
            raise ValueError(f"combine must be one of {COMBINE_MODES}, got {self.combine!r}")
        for name in ("gamma", "eta", "eta_ada", "me_beta", "lr"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.eta < 0 or self.eta_ada < 0:
            raise ValueError("ascent steps must be nonnegative")
        if self.t_max < 1:
            raise ValueError(f"t_max must be at least 1, got {self.t_max}")
        if self.t_min < 0 or self.k_rounds < 0:
            raise ValueError("t_min and k_rounds must be nonnegative")
        if self.t_final < 1:
            raise ValueError(f"t_final must be at least 1, got {self.t_final}")
        if self.m_window < 2:
            raise ValueError(f"m_window must be at least 2, got {self.m_window}")
        if not 0 < self.phi_max <= self.m_window - 1:
            raise ValueError(f"phi_max must be in (0, m_window-1] = (0, {self.m_window - 1}], "
                             f"got {self.phi_max}")
        if self.me_beta < 0:
            raise ValueError(f"me_beta must be nonnegative, got {self.me_beta}")
        if self.lr <= 0 or self.batch < 1:
            raise ValueError("lr must be positive and batch at least 1")
        if not 0 <= self.seed < 2**63:  # numpy's and the checkpoint's range
            raise ValueError(f"seed must be in [0, 2**63), got {self.seed}")


@dataclass
class AdvSample:
    """One generated sample plus provenance for logging."""

    series: TimeSeries
    origin_id: int
    mode: str
    objective: float
    path: np.ndarray | None = None  # warp displacements when a warp was used

    def __post_init__(self):
        if self.path is not None:
            self.path = np.asarray(self.path, dtype=np.float64)


def _sample_rng(cfg: AdvConfig, origin_id: int) -> np.random.Generator:
    # per-origin stream, so a sample does not depend on which chunk it ran in
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, origin_id]))


def _objective_rows(model, candidate: Tensor, labels: np.ndarray, z_ref: Tensor,
                    cfg: AdvConfig) -> Tensor:
    """(B, 1) per-origin objectives J_i of a (B, C, N) candidate batch."""
    z, logits = forward(model, candidate)
    j = loss_ce(logits, labels) - semantic_distance(z, z_ref) * cfg.gamma
    if cfg.me_beta != 0.0:
        j = j + entropy(logits) * cfg.me_beta
    return j


def _check_finite(j: Tensor, iteration: int, what: str, origin_ids) -> None:
    bad = ~np.isfinite(j.data.reshape(-1))
    if bad.any():
        raise ValueError(f"{what} objective became non-finite at iteration {iteration} "
                         f"for origin {origin_ids[int(np.argmax(bad))]}")


def _ascend(model, xs: list[TimeSeries], cfg: AdvConfig, origin_ids: list[int],
            family: str) -> list[AdvSample]:
    """Ascend one chunk of origins together for t_max steps and return one
    sample per origin, at the final parameters.

    family 'ada' ascends an additive perturbation from zeros, 'tada' the
    warp parameters, and 'tada_plus' both at once (the composed objective).
    The chunk shares one tape per iteration with J = sum_i J_i; the model is
    frozen and every row of the batch depends only on its own parameters,
    so each origin's parameters receive exactly dJ_i/d(own parameters).

    phi starts as uniform noise drawn from the origin's own stream, not
    zeros: the all-equal phi is the degenerate fixed point of the path
    normalization, where the gradient vanishes identically.
    """
    values = np.stack([x.values.data for x in xs])
    labels = np.array([x.label for x in xs])
    warps, shifts = family != "ada", family != "tada"
    phi = (np.stack([_sample_rng(cfg, o).uniform(-PHI_INIT_SCALE, PHI_INIT_SCALE,
                                                 size=values.shape[-1])
                     for o in origin_ids]) if warps else None)
    perturbation = np.zeros_like(values) if shifts else None
    source = Tensor(values)
    z_ref = Tensor(forward(model, source)[0].data.copy())

    def candidate(phi_t, pert_t):
        x = source + pert_t if shifts else source
        if not warps:
            return x, None
        path = make_path(phi_t, cfg.phi_max, cfg.m_window)
        return warp_apply(x, path, cfg.m_window), path

    for iteration in range(cfg.t_max):
        probe_phi = Tensor(phi, requires_grad=True) if warps else None
        probe_pert = Tensor(perturbation, requires_grad=True) if shifts else None
        with Tape() as tape:
            x_t, _ = candidate(probe_phi, probe_pert)
            j = _objective_rows(model, x_t, labels, z_ref, cfg)
            _check_finite(j, iteration, family, origin_ids)
            tape.backward(op_sum(j))
        if warps:
            phi = phi + cfg.eta * probe_phi.grad
        if shifts:
            perturbation = perturbation + cfg.eta_ada * probe_pert.grad

    x_t, path = candidate(Tensor(phi) if warps else None,
                          Tensor(perturbation) if shifts else None)
    j = _objective_rows(model, x_t, labels, z_ref, cfg)
    _check_finite(j, cfg.t_max, family, origin_ids)
    return [AdvSample(series=TimeSeries(Tensor(x_t.data[i].copy()), label=x.label,
                                        domain_tag=x.domain_tag),
                      origin_id=o, mode=family, objective=float(j.data[i, 0]),
                      path=None if path is None else path.data[i].copy())
            for i, (x, o) in enumerate(zip(xs, origin_ids))]


def fork_cpus() -> int:
    """CPUs a fork may spread this process's work over, the one rule both
    the ascent and the SGD partner (training.minimize_phase) follow: the
    usable CPUs, but one where ``os.fork`` is missing, where the usable CPUs
    cannot be read, and while other threads run (a fork copies any lock they
    hold, held for ever).  Neither starts a process when this is one."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _ascent_workers(n_chunks: int) -> int:
    """Processes to share n_chunks between: one per CPU of fork_cpus(), at
    most one per chunk and MAX_ASCENT_WORKERS, at least one."""
    return max(1, min(fork_cpus(), n_chunks, MAX_ASCENT_WORKERS))


class Child:
    """The package's one way to start a process: a fork that runs
    ``target(rx, tx)``, rx and tx being its ends of pipes from and to this
    process (``self.tx``, ``self.rx``).  It ends with os._exit, never
    returning into the caller's frames: code 0 if the target returns, else 1
    after printing the traceback.  The context forks on entry; on exit it
    closes this side's ends, kills the child if an error cut the block short
    before it was reaped, and reaps it."""

    def __init__(self, target, name: str, what: str):
        self._target, self._name, self._what = target, name, what

    def __enter__(self):
        down, up = os.pipe(), os.pipe()  # to the child, from the child
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in down + up:
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(down[1])
                os.close(up[0])
                self._target(down[0], up[1])
                code = 0
            except BaseException:
                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(code)
        # each side keeps its own ends only: EOF or EPIPE once the other is gone
        os.close(down[0])
        os.close(up[1])
        self._target = None  # only the child calls it; a bound method here is a cycle
        self.rx, self.tx, self._code = up[0], down[1], None
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        os.close(self.tx)
        os.close(self.rx)
        if exc_type is not None and self._code is None:
            os.kill(self.pid, SIGKILL)
        self.reap()

    def reap(self) -> int:
        """Wait for the child to end, once; returns its exit code."""
        if self._code is None:
            self._code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self._code

    def fail(self):
        """Reap the child and raise the error of one that ended early."""
        raise RuntimeError(f"{self._name} {self.pid} exited with code {self.reap()} "
                           f"before sending its {self._what}") from None


def _forked_shares(workers: int, run_share, name: str, what: str) -> list:
    """[run_share(w) for w in range(workers)], with shares 1.. run by forked
    children (Child(..., name, what)), which inherit the model and the data
    by copy-on-write, while this process runs share 0.  Child k pickles its
    share into its pipe, unpickled as it streams in (a share can be larger
    than a pipe buffer), and is reaped before child k + 1's pipe is read, so
    a child that died raises at once and the others are killed."""
    def sender(w):
        def send(rx, tx):
            with open(tx, "wb") as out:  # flushed before the child exits
                pickle.dump(run_share(w), out)
        return send

    with contextlib.ExitStack() as stack:
        children = [stack.enter_context(Child(sender(w), name, what))
                    for w in range(1, workers)]
        shares = [run_share(0)]
        for child in children:
            try:
                with open(child.rx, "rb", closefd=False) as reader:
                    shares.append(pickle.load(reader))
            except (EOFError, pickle.UnpicklingError):  # cut short: the exit code says why
                if child.reap() == 0:
                    raise
            if child.reap() != 0:
                child.fail()
        return shares


def map_chunks(run_chunk, chunks: list, workers: int, name: str, what: str) -> list:
    """[run_chunk(c) for c in chunks].  With ``workers`` above one the chunks
    are split into that many interleaved shares, forked children named
    ``name`` run shares 1.. while this process runs share 0 (_forked_shares),
    and the results are put back in chunk order.  A call made while the
    shares of another run, in this process or in a child, runs all its
    chunks in the process it is made in.  An error is the serial one: the
    exception of the earliest failing chunk, which also ends its share."""
    global _in_share
    if _in_share:
        workers = 1

    def run_share(w):
        done = []
        for k in range(w, len(chunks), workers):
            try:
                done.append(run_chunk(chunks[k]))
            except Exception as exc:  # reported to the caller, which raises the earliest
                return done, (k, exc)
        return done, None

    if workers == 1:
        shares = [run_share(0)]
    else:
        _in_share = True
        try:
            shares = _forked_shares(workers, run_share, name, what)
        finally:
            _in_share = False
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [shares[k % workers][0][k // workers] for k in range(len(chunks))]


def maximize_many(model, xs: list[TimeSeries], cfg: AdvConfig,
                  origin_ids: list[int] | None = None) -> list[AdvSample]:
    """Samples for every origin, grouped by origin in input order.
    ``origin_ids`` defaults to the positions 0..len(xs)-1.

    Origins ascend in chunks of ASCENT_CHUNK, one tape per chunk and
    iteration.  Each origin keeps its own phi initialisation stream, so
    results do not depend on the chunking except through the reduction
    order of the batched arithmetic.  On the benchmark host (x86, numpy
    2.4.6, OpenBLAS) chunks of 8, 16, 24, 32 and 48 gave bitwise-equal
    samples and reports in every mode; chunks of 4 differ from 8 in the
    last bits.

    The chunks are shared between W = _ascent_workers(number of chunks)
    processes (map_chunks).  The model is frozen and every chunk depends
    only on its own origins, so the output is bitwise the serial one.  The
    call runs serially, starting no process, when W is one (see fork_cpus).
    """
    if cfg.mode not in ("ada", "tada", "tada_plus"):
        raise ValueError(f"mode {cfg.mode!r} does not generate adversarial samples")
    if cfg.mode != "tada_plus":
        families = [cfg.mode]
    else:
        families = ["tada_plus"] if cfg.combine == "composed" else ["ada", "tada"]
    if origin_ids is None:
        origin_ids = list(range(len(xs)))
    if len(origin_ids) != len(xs):
        raise ValueError(f"{len(origin_ids)} origin_ids for {len(xs)} series in xs")

    def ascend(lo):
        chunk, ids = xs[lo:lo + ASCENT_CHUNK], origin_ids[lo:lo + ASCENT_CHUNK]
        per_family = [_ascend(model, chunk, cfg, ids, f) for f in families]
        return [sample for group in zip(*per_family) for sample in group]

    los = list(range(0, len(xs), ASCENT_CHUNK))
    done = map_chunks(ascend, los, _ascent_workers(len(los)), "ascent worker", "samples")
    return [sample for chunk in done for sample in chunk]


def maximize_one(model, x: TimeSeries, cfg: AdvConfig, origin_id: int = 0) -> list[AdvSample]:
    """Dispatch on cfg.mode; returns the list of samples generated from x."""
    return maximize_many(model, [x], cfg, [origin_id])
