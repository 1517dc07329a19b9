"""Maximization phase: gradient ascent that manufactures hard samples.

Three perturbation families share one objective
J = CE(f(x'), y) + me_beta * H(f(x')) - gamma * ||z(x') - z(x)||^2:
additive amplitude noise (x' = x + P), a temporal warp (x' = warp(x, path)
with the path built from free parameters), and their combination.  The
constraint chain lives inside path construction, so ascent iterates are
admissible by construction and need no projection step.  All three run
through one ascent loop, which moves a chunk of origins at a time; the
chunks of one call are shared out between forked processes (procs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import procs
from .model import entropy, forward, loss_ce, semantic_distance
from .signal import TimeSeries, warp_apply
from .tensor import Tape, Tensor, op_sum
from .warp import make_path

__all__ = ["AdvConfig", "AdvSample", "maximize_one", "maximize_many"]

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
# fork and one pipe transfer of its samples.  They fork beside a BLAS pool
# too: two took a default tada run() from 5.83 to 4.64 s wall there (2-core
# x86 sandbox, medians of 5 seeds).
MAX_ASCENT_WORKERS = 8


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


def _check_window(cfg: AdvConfig, xs: list[TimeSeries]) -> None:
    """Raise ValueError when cfg warps and its window is longer than the series xs."""
    window = 2 * cfg.m_window + 1
    if cfg.mode in ("tada", "tada_plus") and xs and xs[0].length < window:
        raise ValueError(f"m_window {cfg.m_window} needs series of at least {window} samples "
                         f"(2 * m_window + 1), but the series have {xs[0].length}")


@dataclass
class AdvSample:
    """One generated sample plus provenance for logging."""

    series: TimeSeries
    origin_id: int
    mode: str
    objective: float
    path: np.ndarray | None = None  # warp displacements when a warp was used


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
    only read and every row of the batch depends only on its own parameters,
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
    z_ref = forward(model, source)[0]  # no tape records here: a constant

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

    The chunks are shared between procs.workers processes, up to
    MAX_ASCENT_WORKERS (procs.map_chunks).  The model is only read and every
    chunk depends only on its own origins, so the output is bitwise the
    serial one.  The call runs serially, starting no process, when that
    is one.

    Sets the malloc policy (procs._keep_freed_memory), as run() does, for
    callers that ascend without run(): each block of the warp forms its
    kernel and slope tables anew, and glibc's default policy would hand
    them back to the OS and fault them in again.
    """
    if cfg.mode not in ("ada", "tada", "tada_plus"):
        raise ValueError(f"mode {cfg.mode!r} does not generate adversarial samples")
    procs._keep_freed_memory()
    if cfg.mode != "tada_plus":
        families = [cfg.mode]
    else:
        families = ["tada_plus"] if cfg.combine == "composed" else ["ada", "tada"]
    if origin_ids is None:
        origin_ids = list(range(len(xs)))
    if len(origin_ids) != len(xs):
        raise ValueError(f"{len(origin_ids)} origin_ids for {len(xs)} series in xs")
    _check_window(cfg, xs)

    def ascend(lo):
        chunk, ids = xs[lo:lo + ASCENT_CHUNK], origin_ids[lo:lo + ASCENT_CHUNK]
        per_family = [_ascend(model, chunk, cfg, ids, f) for f in families]
        return [sample for group in zip(*per_family) for sample in group]

    los = list(range(0, len(xs), ASCENT_CHUNK))
    processes = procs.workers(len(los), 2, MAX_ASCENT_WORKERS, one_blas_thread=False)
    done = procs.map_chunks(ascend, los, processes, "ascent worker", "samples")
    return [sample for chunk in done for sample in chunk]


def maximize_one(model, x: TimeSeries, cfg: AdvConfig, origin_id: int = 0) -> list[AdvSample]:
    """Dispatch on cfg.mode; returns the list of samples generated from x."""
    return maximize_many(model, [x], cfg, [origin_id])
