"""The traced run: spans around the calls into each warpada module, a replay
of run() through the public phase functions, and per-layer probes.

Spans (name, start, end, parent, run id) are kept in memory and written out
as JSON when the run ends.  Every probe calls only public names that the
planned refactors keep; a probe whose target is gone or has changed its
signature reports its metrics as absent and the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time

import numpy as np

# Layers are looked up at call time, so a name a later change removes fails
# only the probe that uses it.
from warpada import adversarial, signal, tensor, training, warp
from warpada import model as network
from warpada.adversarial import AdvConfig

import workloads
from workloads import CheckFailed, Result

# Calls per probe.  Single calls are noisy on a shared machine, so every
# probe reports a median over many.
MICRO_REPEATS = 200
TAPED_REPEATS = 50
SGD_PROBE_STEPS = 20
ASCENT_ORIGINS = 100
EVAL_COMMANDS = 3

# names the eval command calls through the cli module's own bindings
CLI_CALLS = {"load_checkpoint": "model.load_checkpoint",
             "load_manifest": "data.load_manifest",
             "evaluate": "training.evaluate",
             "export_features": "training.export_features"}

# unit of every per-layer metric
UNITS = {
    "warp.make_path_us": "us",
    "signal.warp_apply_us": "us",
    "signal.warp_apply_taped_us": "us",
    "tensor.backward_tada_ms": "ms",
    "tensor.tape_nodes_tada": "count",
    "adversarial.tada_origin_ms": "ms",
    "adversarial.tada_origin_p95_ms": "ms",
    "adversarial.objective_gain": "objective",
    "adversarial.improved_frac": "frac",
    "warp.cap_bind_frac": "frac",
    "warp.degenerate_frac": "frac",
    "model.forward_us": "us",
    "model.forward_taped_us": "us",
    "tensor.backward_sgd_ms": "ms",
    "tensor.tape_nodes_sgd": "count",
    "training.sgd_step_ms": "ms",
    "training.sgd_step_p95_ms": "ms",
    "training.sgd_steps": "count",
    "training.minimize_s": "s",
    "training.maximize_s": "s",
    "training.generated": "count",
    "training.predict_us": "us",
    "training.evaluate_s": "s",
    "training.export_features_s": "s",
    "data.synth_generate_s": "s",
    "data.save_dataset_s": "s",
    "data.bytes_written": "bytes",
    "data.load_manifest_s": "s",
    "model.load_checkpoint_ms": "ms",
    "cli.eval_self_s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """In-memory spans; a span's parent is the span open when it began."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def wrapping(self, module):
        """Put a span around every CLI_CALLS name the module binds, for the
        duration of the block."""
        saved = {attr: getattr(module, attr) for attr in CLI_CALLS
                 if callable(getattr(module, attr, None))}

        def traced(fn, name):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return call

        try:
            for attr, fn in saved.items():
                setattr(module, attr, traced(fn, CLI_CALLS[attr]))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def durations(self, name: str, parent: dict | None = None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None
                and (parent is None or s["parent"] == parent["id"])]

    def self_time(self, span: dict) -> float:
        children = sum(s["end"] - s["start"] for s in self.spans
                       if s["parent"] == span["id"])
        return span["end"] - span["start"] - children

    def dump(self, path: str, env: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "spans": self.spans}, fh)


def _median_call_s(fn, args_list) -> float:
    times = []
    for args in args_list:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def replay_run(d0, cfg: AdvConfig, tracer: Tracer):
    """run()'s schedule through the public phase functions, one SGD step per
    minimize_phase call so each step gets a span.  The RNG stream and the
    per-epoch step count are run()'s, so the losses must equal its report.
    """
    with tracer.span("training.run"):
        model = network.Classifier(d0.channels, d0.n_classes, seed=cfg.seed)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0x5D]))
        identity = {"dataset_sizes": [len(d0)], "round_losses": [], "final_losses": []}
        generated = 0

        def steps(dataset, n):
            losses = []
            with tracer.span("training.minimize_phase"):
                for _ in range(n):
                    with tracer.span("training.sgd_step"):
                        _, step = training.minimize_phase(model, dataset, 1, cfg.lr,
                                                          cfg.batch, rng)
                    losses += step
            return losses

        current = d0
        for _ in range(0 if cfg.mode == "erm" else cfg.k_rounds):
            with tracer.span("training.round"):
                identity["round_losses"].append(steps(current, cfg.t_min))
                with tracer.span("training.maximize_phase"):
                    adv = training.maximize_phase(model, d0, cfg)
                generated += len(adv)
                current = current.extended([a.series for a in adv])
                identity["dataset_sizes"].append(len(current))
        steps_per_epoch = max(1, (len(current) + cfg.batch - 1) // cfg.batch)
        with tracer.span("training.final_epochs"):
            for _ in range(cfg.t_final):
                identity["final_losses"].append(float(np.mean(steps(current, steps_per_epoch))))
    return model, identity, generated


def _train_layers(ctx, tracer: Tracer, result: Result, layers: dict):
    """Untraced run() for the reference report and time, then the traced
    replay, which must reproduce the report exactly.  Returns the replayed
    model, or run()'s when the replay failed."""
    cfg = ctx.config

    def untraced():
        t0 = time.perf_counter()
        model, report = training.run(ctx.source, cfg)
        seconds = time.perf_counter() - t0
        workloads.check_report(report, cfg, len(ctx.source))
        return model, report, seconds

    def replay(report, untraced_s):
        model, identity, generated = replay_run(ctx.source, cfg, tracer)
        expected = {key: report.identity()[key] for key in identity}
        if identity != expected:
            raise CheckFailed(f"replayed run() differs from run(): {identity} vs {expected}")
        steps_ms = [1e3 * d for d in tracer.durations("training.sgd_step")]
        layers["training.sgd_step_ms"] = statistics.median(steps_ms)
        layers["training.sgd_step_p95_ms"] = _percentile(steps_ms, 95)
        layers["training.sgd_steps"] = len(steps_ms)
        layers["training.minimize_s"] = sum(tracer.durations("training.minimize_phase"))
        layers["training.maximize_s"] = sum(tracer.durations("training.maximize_phase"))
        layers["training.generated"] = generated
        traced_s = tracer.durations("training.run")[0]
        layers["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        return model

    trained = result.attempt("run()", untraced)
    if trained is None:
        return None
    model = result.attempt("replayed run()", replay, *trained[1:]) or trained[0]

    def evaluate():
        with tracer.span("training.evaluate") as span:
            per_domain, average = training.evaluate(model, ctx.targets)
        workloads.check_f1(per_domain, average, ctx.tags)
        layers["training.evaluate_s"] = span["end"] - span["start"]

    result.attempt("evaluate()", evaluate)
    return model


def _eval_layers(ctx, model, tracer: Tracer, result: Result, layers: dict,
                 absent: dict) -> None:
    """The eval command, with spans around what it calls through the cli
    module's own bindings; medians over the commands that succeeded."""
    sources = {"data.load_manifest_s": ("data.load_manifest", 1.0),
               "model.load_checkpoint_ms": ("model.load_checkpoint", 1e3),
               "training.export_features_s": ("training.export_features", 1.0)}
    per_cmd = {name: [] for name in list(sources) + ["cli.eval_self_s"]}
    network.save_checkpoint(model, ctx.checkpoint)
    reference = result.attempt("reference evaluate()", workloads.reference_scores, ctx, model)
    if reference is None:
        absent.update(dict.fromkeys(per_cmd, "evaluate() on the loaded targets failed"))
        return
    for _ in range(EVAL_COMMANDS):
        failed = result.failed
        result.attempt("eval command", workloads.eval_command, ctx, reference, result,
                       tracer)
        if result.failed != failed:
            continue
        main = [s for s in tracer.spans if s["name"] == "cli.main"][-1]
        calls = {s["name"] for s in tracer.spans if s["parent"] == main["id"]}
        for name, (span_name, scale) in sources.items():
            if span_name in calls:
                per_cmd[name].append(scale * sum(tracer.durations(span_name, main)))
        if calls >= set(CLI_CALLS.values()):
            per_cmd["cli.eval_self_s"].append(tracer.self_time(main))
    for name, values in per_cmd.items():
        if values:
            layers[name] = statistics.median(values)
        else:
            absent[name] = "the eval command failed or no longer calls every traced name"


def _micro(ctx, model, cfg: AdvConfig, xs, phis) -> dict:
    paths = [warp.make_path(tensor.Tensor(phi), cfg.phi_max, cfg.m_window) for phi in phis]
    return {
        "warp.make_path_us": 1e6 * _median_call_s(
            warp.make_path, [(tensor.Tensor(phi), cfg.phi_max, cfg.m_window) for phi in phis]),
        "signal.warp_apply_us": 1e6 * _median_call_s(
            signal.warp_apply, [(x, p, cfg.m_window) for x, p in zip(xs, paths)]),
    }


def _inference(ctx, model, cfg: AdvConfig, xs, phis) -> dict:
    return {
        "model.forward_us": 1e6 * _median_call_s(network.forward, [(model, x) for x in xs]),
        "training.predict_us": 1e6 * _median_call_s(training.predict, [(model, x) for x in xs]),
    }


def _tada_step(ctx, model, cfg: AdvConfig, xs, phis) -> dict:
    """One ascent iteration's graph: make_path, warp_apply, then the
    objective CE - gamma * ||z - z_ref||^2 built from public model terms."""
    warp_s, backward_s, nodes = [], [], None
    for x, phi in list(zip(xs, phis))[:TAPED_REPEATS]:
        z_ref = tensor.Tensor(network.forward(model, x)[0].data.copy())
        with tensor.Tape() as tape:
            phi_t = tensor.Tensor(phi, requires_grad=True)
            path = warp.make_path(phi_t, cfg.phi_max, cfg.m_window)
            t0 = time.perf_counter()
            warped = signal.warp_apply(x, path, cfg.m_window)
            warp_s.append(time.perf_counter() - t0)
            z, logits = network.forward(model, warped)
            j = (network.loss_ce(logits, x.label)
                 - network.semantic_distance(z, z_ref) * cfg.gamma)
            t0 = time.perf_counter()
            tape.backward(j)
            backward_s.append(time.perf_counter() - t0)
        nodes = len(tape.nodes)
    return {"signal.warp_apply_taped_us": 1e6 * statistics.median(warp_s),
            "tensor.backward_tada_ms": 1e3 * statistics.median(backward_s),
            "tensor.tape_nodes_tada": nodes}


def _sgd_step(ctx, model, cfg: AdvConfig, xs, phis) -> dict:
    """A cfg.batch-sample step as training builds it, without the update."""
    rng = np.random.default_rng(ctx.seed)
    forward_s, backward_s, nodes = [], [], None
    for _ in range(SGD_PROBE_STEPS):
        batch = [ctx.source.samples[i] for i in rng.integers(0, len(ctx.source), cfg.batch)]
        params = model.tensors(requires_grad=True)
        with tensor.Tape() as tape:
            total = None
            for sample in batch:
                t0 = time.perf_counter()
                _, logits = network.forward(model, sample, params)
                forward_s.append(time.perf_counter() - t0)
                ce = network.loss_ce(logits, sample.label)
                total = ce if total is None else total + ce
            mean = total * (1.0 / len(batch))
            t0 = time.perf_counter()
            tape.backward(mean)
            backward_s.append(time.perf_counter() - t0)
        nodes = len(tape.nodes)
    return {"model.forward_taped_us": 1e6 * statistics.median(forward_s),
            "tensor.backward_sgd_ms": 1e3 * statistics.median(backward_s),
            "tensor.tape_nodes_sgd": nodes}


def _ascent(ctx, model, cfg: AdvConfig, xs, phis) -> dict:
    """maximize_one on evenly spread origins of the source; the objective
    at the initial path comes from the same call with eta=0."""
    still = AdvConfig(mode="tada", seed=ctx.seed, eta=0.0)
    origins = np.linspace(0, len(ctx.source) - 1, ASCENT_ORIGINS).astype(int)
    times_ms, gains, paths = [], [], []
    for i in origins:
        x = ctx.source.samples[i]
        t0 = time.perf_counter()
        [moved] = adversarial.maximize_one(model, x, cfg, origin_id=int(i))
        times_ms.append(1e3 * (time.perf_counter() - t0))
        [initial] = adversarial.maximize_one(model, x, still, origin_id=int(i))
        gains.append(moved.objective - initial.objective)
        paths.append(np.abs(moved.path))
    return {
        "adversarial.tada_origin_ms": statistics.median(times_ms),
        "adversarial.tada_origin_p95_ms": _percentile(times_ms, 95),
        "adversarial.objective_gain": statistics.mean(gains),
        "adversarial.improved_frac": float(np.mean(np.asarray(gains) > 0)),
        "warp.cap_bind_frac": float(np.mean([np.isclose(p.max(), cfg.phi_max, rtol=1e-9)
                                             for p in paths])),
        "warp.degenerate_frac": float(np.mean([p.max() < 1e-12 for p in paths])),
    }


PROBES = {
    _micro: ("warp.make_path_us", "signal.warp_apply_us"),
    _inference: ("model.forward_us", "training.predict_us"),
    _tada_step: ("signal.warp_apply_taped_us", "tensor.backward_tada_ms",
                 "tensor.tape_nodes_tada"),
    _sgd_step: ("model.forward_taped_us", "tensor.backward_sgd_ms", "tensor.tape_nodes_sgd"),
    _ascent: ("adversarial.tada_origin_ms", "adversarial.tada_origin_p95_ms",
              "adversarial.objective_gain", "adversarial.improved_frac",
              "warp.cap_bind_frac", "warp.degenerate_frac"),
}


def _probe_layers(ctx, model, tracer: Tracer, layers: dict, absent: dict) -> None:
    cfg = AdvConfig(mode="tada", seed=ctx.seed)
    rng = np.random.default_rng(ctx.seed)
    xs = [ctx.source.samples[i] for i in rng.integers(0, len(ctx.source), MICRO_REPEATS)]
    phis = [rng.uniform(-1.0, 1.0, size=ctx.source.length) for _ in xs]
    for probe, names in PROBES.items():
        try:
            with tracer.span(f"probe{probe.__name__}"):
                layers.update(probe(ctx, model, cfg, xs, phis))
        except Exception as exc:  # a renamed or re-signed target: report, go on
            for name in names:
                absent[name] = f"{type(exc).__name__}: {exc}"
            print(f"probe {probe.__name__} failed: {exc!r}", file=sys.stderr)


def traced_run(workload, seed: int, workdir: str, import_interval, run_id: str,
               trace_path: str, env: dict) -> Result:
    tracer = Tracer(run_id)
    result = Result()
    layers, absent = {}, {}
    ctx = workloads.set_up(workload, seed, workdir, import_interval, tracer)
    layers["data.synth_generate_s"] = statistics.median(e - s for s, e in ctx.generate)
    layers["data.save_dataset_s"] = statistics.median(e - s for s, e in ctx.save)
    layers["data.bytes_written"] = ctx.bytes_written
    model = _train_layers(ctx, tracer, result, layers)
    if model is not None:
        _eval_layers(ctx, model, tracer, result, layers, absent)
        _probe_layers(ctx, model, tracer, layers, absent)
    tracer.dump(trace_path, env)
    result.metrics = {name: (float(layers[name]), unit)
                      for name, unit in UNITS.items() if name in layers}
    result.absent = {name: absent.get(name, "not measured")
                     for name in UNITS if name not in layers}
    return result
