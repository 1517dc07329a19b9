import contextlib
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from warpada import adversarial, procs, training
from warpada.adversarial import (
    PHI_INIT_SCALE,
    AdvConfig,
    maximize_many,
    maximize_one,
)
from warpada.data import default_spec, synth_generate
from warpada.model import Classifier, forward, loss_ce, semantic_distance
from warpada.signal import TimeSeries, warp_apply
from warpada.tensor import Tape, Tensor
from warpada.warp import make_path

from test_warp import path_violations


def toy_sample(seed=0, n=64, label=1):
    rng = np.random.default_rng(seed)
    return TimeSeries(Tensor(rng.normal(size=n)), label=label, domain_tag="src")


def toy_cfg(**kw):
    defaults = dict(m_window=5, phi_max=4.0, t_max=3, seed=11)
    defaults.update(kw)
    return AdvConfig(**defaults)


class TestConfig:
    def test_defaults_valid(self):
        cfg = AdvConfig()
        assert cfg.mode == "tada" and cfg.t_max == 10 and cfg.k_rounds == 2

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            AdvConfig(mode="pgd")

    def test_phi_max_headroom(self):
        with pytest.raises(ValueError, match="phi_max"):
            AdvConfig(m_window=10, phi_max=9.5)
        AdvConfig(m_window=10, phi_max=9.0)  # boundary allowed

    def test_zero_eta_and_rounds_allowed(self):
        AdvConfig(eta=0.0, t_min=0, k_rounds=0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            AdvConfig(gamma=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["gamma", "eta", "eta_ada", "me_beta", "lr"])
    def test_non_finite_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            AdvConfig(**{field: value})


class TestTadaMaximize:
    def test_zero_step_equals_initial_warp(self):
        model = Classifier(1, 3, seed=0)
        x = toy_sample(1)
        cfg = toy_cfg(t_max=1, eta=0.0)
        [out] = maximize_one(model, x, cfg, origin_id=7)
        # reproduce phi_0 from the same per-sample stream
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
        phi0 = rng.uniform(-PHI_INIT_SCALE, PHI_INIT_SCALE, size=x.length)
        want = warp_apply(x, make_path(Tensor(phi0), cfg.phi_max), cfg.m_window)
        np.testing.assert_array_equal(out.series.values.data, want.values.data)

    def test_seeds_apart_by_2_to_the_32_start_from_different_phi(self):
        model, x = Classifier(1, 3, seed=0), toy_sample(1)
        first, second = (maximize_one(model, x, toy_cfg(t_max=1, eta=0.0, seed=seed))[0]
                         for seed in (0, 2**32))
        assert not np.array_equal(first.path, second.path)

    def test_label_and_length_preserved(self):
        model = Classifier(1, 3, seed=0)
        x = toy_sample(2, label=2)
        [out] = maximize_one(model, x, toy_cfg(), origin_id=0)
        assert out.series.label == 2
        assert out.series.length == x.length
        assert out.mode == "tada"

    def test_paths_admissible_over_many_runs(self):
        model = Classifier(1, 3, seed=1)
        cfg = toy_cfg(t_max=4, eta=5.0)  # large step to stress the constraints
        for origin in range(200):
            x = toy_sample(origin + 100, n=32)
            [out] = maximize_one(model, x, cfg, origin_id=origin)
            v = path_violations(out.path, cfg.phi_max)
            assert v["monotone"] < 1e-9
            assert v["boundary"] < 1e-9
            assert v["bound"] < 1e-9

    def test_deterministic(self):
        model = Classifier(1, 3, seed=2)
        x = toy_sample(3)
        [a] = maximize_one(model, x, toy_cfg(), origin_id=5)
        [b] = maximize_one(model, x, toy_cfg(), origin_id=5)
        np.testing.assert_array_equal(a.series.values.data, b.series.values.data)
        assert a.objective == b.objective

    def test_source_not_mutated(self):
        model = Classifier(1, 3, seed=3)
        x = toy_sample(4)
        before = x.values.data.copy()
        maximize_one(model, x, toy_cfg(eta=3.0), origin_id=0)
        np.testing.assert_array_equal(x.values.data, before)

    def test_objective_mostly_improves(self):
        # plain fixed-step ascent can overshoot, so require only that the
        # final objective beats the starting one in most runs; random-noise
        # inputs on an untrained model are the hard case (the benchmark-data
        # version of this check lives with the training tests)
        model = Classifier(1, 3, seed=4)
        cfg = toy_cfg(t_max=5, eta=1.0, seed=0)
        zero_step = toy_cfg(t_max=1, eta=0.0, seed=0)
        wins = 0
        runs = 50
        for origin in range(runs):
            x = toy_sample(origin + 500, n=48, label=origin % 3)
            [first] = maximize_one(model, x, zero_step, origin_id=origin)
            [last] = maximize_one(model, x, cfg, origin_id=origin)
            if last.objective >= first.objective - 1e-9:
                wins += 1
        assert wins >= 0.75 * runs


def _traced_peak(fn) -> int:
    """tracemalloc's peak, in bytes, of one call of fn after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peaks under tracemalloc depend on numpy's own temporaries; the bounds
# were measured with numpy 2.4.6 and hold for that version only.
measured_numpy = pytest.mark.skipif(np.__version__ != "2.4.6",
                                    reason="tracemalloc bounds measured with numpy 2.4.6")


@measured_numpy
class TestWorkingSet:
    # Bounds a few percent above the peaks: the tape keeps no op output and
    # each rule only what it reads (relu a mask), backward frees each node's
    # saved state as it passes it, and the warp node runs in row blocks,
    # keeping no values and, for the path's rule, one (B, C, N) factor.  A
    # tada chunk peaks at 1.63 MiB, an ada chunk at 1.49, a composed
    # tada_plus chunk at 1.66 and the SGD half at 1.53.
    def test_ascent_chunk_and_sgd_half_peaks(self):
        source, _ = synth_generate(default_spec(0))
        model = Classifier(1, 3, 0)
        cfg = AdvConfig(mode="tada", seed=0)
        chunk = source.samples[:adversarial.ASCENT_CHUNK]
        assert len(chunk) == 32
        ascent = _traced_peak(lambda: adversarial._ascend(model, chunk, cfg,
                                                          list(range(32)), "tada"))
        assert ascent < 1.7 * 2 ** 20
        half = _traced_peak(lambda: training._half_gradient(model, source.samples[:16], 1 / 32))
        assert half < 1.6 * 2 ** 20

    @pytest.mark.parametrize("family, bound", [("ada", 1.6), ("tada_plus", 1.75)])
    def test_ada_and_composed_chunk_peaks(self, family, bound):
        source, _ = synth_generate(default_spec(0))
        model = Classifier(1, 3, 0)
        cfg = AdvConfig(mode=family, combine="composed", seed=0)
        chunk = source.samples[:adversarial.ASCENT_CHUNK]
        ascent = _traced_peak(lambda: adversarial._ascend(model, chunk, cfg,
                                                          list(range(32)), family))
        assert ascent < bound * 2 ** 20


class TestAdaMaximize:
    def test_zero_eta_returns_input(self):
        model = Classifier(1, 3, seed=5)
        x = toy_sample(6)
        [out] = maximize_one(model, x, toy_cfg(mode="ada", eta_ada=0.0), origin_id=0)
        np.testing.assert_array_equal(out.series.values.data, x.values.data)
        assert out.path is None

    def test_single_step_closed_form(self):
        model = Classifier(1, 3, seed=6)
        x = toy_sample(7)
        cfg = toy_cfg(mode="ada", t_max=1, eta_ada=50.0, gamma=2.0)
        [out] = maximize_one(model, x, cfg, origin_id=0)

        # manual gradient of J at the unperturbed input
        z0, _ = forward(model, x)
        z_ref = Tensor(z0.data.copy())
        probe = Tensor(x.values.data.copy(), requires_grad=True)
        with Tape() as tape:
            z, logits = forward(model, probe)
            j = loss_ce(logits, x.label) - semantic_distance(z, z_ref) * cfg.gamma
            tape.backward(j)
        want = x.values.data + cfg.eta_ada * probe.grad
        np.testing.assert_allclose(out.series.values.data, want, atol=1e-12)

    def test_gamma_shrinks_perturbation(self):
        model = Classifier(1, 3, seed=7)
        x = toy_sample(8)
        norms = []
        for gamma in (0.1, 1.0, 10.0):
            # step small enough that the quadratic penalty cannot destabilize
            # the iteration at gamma=10
            cfg = toy_cfg(mode="ada", t_max=5, eta_ada=0.05, gamma=gamma, seed=1)
            [out] = maximize_one(model, x, cfg, origin_id=0)
            norms.append(np.linalg.norm(out.series.values.data - x.values.data))
        assert norms[0] > norms[1] > norms[2]


class TestTadaPlus:
    def test_union_returns_two_labeled_samples(self):
        model = Classifier(1, 3, seed=8)
        x = toy_sample(9, label=2)
        outs = maximize_one(model, x, toy_cfg(mode="tada_plus"), origin_id=0)
        assert len(outs) == 2
        assert all(s.series.label == 2 for s in outs)
        assert {s.mode for s in outs} == {"ada", "tada"}

    def test_union_samples_differ_structurally(self):
        model = Classifier(1, 3, seed=9)
        x = toy_sample(10)
        cfg = toy_cfg(mode="tada_plus", t_max=4, eta=2.0, eta_ada=20.0)
        amp, warp = maximize_one(model, x, cfg, origin_id=0)
        assert amp.path is None  # additive sample carries no warp
        assert warp.path is not None and np.max(np.abs(warp.path)) > 0.0

    def test_composed_zero_steps_near_identity(self):
        model = Classifier(1, 3, seed=10)
        x = toy_sample(11)
        cfg = toy_cfg(mode="tada_plus", combine="composed", t_max=1, eta=0.0, eta_ada=0.0)
        (out,) = maximize_one(model, x, cfg, origin_id=3)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
        phi0 = rng.uniform(-PHI_INIT_SCALE, PHI_INIT_SCALE, size=x.length)
        want = warp_apply(x, make_path(Tensor(phi0), cfg.phi_max), cfg.m_window)
        np.testing.assert_array_equal(out.series.values.data, want.values.data)


class TestDispatch:
    def test_counts_by_mode(self):
        model = Classifier(1, 3, seed=11)
        x = toy_sample(12)
        assert len(maximize_one(model, x, toy_cfg(mode="ada"))) == 1
        assert len(maximize_one(model, x, toy_cfg(mode="tada"))) == 1
        assert len(maximize_one(model, x, toy_cfg(mode="tada_plus"))) == 2

    def test_nonfinite_objective_names_its_origin(self):
        # ops let the inf through, so the per-origin objective check is
        # what catches it
        model = Classifier(1, 3, seed=12)
        xs = [toy_sample(20), TimeSeries(Tensor(np.full(64, np.inf)), label=0),
              toy_sample(22)]
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="iteration 0 for origin 41"):
            maximize_many(model, xs, toy_cfg(mode="tada"), [40, 41, 42])

    @pytest.mark.parametrize("mode", ["ada", "tada"])
    def test_origin_ids_of_wrong_length_rejected_before_ascent(self, mode, monkeypatch):
        def no_ascent(*args):
            raise AssertionError("ascent started")

        monkeypatch.setattr(adversarial, "_ascend", no_ascent)
        xs = [toy_sample(s) for s in range(3)]
        with pytest.raises(ValueError, match="^2 origin_ids for 3 series in xs$"):
            maximize_many(Classifier(1, 3, seed=13), xs, toy_cfg(mode=mode), [0, 1])

    def test_no_origins_no_samples(self):
        assert maximize_many(Classifier(1, 3, seed=12), [], toy_cfg()) == []

    def test_erm_mode_rejected(self):
        model = Classifier(1, 3, seed=12)
        with pytest.raises(ValueError, match="erm"):
            maximize_one(model, toy_sample(13), toy_cfg(mode="erm"))


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the block takes longer than seconds.
    pytest.fail raises no OSError, which a wait for a child would swallow."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def processes_of(monkeypatch, site):
    """Wrap procs.map_chunks; returns the list that receives the process
    count of every call made under the name ``site``, forked or not."""
    counts, real = [], procs.map_chunks

    def counted(run_chunk, chunks, processes, name, what):
        if name == site:
            counts.append(processes)
        return real(run_chunk, chunks, processes, name, what)

    monkeypatch.setattr(procs, "map_chunks", counted)
    return counts


def force_workers(monkeypatch, workers):
    """Share the chunks between ``workers`` processes whatever the host's
    CPU count; returns the list of process counts of the ascent calls."""
    monkeypatch.setattr(procs, "fork_cpus", lambda: workers)
    return processes_of(monkeypatch, "ascent worker")


def serial_samples(monkeypatch, *args):
    """maximize_many(*args) in this process alone."""
    with monkeypatch.context() as serial:
        force_workers(serial, 1)
        return maximize_many(*args)


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.origin_id, a.mode, a.series.label) == (b.origin_id, b.mode, b.series.label)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.series.values.data, b.series.values.data)
        assert (a.path is None) == (b.path is None)
        if a.path is not None:
            np.testing.assert_array_equal(a.path, b.path)


GENERATING = [dict(mode="ada"), dict(mode="tada"), dict(mode="tada_plus", combine="union"),
              dict(mode="tada_plus", combine="composed")]

# what makes maximize_many stay serial, each applied through a monkeypatch
FALLBACKS = {
    "one_cpu": lambda patch: patch.setattr(os, "sched_getaffinity", lambda pid: {0}),
    "no_fork": lambda patch: patch.delattr(os, "fork"),
    "live_thread": lambda patch: patch.setattr(threading, "active_count", lambda: 2),
}


def no_process(*args, **kwargs):
    raise AssertionError("a process was started")


def assert_no_children():
    """No child of this process remains, running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedShares:
    # 13 origins in chunks of 3 make 5 chunks, the last of one origin
    N_ORIGINS, CHUNK = 13, 3

    def origins(self):
        xs = [toy_sample(100 + i, n=32, label=i % 3) for i in range(self.N_ORIGINS)]
        return xs, [7 * i + 1 for i in range(self.N_ORIGINS)]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("kw", GENERATING,
                             ids=["ada", "tada", "tada_plus-union", "tada_plus-composed"])
    def test_bitwise_equal_to_serial(self, kw, workers, monkeypatch):
        monkeypatch.setattr(adversarial, "ASCENT_CHUNK", self.CHUNK)
        model, (xs, ids), cfg = Classifier(1, 3, seed=14), self.origins(), toy_cfg(**kw)
        want = serial_samples(monkeypatch, model, xs, cfg, ids)
        forked = force_workers(monkeypatch, workers)
        with deadline(60):
            got = maximize_many(model, xs, cfg, ids)
        assert forked == [workers]
        assert_same_samples(got, want)
        assert_no_children()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kw", [GENERATING[0], GENERATING[1], GENERATING[3]],
                             ids=["ada", "tada", "tada_plus-composed"])
    def test_ascent_never_writes_the_model(self, kw, workers, monkeypatch):
        # maximize_phase ascends the model it is given, with no snapshot of it
        monkeypatch.setattr(adversarial, "ASCENT_CHUNK", self.CHUNK)
        model, (xs, ids), cfg = Classifier(1, 3, seed=14), self.origins(), toy_cfg(**kw)
        arrays = dict(model.weights)
        saved = {name: w.tobytes() for name, w in arrays.items()}
        forked = force_workers(monkeypatch, workers)
        with deadline(60):
            maximize_many(model, xs, cfg, ids)
            training.maximize_phase(model, training.Dataset(xs, 3), cfg)
        assert forked == [workers] * 2
        assert list(model.weights) == list(arrays)
        for name, w in arrays.items():
            assert model.weights[name] is w and w.tobytes() == saved[name]
        assert_no_children()

    def test_share_larger_than_a_pipe_buffer(self, monkeypatch):
        # the child's 8 samples of 2048 values pickle to over 128 KiB, twice
        # a Linux pipe buffer: joining the child before reading would hang
        monkeypatch.setattr(adversarial, "ASCENT_CHUNK", 8)  # 16 origins, one chunk each side
        model, cfg = Classifier(1, 3, seed=17), toy_cfg(mode="ada", t_max=1)
        xs = [toy_sample(200 + i, n=2048) for i in range(16)]
        want = serial_samples(monkeypatch, model, xs, cfg)
        forked = force_workers(monkeypatch, 2)
        with deadline(60):
            got = maximize_many(model, xs, cfg)
        assert forked == [2]
        assert_same_samples(got, want)
        assert_no_children()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_earliest_failing_origin_raised_as_serial(self, workers, monkeypatch):
        # origin 41 fails in a child's chunk, origin 42 in a later chunk
        # (the parent's with 2 workers, another child's with 3)
        monkeypatch.setattr(adversarial, "ASCENT_CHUNK", 1)
        model = Classifier(1, 3, seed=12)
        bad = TimeSeries(Tensor(np.full(64, np.inf)), label=0)
        xs, ids = [toy_sample(20), bad, bad, toy_sample(23)], [40, 41, 42, 43]
        errors = []
        for w in (1, workers):
            forked = force_workers(monkeypatch, w)
            with np.errstate(invalid="ignore"), deadline(60), \
                    pytest.raises(ValueError, match="iteration 0 for origin 41$") as err:
                maximize_many(model, xs, toy_cfg(mode="tada"), ids)
            errors.append(str(err.value))
            assert forked == [w]
            assert_no_children()
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_dead_child_raises_naming_exit_code(self, workers, monkeypatch):
        # the child with chunk 1 dies; with 3 workers the other child is
        # still ascending when the parent gives up, and must be killed
        xs, ids = self.origins()
        parent, real = os.getpid(), adversarial._ascend

        def dying(model, chunk, cfg, chunk_ids, family):
            if os.getpid() != parent:
                if chunk_ids[0] == ids[self.CHUNK]:
                    os._exit(3)
                time.sleep(600)
            return real(model, chunk, cfg, chunk_ids, family)

        monkeypatch.setattr(adversarial, "ASCENT_CHUNK", self.CHUNK)
        monkeypatch.setattr(adversarial, "_ascend", dying)
        force_workers(monkeypatch, workers)
        with deadline(60), pytest.raises(RuntimeError, match="exited with code 3 "):
            maximize_many(Classifier(1, 3, seed=15), xs, toy_cfg(), ids)
        assert_no_children()

    @pytest.mark.parametrize("fallback", list(FALLBACKS))
    def test_fallback_starts_no_process(self, fallback, monkeypatch):
        monkeypatch.setattr(adversarial, "ASCENT_CHUNK", self.CHUNK)
        model, (xs, ids), cfg = Classifier(1, 3, seed=16), self.origins(), toy_cfg()
        want = serial_samples(monkeypatch, model, xs, cfg, ids)
        monkeypatch.setattr(os, "fork", no_process)
        FALLBACKS[fallback](monkeypatch)
        assert_same_samples(maximize_many(model, xs, cfg, ids), want)

    def test_fork_cpus_counts_the_usable_cpus(self, monkeypatch):
        # the CPU count behind procs.workers; the ascent asks no BLAS condition
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert procs.fork_cpus() == 3
        assert procs.workers(2, 2, adversarial.MAX_ASCENT_WORKERS, one_blas_thread=False) == 2
        for fallback in FALLBACKS.values():
            with monkeypatch.context() as patch:
                fallback(patch)
                assert procs.fork_cpus() == 1
                assert procs.workers(5, 2, adversarial.MAX_ASCENT_WORKERS,
                                     one_blas_thread=False) == 1


@pytest.mark.parametrize("workers", [2, 3])
def test_map_chunks_inside_a_share_runs_where_it_is_called(workers):
    # each chunk of a shared call makes a call of its own that asks for two
    # processes: that call runs in the share's process, in this one or a
    # child, and the flag is down again once the shared call returns
    def inner(chunk):
        return chunk, os.getpid()

    def outer(chunk):
        return os.getpid(), procs.map_chunks(inner, [chunk, chunk + 1], 2, "inner", "x")

    with deadline(60):
        done = procs.map_chunks(outer, list(range(5)), workers, "outer", "x")
    assert [[k for k, _ in inner_done] for _, inner_done in done] == [[k, k + 1]
                                                                      for k in range(5)]
    assert all({pid for _, pid in inner_done} == {pid} for pid, inner_done in done)
    assert len({pid for pid, _ in done}) == workers and done[0][0] == os.getpid()
    assert not procs._in_share
    assert_no_children()


class _EndsItsPickler:
    """Ends the process that pickles it, with exit code 5."""

    def __reduce__(self):
        os._exit(5)


@pytest.mark.parametrize("sent", [0, 1 << 18], ids=["nothing_sent", "cut_mid_stream"])
def test_share_cut_short_mid_pickle_raises_exit_code(sent):
    # the child dies while it pickles its share, after 0 or 256 KiB of it:
    # the parent, unpickling the stream as it arrives, reaps the child and
    # raises the one exit-code error, not the unpickler's own
    def run_chunk(k):
        return [b"x" * sent, _EndsItsPickler()] if k else []

    with deadline(60), pytest.raises(RuntimeError, match=r"^test worker \d+ exited with "
                                     r"code 5 before sending its rows$"):
        procs.map_chunks(run_chunk, [0, 1], 2, "test worker", "rows")
    assert_no_children()


@pytest.mark.parametrize("error", [SystemExit(0), KeyboardInterrupt()],
                         ids=["SystemExit", "KeyboardInterrupt"])
def test_child_that_raises_exits_1_and_never_returns(tmp_path, error):
    # whatever the target raises, the child ends in os._exit(1) and never
    # runs the code after the with block; the marker names every process
    # that does
    parent, marker = os.getpid(), tmp_path / "marker"

    def target(rx, tx):
        raise error

    try:
        with deadline(60), pytest.raises(RuntimeError) as err:
            with procs.Child(target, "test child", "reply") as child:
                if not os.read(child.rx, 1):
                    child.fail()
    finally:
        with open(marker, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != parent:  # a child that came back: stop it here
            os._exit(0)
    assert str(err.value) == f"test child {child.pid} exited with code 1 before sending its reply"
    assert marker.read_text(encoding="utf-8") == f"{parent}\n"
    assert_no_children()
