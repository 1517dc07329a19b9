import dataclasses
import gc
import os
import re
import resource
import types
import warnings
import weakref

import numpy as np
import pytest

from warpada import adversarial, procs, training
from warpada.adversarial import AdvConfig
from warpada.data import default_spec, synth_generate
from warpada.model import Classifier, forward, loss_ce
from warpada.signal import TimeSeries
from warpada.tensor import Tape, Tensor
from test_adversarial import FALLBACKS, assert_no_children, deadline, no_process, processes_of
from warpada.training import (
    Dataset,
    TrainReport,
    evaluate,
    export_features,
    macro_f1,
    maximize_phase,
    minimize_phase,
    predict,
    run,
)


def toy_dataset(n_per_class=12, length=48, seed=0, domain_tag="source"):
    """Two well-separated sinusoid classes, mild noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(length) / length
    samples = []
    for label, freq in ((0, 3.0), (1, 9.0)):
        for _ in range(n_per_class):
            row = np.sin(2 * np.pi * freq * t) + 0.05 * rng.normal(size=length)
            samples.append(TimeSeries(Tensor(row), label=label, domain_tag=domain_tag))
    return Dataset(samples, n_classes=2)


def small_cfg(**kw):
    base = dict(t_max=3, t_min=3, k_rounds=1, t_final=2, m_window=6,
                phi_max=4.0, batch=8, lr=0.05, seed=0)
    base.update(kw)
    return AdvConfig(**base)


class TestDataset:
    def test_rejects_mixed_lengths(self):
        a = TimeSeries(Tensor(np.zeros(8)), label=0)
        b = TimeSeries(Tensor(np.zeros(9)), label=0)
        with pytest.raises(ValueError, match="shape"):
            Dataset([a, b], n_classes=2)

    def test_rejects_out_of_range_label(self):
        a = TimeSeries(Tensor(np.zeros(8)), label=5)
        with pytest.raises(ValueError, match="label"):
            Dataset([a], n_classes=2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            Dataset([], n_classes=2)

    @pytest.mark.parametrize("n_classes", [1, 0])
    def test_rejects_fewer_than_two_classes(self, n_classes):
        # a one-class dataset would save as a manifest that cannot be loaded
        a = TimeSeries(Tensor(np.zeros(8)), label=0)
        with pytest.raises(ValueError, match=f"two or more classes, got n_classes={n_classes}$"):
            Dataset([a], n_classes=n_classes)

    def test_extended_leaves_original_alone(self):
        ds = toy_dataset(n_per_class=2)
        first = ds.samples[0]
        extra = [TimeSeries(Tensor(first.values.data.copy()), first.label, first.domain_tag)]
        bigger = ds.extended(extra)
        assert len(bigger) == len(ds) + 1
        assert len(ds) == 4


class TestMinimize:
    def test_loss_decreases_on_separable_data(self):
        ds = toy_dataset()
        model = Classifier(1, 2, seed=0)
        rng = np.random.default_rng(0)
        model, losses = minimize_phase(model, ds, t_min=40, lr=0.1,
                                       batch=16, rng=rng)
        assert len(losses) == 40
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_deterministic_given_rng_seed(self):
        ds = toy_dataset()
        runs = []
        for _ in range(2):
            model = Classifier(1, 2, seed=3)
            rng = np.random.default_rng(11)
            model, losses = minimize_phase(model, ds, t_min=5, lr=0.1,
                                           batch=8, rng=rng)
            runs.append((losses, {k: v.copy() for k, v in model.weights.items()}))
        assert runs[0][0] == runs[1][0]
        for k in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][k], runs[1][1][k])

    def test_nonfinite_loss_names_its_step(self):
        ds = toy_dataset()
        bad = 5
        ds.samples[bad] = TimeSeries(Tensor(np.full(48, np.inf)), label=0)
        replay = np.random.default_rng(7)
        step = next(k for k in range(100)
                    if bad in replay.integers(0, len(ds), size=4))
        assert step > 0  # the steps before it ran on finite data
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(ValueError, match=f"non-finite at SGD step {step}$"):
            minimize_phase(Classifier(1, 2, seed=0), ds, t_min=100, lr=0.1,
                           batch=4, rng=np.random.default_rng(7))


class TestRunErrors:
    @pytest.mark.parametrize("mode, stage", [("tada", "round 1"), ("erm", "final epoch 1")])
    def test_nonfinite_loss_names_round_or_final_epoch(self, mode, stage):
        # every sample non-finite, so the first step of the first stage fails
        ds = toy_dataset(n_per_class=4)
        for sample in ds.samples:
            sample.values.data[:] = np.inf
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(ValueError, match=f"^{stage}: minibatch loss became "
                                                "non-finite at SGD step 0$"):
            run(ds, small_cfg(mode=mode))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_update_is_not_applied(self):
        # lr = 1e300 makes the first update huge but finite; the next
        # forward overflows.  The error comes without a numpy warning and
        # leaves the model at its last finite weights.
        model = Classifier(1, 2, seed=0)
        with pytest.raises(ValueError, match="^round 1: minibatch loss became "
                                             r"non-finite at SGD step \d+$"):
            run(toy_dataset(n_per_class=4), small_cfg(lr=1e300), model_init=model)
        assert all(np.all(np.isfinite(w)) for w in model.weights.values())


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def fake_libc(result):
    """A libc handle whose mallopt records its calls and returns ``result``."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return result
    return types.SimpleNamespace(mallopt=mallopt), calls


class TestHeapPolicy:
    def test_second_call_makes_no_mallopt_call(self, monkeypatch):
        libc, calls = fake_libc(1)
        monkeypatch.setattr(procs, "_heap_policy_set", False)
        monkeypatch.setattr(procs, "_libc", lambda: libc)
        procs._keep_freed_memory()
        assert calls == [(procs._M_MMAP_THRESHOLD, 32 << 20),
                         (procs._M_TRIM_THRESHOLD, 64 << 20)]
        procs._keep_freed_memory()
        assert len(calls) == 2

    def test_refused_mmap_threshold_leaves_trim_alone(self, monkeypatch):
        # a trim threshold alone fixes the mmap threshold at 128 KiB, which
        # faults more than glibc's default policy
        libc, calls = fake_libc(0)
        monkeypatch.setattr(procs, "_heap_policy_set", False)
        monkeypatch.setattr(procs, "_libc", lambda: libc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            procs._keep_freed_memory()
        assert calls == [(procs._M_MMAP_THRESHOLD, 32 << 20)]

    @pytest.mark.parametrize("handle", ["no_mallopt", "no_libc"])
    def test_missing_mallopt_is_a_silent_no_op(self, monkeypatch, handle):
        def no_libc():
            raise OSError("no C library")
        monkeypatch.setattr(procs, "_heap_policy_set", False)
        monkeypatch.setattr(procs, "_libc", {"no_mallopt": lambda: types.SimpleNamespace(),
                                                "no_libc": no_libc}[handle])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            procs._keep_freed_memory()
        assert procs._heap_policy_set

    def test_run_sets_the_policy(self, monkeypatch):
        calls = []
        monkeypatch.setattr(procs, "_keep_freed_memory", lambda: calls.append(1))
        run(toy_dataset(n_per_class=4), small_cfg(mode="erm"))
        assert calls == [1]

    @pytest.mark.parametrize("entry", ["maximize_phase", "maximize_many", "maximize_one"])
    def test_ascent_sets_the_policy(self, monkeypatch, entry):
        # `warpada augment` ascends through maximize_phase without run(), and
        # criterion 7 through maximize_one
        calls = []
        monkeypatch.setattr(procs, "_keep_freed_memory", lambda: calls.append(1))
        model, ds, cfg = Classifier(1, 2, seed=0), toy_dataset(n_per_class=2), small_cfg()
        if entry == "maximize_phase":
            maximize_phase(model, ds, cfg)
        elif entry == "maximize_many":
            adversarial.maximize_many(model, ds.samples, cfg)
        else:
            adversarial.maximize_one(model, ds.samples[0], cfg)
        assert calls == [1]

    @pytest.mark.skipif(not _on_glibc(), reason="mallopt policy is set on glibc only")
    def test_sgd_steps_reuse_the_heap(self):
        # with glibc's default policy a batch-32 step on the default spec
        # takes ~940 minor faults, refaulting the buffers its predecessor freed
        procs._keep_freed_memory()
        source, _ = synth_generate(default_spec(0))
        model = Classifier(source.channels, source.n_classes, seed=0)
        rng = np.random.default_rng(0)

        def step():
            idx = rng.integers(0, len(source), size=32)
            training._sgd_step(model, [source.samples[i] for i in idx], 0.01)
        for _ in range(3):
            step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 20 * 50


class TestBatchedStep:
    def test_gradient_equals_summed_per_sample_gradients(self):
        ds = toy_dataset(n_per_class=8)
        batch = ds.samples[3:13]
        model = Classifier(1, 2, seed=4)
        params = model.tensors(requires_grad=True)
        with Tape() as tape:
            total = None
            for s in batch:
                _, logits = forward(model, s, params)
                ce = loss_ce(logits, s.label)
                total = ce if total is None else total + ce
            tape.backward(total * (1.0 / len(batch)))
        lr = 0.05
        stepped = Classifier(1, 2, seed=4)  # the same weights as model
        training._sgd_step(stepped, batch, lr)
        for name, p in params.items():
            # the step is w - lr * grad; recover the batched gradient from it
            batched = (model.weights[name] - stepped.weights[name]) / lr
            np.testing.assert_allclose(batched, p.grad, rtol=0, atol=1e-12)

    def test_node_count_independent_of_batch_size(self, monkeypatch):
        counts = []

        class CountingTape(Tape):
            def backward(self, root):
                counts.append(len(self.nodes))
                return super().backward(root)

        monkeypatch.setattr(training, "Tape", CountingTape)
        ds = toy_dataset(n_per_class=16)
        model = Classifier(1, 2, seed=0)
        training._sgd_step(model, ds.samples[:1], 0.05)
        one = list(counts)
        training._sgd_step(model, ds.samples[:32], 0.05)
        # one tape per half, each with eight forward nodes, the loss, its
        # sum and the 1/B scale; a batch of one is a single half
        assert one == [11]
        assert counts == [11, 11, 11]


def weights_of(model):
    return {name: w.copy() for name, w in model.weights.items()}


def assert_same_weights(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


def partnered(monkeypatch, on: bool):
    """Force the SGD partner on for every call, whatever its length and the
    CPU count, or off; returns the batch sizes of the partners started."""
    served = []
    real = training._Partner

    def counted(model, samples, batch):
        served.append(batch)
        return real(model, samples, batch)

    monkeypatch.setattr(procs, "fork_cpus", lambda: 2 if on else 1)
    monkeypatch.setattr(procs, "_one_blas_thread", lambda: True)
    monkeypatch.setattr(training, "PARTNER_MIN_STEPS", 1)
    monkeypatch.setattr(training, "_Partner", counted)
    return served


def serial_and_partnered(monkeypatch, call):
    """call() once in this process alone and once with the partner forced
    on; returns both results and the partners' batch sizes."""
    results = []
    for on in (False, True):
        with monkeypatch.context() as patch:
            served = partnered(patch, on)
            with deadline(120):
                results.append(call())
        assert_no_children()
    return results, served


def forced_inference(monkeypatch, on: bool):
    """Force the inference worker on for every inference call of two chunks
    or more, whatever the CPU count and the BLAS variables, or off; returns
    the process counts the calls shared their chunks between."""
    monkeypatch.setattr(procs, "fork_cpus", lambda: 2 if on else 1)
    monkeypatch.setattr(procs, "_one_blas_thread", lambda: True)
    monkeypatch.setattr(training, "INFERENCE_MIN_CHUNKS", 2)
    return processes_of(monkeypatch, "inference worker")


class TestSgdPartner:
    @pytest.mark.parametrize("batch, n_per_class", [(1, 12), (2, 12), (5, 12), (32, 20),
                                                    (32, 3)],
                             ids=["batch1", "batch2", "batch5", "batch32", "smaller-dataset"])
    def test_bitwise_equal_to_serial(self, monkeypatch, batch, n_per_class):
        ds = toy_dataset(n_per_class=n_per_class)

        def call():
            model, losses = minimize_phase(Classifier(1, 2, seed=5), ds, t_min=40, lr=0.1,
                                           batch=batch, rng=np.random.default_rng(3))
            return losses, weights_of(model)

        (serial, forked), served = serial_and_partnered(monkeypatch, call)
        # a batch of one has no second half, so no partner starts
        assert served == ([] if batch == 1 else [min(batch, len(ds))])
        assert serial[0] == forked[0]
        assert_same_weights(serial[1], forked[1])

    @pytest.mark.parametrize("kw", [dict(mode="erm"), dict(mode="ada"), dict(mode="tada"),
                                    dict(mode="tada_plus", combine="union"),
                                    dict(mode="tada_plus", combine="composed")],
                             ids=["erm", "ada", "tada", "tada_plus-union", "tada_plus-composed"])
    def test_run_reports_equal(self, monkeypatch, kw):
        ds = toy_dataset(n_per_class=6)
        cfg = small_cfg(**kw)

        def call():
            model, report = run(ds, cfg)
            return report.identity(), weights_of(model)

        (serial, forked), served = serial_and_partnered(monkeypatch, call)
        # one partner per round's fit and one for the whole final stretch
        rounds = 0 if cfg.mode == "erm" else cfg.k_rounds
        assert served == [cfg.batch] * (rounds + 1)
        assert serial[0] == forked[0]
        assert_same_weights(serial[1], forked[1])

    def test_one_step_calls_reproduce_run(self, monkeypatch):
        # how perfbench/tracing.py replays run(): one call, and a span, per
        # step, each call in this process
        ds, cfg = toy_dataset(n_per_class=6), small_cfg(mode="erm")
        served = partnered(monkeypatch, True)
        monkeypatch.setattr(training, "PARTNER_MIN_STEPS", 2)
        with deadline(60):
            _, report = run(ds, cfg)
        assert served == [cfg.batch]
        model = Classifier(1, 2, seed=cfg.seed)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5D]))
        per_epoch = -(-len(ds) // cfg.batch)
        replayed = [float(np.mean([minimize_phase(model, ds, 1, cfg.lr, cfg.batch, rng)[1][0]
                                   for _ in range(per_epoch)]))
                    for _ in range(cfg.t_final)]
        assert replayed == report.final_losses
        assert served == [cfg.batch]

    def test_short_call_stays_in_process(self, monkeypatch):
        served = partnered(monkeypatch, True)
        monkeypatch.setattr(training, "PARTNER_MIN_STEPS", 8)
        minimize_phase(Classifier(1, 2, seed=0), toy_dataset(), t_min=7, lr=0.1, batch=8,
                       rng=np.random.default_rng(0))
        assert served == []

    def test_partner_freed_when_its_call_returns(self, monkeypatch):
        # nothing but the call holds the partner, so its shared mmap goes by
        # reference counting, without waiting for the cycle collector
        partnered(monkeypatch, True)
        real, partners = training._Partner, []

        def tracked(*args):
            partners.append(real(*args))
            return partners[-1]

        monkeypatch.setattr(training, "_Partner", tracked)
        gc.disable()
        try:
            with deadline(60):
                minimize_phase(Classifier(1, 2, seed=0), toy_dataset(), t_min=10, lr=0.1,
                               batch=8, rng=np.random.default_rng(0))
            freed = weakref.ref(partners.pop())
            assert freed() is None
        finally:
            gc.enable()
        assert_no_children()

    @pytest.mark.parametrize("fallback", list(FALLBACKS) + ["blas_threads"])
    def test_fallback_starts_no_process(self, fallback, monkeypatch):
        ds = toy_dataset()

        def call():
            model, losses = minimize_phase(Classifier(1, 2, seed=6), ds, t_min=10, lr=0.1,
                                           batch=8, rng=np.random.default_rng(4))
            return losses, weights_of(model)

        with monkeypatch.context() as serial:
            partnered(serial, False)
            want = call()

        monkeypatch.setattr(training, "PARTNER_MIN_STEPS", 1)
        monkeypatch.setattr(os, "fork", no_process)
        if fallback in FALLBACKS:
            FALLBACKS[fallback](monkeypatch)
            assert procs.fork_cpus() == 1
        else:  # two usable CPUs, but BLAS may run a thread per CPU
            monkeypatch.setattr(procs, "fork_cpus", lambda: 2)
            monkeypatch.setattr(procs, "_one_blas_thread", lambda: False)
        got = call()
        assert got[0] == want[0]
        assert_same_weights(got[1], want[1])

    @pytest.mark.parametrize("values, one", [({}, False), ({"OPENBLAS_NUM_THREADS": "1"}, True),
                                             ({"OMP_NUM_THREADS": " 1 "}, True),
                                             ({"OPENBLAS_NUM_THREADS": "1",
                                               "OMP_NUM_THREADS": "2"}, False),
                                             ({"MKL_NUM_THREADS": "4"}, False)])
    def test_one_blas_thread_reads_every_thread_variable(self, monkeypatch, values, one):
        for name in procs.BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in values.items():
            monkeypatch.setenv(name, value)
        assert procs._one_blas_thread() is one

    def test_dead_partner_raises_naming_pid_and_exit_code(self, monkeypatch):
        parent, real = os.getpid(), training._half_gradient
        calls = []

        def dying(model, samples, scale):
            if os.getpid() != parent:
                calls.append(1)
                if len(calls) == 3:
                    os._exit(3)
            return real(model, samples, scale)

        monkeypatch.setattr(training, "_half_gradient", dying)
        partnered(monkeypatch, True)
        with deadline(60), pytest.raises(RuntimeError) as err:
            minimize_phase(Classifier(1, 2, seed=0), toy_dataset(), t_min=10, lr=0.1,
                           batch=8, rng=np.random.default_rng(0))
        found = re.fullmatch(r"SGD partner (\d+) exited with code 3 before sending "
                             r"its gradients", str(err.value))
        assert found and int(found[1]) != parent
        assert_no_children()

    def test_nonfinite_loss_in_the_second_half_names_its_step(self, monkeypatch):
        # TestMinimize's case, with the bad sample first drawn into the half
        # the partner computes
        ds = toy_dataset()
        replay = np.random.default_rng(7)
        drawn = [replay.integers(0, len(ds), size=4).tolist() for _ in range(100)]
        step, bad = next((k, d[3]) for k, d in enumerate(drawn)
                         if k > 0 and d[3] not in d[:2] and all(d[3] not in e for e in drawn[:k]))
        ds.samples[bad] = TimeSeries(Tensor(np.full(48, np.inf)), label=0)
        served = partnered(monkeypatch, True)
        with np.errstate(invalid="ignore", over="ignore"), deadline(60), \
                pytest.raises(ValueError, match=f"^minibatch loss became non-finite at "
                                                f"SGD step {step}$"):
            minimize_phase(Classifier(1, 2, seed=0), ds, t_min=100, lr=0.1,
                           batch=4, rng=np.random.default_rng(7))
        assert served == [4]
        assert_no_children()

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "partner"])
    @pytest.mark.parametrize("batch, stage",
                             [(6, "final epoch 1: minibatch loss became non-finite at SGD step 1"),
                              (64, "final epoch 2: minibatch loss became non-finite at SGD step 0")],
                             ids=["two-steps-per-epoch", "one-step-per-epoch"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_final_stretch_names_epoch_and_step(self, monkeypatch, on, batch, stage):
        # lr = 1e300 makes the first update huge but finite and the second
        # step's loss non-finite; the final stretch is one call, so its
        # global step 1 is mapped back to the epoch and the step within it
        partnered(monkeypatch, on)
        model = Classifier(1, 2, seed=0)
        with deadline(60), pytest.raises(ValueError, match=f"^{stage}$"):
            run(toy_dataset(n_per_class=6), small_cfg(mode="erm", lr=1e300, batch=batch,
                                                       t_final=3), model_init=model)
        assert all(np.all(np.isfinite(w)) for w in model.weights.values())
        assert_no_children()


class TestMaximize:
    def test_tada_yields_one_sample_per_origin(self):
        ds = toy_dataset(n_per_class=3)
        model = Classifier(1, 2, seed=0)
        out = maximize_phase(model, ds, small_cfg(mode="tada"))
        assert len(out) == len(ds)
        assert [s.origin_id for s in out] == list(range(len(ds)))
        assert all(s.mode == "tada" for s in out)

    def test_tada_plus_union_doubles(self):
        ds = toy_dataset(n_per_class=2)
        model = Classifier(1, 2, seed=0)
        out = maximize_phase(model, ds, small_cfg(mode="tada_plus", combine="union"))
        assert len(out) == 2 * len(ds)
        modes = {s.mode for s in out}
        assert modes == {"ada", "tada"}

    def test_chunk_size_does_not_change_samples(self, monkeypatch):
        default = adversarial.ASCENT_CHUNK
        ds = toy_dataset(n_per_class=default // 2 + 2)
        assert default < len(ds) < 2 * default  # a full chunk and a partial one
        model = Classifier(1, 2, seed=0)
        for mode, combine in (("tada", "union"), ("ada", "union"),
                              ("tada_plus", "union"), ("tada_plus", "composed")):
            cfg = small_cfg(mode=mode, combine=combine)
            monkeypatch.setattr(adversarial, "ASCENT_CHUNK", default)
            chunked = maximize_phase(model, ds, cfg)
            monkeypatch.setattr(adversarial, "ASCENT_CHUNK", 1)
            single = maximize_phase(model, ds, cfg)
            per_origin = 2 if (mode, combine) == ("tada_plus", "union") else 1
            assert len(chunked) == len(single) == per_origin * len(ds)
            for a, b in zip(chunked, single):
                assert (a.origin_id, a.mode) == (b.origin_id, b.mode)
                np.testing.assert_allclose(a.series.values.data, b.series.values.data,
                                           rtol=0, atol=1e-10)
                assert a.objective == pytest.approx(b.objective, rel=0, abs=1e-10)

    def test_leaves_model_weights_untouched(self):
        ds = toy_dataset(n_per_class=2)
        model = Classifier(1, 2, seed=0)
        before = {k: v.copy() for k, v in model.weights.items()}
        maximize_phase(model, ds, small_cfg(mode="tada"))
        for k in before:
            np.testing.assert_array_equal(model.weights[k], before[k])


class TestRun:
    def test_erm_does_no_augmentation(self):
        ds = toy_dataset(n_per_class=3)
        model, report = run(ds, small_cfg(mode="erm", k_rounds=3))
        assert report.dataset_sizes == [len(ds)]
        assert report.round_losses == []
        assert len(report.final_losses) > 0

    def test_tada_growth_law(self):
        ds = toy_dataset(n_per_class=3)
        n = len(ds)
        _, report = run(ds, small_cfg(mode="tada", k_rounds=2))
        assert report.dataset_sizes == [n, 2 * n, 3 * n]

    def test_tada_plus_union_growth_law(self):
        ds = toy_dataset(n_per_class=2)
        n = len(ds)
        _, report = run(ds, small_cfg(mode="tada_plus", combine="union", k_rounds=2))
        assert report.dataset_sizes == [n, 3 * n, 5 * n]

    def test_source_data_bitwise_unchanged(self):
        ds = toy_dataset(n_per_class=3)
        before = [s.values.data.copy() for s in ds.samples]
        run(ds, small_cfg(mode="tada", k_rounds=1))
        for s, b in zip(ds.samples, before):
            np.testing.assert_array_equal(s.values.data, b)

    def test_report_identity_reproducible(self):
        ds = toy_dataset(n_per_class=3)
        _, r1 = run(ds, small_cfg(mode="tada", k_rounds=1))
        _, r2 = run(ds, small_cfg(mode="tada", k_rounds=1))
        assert r1.identity() == r2.identity()

    def test_report_identity_varies_with_seed(self):
        ds = toy_dataset(n_per_class=3)
        _, r1 = run(ds, small_cfg(mode="tada", seed=0))
        _, r2 = run(ds, small_cfg(mode="tada", seed=1))
        assert r1.identity() != r2.identity()

    def test_seeds_apart_by_2_to_the_32_draw_different_minibatches(self):
        # same data and initial weights: only the minibatch draws differ
        d0 = toy_dataset()
        losses = [run(d0, small_cfg(mode="erm", seed=seed), Classifier(1, 2, seed=0))[1]
                  .final_losses for seed in (0, 2**32)]
        assert losses[0] != losses[1]

    def test_seed_0_reproduces_its_report(self):
        spec = dataclasses.replace(default_spec(seed=0), n_per_class=4, length=48)
        cfg = small_cfg(mode="tada", t_max=2)
        _, report = run(synth_generate(spec)[0], cfg)
        assert report.to_text().splitlines()[-5:-2] == [
            "dataset_sizes: 12 24",
            "round1_mean_loss: 0.795553483212 1.80047729649 1.50065253808",
            "final_mean_loss: 0.914165480735 0.848341779796"]

    def test_round_samples_freed_before_the_final_stretch(self, monkeypatch):
        # the dataset keeps each generated series, not the AdvSample records
        # (paths included) of the rounds that made them
        refs, checked = [], []
        real_maximize, real_minimize = training.maximize_phase, training.minimize_phase

        def maximize(*args):
            samples = real_maximize(*args)
            refs.extend(weakref.ref(sample) for sample in samples)
            return samples

        def minimize(*args):
            if len(checked) == 2:  # the final stretch, after two rounds
                checked.append([ref() is None for ref in refs])
            else:
                checked.append(None)
            return real_minimize(*args)

        monkeypatch.setattr(training, "maximize_phase", maximize)
        monkeypatch.setattr(training, "minimize_phase", minimize)
        ds = toy_dataset(n_per_class=2)
        run(ds, small_cfg(mode="tada", k_rounds=2))
        assert len(refs) == 2 * len(ds)
        assert checked[:2] == [None, None] and checked[2] == [True] * len(refs)

    def test_report_text_format(self):
        ds = toy_dataset(n_per_class=2)
        _, report = run(ds, small_cfg(mode="tada"))
        text = report.to_text()
        assert text.startswith("WARPADA-REPORT v1")
        assert "config.mode: tada" in text
        assert "config.seed: 0" in text

    def test_phase_timings(self):
        # each round's fit and generation, then the final stretch, all within
        # the run's wall clock; identity() holds no timing
        ds = toy_dataset(n_per_class=2)
        _, report = run(ds, small_cfg(mode="tada", k_rounds=2))
        assert list(report.phase_wall) == ["round1_fit", "round1_generate", "round2_fit",
                                           "round2_generate", "final"]
        assert all(s >= 0 for s in report.phase_wall.values())
        assert sum(report.phase_wall.values()) <= report.wall_clock
        line = report.to_text().splitlines()[-1]
        assert re.fullmatch(r"phase_wall_s: round1_fit=\d+\.\d{3} round1_generate=\S+ "
                            r"round2_fit=\S+ round2_generate=\S+ final=\d+\.\d{3}", line)
        assert set(report.identity()) == {"seed", "config", "dataset_sizes", "round_losses",
                                          "final_losses"}
        _, erm = run(ds, small_cfg(mode="erm", k_rounds=2))
        assert erm.to_text().splitlines()[-1] == f"phase_wall_s: final={erm.phase_wall['final']:.3f}"


class TestAscentOnTrainedModel:
    def test_objective_improves_for_ninety_percent_of_origins(self):
        # random inputs on an untrained model tolerate a lower win rate
        # (see the adversarial tests); on structured data with a fitted
        # model the ascent should land above its start almost always
        from warpada.adversarial import maximize_one

        ds = toy_dataset(n_per_class=16, length=64, seed=2)
        model = Classifier(1, 2, seed=0)
        model, _ = minimize_phase(model, ds, t_min=40, lr=0.1, batch=16,
                                  rng=np.random.default_rng(0))
        cfg = small_cfg(t_max=10, m_window=10, phi_max=8.0)
        zero_step = small_cfg(t_max=1, eta=0.0, m_window=10, phi_max=8.0)
        runs, wins = 40, 0
        for origin in range(runs):
            x = ds.samples[origin % len(ds)]
            [first] = maximize_one(model, x, zero_step, origin_id=origin)
            [last] = maximize_one(model, x, cfg, origin_id=origin)
            if last.objective >= first.objective - 1e-9:
                wins += 1
        assert wins >= 0.9 * runs


class TestPredictAndF1:
    def test_predict_returns_class_index(self):
        ds = toy_dataset(n_per_class=2)
        model = Classifier(1, 2, seed=0)
        preds = [predict(model, s) for s in ds.samples]
        assert len(preds) == len(ds)
        assert set(preds) <= {0, 1}

    def test_predict_is_the_inference_argmax(self):
        # predict forwards its one series through _inference, in float32
        source, targets = synth_generate(default_spec(0))
        model, _ = minimize_phase(Classifier(1, 3, seed=0), source, t_min=20, lr=0.05,
                                  batch=32, rng=np.random.default_rng(0))
        preds = [predict(model, x) for target in targets for x in target.samples]
        want = [int(np.argmax(training._inference(model, [x])[1]))
                for target in targets for x in target.samples]
        assert preds == want and len(set(preds)) == 3

    def test_macro_f1_perfect(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert macro_f1(y, y, 3) == pytest.approx(1.0)

    def test_macro_f1_hand_case(self):
        # class 0: P=0.5 R=0.5 F1=0.5; class 1 identical
        preds = np.array([0, 0, 1, 1])
        truth = np.array([0, 1, 0, 1])
        assert macro_f1(preds, truth, 2) == pytest.approx(0.5)

    def test_macro_f1_collapsed_predictions(self):
        # all predicted class 0 over balanced 3-class truth:
        # class 0 F1 = 2*(1/3)/(1/3+1) = 0.5, classes 1, 2 get 0.0
        preds = np.zeros(6, dtype=int)
        truth = np.array([0, 0, 1, 1, 2, 2])
        assert macro_f1(preds, truth, 3) == pytest.approx(0.5 / 3)

    def test_macro_f1_skips_class_absent_everywhere(self):
        preds = np.array([0, 1, 0, 1])
        truth = np.array([0, 1, 0, 1])
        # class 2 appears in neither: averaged over classes 0 and 1 only
        assert macro_f1(preds, truth, 3) == pytest.approx(1.0)

    def test_macro_f1_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = int(rng.integers(2, 8))
            n = int(rng.integers(4, 40))
            truth = rng.integers(0, c, size=n)
            preds = rng.integers(0, c, size=n)
            scores = []
            for k in range(c):
                tp = int(np.sum((preds == k) & (truth == k)))
                fp = int(np.sum((preds == k) & (truth != k)))
                fn = int(np.sum((preds != k) & (truth == k)))
                if tp + fp + fn == 0:
                    continue
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                scores.append(2 * p * r / (p + r) if p + r else 0.0)
            expected = float(np.mean(scores))
            assert macro_f1(preds, truth, c) == pytest.approx(expected, abs=1e-12)

    def test_macro_f1_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            macro_f1(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 2)

    def test_macro_f1_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            macro_f1(np.array([0, 5]), np.array([0, 1]), 2)


class TestInferenceWorker:
    # domains of 14 and 10 series of lengths 48 and 40, in chunks of 4:
    # halves of 8 and 6, and of 8 and 2, the last chunk of each part short,
    # and the halves alternate between processes
    @staticmethod
    def domains():
        return [toy_dataset(n_per_class=7, length=48, seed=1, domain_tag="a"),
                toy_dataset(n_per_class=5, length=40, seed=2, domain_tag="b")]

    @staticmethod
    def outputs(model, domains):
        rows = [r.tobytes() for d in domains for r in training._inference(model, d.samples)]
        return evaluate(model, domains), rows

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    def test_bitwise_equal_to_serial(self, monkeypatch, on):
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)
        model, domains = Classifier(1, 2, seed=3), self.domains()
        with monkeypatch.context() as serial:
            forced_inference(serial, False)
            want = self.outputs(model, domains)
        workers = forced_inference(monkeypatch, on)
        with deadline(60):
            got = self.outputs(model, domains)
        assert workers == [2 if on else 1]  # evaluate; _inference is serial
        assert_no_children()
        assert got == want

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    def test_one_domain_shares_its_halves(self, monkeypatch, on):
        # one domain of 2 * EVAL_CHUNK + 6 series (three forwards): evaluate
        # forks once, the worker forwarding the second half, and gives the
        # serial scores bitwise
        model = Classifier(1, 2, seed=3)
        domain = toy_dataset(n_per_class=training.EVAL_CHUNK + 3, seed=4, domain_tag="a")
        real, forks = os.fork, []

        def counted():
            forks.append(1)
            return real()

        with monkeypatch.context() as serial:
            forced_inference(serial, False)
            want = evaluate(model, [domain])
        workers = forced_inference(monkeypatch, on)
        monkeypatch.setattr(os, "fork", counted)
        with deadline(60):
            got = evaluate(model, [domain])
        assert workers == [2 if on else 1]
        assert len(forks) == (1 if on else 0)
        assert_no_children()
        assert got == want

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    def test_earliest_failing_forward_raised_as_serial(self, monkeypatch, on):
        # a's second half (the worker's share) and b's first half (this
        # process's) fail: a's error is raised, as a serial run raises it
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)
        model, domains = Classifier(1, 2, seed=3), self.domains()
        # each series is told by its first value, as the forward sees it
        bad = {training.INFERENCE_DTYPE(domains[d].samples[k].values.data.flat[0]):
               f"{'ab'[d]}{k}" for d, k in ((0, 9), (1, 2))}
        real = training.forward

        def forward(model, batch, *args):
            for first in batch.data[:, 0, 0]:
                if first in bad:
                    raise ValueError(f"series {bad[first]} cannot be forwarded")
            return real(model, batch, *args)

        monkeypatch.setattr(training, "forward", forward)
        workers = forced_inference(monkeypatch, on)
        with deadline(60), pytest.raises(ValueError, match="^series a9 cannot be forwarded$"):
            evaluate(model, domains)
        assert workers == [2 if on else 1]
        assert_no_children()

    def test_dead_worker_raises_naming_exit_code(self, monkeypatch):
        parent, real = os.getpid(), training._stack

        def dying(samples):
            if os.getpid() != parent:
                os._exit(3)
            return real(samples)

        monkeypatch.setattr(training, "EVAL_CHUNK", 4)
        monkeypatch.setattr(training, "_stack", dying)
        forced_inference(monkeypatch, True)
        with deadline(60), pytest.raises(RuntimeError, match=r"^inference worker \d+ exited "
                                         r"with code 3 before sending its logits$"):
            evaluate(Classifier(1, 2, seed=3), self.domains())
        assert_no_children()

    def test_default_environment_starts_no_process(self, monkeypatch):
        # no BLAS variable: OpenBLAS runs its thread pool, and inference
        # stays in this process whatever the CPU and chunk counts
        model, domains = Classifier(1, 2, seed=3), self.domains()
        want = evaluate(model, domains)
        for name in procs.BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(training, "EVAL_CHUNK", 1)
        monkeypatch.setattr(training, "INFERENCE_MIN_CHUNKS", 1)
        monkeypatch.setattr(procs, "fork_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_process)
        assert evaluate(model, domains) == want

    @pytest.mark.parametrize("fallback", list(FALLBACKS))
    def test_fallback_starts_no_process(self, fallback, monkeypatch):
        model, domains = Classifier(1, 2, seed=3), self.domains()
        want = evaluate(model, domains)
        monkeypatch.setattr(training, "EVAL_CHUNK", 1)
        monkeypatch.setattr(training, "INFERENCE_MIN_CHUNKS", 1)
        monkeypatch.setattr(procs, "_one_blas_thread", lambda: True)
        monkeypatch.setattr(os, "fork", no_process)
        FALLBACKS[fallback](monkeypatch)
        assert evaluate(model, domains) == want


class TestEvaluate:
    def test_keys_and_average(self):
        model = Classifier(1, 2, seed=0)
        d_a = toy_dataset(n_per_class=2, seed=1, domain_tag="a")
        d_b = toy_dataset(n_per_class=2, seed=2, domain_tag="b")
        scores, avg = evaluate(model, [d_a, d_b])
        assert set(scores) == {"a", "b"}
        assert avg == pytest.approx((scores["a"] + scores["b"]) / 2)

    def test_duplicate_tags_deduplicated(self):
        model = Classifier(1, 2, seed=0)
        d_a = toy_dataset(n_per_class=2, seed=1, domain_tag="x")
        d_b = toy_dataset(n_per_class=2, seed=2, domain_tag="x")
        scores, _ = evaluate(model, [d_a, d_b])
        assert set(scores) == {"x", "x#1"}

    @pytest.mark.parametrize("tags, keys", [
        (["a", "a#2", "a"], ["a", "a#2", "a#3"]),
        (["a", "a#1", "a", "a"], ["a", "a#1", "a#2", "a#3"]),
        (["domain1", ""], ["domain1", "domain1#1"]),
    ])
    def test_every_domain_gets_its_own_key(self, tags, keys):
        # a taken key is suffixed #<i>, #<i+1>, ... until one is free, so
        # every domain counts in the mean
        model = Classifier(1, 2, seed=0)
        domains = [toy_dataset(n_per_class=2, seed=i, domain_tag=t) for i, t in enumerate(tags)]
        scores, avg = evaluate(model, domains)
        assert list(scores) == keys
        assert avg == np.mean([evaluate(model, [d])[0][d.samples[0].domain_tag or "domain0"]
                               for d in domains])

    def test_domain_given_as_tag_and_labels(self):
        model = Classifier(1, 2, seed=0)
        domains = [toy_dataset(n_per_class=4, seed=s, domain_tag=t)
                   for s, t in ((1, "a"), (2, "b"))]
        logits = [training._inference(model, d.samples)[1] for d in domains]
        labelled = [(d.samples[0].domain_tag, [x.label for x in d.samples]) for d in domains]
        assert evaluate(model, labelled, logits) == evaluate(model, domains)

    def test_given_logits_skip_the_forward(self, monkeypatch):
        model = Classifier(1, 2, seed=0)
        domains = [toy_dataset(n_per_class=4, seed=s, domain_tag=t)
                   for s, t in ((1, "a"), (2, "b"))]
        want = evaluate(model, domains)
        logits = [training._inference(model, d.samples)[1] for d in domains]
        monkeypatch.setattr(training, "_inference", None)
        assert evaluate(model, domains, logits) == want


class TestExportFeatures:
    def test_csv_schema(self, tmp_path):
        model = Classifier(1, 2, seed=0)
        ds = toy_dataset(n_per_class=2)
        out = tmp_path / "features.csv"
        export_features(ds, str(out), training._inference(model, ds.samples)[0])
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["origin_id", "domain_tag", "label"]
        assert header[3] == "f0" and header[-1] == "f63"
        assert len(lines) == 1 + len(ds)
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] in {"0", "1"}

    def test_values_match_forward_pass(self, tmp_path):
        model = Classifier(1, 2, seed=0)
        ds = toy_dataset(n_per_class=1)
        out = tmp_path / "features.csv"
        export_features(ds, str(out), training._inference(model, ds.samples)[0])
        row = out.read_text().strip().split("\n")[1].split(",")
        # the oracle is the float32 forward of the one series
        params = {name: Tensor(w.astype(np.float32)) for name, w in model.weights.items()}
        z, _ = forward(model, Tensor(ds.samples[0].values.data.astype(np.float32)), params)
        np.testing.assert_allclose([float(v) for v in row[3:]],
                                   z.data.ravel(), rtol=1e-10)

    def test_bytes_equal_per_value_format(self, tmp_path):
        model = Classifier(2, 3, seed=4)
        rng = np.random.default_rng(4)
        samples = [TimeSeries(Tensor(rng.normal(size=(2, 40)) * 10.0 ** k), label=k % 3,
                              domain_tag=tag)
                   for k, tag in zip(range(-6, 7), ["a", "b b", "%s", "c"] * 4)]
        ds = Dataset(samples, n_classes=3)
        out = tmp_path / "features.csv"
        z, _ = training._inference(model, ds.samples)
        export_features(ds, str(out), z)
        want = ["origin_id,domain_tag,label," + ",".join(f"f{i}" for i in range(64)) + "\n"]
        for i, sample in enumerate(ds.samples):
            feats = ",".join(f"{v:.12g}" for v in z[i])
            want.append(f"{i},{sample.domain_tag},{sample.label},{feats}\n")
        assert out.read_text(encoding="utf-8") == "".join(want)

    @pytest.mark.parametrize("rows", [5, 7], ids=["short", "long"])
    def test_features_not_one_per_sample_raise_before_opening(self, tmp_path, rows):
        # six samples: rows paired by zip would cut the file short or drop
        # the extra rows, so neither count writes anything
        ds = toy_dataset(n_per_class=3)
        features = np.resize(training._inference(Classifier(1, 2, seed=0), ds.samples)[0],
                             (rows, 64))
        out = tmp_path / "features.csv"
        with pytest.raises(ValueError, match=re.escape(
                f"{out}: features of shape ({rows}, 64) given for 6 samples, "
                f"expected (6, 64)")):
            export_features(ds, str(out), features)
        assert not out.exists()
