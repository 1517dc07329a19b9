import numpy as np
import pytest

from warpada.adversarial import (
    PHI_INIT_SCALE,
    AdvConfig,
    maximize_many,
    maximize_one,
)
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

    def test_erm_mode_rejected(self):
        model = Classifier(1, 3, seed=12)
        with pytest.raises(ValueError, match="erm"):
            maximize_one(model, toy_sample(13), toy_cfg(mode="erm"))
