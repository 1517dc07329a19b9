import numpy as np
import pytest

from warpada.model import (
    Classifier,
    entropy,
    forward,
    load_checkpoint,
    loss_ce,
    save_checkpoint,
    semantic_distance,
)
from warpada.signal import TimeSeries
from warpada.tensor import Tape, Tensor, finite_diff_check, op_concat, op_gather, op_reshape


def small_input(seed=0, channels=1, length=64):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(channels, length)))


class TestForward:
    def test_zero_weights_give_zero_logits_uniform_softmax(self):
        model = Classifier(1, 4, seed=0)
        for name in model.weights:
            model.weights[name] = np.zeros_like(model.weights[name])
        _, logits = forward(model, small_input())
        np.testing.assert_array_equal(logits.data, np.zeros(4))
        for label in range(4):  # uniform softmax: every class costs log 4
            assert loss_ce(logits, label).item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_deterministic_on_duplicate_input(self):
        model = Classifier(1, 3, seed=1)
        x = small_input(1)
        z1, l1 = forward(model, x)
        z2, l2 = forward(model, x)
        np.testing.assert_array_equal(z1.data, z2.data)
        np.testing.assert_array_equal(l1.data, l2.data)

    def test_same_seed_same_weights(self):
        a, b = Classifier(2, 3, seed=7), Classifier(2, 3, seed=7)
        for name in a.weights:
            np.testing.assert_array_equal(a.weights[name], b.weights[name])

    def test_shape_mismatch(self):
        model = Classifier(2, 3, seed=0)
        with pytest.raises(ValueError, match="channels"):
            forward(model, small_input(channels=1))

    def test_feature_dim(self):
        model = Classifier(1, 2, seed=0)
        z, logits = forward(model, small_input())
        assert z.data.shape == (64,)
        assert logits.data.shape == (2,)

    def test_accepts_timeseries(self):
        model = Classifier(1, 2, seed=0)
        ts = TimeSeries(small_input(3), label=1)
        _, logits = forward(model, ts)
        assert logits.data.shape == (2,)

    def test_weight_gradient_matches_finite_differences(self):
        model = Classifier(1, 3, seed=2)
        x = small_input(2, length=32)
        rest_flat = model.weights["head.w"].ravel()[10:].copy()
        shape = model.weights["head.w"].shape

        def loss_of_slice(w10):
            params = model.tensors()
            params["head.w"] = op_reshape(op_concat([w10, Tensor(rest_flat)]), shape)
            _, logits = forward(model, x, params)
            return loss_ce(logits, 1)

        err = finite_diff_check(loss_of_slice,
                                Tensor(model.weights["head.w"].ravel()[:10].copy()))
        assert err < 1e-4

    def test_conv_weight_gradient_slice(self):
        model = Classifier(1, 3, seed=3)
        x = small_input(4, length=32)
        rest_flat = model.weights["conv1.k"].ravel()[10:].copy()
        shape = model.weights["conv1.k"].shape

        def loss_of_slice(w10):
            params = model.tensors()
            params["conv1.k"] = op_reshape(op_concat([w10, Tensor(rest_flat)]), shape)
            _, logits = forward(model, x, params)
            return loss_ce(logits, 0)

        err = finite_diff_check(loss_of_slice,
                                Tensor(model.weights["conv1.k"].ravel()[:10].copy()))
        assert err < 1e-4

    def test_batched_rows_equal_single_sample(self):
        model = Classifier(2, 3, seed=5)
        batch = np.random.default_rng(15).normal(size=(5, 2, 64))
        z_b, logits_b = forward(model, Tensor(batch))
        assert z_b.data.shape == (5, 64) and logits_b.data.shape == (5, 3)
        for i in range(5):
            z, logits = forward(model, Tensor(batch[i]))
            np.testing.assert_allclose(z_b.data[i], z.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(logits_b.data[i], logits.data, rtol=0, atol=1e-12)

    def test_input_gradient_nonzero(self):
        model = Classifier(1, 3, seed=4)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 64)), requires_grad=True)
        with Tape() as tape:
            _, logits = forward(model, x)
            tape.backward(loss_ce(logits, 0))
        assert x.grad is not None and np.any(x.grad != 0.0)


class TestLosses:
    def test_uniform_logits_ce(self):
        assert loss_ce(Tensor(np.zeros(4)), 2).item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct_ce_near_zero(self):
        logits = np.zeros(3)
        logits[1] = 1e6
        assert loss_ce(Tensor(logits), 1).item() == pytest.approx(0.0, abs=1e-12)

    def test_ce_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            c = int(rng.integers(2, 8))
            logits = rng.normal(scale=3.0, size=c)
            label = int(rng.integers(c))
            want = -np.log(np.exp(logits[label]) / np.exp(logits).sum())
            assert loss_ce(Tensor(logits), label).item() == pytest.approx(want, abs=1e-12)

    def test_ce_label_range(self):
        with pytest.raises(ValueError, match="range"):
            loss_ce(Tensor(np.zeros(3)), 3)

    def test_ce_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            logits = rng.normal(scale=5.0, size=4)
            assert loss_ce(Tensor(logits), int(rng.integers(4))).item() >= 0.0

    def test_entropy_uniform(self):
        assert entropy(Tensor(np.zeros(4))).item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_entropy_near_one_hot(self):
        logits = np.zeros(4)
        logits[0] = 50.0
        assert entropy(Tensor(logits)).item() == pytest.approx(0.0, abs=1e-12)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            c = int(rng.integers(2, 8))
            h = entropy(Tensor(rng.normal(scale=4.0, size=c))).item()
            assert -1e-12 <= h <= np.log(c) + 1e-12

    def test_semantic_distance(self):
        z = Tensor(np.random.default_rng(10).normal(size=16))
        assert semantic_distance(z, z).item() == 0.0
        assert semantic_distance(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 2.0

    def test_semantic_distance_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8))
            assert semantic_distance(a, b).item() == pytest.approx(
                semantic_distance(b, a).item(), abs=1e-12)

    def test_per_row_losses_match_vectors(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(scale=3.0, size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        z_a, z_b = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
        ce = loss_ce(Tensor(logits), labels).data
        h = entropy(Tensor(logits)).data
        dist = semantic_distance(Tensor(z_a), Tensor(z_b)).data
        assert ce.shape == h.shape == dist.shape == (6, 1)
        for i in range(6):
            assert ce[i, 0] == pytest.approx(loss_ce(Tensor(logits[i]), int(labels[i])).item(),
                                             abs=1e-12)
            assert h[i, 0] == pytest.approx(entropy(Tensor(logits[i])).item(), abs=1e-12)
            assert dist[i, 0] == pytest.approx(
                semantic_distance(Tensor(z_a[i]), Tensor(z_b[i])).item(), abs=1e-12)

    def test_ce_label_vector_checked(self):
        with pytest.raises(ValueError, match="labels"):
            loss_ce(Tensor(np.zeros((3, 2))), np.array([0, 1]))
        with pytest.raises(ValueError, match="range"):
            loss_ce(Tensor(np.zeros((2, 2))), np.array([0, 2]))

    def test_semantic_distance_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            semantic_distance(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = Classifier(2, 5, seed=42)
        # make weights non-trivial
        rng = np.random.default_rng(12)
        for name in model.weights:
            model.weights[name] = rng.normal(size=model.weights[name].shape)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.in_channels == 2 and loaded.n_classes == 5 and loaded.seed == 42
        for name in model.weights:
            assert model.weights[name].tobytes() == loaded.weights[name].tobytes()

    def test_forward_identical_after_round_trip(self, tmp_path):
        model = Classifier(1, 3, seed=13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = small_input(14)
        _, l_a = forward(model, x)
        _, l_b = forward(loaded, x)
        np.testing.assert_array_equal(l_a.data, l_b.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTIT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage,match", [
        (lambda blob: blob[:12], "truncated"),         # inside the header
        (lambda blob: blob[:-20], "truncated"),        # inside the last payload
        (lambda blob: blob + b"\x00" * 3, "trailing"),  # bytes after the last layer
    ], ids=["header_cut", "payload_cut", "trailing_bytes"])
    def test_damaged_file_names_path(self, tmp_path, damage, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Classifier(1, 3, seed=0), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=match) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
