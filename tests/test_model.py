import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpada import adversarial
from warpada.adversarial import AdvConfig
from warpada.model import (
    CHECKPOINT_MAGIC,
    Classifier,
    _affine,
    _pool,
    entropy,
    forward,
    load_checkpoint,
    loss_ce,
    save_checkpoint,
    semantic_distance,
)
from warpada.signal import TimeSeries
from warpada.tensor import (
    Tape,
    Tensor,
    finite_diff_check,
    op_conv1d,
    op_mul,
    op_relu,
    op_reshape,
    op_sum,
)


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
        shape = model.weights["head.w"].shape

        def loss_of(w):
            params = model.tensors()
            params["head.w"] = op_reshape(w, shape)
            _, logits = forward(model, x, params)
            return loss_ce(logits, 1)

        err = finite_diff_check(loss_of, Tensor(model.weights["head.w"].ravel().copy()),
                                coords=range(10))
        assert err < 1e-4

    def test_conv_weight_gradient_slice(self):
        model = Classifier(1, 3, seed=3)
        x = small_input(4, length=32)
        shape = model.weights["conv1.k"].shape

        def loss_of(w):
            params = model.tensors()
            params["conv1.k"] = op_reshape(w, shape)
            _, logits = forward(model, x, params)
            return loss_ce(logits, 0)

        err = finite_diff_check(loss_of, Tensor(model.weights["conv1.k"].ravel().copy()),
                                coords=range(10))
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


def loss_head_oracle(logits, labels):
    """CE and H per row of (B, K) logits, in plain numpy, step by step as the
    generic ops computed them: subtract the row maximum (first attaining
    index), exp, row sum, log; CE picks the label's shifted logit, H takes
    log Z - sum (e / Z) * shifted."""
    rows = np.arange(logits.shape[0])
    shifted = logits - logits[rows, np.argmax(logits, axis=1)][:, None]
    e = np.exp(shifted)
    norm = e.sum(axis=-1, keepdims=True)
    ce = np.log(norm) - shifted.reshape(-1)[rows * logits.shape[1] + labels][:, None]
    h = np.log(norm) - (e / norm * shifted).sum(axis=-1, keepdims=True)
    return ce, h, e / norm, shifted


def head_grads(logits, labels, g):
    """Values and input gradients of loss_ce and entropy at (B, K) logits
    for the output gradient g (B, 1)."""
    results = []
    for term in (lambda x: loss_ce(x, labels), entropy):
        x = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            y = term(x)
            tape.backward(op_sum(op_mul(y, Tensor(g))))
        results += [y.data, x.grad]
    return results


def random_heads(seed, count=50):
    rng = np.random.default_rng(seed)
    for i in range(count):
        batch, k = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        logits = rng.normal(scale=float(rng.choice([0.3, 3.0, 30.0])), size=(batch, k))
        if i % 3 == 0:  # a tied maximum in the first row
            logits[0, -1] = logits[0].max()
        yield logits, rng.integers(0, k, size=batch), rng.normal(size=(batch, 1))


class TestFusedLossHead:
    def test_values_equal_the_op_by_op_chain(self):
        for logits, labels, _ in random_heads(20):
            ce, h, _, _ = loss_head_oracle(logits, labels)
            np.testing.assert_array_equal(loss_ce(Tensor(logits), labels).data, ce)
            np.testing.assert_array_equal(entropy(Tensor(logits)).data, h)
            for i in range(len(labels)):
                row = Tensor(logits[i])
                assert loss_ce(row, int(labels[i])).data == ce[i, 0]
                assert entropy(row).data == h[i, 0]

    def test_gradients_match_closed_forms(self):
        for logits, labels, g in random_heads(21):
            _, ce_grad, _, h_grad = head_grads(logits, labels, g)
            _, _, p, shifted = loss_head_oracle(logits, labels)
            onehot = np.eye(logits.shape[1])[labels]
            np.testing.assert_allclose(ce_grad, g * (p - onehot), rtol=0, atol=1e-12)
            mean_shift = (p * shifted).sum(axis=-1, keepdims=True)
            np.testing.assert_allclose(h_grad, -g * p * (shifted - mean_shift),
                                       rtol=0, atol=1e-15)

    def test_one_node_per_batch_three_per_vector(self):
        logits = np.random.default_rng(22).normal(size=(4, 3))
        for term in (lambda x, lab: loss_ce(x, lab), lambda x, lab: entropy(x)):
            for value, label, nodes in ((logits, np.array([0, 1, 2, 0]), 1),
                                        (logits[0], 2, 3)):
                with Tape() as tape:
                    term(Tensor(value, requires_grad=True), label)
                assert len(tape.nodes) == nodes
                with Tape() as tape:  # a constant input records nothing
                    term(Tensor(value), label)
                assert tape.nodes == []

    def test_tied_maximum(self):
        logits = np.array([[1.0, 3.0, 3.0, -2.0]])
        ce, ce_grad, h, h_grad = head_grads(logits, np.array([2]), np.ones((1, 1)))
        p = np.exp(logits - 3.0) / np.exp(logits - 3.0).sum()
        assert ce[0, 0] == pytest.approx(-np.log(p[0, 2]), abs=1e-15)
        assert h[0, 0] == pytest.approx(-(p * np.log(p)).sum(), abs=1e-15)
        np.testing.assert_allclose(ce_grad, p - [[0.0, 0.0, 1.0, 0.0]], rtol=0, atol=1e-15)
        assert ce_grad[0, 1] == pytest.approx(ce_grad[0, 2] + 1.0, abs=1e-15)
        assert h_grad[0, 1] == h_grad[0, 2]

    def test_extreme_logits_stay_finite(self):
        # pytest turns RuntimeWarnings into errors, so an overflow in exp or
        # a log of 0 fails here
        logits = np.array([[1e3, -1e3, 0.0], [-1e3, -1e3, 1e3]])
        ce, ce_grad, h, h_grad = head_grads(logits, np.array([1, 2]), np.ones((2, 1)))
        np.testing.assert_array_equal(ce, [[2e3], [0.0]])
        np.testing.assert_array_equal(h, [[0.0], [0.0]])
        assert np.isfinite(ce_grad).all() and np.isfinite(h_grad).all()
        np.testing.assert_array_equal(ce_grad, [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])


def tail_oracle(h, w, b, g):
    """The classifier's tail as the generic ops computed it, eight nodes in
    plain numpy: pool by reshape, matmul with a 1/T column, reshape; head by
    transpose, matmul, bias reshaped to (K, 1) and added across the columns,
    transpose.  Returns z, logits and, for the logits gradient g, the
    gradients of h, z, w and b, each rule taken in reverse order."""
    batch, dim, t = h.shape
    column = np.full((t, 1), 1.0 / t)
    z = (h.reshape(batch * dim, t) @ column).reshape(batch, dim)
    zt = np.ascontiguousarray(z.T)
    logits = np.ascontiguousarray((w @ zt + b.reshape(-1, 1)).T)
    gt = np.ascontiguousarray(g.T)
    gb = gt.sum(axis=1, keepdims=True).reshape(b.shape)
    gw = gt @ zt.T
    gz = np.ascontiguousarray((w.T @ gt).T)
    return z, logits, pool_back(gz, t), gz, gw, gb


def pool_back(gz, t):
    batch, dim = gz.shape
    return (gz.reshape(batch * dim, 1) @ np.full((t, 1), 1.0 / t).T).reshape(batch, dim, t)


def conv_stack(model, x):
    """forward's three conv+relu blocks, ending before the pool."""
    h = x
    for i in (1, 2, 3):
        h = op_relu(op_conv1d(h, Tensor(model.weights[f"conv{i}.k"]), stride=2,
                              bias=Tensor(model.weights[f"conv{i}.b"])))
    return h


class TestFusedTail:
    @pytest.mark.parametrize("batch", [1, 3, 32])
    def test_values_and_gradients_equal_the_eight_node_chain(self, batch):
        rng = np.random.default_rng(batch)
        h0, w0, b0 = (rng.normal(size=(batch, 64, 8)), rng.normal(size=(5, 64)),
                      rng.normal(size=5))
        g = rng.normal(size=(batch, 5))
        z_want, logits_want, gh, gz, gw, gb = tail_oracle(h0, w0, b0, g)
        h, w, b = (Tensor(a, requires_grad=True) for a in (h0, w0, b0))
        with Tape() as tape:
            z = _pool(h)
            logits = _affine(z, w, b)
            tape.backward(op_sum(op_mul(logits, Tensor(g))))
        np.testing.assert_array_equal(z.data, z_want)
        np.testing.assert_array_equal(logits.data, logits_want)
        for got, want in ((h.grad, gh), (w.grad, gw), (b.grad, gb)):
            np.testing.assert_array_equal(got, want)
        z_leaf = Tensor(z_want, requires_grad=True)
        with Tape() as tape:
            tape.backward(op_sum(op_mul(_affine(z_leaf, Tensor(w0), Tensor(b0)), Tensor(g))))
        np.testing.assert_array_equal(z_leaf.grad, gz)

    def test_forward_records_eight_nodes_and_constants_none(self):
        model = Classifier(2, 3, seed=4)
        x = Tensor(np.random.default_rng(4).normal(size=(6, 2, 64)))
        with Tape() as tape:
            forward(model, x, model.tensors(requires_grad=True))
        assert len(tape.nodes) == 8  # conv and relu per block, pool, head
        with Tape() as tape:
            forward(model, x)
        assert tape.nodes == []

    def test_ascent_input_gradient_equals_the_oracle(self):
        # z feeds the head and the semantic distance; the oracle sums both
        # contributions, then runs the pool and the convs backwards
        rng = np.random.default_rng(5)
        model = Classifier(1, 3, seed=5)
        x0 = rng.normal(size=(4, 1, 64))
        labels = np.array([0, 2, 1, 2])
        z_ref = Tensor(rng.normal(size=(4, 64)))
        cfg = AdvConfig(gamma=0.7)
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            tape.backward(op_sum(adversarial._objective_rows(model, x, labels, z_ref, cfg)))

        h = conv_stack(model, Tensor(x0)).data
        z, logits, _, _, _, _ = tail_oracle(h, model.weights["head.w"], model.weights["head.b"],
                                            np.zeros((4, 3)))
        logits_leaf, z_leaf = Tensor(logits, requires_grad=True), Tensor(z, requires_grad=True)
        with Tape() as tape:
            tape.backward(op_sum(loss_ce(logits_leaf, labels)))
        with Tape() as tape:
            tape.backward(op_sum(Tensor(np.zeros((4, 1)))
                                 - semantic_distance(z_leaf, z_ref) * cfg.gamma))
        _, _, _, gz_head, _, _ = tail_oracle(h, model.weights["head.w"],
                                             model.weights["head.b"], logits_leaf.grad)
        gh = pool_back(z_leaf.grad + gz_head, h.shape[-1])
        x_oracle = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            tape.backward(op_sum(op_mul(conv_stack(model, x_oracle), Tensor(gh))))
        np.testing.assert_array_equal(x.grad, x_oracle.grad)


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
        (lambda blob: blob[:17] + struct.pack("<q", -1) + blob[25:], "non-negative"),
    ], ids=["header_cut", "payload_cut", "trailing_bytes", "negative_seed"])
    def test_damaged_file_names_path(self, tmp_path, damage, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Classifier(1, 3, seed=0), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=match) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_nonfinite_weight_on_load_names_file_and_layer(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Classifier(1, 3, seed=0), path)
        blob = path.read_bytes()  # head.b, the last layer, ends the file
        path.write_bytes(blob[:-8] + struct.pack("<d", np.nan))
        with pytest.raises(ValueError, match="layer head.b holds non-finite") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weight_is_not_saved(self, tmp_path, bad):
        model = Classifier(1, 3, seed=0)
        model.weights["conv2.k"][3, 1, 2] = bad
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="layer conv2.k holds non-finite"):
            save_checkpoint(model, path)
        assert not path.exists()

    def test_zero_size_layer_too_big_for_numpy_names_file(self, tmp_path):
        # no payload is needed for a zero-size shape, but numpy still
        # rejects an array whose extent overflows
        path = tmp_path / "big.ckpt"
        dims = (0, 2 ** 32 - 1, 2 ** 32 - 1)
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIIqI", 1, 1, 3, 0, 1)
                         + struct.pack("<H", 1) + b"x" + struct.pack("<B", 3)
                         + struct.pack("<3I", *dims))
        with pytest.raises(ValueError, match=r"layer x has shape \(0, 4294967295, 4294967295\)") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_header_is_checked_before_allocating(self, tmp_path):
        # a 29-byte file claiming 100,000 input channels and no layers;
        # building that architecture would take 64 MB of conv1 weights
        path = tmp_path / "huge.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIIqI", 1, 100_000, 3, 0, 0))
        assert path.stat().st_size == 29
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(err.value)
        assert peak < 8 * 2 ** 20


def _checkpoint_bytes():
    """Random bytes after the magic: sometimes a valid header, then
    sometimes well-formed layer records of random name, shape and values."""
    header = st.tuples(st.sampled_from([0, 1, 2]), st.sampled_from([0, 1, 2, 100_000]),
                       st.sampled_from([0, 1, 3, 100_000]), st.integers(-2, 2),
                       st.integers(0, 9)).map(lambda h: struct.pack("<IIIqI", *h))
    name = st.one_of(st.sampled_from(["conv1.k", "conv1.b", "head.w", "head.b"]),
                     st.text(max_size=8)).map(lambda n: n.encode("utf-8"))

    def record(parts):
        name, dims, values = parts
        payload = struct.pack(f"<{len(values)}d", *values)
        return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
                + struct.pack(f"<{len(dims)}I", *dims) + payload)

    layer = st.tuples(name, st.lists(st.integers(0, 20), max_size=3),
                      st.lists(st.floats(), max_size=6)).map(record)
    structured = st.tuples(header, st.lists(layer, max_size=4), st.binary(max_size=16)).map(
        lambda parts: parts[0] + b"".join(parts[1]) + parts[2])
    return st.one_of(st.binary(max_size=200), structured)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_checkpoint_bytes())
def test_fuzz_checkpoint_names_its_file(tmp_path, raw):
    # none of these is a whole checkpoint (at most 4 of its 8 layers), so
    # each raises a ValueError that names the file; never another type
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + raw)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
