import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpada import tensor
from warpada.model import Classifier, forward, loss_ce
from warpada.gradcheck import THRESHOLD
from warpada.signal import WARP_BLOCK_ROWS, TimeSeries, _dirichlet_rows, _window, warp_apply
from warpada.tensor import Tape, Tensor, finite_diff_check, op_sum
from warpada.warp import make_path

from oracles import integer_warp_oracle


def dft_warp_oracle(values, delta, half_width, derivative=False):
    """The paper's construction in plain numpy, for (B, C, N) values and
    (B, N) displacements: np.fft of the clamped length L = 2M+1 segment
    around every index, a phase rotation by exp(+j 2 pi k~ delta / L) with
    signed bins k~, and the inverse DFT evaluated at the centre sample only.

    With ``derivative`` also returns d out / d delta, the same centre
    sample of the rotated spectrum times j 2 pi k~ / L.
    """
    n = values.shape[-1]
    length = 2 * half_width + 1
    idx = np.clip(np.arange(n)[:, None] + np.arange(-half_width, half_width + 1), 0, n - 1)
    spectrum = np.fft.fft(values[:, :, idx], axis=-1)           # (B, C, N, L)
    signed = np.fft.fftfreq(length, d=1.0 / length)              # 0..M, -M..-1
    rotated = spectrum * np.exp(2j * np.pi * signed * delta[:, None, :, None] / length)
    centre = np.exp(2j * np.pi * signed * half_width / length) / length
    out = (rotated @ centre).real
    if not derivative:
        return out
    return out, ((rotated * (2j * np.pi * signed / length)) @ centre).real


def dft_warp_op(values: Tensor, delta: Tensor, half_width: int) -> Tensor:
    """``dft_warp_oracle`` as a tape op.  The warp is linear in the values,
    so their gradient goes through the oracle's Jacobian, built column by
    column from unit impulses; the displacement gradient is the oracle's own
    derivative."""
    batch, _, n = values.data.shape
    out, slope = dft_warp_oracle(values.data, delta.data, half_width, derivative=True)
    # jac[b, i, j] = d out[b, c, i] / d values[b, c, j], the same for every channel
    impulses = np.broadcast_to(np.eye(n)[None], (batch, n, n)).reshape(batch * n, 1, n)
    jac = dft_warp_oracle(impulses, np.repeat(delta.data, n, axis=0), half_width)
    jac = jac.reshape(batch, n, n).transpose(0, 2, 1)
    return tensor._record(out, (values, lambda g: np.einsum("bij,bci->bcj", jac, g)),
                          (delta, lambda g: (g * slope).sum(axis=1)))


def flat_index_warp(values, delta, half_width, g):
    """warp_apply's forward value and its values and path gradients under
    the upstream gradient ``g``, gathering every tap through a flat
    (B, C, N, L) index into the raveled values."""
    batch, channels, n = values.shape
    length = 2 * half_width + 1
    window = np.clip(np.arange(n)[:, None] + np.arange(-half_width, half_width + 1), 0, n - 1)
    index = np.arange(batch * channels).reshape(batch, channels, 1, 1) * n + window
    seg = values.ravel()[index]
    kernel, slope = _dirichlet_rows(delta.ravel(), length, slopes=True)
    kernel = kernel.reshape(batch, n, length)
    out = np.einsum("bcnw,bnw->bcn", seg, kernel)
    weights = (g[..., None] * kernel[:, None]).ravel()
    dvalues = np.bincount(index.ravel(), weights=weights, minlength=g.size).reshape(g.shape)
    slopes = slope.reshape(batch, n, length)
    dpath = (g * np.einsum("bcnw,bnw->bcn", seg, slopes)).sum(axis=1)
    return out, dvalues, dpath


class TestSegment:
    """Output index i reads only its clamped segment x[clamp(i-M .. i+M)],
    checked through warp_apply."""

    def test_interior_slice(self):
        x = TimeSeries(Tensor([1.0, 2.0, 3.0, 4.0, 5.0]))
        for d, want in ((-1.0, 2.0), (0.0, 3.0), (1.0, 4.0)):
            path = np.zeros(5)
            path[2] = d
            assert warp_apply(x, path, 1).values.data[0, 2] == pytest.approx(want, abs=1e-12)

    def test_edge_replication(self):
        x = TimeSeries(Tensor([1.0, 2.0, 3.0, 4.0, 5.0]))
        out = warp_apply(x, np.array([-1.0, 0.0, 0.0, 0.0, 1.0]), 1).values.data[0]
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0, 4.0, 5.0], atol=1e-12)

    def test_count_and_length(self):
        # an interior output depends on exactly the L = 21 samples around it
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 256)), requires_grad=True)
        with Tape() as tape:
            out = warp_apply(TimeSeries(x), rng.uniform(-9.0, 9.0, size=256), 10)
            assert out.values.data.shape == (1, 256)
            tape.backward(op_sum(out.values * Tensor(np.eye(256)[100].reshape(1, 256))))
        np.testing.assert_array_equal(np.flatnonzero(x.grad[0]), np.arange(90, 111))

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="shorter"):
            warp_apply(TimeSeries(Tensor([1.0, 2.0])), np.zeros(2), 1)

    def test_second_channel(self):
        x = TimeSeries(Tensor([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]))
        out = warp_apply(x, np.array([0.0, 1.0, 0.0]), 1).values.data
        np.testing.assert_allclose(out[:, 1], [3.0, 30.0], atol=1e-12)


class TestPhaseShiftAndCenter:
    """The numpy DFT construction is the reference the closed-form warp is
    held to; these pin the oracle itself."""

    def test_zero_delta_is_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 33))
        np.testing.assert_allclose(dft_warp_oracle(x, np.zeros((2, 33)), 5), x, atol=1e-12)

    def test_integer_shift_moves_center(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 1, 40))
        paths = rng.integers(-4, 5, size=(2, 40)).astype(float)
        out = dft_warp_oracle(x, paths, 4)
        for b in range(2):
            want = integer_warp_oracle(TimeSeries(Tensor(x[b])), paths[b]).values.data
            np.testing.assert_allclose(out[b], want, atol=1e-12)

    def test_center_matches_naive_inverse(self):
        # the centre sample of the full inverse DFT of the rotated spectrum
        rng = np.random.default_rng(6)
        seg = rng.normal(size=21)
        x = np.concatenate([seg, rng.normal(size=11)])[None, None]  # index 10 reads seg
        delta = np.zeros((1, 32))
        delta[0, 10] = 0.37
        k = np.arange(21)
        signed = np.where(k <= 10, k, k - 21)
        rotated = np.fft.fft(seg) * np.exp(2j * np.pi * signed * 0.37 / 21)
        naive = (np.exp(2j * np.pi * np.outer(k, k) / 21) @ rotated).real / 21
        assert dft_warp_oracle(x, delta, 10)[0, 0, 10] == pytest.approx(naive[10], abs=1e-12)

    def test_gradient_wrt_delta(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 30))
        paths = rng.uniform(-3.0, 3.0, size=(1, 30))
        _, slope = dft_warp_oracle(x, paths, 4, derivative=True)
        h = 1e-6
        numeric = (dft_warp_oracle(x, paths + h, 4) - dft_warp_oracle(x, paths - h, 4)) / (2 * h)
        np.testing.assert_allclose(slope, numeric, atol=1e-7)


class TestClosedFormAgainstDft:
    @pytest.mark.parametrize("channels", [1, 2])
    def test_values_match_dft_oracle(self, channels):
        rng = np.random.default_rng(20 + channels)
        x = rng.normal(size=(8, channels, 128))
        paths = make_path(Tensor(rng.normal(size=(8, 128))), 8.0, 10).data
        got = warp_apply(Tensor(x), paths, 10).data
        assert np.max(np.abs(got - dft_warp_oracle(x, paths, 10))) < 1e-12

    @pytest.mark.parametrize("channels", [1, 2])
    def test_classifier_gradients_match_dft_oracle(self, channels):
        rng = np.random.default_rng(30 + channels)
        x = rng.normal(size=(8, channels, 128))
        phi = rng.normal(size=(8, 128))
        labels = rng.integers(0, 3, size=8)
        clf = Classifier(channels, 3, seed=channels)

        def grads(warp):
            xt, pt = Tensor(x, requires_grad=True), Tensor(phi, requires_grad=True)
            with Tape() as tape:
                path = make_path(pt, 8.0, 10)
                _, logits = forward(clf, warp(xt, path, 10))
                tape.backward(op_sum(loss_ce(logits, labels)))
            return xt.grad, pt.grad

        gx, gphi = grads(warp_apply)
        gx_dft, gphi_dft = grads(dft_warp_op)
        assert np.max(np.abs(gx - gx_dft)) < 1e-10
        assert np.max(np.abs(gphi - gphi_dft)) < 1e-10


class TestWarpApply:
    def test_zero_path_identity(self):
        rng = np.random.default_rng(8)
        x = TimeSeries(Tensor(rng.normal(size=64)))
        out = warp_apply(x, np.zeros(64), 5)
        np.testing.assert_allclose(out.values.data, x.values.data, atol=1e-10)

    def test_matches_integer_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = TimeSeries(Tensor(rng.normal(size=48)), label=3, domain_tag="train")
            path = rng.integers(-4, 5, size=48).astype(float)
            got = warp_apply(x, path, 4)
            want = integer_warp_oracle(x, path)
            np.testing.assert_allclose(got.values.data, want.values.data, atol=1e-9)
            assert got.label == 3 and got.domain_tag == "train"

    def test_fractional_shift_of_aligned_sinusoid(self):
        # Period L/3 content lies exactly on a window bin, so the band-limited
        # interpolation of a 0.5-sample shift is analytic on the interior.
        m, n = 10, 128
        length = 2 * m + 1
        t = np.arange(n)
        freq = 3.0 / length
        x = TimeSeries(Tensor(np.sin(2 * np.pi * freq * t)))
        out = warp_apply(x, np.full(n, 0.5), m).values.data[0]
        want = np.sin(2 * np.pi * freq * (t + 0.5))
        np.testing.assert_allclose(out[m:n - m], want[m:n - m], atol=1e-9)

    def test_fractional_shift_of_period_32_sinusoid(self):
        # Period 32 is not bin-aligned for L=21, so rectangular-window leakage
        # limits accuracy; measured interior error is ~4e-2.
        m, n = 10, 128
        t = np.arange(n)
        x = TimeSeries(Tensor(np.sin(2 * np.pi * t / 32.0)))
        out = warp_apply(x, np.full(n, 0.5), m).values.data[0]
        want = np.sin(2 * np.pi * (t + 0.5) / 32.0)
        assert np.max(np.abs(out[m:n - m] - want[m:n - m])) < 5e-2

    def test_linearity_in_signal(self):
        rng = np.random.default_rng(10)
        path = rng.uniform(-3, 3, size=40)
        xa, xb = rng.normal(size=40), rng.normal(size=40)
        a, b = 2.5, -1.25
        combined = warp_apply(TimeSeries(Tensor(a * xa + b * xb)), path, 4).values.data
        separate = a * warp_apply(TimeSeries(Tensor(xa)), path, 4).values.data \
            + b * warp_apply(TimeSeries(Tensor(xb)), path, 4).values.data
        np.testing.assert_allclose(combined, separate, atol=1e-9)

    def test_gradient_wrt_path(self):
        rng = np.random.default_rng(11)
        x = TimeSeries(Tensor(rng.normal(size=32)))
        w = rng.normal(size=32)
        def loss(path):
            out = warp_apply(x, path, 4)
            return op_sum(out.values * Tensor(w.reshape(1, 32)))
        err = finite_diff_check(loss, Tensor(rng.uniform(-3.0, 3.0, size=32)))
        assert err < 1e-4

    def test_gradient_wrt_signal(self):
        rng = np.random.default_rng(12)
        path = rng.uniform(-2.0, 2.0, size=24)
        w = rng.normal(size=(1, 24))
        def loss(values):
            out = warp_apply(TimeSeries(values), path, 3)
            return op_sum(out.values * Tensor(w))
        err = finite_diff_check(loss, Tensor(rng.normal(size=(1, 24))))
        assert err < 1e-4

    def test_multichannel_shares_path(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=30)
        path = rng.integers(-3, 4, size=30).astype(float)
        x2 = TimeSeries(Tensor(np.stack([base, 2.0 * base])))
        out = warp_apply(x2, path, 3)
        np.testing.assert_allclose(out.values.data[1], 2.0 * out.values.data[0], atol=1e-9)

    def test_batched_rows_equal_single_series(self):
        rng = np.random.default_rng(14)
        values = rng.normal(size=(3, 2, 30))
        paths = rng.uniform(-3.0, 3.0, size=(3, 30))
        out = warp_apply(Tensor(values), paths, 4)
        assert out.data.shape == (3, 2, 30)
        for i in range(3):
            single = warp_apply(TimeSeries(Tensor(values[i])), paths[i], 4).values.data
            np.testing.assert_allclose(out.data[i], single, rtol=0, atol=1e-12)

    def test_two_channels_equal_two_single_channel_warps(self):
        # channels share the path's kernel: a 2-channel warp is bitwise the
        # two 1-channel warps, and its path gradient is the sum of theirs
        rng = np.random.default_rng(16)
        values = rng.normal(size=(3, 2, 40))
        paths = make_path(Tensor(rng.normal(size=(3, 40))), 8.0, 10).data
        weights = rng.normal(size=(3, 2, 40))

        def run(c):
            x = Tensor(values[:, c], requires_grad=True)
            path = Tensor(paths, requires_grad=True)
            with Tape() as tape:
                out = warp_apply(x, path, 10)
                tape.backward(op_sum(out * Tensor(weights[:, c])))
            return out.data, x.grad, path.grad

        both, one, two = run(slice(None)), run(slice(0, 1)), run(slice(1, 2))
        for i in range(2):
            np.testing.assert_array_equal(both[i], np.concatenate([one[i], two[i]], axis=1))
        np.testing.assert_array_equal(both[2], one[2] + two[2])

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("n", [32, 128])
    def test_tape_node_count(self, batch, n):
        # one node for a batch, whatever B, N or C and whichever inputs need
        # gradients; a series with a path vector adds one reshape each side
        rng = np.random.default_rng(15)
        for channels, x_grad, path_grad in ((1, False, True), (1, True, True), (3, True, False),
                                            (3, True, True)):
            x = Tensor(rng.normal(size=(batch, channels, n)), requires_grad=x_grad)
            path = Tensor(rng.uniform(-3.0, 3.0, size=(batch, n)), requires_grad=path_grad)
            with Tape() as tape:
                out = warp_apply(x, path, 4)
            assert len(tape.nodes) == 1 and tape.nodes[0].out == out.handle
        series = TimeSeries(Tensor(rng.normal(size=(2, n))))
        with Tape() as tape:
            out = warp_apply(series, Tensor(rng.uniform(-3.0, 3.0, size=n), requires_grad=True), 4)
        assert len(tape.nodes) == 3 and tape.nodes[-1].out == out.values.handle

    def test_row_blocks_equal_their_sub_batches(self):
        # 17 series of 128 entries span three row blocks (8, 8 and 1 series)
        n = 128
        step = WARP_BLOCK_ROWS // n
        batch = 2 * step + 1
        rng = np.random.default_rng(16)
        values = rng.normal(size=(batch, 2, n))
        paths = make_path(Tensor(rng.normal(size=(batch, n))), 8.0, 10).data
        g = rng.normal(size=values.shape)

        def run(rows):
            x = Tensor(values[rows], requires_grad=True)
            path = Tensor(paths[rows], requires_grad=True)
            with Tape() as tape:
                out = warp_apply(x, path, 10)
                tape.backward(op_sum(out * Tensor(g[rows])))
            return out.data, x.grad, path.grad

        whole = run(slice(None))
        parts = [run(slice(lo, lo + step)) for lo in range(0, batch, step)]
        assert len(parts) == 3
        for i in range(3):
            np.testing.assert_array_equal(whole[i], np.concatenate([part[i] for part in parts]))
        # values and paths, every 53rd coordinate, so each block of both leaves
        err = finite_diff_check(lambda x, path: op_sum(warp_apply(x, path, 10) * Tensor(g)),
                                Tensor(values), Tensor(paths),
                                coords=range(0, values.size + paths.size, 53))
        assert err < THRESHOLD

    @pytest.mark.parametrize("values_grad", [False, True], ids=["constant", "differentiable"])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_bitwise_equal_to_flat_index_gather(self, batch, channels, values_grad):
        rng = np.random.default_rng(100 * batch + 10 * channels + values_grad)
        values = rng.normal(size=(batch, channels, 64))
        paths = rng.uniform(-10.0, 10.0, size=(batch, 64))
        g = rng.normal(size=values.shape)
        x = Tensor(values, requires_grad=values_grad)
        path = Tensor(paths, requires_grad=True)
        with Tape() as tape:
            out = warp_apply(x, path, 10)
            tape.backward(op_sum(out * Tensor(g)))
        want_out, want_dvalues, want_dpath = flat_index_warp(values, paths, 10, g)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(path.grad, want_dpath)
        if values_grad:
            np.testing.assert_array_equal(x.grad, want_dvalues)
        assert not _window(64, 10).flags.writeable  # every call shares it

    def test_path_rule_keeps_no_values(self):
        # the path's rule reads only the factor the forward formed, so while
        # the tape lives nothing of the node holds the constant values
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 2, 64)))
        path = Tensor(rng.uniform(-10.0, 10.0, size=(3, 64)), requires_grad=True)
        values = weakref.ref(x.data)
        with Tape() as tape:
            out = warp_apply(x, path, 10)
            del x
            gc.collect()
            assert values() is None
            tape.backward(op_sum(out))
        assert path.grad.shape == (3, 64)

    def test_path_validation(self):
        x = TimeSeries(Tensor(np.zeros(16) + 1.0))
        with pytest.raises(ValueError, match="length"):
            warp_apply(x, np.zeros(8), 3)
        with pytest.raises(ValueError, match="exceeds"):
            warp_apply(x, np.full(16, 4.0), 3)
        with pytest.raises(ValueError, match="2 paths for 3 series"):
            warp_apply(Tensor(np.ones((3, 1, 16))), np.zeros((2, 16)), 3)


class TestIntegerOracle:
    def test_identity(self):
        x = TimeSeries(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(integer_warp_oracle(x, np.zeros(3)).values.data,
                                      x.values.data)

    def test_hand_mapping(self):
        x = TimeSeries(Tensor([10.0, 20.0, 30.0, 40.0]))
        out = integer_warp_oracle(x, np.array([0.0, 1.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out.values.data, [[10.0, 30.0, 40.0, 40.0]])

    def test_fractional_entry_rejected(self):
        x = TimeSeries(Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="integer"):
            integer_warp_oracle(x, np.array([0.0, 0.5, 0.0]))

    def test_clamps_at_edges(self):
        x = TimeSeries(Tensor([1.0, 2.0, 3.0]))
        out = integer_warp_oracle(x, np.array([-2.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values.data, [[1.0, 2.0, 3.0]])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=4))
def test_prop_integer_equivalence(seed, half_width):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2 * half_width + 1, 40))
    x = TimeSeries(Tensor(rng.normal(size=n)))
    path = rng.integers(-half_width, half_width + 1, size=n).astype(float)
    got = warp_apply(x, path, half_width).values.data
    want = integer_warp_oracle(x, path).values.data
    np.testing.assert_allclose(got, want, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_prop_zero_path_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(11, 64))
    x = TimeSeries(Tensor(rng.normal(size=n)))
    out = warp_apply(x, np.zeros(n), 5).values.data
    np.testing.assert_allclose(out, x.values.data, atol=1e-10)
