import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpada.signal import (
    SpectrumFrame,
    TimeSeries,
    center_extract,
    dft_forward,
    integer_warp_oracle,
    phase_shift,
    segment,
    warp_apply,
)
from warpada.tensor import Tape, Tensor, finite_diff_check, op_sum


def naive_inverse_dft(frame: SpectrumFrame) -> np.ndarray:
    length = frame.length
    coeff = frame.re.data + 1j * frame.im.data
    n = np.arange(length)
    k = np.arange(length)
    basis = np.exp(2j * np.pi * np.outer(n, k) / length)
    return (basis @ coeff).real / length


class TestSegment:
    def test_interior_slice(self):
        x = TimeSeries(Tensor([1.0, 2.0, 3.0, 4.0, 5.0]))
        np.testing.assert_array_equal(segment(x, 1)[2].data, [2.0, 3.0, 4.0])

    def test_edge_replication(self):
        x = TimeSeries(Tensor([1.0, 2.0, 3.0, 4.0, 5.0]))
        np.testing.assert_array_equal(segment(x, 1)[0].data, [1.0, 1.0, 2.0])
        np.testing.assert_array_equal(segment(x, 1)[4].data, [4.0, 5.0, 5.0])

    def test_count_and_length(self):
        rng = np.random.default_rng(0)
        x = TimeSeries(Tensor(rng.normal(size=256)))
        segs = segment(x, 10)
        assert len(segs) == 256
        assert all(s.data.shape == (21,) for s in segs)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="shorter"):
            segment(TimeSeries(Tensor([1.0, 2.0])), 1)

    def test_second_channel(self):
        x = TimeSeries(Tensor([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]))
        np.testing.assert_array_equal(segment(x, 1, channel=1)[1].data, [10.0, 20.0, 30.0])


class TestDft:
    def test_dc_signal(self):
        frame = dft_forward(Tensor(np.full(7, 3.0)))
        assert frame.re.data[0] == pytest.approx(21.0, abs=1e-10)
        np.testing.assert_allclose(frame.re.data[1:], 0.0, atol=1e-10)
        np.testing.assert_allclose(frame.im.data, 0.0, atol=1e-10)

    def test_unit_impulse(self):
        frame = dft_forward(Tensor([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(frame.re.data, 1.0, atol=1e-12)
        np.testing.assert_allclose(frame.im.data, 0.0, atol=1e-12)

    def test_round_trip_against_naive_inverse(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=21)
        np.testing.assert_allclose(naive_inverse_dft(dft_forward(Tensor(s))), s, atol=1e-10)

    def test_matches_numpy_fft(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=21)
        frame = dft_forward(Tensor(s))
        ref = np.fft.fft(s)
        np.testing.assert_allclose(frame.re.data, ref.real, atol=1e-10)
        np.testing.assert_allclose(frame.im.data, ref.imag, atol=1e-10)

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(3)
        frame = dft_forward(Tensor(rng.normal(size=9)))
        coeff = frame.re.data + 1j * frame.im.data
        for k in range(1, 9):
            assert abs(coeff[k] - np.conj(coeff[(9 - k) % 9])) < 1e-10


class TestPhaseShiftAndCenter:
    def test_zero_delta_is_identity(self):
        rng = np.random.default_rng(4)
        frame = dft_forward(Tensor(rng.normal(size=11)))
        shifted = phase_shift(frame, Tensor(0.0))
        np.testing.assert_allclose(shifted.re.data, frame.re.data, atol=1e-12)
        np.testing.assert_allclose(shifted.im.data, frame.im.data, atol=1e-12)

    def test_integer_shift_moves_center(self):
        seg = np.array([11.0, 5.0, -3.0, 7.0, 2.0])  # L=5, center index 2
        frame = dft_forward(Tensor(seg))
        out = center_extract(phase_shift(frame, Tensor(2.0)))
        # positive delta advances: center reads index 2+2 (circularly)
        assert out.item() == pytest.approx(seg[4], abs=1e-10)
        out = center_extract(phase_shift(frame, Tensor(-1.0)))
        assert out.item() == pytest.approx(seg[1], abs=1e-10)

    def test_center_round_trip(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=21)
        got = center_extract(dft_forward(Tensor(s)))
        assert got.item() == pytest.approx(s[10], abs=1e-10)

    def test_zero_frame_extracts_zero(self):
        frame = SpectrumFrame(Tensor(np.zeros(5)), Tensor(np.zeros(5)))
        assert center_extract(frame).item() == 0.0

    def test_center_matches_naive_inverse(self):
        rng = np.random.default_rng(6)
        frame = dft_forward(Tensor(rng.normal(size=21)))
        shifted = phase_shift(frame, Tensor(0.37))
        assert center_extract(shifted).item() == pytest.approx(
            naive_inverse_dft(shifted)[10], abs=1e-10)

    def test_gradient_wrt_delta(self):
        rng = np.random.default_rng(7)
        seg = rng.normal(size=21)
        def center_at(delta):
            return center_extract(phase_shift(dft_forward(Tensor(seg)), delta))
        assert finite_diff_check(center_at, Tensor(0.0)) < 1e-5
        assert finite_diff_check(center_at, Tensor(1.3)) < 1e-5

    def test_length_mismatch_raises(self):
        frame = dft_forward(Tensor(np.zeros(5) + 1.0))
        with pytest.raises(ValueError, match="length"):
            phase_shift(frame, Tensor(1.0), length=7)
        with pytest.raises(ValueError, match="length"):
            center_extract(frame, length=9)


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
