import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpada.signal import TimeSeries, warp_apply
from warpada.tensor import Tape, Tensor, finite_diff_check, op_sum
from warpada.warp import WarpParams, WarpPath, h1_monotone, h2_boundary, h3_clip, make_path


class TestH1:
    def test_zero_phi_gives_zeros(self):
        np.testing.assert_array_equal(h1_monotone(Tensor([0.0, 0.0, 0.0])).data, [0.0, 0.0, 0.0])

    def test_hand_computation(self):
        # increments phi - min = [1,0,2], cumsum [1,1,3]
        np.testing.assert_array_equal(h1_monotone(Tensor([2.0, 1.0, 3.0])).data, [1.0, 1.0, 3.0])

    def test_output_nondecreasing_over_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            out = h1_monotone(Tensor(rng.normal(size=16))).data
            assert np.all(np.diff(out) >= 0.0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="2"):
            h1_monotone(Tensor([1.0]))


class TestH2:
    def test_linear_cum_is_identity_path(self):
        np.testing.assert_allclose(h2_boundary(Tensor([0.0, 1.0, 2.0, 3.0])).data,
                                   [0.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_hand_computation(self):
        np.testing.assert_allclose(h2_boundary(Tensor([0.0, 0.0, 1.0, 1.0])).data,
                                   [0.0, -1.0, 1.0, 0.0], atol=1e-12)

    def test_constant_cum_degenerate_guard(self):
        np.testing.assert_array_equal(h2_boundary(Tensor([5.0, 5.0, 5.0, 5.0])).data,
                                      np.zeros(4))

    def test_endpoints_exact_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cum = np.cumsum(rng.uniform(0.0, 1.0, size=32))
            out = h2_boundary(Tensor(cum)).data
            assert out[0] == 0.0 and abs(out[-1]) < 1e-9


class TestH3:
    def test_within_bound_unchanged(self):
        path = h3_clip(Tensor([0.0, -1.0, 1.0, 0.0]), 10.0)
        np.testing.assert_allclose(path.displacements.data, [0.0, -1.0, 1.0, 0.0], atol=1e-12)

    def test_rescale_by_half(self):
        path = h3_clip(Tensor([0.0, 20.0, 0.0]), 10.0)
        np.testing.assert_allclose(path.displacements.data, [0.0, 10.0, 0.0], atol=1e-12)

    def test_zero_delta_scale_one(self):
        path = h3_clip(Tensor([0.0, 0.0, 0.0]), 3.0)
        np.testing.assert_array_equal(path.displacements.data, np.zeros(3))

    def test_nonpositive_phi_max_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            h3_clip(Tensor([1.0, 2.0]), 0.0)

    def test_gradient_through_active_rescale(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=8))
        def f(delta):
            return op_sum(h3_clip(delta, 2.0).displacements * w)
        err = finite_diff_check(f, Tensor(rng.uniform(3.0, 6.0, size=8)))
        assert err < 1e-5


class TestMakePath:
    def test_constant_phi_gives_zero_path(self):
        path = make_path(WarpParams(Tensor(np.full(16, 2.5))), 5.0)
        np.testing.assert_allclose(path.displacements.data, np.zeros(16), atol=1e-12)

    def test_invariants_over_1000_draws(self):
        rng = np.random.default_rng(3)
        worst = {"monotone": 0.0, "boundary": 0.0, "bound": 0.0}
        for _ in range(1000):
            path = make_path(Tensor(rng.normal(size=64)), 5.0)
            v = path.violations(5.0)
            worst = {k: max(worst[k], v[k]) for k in worst}
        assert worst["monotone"] < 1e-9
        assert worst["boundary"] < 1e-9
        assert worst["bound"] < 1e-9

    def test_headroom_check(self):
        with pytest.raises(ValueError, match="headroom"):
            make_path(Tensor(np.zeros(8)), 5.0, half_width=5)
        make_path(Tensor(np.zeros(8)), 4.0, half_width=5)  # boundary case allowed

    def test_gradient_through_full_chain_and_warp(self):
        rng = np.random.default_rng(4)
        x = TimeSeries(Tensor(rng.normal(size=32)))
        w = Tensor(rng.normal(size=(1, 32)))
        def f(phi):
            out = warp_apply(x, make_path(phi, 4.0), 5)
            return op_sum(out.values * w)
        err = finite_diff_check(f, Tensor(rng.normal(size=32)))
        assert err < 1e-4

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=48)
        base = make_path(Tensor(phi), 5.0).displacements.data
        for shift in (-100.0, 0.37, 42.0):
            out = make_path(Tensor(phi + shift), 5.0).displacements.data
            np.testing.assert_allclose(out, base, atol=1e-9)

    def test_equals_composed_chain(self):
        # make_path fuses the normalization for exact phi_0 cancellation;
        # algebraically it is still h3(h2(h1(.))).
        rng = np.random.default_rng(7)
        for _ in range(50):
            phi = rng.normal(size=40)
            fused = make_path(Tensor(phi), 5.0).displacements.data
            composed = h3_clip(h2_boundary(h1_monotone(Tensor(phi))), 5.0).displacements.data
            np.testing.assert_allclose(fused, composed, atol=1e-9)

    def test_bitwise_independent_of_first_coordinate(self):
        # when index 0 is not the argmin, phi_0 must not influence the path
        # at all, or finite-difference gradient checks drown in cancellation
        # noise
        rng = np.random.default_rng(8)
        phi = rng.normal(size=24)
        phi[0] = abs(phi[0]) + 1.0  # keep it away from the argmin
        base = make_path(Tensor(phi), 4.0).displacements.data
        phi2 = phi.copy()
        phi2[0] += 1e-5
        np.testing.assert_array_equal(make_path(Tensor(phi2), 4.0).displacements.data, base)

    def test_batched_rows_equal_single_paths(self):
        rng = np.random.default_rng(9)
        phi = rng.normal(size=(5, 40))
        phi[2] = 0.75  # a degenerate row among ordinary ones
        rows = make_path(Tensor(phi), 5.0).displacements.data
        assert rows.shape == (5, 40)
        for i in range(5):
            np.testing.assert_array_equal(rows[i],
                                          make_path(Tensor(phi[i]), 5.0).displacements.data)
        np.testing.assert_array_equal(rows[2], np.zeros(40))

    def test_degenerate_row_takes_zero_gradient(self):
        rng = np.random.default_rng(10)
        phi_data = rng.normal(size=(3, 24))
        phi_data[1] = -0.3
        phi = Tensor(phi_data, requires_grad=True)
        w = Tensor(rng.normal(size=(3, 24)))
        with Tape() as tape:
            tape.backward(op_sum(make_path(phi, 4.0).displacements * w))
        np.testing.assert_array_equal(phi.grad[1], np.zeros(24))
        assert np.any(phi.grad[0] != 0.0) and np.any(phi.grad[2] != 0.0)

    def test_gradient_reaches_phi(self):
        rng = np.random.default_rng(6)
        phi = Tensor(rng.normal(size=24), requires_grad=True)
        with Tape() as tape:
            path = make_path(phi, 4.0)
            tape.backward(op_sum(path.displacements * Tensor(rng.normal(size=24))))
        assert phi.grad is not None and np.any(phi.grad != 0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=0.5, max_value=8.0),
       st.integers(min_value=2, max_value=100))
def test_prop_all_paths_admissible(seed, phi_max, n):
    rng = np.random.default_rng(seed)
    phi = rng.normal(scale=float(rng.uniform(0.01, 10.0)), size=n)
    path = make_path(Tensor(phi), phi_max)
    v = path.violations(phi_max)
    assert v["monotone"] < 1e-9
    assert v["boundary"] < 1e-9
    assert v["bound"] < 1e-9
