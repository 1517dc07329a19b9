import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpada import tensor as T
from warpada.tensor import Tape, Tensor, finite_diff_check


def grad_of(f, x_data):
    x = Tensor(np.asarray(x_data, dtype=float), requires_grad=True)
    with Tape() as tape:
        y = f(x)
        tape.backward(y)
    return x.grad


class TestElementwise:
    def test_add(self):
        out = T.op_add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_by_zero_tensor_kills_gradient(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            y = T.op_sum(T.op_mul(x, Tensor([0.0, 0.0, 0.0])))
            tape.backward(y)
        np.testing.assert_array_equal(y.data, 0.0)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0])

    def test_div_by_zero_raises_in_checked_mode(self):
        with pytest.raises(ValueError, match="zero"):
            T.op_div(Tensor([1.0]), Tensor([0.0]))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError) as err:
            T.op_add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
        assert "(2,)" in str(err.value) and "(3,)" in str(err.value)

    def test_scalar_broadcast_and_its_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        c = Tensor(2.0, requires_grad=True)
        with Tape() as tape:
            y = T.op_sum(x * c)
            tape.backward(y)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        assert c.grad == pytest.approx(6.0)  # sum of x

    def test_row_broadcast_and_its_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        col = Tensor([[1.0], [10.0]], requires_grad=True)
        with Tape() as tape:
            y = T.op_mul(x, col)
            tape.backward(T.op_sum(T.op_add(col, y)))
        np.testing.assert_array_equal(y.data, [[0.0, 1.0, 2.0], [30.0, 40.0, 50.0]])
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0, 1.0], [10.0, 10.0, 10.0]])
        # the column collects its row sums, plus 3 from the add
        np.testing.assert_array_equal(col.grad, [[6.0], [15.0]])

    def test_no_other_broadcasting(self):
        for a, b in (((1, 3), (2, 3)), ((2, 1), (3, 4)), ((3,), (2, 3)), ((2, 1, 3), (2, 1, 1))):
            with pytest.raises(ValueError, match="shape mismatch"):
                T.op_add(Tensor(np.zeros(a)), Tensor(np.zeros(b)))

    def test_nonfinite_values_pass_through_ops(self):
        # finiteness is checked where values enter the program, not per op
        x = Tensor([np.inf, 1.0, np.nan])
        out = T.op_mul(T.op_add(x, 1.0), 2.0).data
        assert out[0] == np.inf and out[1] == 4.0 and np.isnan(out[2])
        rows = T.op_dirichlet_filter(Tensor(np.ones(3)), np.array([[0, 1, 2]]),
                                     Tensor([[np.nan]]), 3)
        assert np.isnan(rows.data).all()

    def test_log_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            T.op_log(Tensor([1.0, 0.0]))

    def test_relu_values_and_subgradient_at_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.op_sum(T.op_relu(x))
            tape.backward(y)
        np.testing.assert_array_equal(y.data, 2.0)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])



def dirichlet_oracle(t, length):
    """D(t) = sin(pi t) / (L sin(pi t / L)) and its slope D'(t), elementwise
    in plain numpy: the closed form per tap that op_dirichlet_filter
    evaluates per row.  Below DIRICHLET_SERIES_BELOW the removable
    singularity at 0 is taken by the Taylor series D = 1 - a t^2 + b t^4."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < T.DIRICHLET_SERIES_BELOW
    safe = np.where(small, 1.0, t)
    s_half = np.sin(np.pi * safe / length)
    value = np.sin(np.pi * safe) / (length * s_half)
    slope = np.pi / (length * s_half) * (np.cos(np.pi * safe)
                                         - value * np.cos(np.pi * safe / length))
    sq = length * length
    a = np.pi ** 2 * (sq - 1) / (6.0 * sq)
    b = np.pi ** 4 * (sq - 1) * (3 * sq - 7) / (360.0 * sq * sq)
    return (np.where(small, 1.0 - t * t * (a - b * t * t), value),
            np.where(small, t * (4.0 * b * t * t - 2.0 * a), slope))


def kernel_rows(shifts, length):
    """D(shift - w) and D'(shift - w) for w = -M..M, (len(shifts), L), read
    off op_dirichlet_filter: row (i, j) filters the one-hot segment of tap
    j by shifts[i]."""
    n = len(shifts)
    index = np.tile(np.arange(length * length).reshape(length, length), (n, 1))
    probe = Tensor(np.repeat(np.asarray(shifts, dtype=float), length)[:, None],
                   requires_grad=True)
    with Tape() as tape:
        out = T.op_dirichlet_filter(Tensor(np.eye(length).ravel()), index, probe, length)
        tape.backward(T.op_sum(out))
    return out.data.reshape(n, length), probe.grad.reshape(n, length)


class TestDirichlet:
    @pytest.mark.parametrize("m", [2, 10])
    def test_matches_exact_cosine_sums(self, m):
        # the fused op and the numpy oracle both against the cosine sum
        # D(t) = (1/L) sum_k cos(2 pi k t / L), at every tap of shifts at and
        # near integers, at half-integers and at the edges of the domain
        length = 2 * m + 1
        k = np.arange(-m, m + 1)
        shifts = np.array([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4,
                           1e-3, -1e-3, 0.5, -0.5, 1.5, 1.0 + 1e-9, -1.0 - 1e-6,
                           2.0 - 3e-4, 1.3, m, -m, m + 0.7, -m - 0.7])
        t = shifts[:, None] - k
        angle = 2.0 * np.pi * t[..., None] * k / length
        value = np.cos(angle).sum(axis=-1) / length
        slope = -2.0 * np.pi / length ** 2 * (k * np.sin(angle)).sum(axis=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got_value, got_slope in (kernel_rows(shifts, length),
                                         dirichlet_oracle(t, length)):
                assert np.max(np.abs(got_value - value)) < 1e-12
                assert np.max(np.abs(got_slope - slope)) < 1e-10

    @pytest.mark.parametrize("m", [2, 10])
    def test_matches_numpy_oracle(self, m):
        length = 2 * m + 1
        rng = np.random.default_rng(m)
        source = rng.normal(size=40)
        index = rng.integers(0, 40, size=(60, length))
        shifts = rng.uniform(-m - 0.9, m + 0.9, size=(60, 1))
        shifts[::4] = rng.integers(-m, m + 1, size=(15, 1))
        shifts[1::4] += rng.choice([-1e-9, 3e-5, -2e-4], size=(15, 1))
        weights = rng.normal(size=(60, 1))
        x, delta = Tensor(source, requires_grad=True), Tensor(shifts, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() as tape:
                out = T.op_dirichlet_filter(x, index, delta, length)
                tape.backward(T.op_sum(T.op_mul(out, Tensor(weights))))
            value, slope = dirichlet_oracle(shifts - np.arange(-m, m + 1), length)
        seg = source[index]
        assert np.max(np.abs(out.data - (seg * value).sum(axis=1, keepdims=True))) < 1e-12
        want_dx = np.bincount(index.ravel(), weights=(weights * value).ravel(), minlength=40)
        assert np.max(np.abs(x.grad - want_dx)) < 1e-10
        want_dshift = weights * (seg * slope).sum(axis=1, keepdims=True)
        assert np.max(np.abs(delta.grad - want_dshift)) < 1e-10

    def test_removable_singularity(self):
        # the tap w = k of an integer shift k reads exactly D(0) = 1, D'(0) = 0
        value, slope = kernel_rows([0.0, 2.0, -3.0], 7)
        assert value[0, 3] == value[1, 5] == value[2, 0] == 1.0
        assert slope[0, 3] == slope[1, 5] == slope[2, 0] == 0.0

    def test_integer_taps_pick_one_sample(self):
        value, _ = kernel_rows(np.arange(-3.0, 4.0), 7)
        np.testing.assert_allclose(value, np.eye(7), atol=1e-15)

    def test_domain_and_length_checked(self):
        source, index = Tensor(np.zeros(7)), np.arange(7)[None]
        T.op_dirichlet_filter(source, index, Tensor([[3.99]]), 7)
        with pytest.raises(ValueError, match="below L"):
            T.op_dirichlet_filter(source, index, Tensor([[-4.0]]), 7)
        with pytest.raises(ValueError, match="odd"):
            T.op_dirichlet_filter(source, index[:, :6], Tensor([[0.0]]), 6)
        with pytest.raises(ValueError, match="range"):
            T.op_dirichlet_filter(source, index + 1, Tensor([[0.0]]), 7)
        with pytest.raises(ValueError, match="shifts shape"):
            T.op_dirichlet_filter(source, index, Tensor([0.0]), 7)
        with pytest.raises(ValueError, match="integer array"):
            T.op_dirichlet_filter(source, index[:, :5], Tensor([[0.0]]), 7)


class TestReductions:
    def test_sum_gradient_is_ones(self):
        g = grad_of(T.op_sum, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(g, np.ones((2, 2)))

    def test_min_first_occurrence_tie_break(self):
        # the minimum as -max(-x) routes its gradient to the first minimum
        x = Tensor([3.0, 1.0, 1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.op_sum(-T.op_max_reduce(-x))
            tape.backward(y)
        assert y.item() == 1.0
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])

    def test_max_singleton(self):
        np.testing.assert_array_equal(T.op_max_reduce(Tensor([5.0])).data, [5.0])

    def test_extremum_empty_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            T.op_max_reduce(Tensor([]))
        with pytest.raises(ValueError, match="rank 1"):
            T.op_max_reduce(Tensor(5.0))

    def test_last_axis_reductions_per_row(self):
        data = np.array([[3.0, 1.0, 1.0, 2.0], [0.0, 5.0, -2.0, 5.0]])
        np.testing.assert_array_equal(T.op_sum(Tensor(data), axis=-1).data, [[7.0], [8.0]])
        np.testing.assert_array_equal(T.op_max_reduce(Tensor(data)).data,
                                      [[3.0], [5.0]])
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            tape.backward(T.op_sum(T.op_max_reduce(x)))
        # first attaining index per row
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="axis"):
            T.op_sum(Tensor(data), axis=0)


class TestMatmul:
    def test_identity(self):
        v = np.arange(3.0).reshape(3, 1)
        out = T.op_matmul(Tensor(np.eye(3)), Tensor(v))
        np.testing.assert_array_equal(out.data, v)

    def test_hand_computation(self):
        out = T.op_matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="inner"):
            T.op_matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_4x5_5x3(self):
        rng = np.random.default_rng(0)
        b = Tensor(rng.normal(size=(5, 3)))
        err = finite_diff_check(lambda a: T.op_sum(T.op_matmul(a, b)),
                                Tensor(rng.normal(size=(4, 5))))
        assert err < 1e-6
        a = Tensor(rng.normal(size=(4, 5)))
        err = finite_diff_check(lambda b: T.op_sum(T.op_matmul(a, b)),
                                Tensor(rng.normal(size=(5, 3))))
        assert err < 1e-6


class TestConv1d:
    def test_identity_kernel(self):
        out = T.op_conv1d(Tensor([[1.0, 2.0, 3.0]]), Tensor([[[1.0]]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_hand_computation_no_pad(self):
        out = T.op_conv1d(Tensor([[1.0, 2.0, 3.0, 4.0]]), Tensor([[[1.0, 1.0]]]),
                          stride=1, pad=0)
        np.testing.assert_array_equal(out.data, [[3.0, 5.0, 7.0]])

    def test_same_padding_default(self):
        out = T.op_conv1d(Tensor([[1.0, 2.0, 3.0, 4.0]]), Tensor([[[1.0, 1.0, 1.0]]]))
        np.testing.assert_array_equal(out.data, [[3.0, 6.0, 9.0, 7.0]])

    def test_stride_two_output_length(self):
        out = T.op_conv1d(Tensor([[1.0, 2.0, 3.0, 4.0, 5.0]]), Tensor([[[1.0]]]),
                          stride=2, pad=0)
        np.testing.assert_array_equal(out.data, [[1.0, 3.0, 5.0]])

    def test_kernel_wider_than_padded_input_raises(self):
        with pytest.raises(ValueError, match="width"):
            T.op_conv1d(Tensor([[1.0, 2.0]]), Tensor([[[1.0] * 7]]), pad=0)

    def test_gradient_wrt_input_and_kernels(self):
        rng = np.random.default_rng(1)
        kernels = Tensor(rng.normal(size=(3, 2, 3)))
        err = finite_diff_check(lambda x: T.op_sum(T.op_conv1d(x, kernels)),
                                Tensor(rng.normal(size=(2, 16))))
        assert err < 1e-5
        x = Tensor(rng.normal(size=(2, 16)))
        err = finite_diff_check(lambda k: T.op_sum(T.op_conv1d(x, k)),
                                Tensor(rng.normal(size=(3, 2, 3))))
        assert err < 1e-5

    def test_batch_rows_equal_single_inputs(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2, 13))
        kernels = Tensor(rng.normal(size=(3, 2, 5)))
        bias = Tensor(rng.normal(size=3))
        out = T.op_conv1d(Tensor(x), kernels, stride=2, bias=bias).data
        assert out.shape == (4, 3, 7)
        for i in range(4):
            np.testing.assert_allclose(
                out[i], T.op_conv1d(Tensor(x[i]), kernels, stride=2, bias=bias).data,
                rtol=0, atol=1e-12)

    def test_gradient_with_stride_and_bias(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 11)))
        kernels = Tensor(rng.normal(size=(4, 2, 3)))
        err = finite_diff_check(
            lambda b: T.op_sum(T.op_conv1d(x, kernels, stride=2, bias=b)),
            Tensor(rng.normal(size=(4,))))
        assert err < 1e-6


class TestIndexing:
    def test_gather_values_and_scatter_add_backward(self):
        x = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        with Tape() as tape:
            y = T.op_sum(T.op_gather(x, np.array([0, 2, 2])))
            tape.backward(y)
        assert y.item() == 70.0
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 2.0])

    def test_gather_range_check(self):
        with pytest.raises(ValueError, match="range"):
            T.op_gather(Tensor([1.0, 2.0]), np.array([2]))

    def test_gather_2d_index_shape(self):
        out = T.op_gather(Tensor([1.0, 2.0, 3.0]), np.array([[0, 1], [2, 2]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 3.0]])

    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        with Tape() as tape:
            y = T.op_sum(T.op_mul(T.op_reshape(x, (2, 3)), Tensor(np.ones((2, 3)) * 2.0)))
            tape.backward(y)
        np.testing.assert_array_equal(x.grad, np.full(6, 2.0))


class TestBackward:
    def test_backward_sum_gives_ones(self):
        g = grad_of(T.op_sum, np.arange(5.0))
        np.testing.assert_array_equal(g, np.ones(5))

    def test_product_rule_by_hand(self):
        # d/dx (x*y + x) = y + 1 at x=2, y=5
        x = Tensor(2.0, requires_grad=True)
        y = Tensor(5.0, requires_grad=True)
        with Tape() as tape:
            z = x * y + x
            tape.backward(z)
        assert float(x.grad) == pytest.approx(6.0)
        assert float(y.grad) == pytest.approx(2.0)

    def test_fan_out_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            z = x * x  # both operands are the same tensor
            tape.backward(z)
        assert float(x.grad) == pytest.approx(6.0)

    def test_non_scalar_root_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = x * 2.0
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(y)

    def test_empty_tape_raises(self):
        with Tape() as tape:
            with pytest.raises(ValueError, match="empty"):
                tape.backward(Tensor(1.0, requires_grad=True))

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            pass
        _ = T.op_sum(x)  # outside any tape
        assert tape.nodes == []

    def test_grads_overwritten_not_accumulated_across_backwards(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                tape.backward(T.op_sum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=8)
        runs = []
        for _ in range(2):
            x = Tensor(data.copy(), requires_grad=True)
            with Tape() as tape:
                y = T.op_sum(T.op_exp(T.op_mul(x, x)))
                tape.backward(y)
            runs.append(x.grad.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestFiniteDiffCheck:
    def test_sum_error_near_zero(self):
        assert finite_diff_check(T.op_sum, Tensor(np.arange(4.0))) < 1e-10

    def test_square_at_three(self):
        err = finite_diff_check(lambda x: x * x, Tensor(3.0))
        assert err < 1e-9

    def test_min_max_gradients_distinct_entries(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.permutation(np.linspace(-2.0, 2.0, 9)))
        assert finite_diff_check(lambda v: T.op_sum(-T.op_max_reduce(-v)), x) < 1e-8
        assert finite_diff_check(lambda v: T.op_sum(T.op_max_reduce(v)), x) < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=16))
def test_exp_log_chain_gradient_matches_finite_differences(values):
    x = Tensor(np.asarray(values))
    err = finite_diff_check(lambda t: T.op_sum(T.op_log(T.op_exp(t) + 1.0)), x)
    assert err < 1e-5


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-10.5, max_value=10.5), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=10**6))
def test_dirichlet_gradient_matches_finite_differences(values, seed):
    # shifts anywhere in the warp's domain at L = 21, integers included
    rng = np.random.default_rng(seed)
    source = Tensor(rng.normal(size=30))
    index = rng.integers(0, 30, size=(len(values), 21))
    w = Tensor(rng.normal(size=(len(values), 1)))
    x = Tensor(np.asarray(values)[:, None])
    err = finite_diff_check(
        lambda t: T.op_sum(T.op_mul(w, T.op_dirichlet_filter(source, index, t, 21))), x)
    assert err < 1e-5
