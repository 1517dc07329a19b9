import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpada import model as M
from warpada import signal as S
from warpada import tensor as T
from warpada.model import entropy, loss_ce
from warpada.signal import warp_apply
from warpada.tensor import Tape, Tensor, finite_diff_check
from warpada.warp import make_path


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

    def test_no_other_broadcasting(self):
        for a, b in (((1, 3), (2, 3)), ((2, 1), (3, 4)), ((3,), (2, 3)), ((2, 1, 3), (2, 1, 1)),
                     ((2, 1), (2, 3)), ((2, 3), (2, 1))):
            for op in (T.op_add, T.op_sub, T.op_mul):
                with pytest.raises(ValueError, match="shape mismatch"):
                    op(Tensor(np.zeros(a)), Tensor(np.zeros(b)))

    def test_nonfinite_values_pass_through_ops(self):
        # finiteness is checked where values enter the program, not per op
        x = Tensor([np.inf, 1.0, np.nan])
        out = T.op_mul(T.op_add(x, 1.0), 2.0).data
        assert out[0] == np.inf and out[1] == 4.0 and np.isnan(out[2])
        warped = warp_apply(Tensor([[[1.0, np.inf, 1.0]]]), np.zeros((1, 3)), 1)
        assert not np.isfinite(warped.data).any()

    def test_relu_values_and_subgradient_at_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.op_sum(T.op_relu(x))
            tape.backward(y)
        np.testing.assert_array_equal(y.data, 2.0)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])



def dirichlet_oracle(t, length):
    """D(t) = sin(pi t) / (L sin(pi t / L)) and its slope D'(t), elementwise
    in plain numpy: the closed form per tap that the warp's kernel
    evaluates per row.  Below DIRICHLET_SERIES_BELOW the removable
    singularity at 0 is taken by the Taylor series D = 1 - a t^2 + b t^4."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < S.DIRICHLET_SERIES_BELOW
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
    """D(shift - w) and D'(shift - w) for w = -M..M, (len(shifts), L), from
    the warp's kernel."""
    value, slope = S._dirichlet_rows(np.asarray(shifts, dtype=float), length)
    return value, slope()


class TestDirichlet:
    @pytest.mark.parametrize("m", [2, 10])
    def test_matches_exact_cosine_sums(self, m):
        # the warp's kernel and the numpy oracle both against the cosine sum
        # D(t) = (1/L) sum_k cos(2 pi k t / L), at every tap of shifts at and
        # near integers, at half-integers and at the edges of the domain
        length = 2 * m + 1
        k = np.arange(-m, m + 1)
        shifts = np.array([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4,
                           1e-3, -1e-3, 0.5, -0.5, 1.5, 1.0 + 1e-9, -1.0 - 1e-6,
                           2.0 - 3e-4, 1.3, m, -m, m + 1e-9, -m - 1e-9, m - 0.3, -m + 0.3])
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
        # warp_apply's values and gradients on 3 rows of 2 channels against
        # the clamped-index sum weighted by the oracle kernel
        length = 2 * m + 1
        rng = np.random.default_rng(m)
        source = rng.normal(size=(3, 2, 40))
        paths = rng.uniform(-m, m, size=(3, 40))
        paths[:, ::4] = rng.integers(-m, m + 1, size=(3, 10))
        paths[:, 1::4] += rng.choice([-1e-9, 3e-5, -2e-4], size=(3, 10))
        paths = np.clip(paths, -m, m)
        weights = rng.normal(size=(3, 2, 40))
        x, delta = Tensor(source, requires_grad=True), Tensor(paths, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Tape() as tape:
                out = warp_apply(x, delta, m)
                tape.backward(T.op_sum(T.op_mul(out, Tensor(weights))))
            value, slope = dirichlet_oracle(paths[..., None] - np.arange(-m, m + 1), length)
        index = np.clip(np.arange(40)[:, None] + np.arange(-m, m + 1), 0, 39)
        seg = source[:, :, index]  # (3, 2, 40, L); every channel shares its row's kernel
        assert np.max(np.abs(out.data - (seg * value[:, None]).sum(axis=-1))) < 1e-12
        want_dx = np.zeros_like(source)
        for b, c in np.ndindex(3, 2):
            np.add.at(want_dx[b, c], index, weights[b, c, :, None] * value[b])
        assert np.max(np.abs(x.grad - want_dx)) < 1e-10
        want_dpath = (weights * (seg * slope[:, None]).sum(axis=-1)).sum(axis=1)
        assert np.max(np.abs(delta.grad - want_dpath)) < 1e-10

    def test_removable_singularity(self):
        # the tap w = k of an integer shift k reads exactly D(0) = 1, D'(0) = 0
        value, slope = kernel_rows([0.0, 2.0, -3.0], 7)
        assert value[0, 3] == value[1, 5] == value[2, 0] == 1.0
        assert slope[0, 3] == slope[1, 5] == slope[2, 0] == 0.0

    def test_integer_taps_pick_one_sample(self):
        value, _ = kernel_rows(np.arange(-3.0, 4.0), 7)
        np.testing.assert_allclose(value, np.eye(7), atol=1e-15)

    def test_domain_and_length_checked(self):
        # the warp's one domain check, |path| <= M up to rounding slack (nan
        # fails it), and a series at least as long as the window
        x = Tensor(np.zeros((1, 1, 7)))
        warp_apply(x, np.full((1, 7), 3.0), 3)
        warp_apply(x, np.full((1, 7), -3.0 - 1e-10), 3)
        for bad in (3.01, -4.0, np.nan):
            with pytest.raises(ValueError, match="exceeds window half-width 3"):
                warp_apply(x, np.full((1, 7), bad), 3)
        with pytest.raises(ValueError, match="shorter than window 9"):
            warp_apply(x, np.zeros((1, 7)), 4)


class TestReductions:
    def test_sum_gradient_is_ones(self):
        g = grad_of(T.op_sum, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(g, np.ones((2, 2)))

    def test_last_axis_reductions_per_row(self):
        data = np.array([[3.0, 1.0, 1.0, 2.0], [0.0, 5.0, -2.0, 5.0]])
        np.testing.assert_array_equal(T.op_sum(Tensor(data), axis=-1).data, [[7.0], [8.0]])
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            rows = T.op_sum(x, axis=-1)
            tape.backward(T.op_sum(T.op_mul(rows, Tensor([[2.0], [-1.0]]))))
        # each row's output gradient spread across its row
        np.testing.assert_array_equal(x.grad, [[2.0] * 4, [-1.0] * 4])
        with pytest.raises(ValueError, match="axis"):
            T.op_sum(Tensor(data), axis=0)


class TestConv1d:
    def test_identity_kernel(self):
        out = T.op_conv1d(Tensor([[1.0, 2.0, 3.0]]), Tensor([[[1.0]]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_hand_computation_no_pad(self):
        # a width-2 kernel gets (2 - 1) // 2 = 0 zeros each side
        out = T.op_conv1d(Tensor([[1.0, 2.0, 3.0, 4.0]]), Tensor([[[1.0, 1.0]]]), stride=1)
        np.testing.assert_array_equal(out.data, [[3.0, 5.0, 7.0]])

    def test_same_padding_default(self):
        out = T.op_conv1d(Tensor([[1.0, 2.0, 3.0, 4.0]]), Tensor([[[1.0, 1.0, 1.0]]]))
        np.testing.assert_array_equal(out.data, [[3.0, 6.0, 9.0, 7.0]])

    def test_stride_two_output_length(self):
        out = T.op_conv1d(Tensor([[1.0, 2.0, 3.0, 4.0, 5.0]]), Tensor([[[1.0]]]), stride=2)
        np.testing.assert_array_equal(out.data, [[1.0, 3.0, 5.0]])

    def test_kernel_wider_than_padded_input_raises(self):
        with pytest.raises(ValueError, match="width"):
            # width 8 pads 3 zeros each side: 1 + 6 = 7 < 8
            T.op_conv1d(Tensor([[1.0]]), Tensor([[[1.0] * 8]]))

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

    @staticmethod
    def padded_oracle(x, kernels, bias, stride, g):
        """conv1d by copying x into a zero-padded buffer: the output and the
        x, kernel and bias gradients for output gradient g."""
        batch, c_in, n = x.shape
        c_out, _, width = kernels.shape
        pad = (width - 1) // 2
        n_out = (n + 2 * pad - width) // stride + 1
        span = stride * (n_out - 1) + 1
        xp = np.zeros((batch, c_in, n + 2 * pad))
        xp[:, :, pad:pad + n] = x
        cols = np.empty((batch, c_in, width, n_out))
        for w in range(width):
            cols[:, :, w, :] = xp[:, :, w:w + span:stride]
        cols = cols.reshape(batch, c_in * width, n_out)
        kmat = kernels.reshape(c_out, c_in * width)
        out = np.matmul(kmat, cols)
        out += bias[:, None]
        dcols = np.matmul(kmat.T, g).reshape(batch, c_in, width, n_out)
        dxp = np.zeros((batch, c_in, n + 2 * pad))
        for w in range(width):
            dxp[:, :, w:w + span:stride] += dcols[:, :, w, :]
        dx = np.ascontiguousarray(dxp[:, :, pad:pad + n])
        dk = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(kernels.shape)
        return out, dx, dk, g.sum(axis=(0, 2))

    @pytest.mark.parametrize("stride,width,n", [
        (s, w, n) for s in (1, 2) for w in (1, 2, 3, 5) for n in (1, 2, 3, 4, 7, 16)
        if w <= n + 2 * ((w - 1) // 2)])
    def test_bitwise_equal_to_padded_oracle(self, stride, width, n):
        rng = np.random.default_rng(100 * stride + 10 * width + n)
        x = Tensor(rng.normal(size=(3, 2, n)), requires_grad=True)
        kernels = Tensor(rng.normal(size=(4, 2, width)), requires_grad=True)
        bias = Tensor(rng.normal(size=4), requires_grad=True)
        with Tape() as tape:
            out = T.op_conv1d(x, kernels, stride=stride, bias=bias)
            g = rng.normal(size=out.shape)
            # the output gradient of sum(out * g) is g exactly
            tape.backward(T.op_sum(T.op_mul(out, Tensor(g))))
        want = self.padded_oracle(x.data, kernels.data, bias.data, stride, g)
        for got, ref in zip((out.data, x.grad, kernels.grad, bias.grad), want):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


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
                y = T.op_sum(T.op_mul(T.op_relu(T.op_mul(x, x)), x))
                tape.backward(y)
            runs.append(x.grad.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


# Every op and fused term: (a function of its input tensors, the input
# shapes, the inputs' positions in the order their rules are recorded).
RULE_CASES = {
    "add": (T.op_add, [(2, 3), (2, 3)], (0, 1)),
    "sub": (T.op_sub, [(2, 3), ()], (0, 1)),
    "mul": (T.op_mul, [(), (2, 3)], (0, 1)),
    "conv1d": (lambda x, k, b: T.op_conv1d(x, k, stride=2, bias=b),
               [(2, 3, 8), (4, 3, 3), (4,)], (1, 0, 2)),
    "relu": (T.op_relu, [(2, 3)], (0,)),
    "warp_apply": (lambda x, p: warp_apply(x, p, 2), [(2, 2, 6), (2, 6)], (0, 1)),
    "sum": (lambda x: T.op_sum(x, axis=-1), [(2, 3)], (0,)),
    "gather": (lambda x: T.op_gather(x, np.array([[0, 2], [1, 1]])), [(4,)], (0,)),
    "reshape": (lambda x: T.op_reshape(x, (6,)), [(2, 3)], (0,)),
    "make_path": (lambda phi: make_path(phi, 2.0), [(2, 6)], (0,)),
    "loss_ce": (lambda s: loss_ce(s, np.array([0, 2])), [(2, 3)], (0,)),
    "entropy": (entropy, [(2, 3)], (0,)),
    "pool": (M._pool, [(2, 4, 5)], (0,)),
    "affine": (M._affine, [(2, 4), (3, 4), (3,)], (0, 1, 2)),
}


class TestRecordingRule:
    @pytest.mark.parametrize("name", list(RULE_CASES))
    def test_output_and_node_follow_the_inputs(self, name):
        fn, shapes, order = RULE_CASES[name]
        rng = np.random.default_rng(4)
        arrays = [rng.uniform(-1.0, 1.0, size=shape) for shape in shapes]
        with Tape() as tape:
            out = fn(*(Tensor(a) for a in arrays))
        assert not out.requires_grad and tape.nodes == []
        for mask in itertools.product((False, True), repeat=len(arrays)):
            if not any(mask):
                continue
            inputs = [Tensor(a, requires_grad=m) for a, m in zip(arrays, mask)]
            with Tape() as tape:
                out = fn(*inputs)
            assert out.requires_grad
            assert len(tape.nodes) == 1 and tape.nodes[0].out is out
            assert [id(t) for t, _ in tape.nodes[0].rules] == [id(inputs[i]) for i in order
                                                               if mask[i]]

    def test_nested_tape_raises_and_outer_keeps_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as outer:
            with pytest.raises(RuntimeError, match="do not nest"):
                with Tape():
                    pass
            outer.backward(T.op_sum(T.op_mul(x, x)))
        assert len(outer.nodes) == 2
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        with Tape() as tape:  # the slot is free again once the outer tape exits
            T.op_sum(x)
        assert len(tape.nodes) == 1


class TestFiniteDiffCheck:
    def test_sum_error_near_zero(self):
        assert finite_diff_check(T.op_sum, Tensor(np.arange(4.0))) < 1e-10

    def test_square_at_three(self):
        err = finite_diff_check(lambda x: x * x, Tensor(3.0))
        assert err < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=6, max_size=6),
       st.integers(min_value=0, max_value=2))
def test_exp_log_chain_gradient_matches_finite_differences(values, label):
    # the log-sum-exp chains of the loss head, cross-entropy plus entropy,
    # each one fused node with a hand-written backward rule
    def head(t):
        rows = T.op_reshape(t, (2, 3))
        terms = T.op_add(loss_ce(rows, np.array([label, 2 - label])), entropy(rows))
        return T.op_sum(T.op_mul(terms, Tensor([[1.0], [-0.5]])))

    assert finite_diff_check(head, Tensor(np.asarray(values))) < 1e-5


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-9.9999, max_value=9.9999), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=10**6))
def test_dirichlet_gradient_matches_finite_differences(values, seed):
    # paths anywhere in the warp's domain at L = 21, integers included, but
    # for the probe step's room at the edges; two channels share each path
    rng = np.random.default_rng(seed)
    source = Tensor(rng.normal(size=(1, 2, 21)))
    w = Tensor(rng.normal(size=(1, 2, 21)))
    x = Tensor(np.resize(np.asarray(values), (1, 21)))
    err = finite_diff_check(lambda t: T.op_sum(T.op_mul(w, warp_apply(source, t, 10))), x)
    assert err < 1e-5
