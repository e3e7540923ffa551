import numpy as np
import pytest

from crispdec.tensor import (
    Tensor,
    _interp_matrix,
    bilinear_upsample,
    cat,
    conv2d,
    log_softmax,
    no_grad,
    softmax,
)


def test_add_backward_ones():
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones(3))
    np.testing.assert_array_equal(b.grad, np.ones(3))


def test_mul_backward_is_other_operand():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_array_equal(a.grad, b.data)
    np.testing.assert_array_equal(b.grad, a.data)


def test_broadcast_grad_reduces_to_param_shape():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    (a * b).sum().backward()
    assert b.grad.shape == (1, 3)
    np.testing.assert_array_equal(b.grad, np.full((1, 3), 2.0))


def test_diamond_graph_accumulates():
    # y = x*x + x: dy/dx = 2x + 1
    x = Tensor(np.array([3.0]), requires_grad=True)
    (x * x + x).sum().backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_reused_node_many_paths():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x + x
    z = y * y  # z = 4x^2, dz/dx = 8x = 16
    z.sum().backward()
    np.testing.assert_allclose(x.grad, [16.0])


def test_exp_log_inverse_gradient():
    x = Tensor(np.array([0.5, 1.5]), requires_grad=True)
    x.exp().log().sum().backward()
    np.testing.assert_allclose(x.grad, [1.0, 1.0], atol=1e-12)


def test_relu_gradient_mask():
    x = Tensor(np.array([-1.0, 2.0, -3.0, 4.0]), requires_grad=True)
    x.relu().sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 1.0])


def test_sigmoid_at_zero():
    x = Tensor(np.array([0.0]), requires_grad=True)
    y = x.sigmoid()
    np.testing.assert_allclose(y.data, [0.5])
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [0.25])


def test_softplus_large_inputs_finite():
    x = Tensor(np.array([-800.0, 0.0, 800.0]), requires_grad=True)
    y = x.softplus()
    assert np.all(np.isfinite(y.data))
    np.testing.assert_allclose(y.data[1], np.log(2.0))
    np.testing.assert_allclose(y.data[2], 800.0)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((5, 7)))
    s = softmax(x, axis=1)
    np.testing.assert_allclose(s.data.sum(axis=1), np.ones(5), atol=1e-12)


def test_softmax_shift_invariant():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4))
    s1 = softmax(Tensor(x), axis=1).data
    s2 = softmax(Tensor(x + 123.0), axis=1).data
    np.testing.assert_allclose(s1, s2, atol=1e-12)


def test_softmax_overflow_safe():
    x = Tensor(np.array([[1000.0, 0.0]]))
    s = softmax(x, axis=1).data
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s, [[1.0, 0.0]], atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6))
    np.testing.assert_allclose(log_softmax(Tensor(x), axis=1).data,
                               np.log(softmax(Tensor(x), axis=1).data), atol=1e-12)


def test_max_reduction_tie_splits_gradient():
    x = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
    x.max(axis=1).sum().backward()
    np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])


def test_mean_keepdims_shape():
    x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    m = x.mean(axis=(1, 2), keepdims=True)
    assert m.shape == (2, 1, 1)
    m.sum().backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1.0 / 12))


def test_getitem_scatter_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x[:, 1:].sum().backward()
    np.testing.assert_array_equal(x.grad, [[0, 1, 1], [0, 1, 1]])


def test_cat_roundtrip_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    c = cat([a, b], axis=1)
    assert c.shape == (2, 5)
    (c * 2.0).sum().backward()
    np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))


def test_detach_blocks_gradient():
    x = Tensor(np.array([2.0]), requires_grad=True)
    (x.detach() * x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0])  # only the live path


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        x.backward()


def test_conv2d_identity_kernel():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    k = Tensor(np.ones((1, 1, 1, 1)))
    y = conv2d(x, k)
    np.testing.assert_array_equal(y.data, x.data)


def test_conv2d_3x3_mean_kernel_oracle():
    # all-ones 3x3 kernel on all-ones input, padding 1: interior 9, edge 6, corner 4
    x = Tensor(np.ones((1, 1, 4, 4)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    y = conv2d(x, k, padding=1).data[0, 0]
    assert y[1, 1] == 9.0 and y[0, 1] == 6.0 and y[0, 0] == 4.0


def test_conv2d_stride2_shape():
    x = Tensor(np.zeros((2, 3, 8, 8)))
    k = Tensor(np.zeros((5, 3, 3, 3)))
    assert conv2d(x, k, padding=1, stride=2).shape == (2, 5, 4, 4)


@pytest.mark.parametrize("n, k, stride, dtype", [
    pytest.param(1, 3, 1, "float64", id="3x3"),
    pytest.param(3, 3, 1, "float64", id="batch3"),
    pytest.param(1, 3, 2, "float64", id="stride2"),
    pytest.param(1, 1, 1, "float64", id="1x1"),
    pytest.param(1, 3, 1, "float32", id="float32"),
])
def test_conv2d_matches_direct_loop(n, k, stride, dtype):
    atol = 1e-12 if dtype == "float64" else 1e-5
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, 2, 5, 5)).astype(dtype)
    kern = rng.standard_normal((3, 2, k, k)).astype(dtype)
    pad = k // 2
    got = conv2d(Tensor(x), Tensor(kern), padding=pad, stride=stride).data
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hout = (5 + 2 * pad - k) // stride + 1
    want = np.zeros((n, 3, hout, hout))
    for b in range(n):
        for co in range(3):
            for i in range(hout):
                for j in range(hout):
                    r, c = i * stride, j * stride
                    want[b, co, i, j] = (xp[b, :, r:r + k, c:c + k] * kern[co]).sum()
    assert got.dtype == dtype
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize("k, padding, stride, size", [
    pytest.param(1, 0, 1, 2, id="1x1"),
    pytest.param(3, 1, 1, 4, id="3x3"),
    pytest.param(3, 1, 2, 8, id="3x3s2-to-4x4"),
    pytest.param(3, 1, 2, 4, id="3x3s2-to-2x2"),
])
@pytest.mark.parametrize("x_dtype, k_dtype", [
    ("float32", "float32"), ("float64", "float64"), ("float64", "float32"),
])
def test_conv2d_image_output_does_not_depend_on_its_batch(k, padding, stride, size,
                                                          x_dtype, k_dtype):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 16, size, size)).astype(x_dtype)
    kern = Tensor(rng.standard_normal((24, 16, k, k)).astype(k_dtype))
    bias = Tensor(rng.standard_normal(24).astype(k_dtype))
    batch = conv2d(Tensor(x), kern, bias, padding, stride).data
    for i in range(3):
        alone = conv2d(Tensor(x[i:i + 1]), kern, bias, padding, stride).data
        np.testing.assert_array_equal(batch[i:i + 1], alone)


def _conv1x1_input_grad_scatter(g, kernel, x):
    """The input gradient of a 1x1 stride-1 conv as the k x k path forms it:
    the GEMM's columns added into a zero-filled map, then accumulated."""
    n, cin, h, w = x.shape
    cout = kernel.shape[0]
    gcols = np.matmul(kernel.reshape(cout, cin).T,
                      g.reshape(n, cout, h * w)).reshape(n, cin, 1, 1, h, w)
    gxp = np.zeros_like(x)
    gxp[:, :, 0:h, 0:w] += gcols[:, :, 0, 0]
    return np.add(0.0, gxp, out=np.empty_like(x))


@pytest.mark.parametrize("cout", [1, 5])
@pytest.mark.parametrize("x_dtype, k_dtype", [
    ("float32", "float32"), ("float64", "float64"), ("float64", "float32"),
    ("float32", "float64"),
])
@pytest.mark.parametrize("grad_before", [False, True])
def test_conv2d_1x1_input_gradient_equals_the_scatter_form(cout, x_dtype, k_dtype,
                                                           grad_before):
    """Byte for byte, zeros in the input and the upstream gradient
    included (at some pixels in every output channel, so the products there
    are signed zeros), and added to a gradient the input already holds,
    with -0.0 in it, as a ReLU's backward leaves. The bytes hold only for
    products that do not underflow: one that rounds to zero keeps its sign
    in an FMA-based GEMM, which may then sum to -0.0 where the scatter
    form's zero-filled map gives 0.0, depending on the shape (see the
    underflow test below)."""
    rng = np.random.default_rng(8)
    x = np.where(rng.random((3, 6, 5, 7)) < 0.2, 0.0, rng.standard_normal((3, 6, 5, 7)))
    x = Tensor(x.astype(x_dtype), requires_grad=True)
    kern = Tensor(rng.standard_normal((cout, 6, 1, 1)).astype(k_dtype), requires_grad=True)
    out = conv2d(x, kern, Tensor(rng.standard_normal(cout).astype(k_dtype)))
    g = np.where(rng.random(out.shape) < 0.2, 0.0, rng.standard_normal(out.shape))
    g[:, :, rng.random((5, 7)) < 0.3] = 0.0
    g = g.astype(out.data.dtype)
    prior = np.where(rng.random(x.shape) < 0.5, -0.0, rng.standard_normal(x.shape))
    prior = prior.astype(x_dtype)
    x.grad = prior.copy() if grad_before else None
    out._backward(g)
    want = _conv1x1_input_grad_scatter(g, kern.data, x.data)
    if grad_before:
        want = prior + want
    assert x.grad.dtype == want.dtype == np.dtype(x_dtype)
    assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("x_dtype, k_dtype, tiny", [
    ("float32", "float32", (-1e-20, 1e-30)), ("float64", "float64", (-1e-30, 1e-300)),
])
def test_conv2d_1x1_input_gradient_with_underflowing_products(x_dtype, k_dtype, tiny):
    """Products that underflow: a negative weight against an upstream
    entry so small that their product rounds to -0.0. The GEMM may then
    give -0.0 where the scatter form gives 0.0, so only the values are
    pinned here, and the signs of those zeros are not."""
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((3, 6, 5, 7)).astype(x_dtype), requires_grad=True)
    kern = rng.standard_normal((5, 6, 1, 1))
    kern[:, :3] = tiny[0]
    kern = Tensor(kern.astype(k_dtype), requires_grad=True)
    out = conv2d(x, kern)
    g = rng.standard_normal(out.shape)
    g[:, :, rng.random((5, 7)) < 0.5] = tiny[1]
    g = g.astype(out.data.dtype)
    prior = np.where(rng.random(x.shape) < 0.5, -0.0, rng.standard_normal(x.shape))
    x.grad = prior.astype(x_dtype)
    out._backward(g)
    scatter = _conv1x1_input_grad_scatter(g, kern.data, x.data)
    assert (scatter[:, :3] == 0).any()  # some sums are all underflowed products
    np.testing.assert_array_equal(x.grad, prior.astype(x_dtype) + scatter)


def _conv2d_reference(x, kern, bias, padding, stride, g, prior=None):
    """conv2d's output and the gradients it leaves in input, kernel and
    bias, as the k x k slab path forms them: the columns copied tap by tap
    from an np.pad-ed map, the input gradient added tap by tap into zeros,
    and each gradient accumulated as 0 + g, or added to the input's
    `prior` gradient."""
    n, cin, h, w = x.shape
    cout, _, k, _ = kern.shape
    p, s = padding, stride
    hout, wout = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    patches = np.empty((n, cin, k, k, hout, wout), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            patches[:, :, ki, kj] = xp[:, :, ki:ki + s * hout:s, kj:kj + s * wout:s]
    cols = patches.reshape(n, cin * k * k, hout * wout)
    kmat = kern.reshape(cout, cin * k * k)
    out = np.matmul(kmat, cols).reshape(n, cout, hout, wout) + bias.reshape(1, cout, 1, 1)
    gmat = g.reshape(n, cout, hout * wout)
    gk = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(kern.shape)
    gcols = np.matmul(kmat.T, gmat).reshape(n, cin, k, k, hout, wout)
    gxp = np.zeros_like(xp)
    for ki in range(k):
        for kj in range(k):
            gxp[:, :, ki:ki + s * hout:s, kj:kj + s * wout:s] += gcols[:, :, ki, kj]
    grads = [np.add(0.0, gr, out=np.empty_like(a))
             for gr, a in zip((gxp[:, :, p:p + h, p:p + w], gk, g.sum(axis=(0, 2, 3))),
                              (x, kern, bias))]
    if prior is not None:
        grads[0] = prior + gxp[:, :, p:p + h, p:p + w]
    return out, grads


def _conv2d_case(rng, n, stride, x_dtype, k_dtype, size=9):
    """Input, kernel, bias and upstream gradient of a 3x3 conv, with zeros
    in the input and the upstream gradient and negative weights, so signed
    zero products occur."""
    x = np.where(rng.random((n, 4, size, size)) < 0.2, 0.0,
                 rng.standard_normal((n, 4, size, size))).astype(x_dtype)
    kern = rng.standard_normal((3, 4, 3, 3)).astype(k_dtype)
    bias = rng.standard_normal(3).astype(k_dtype)
    hout = (size + 2 - 3) // stride + 1
    g = np.where(rng.random((n, 3, hout, hout)) < 0.3, 0.0,
                 rng.standard_normal((n, 3, hout, hout)))
    g[:, :, rng.random((hout, hout)) < 0.2] = 0.0
    return x, kern, bias, g.astype(np.result_type(x_dtype, k_dtype))


def _conv2d_bytes(x, kern, bias, padding, stride, g, prior=None):
    """conv2d's output and input, kernel and bias gradients after one
    backward of `g`, the input holding `prior` as its gradient beforehand."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, kern, bias)]
    leaves[0].grad = None if prior is None else prior.copy()
    out = conv2d(*leaves, padding, stride)
    out._backward(g)
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("n, stride, x_dtype, k_dtype", [
    pytest.param(1, 1, "float64", "float32", id="3x3-f64-input-f32-kernel"),
    pytest.param(16, 1, "float64", "float32", id="3x3-f64-input-f32-kernel-batch16"),
    pytest.param(1, 1, "float32", "float32", id="3x3-f32"),
    pytest.param(1, 2, "float64", "float64", id="3x3s2"),
    pytest.param(16, 2, "float32", "float32", id="3x3s2-batch16"),
])
@pytest.mark.parametrize("grad_before", [False, True])
def test_conv2d_equals_the_slab_reference(n, stride, x_dtype, k_dtype, grad_before):
    """Output and all three gradients byte for byte, signbits included,
    also added to an input gradient that, as `_accumulate` builds every
    gradient, holds +0.0 and never -0.0."""
    rng = np.random.default_rng(20)
    x, kern, bias, g = _conv2d_case(rng, n, stride, x_dtype, k_dtype)
    prior = None
    if grad_before:
        prior = np.where(rng.random(x.shape) < 0.3, 0.0, rng.standard_normal(x.shape))
        prior = np.add(0.0, prior.astype(x_dtype))
    out, grads = _conv2d_reference(x, kern, bias, 1, stride, g, prior)
    got = _conv2d_bytes(x, kern, bias, 1, stride, g, prior)
    assert got == [out.tobytes()] + [gr.tobytes() for gr in grads]


@pytest.mark.parametrize("n", [1, 16])
def test_conv2d_first_tap_holding_negative_zero(n):
    """Taps that hold -0.0: every weight of input channel 0 meets upstream
    entries so small that each product underflows to -0.0, so all nine
    taps hold -0.0 over a block. Summed into the zero-filled padded map
    they give +0.0, as the reference's sum does, and the input gradient
    is byte-equal, signbits included."""
    rng = np.random.default_rng(21)
    x, kern, bias, g = _conv2d_case(rng, n, 1, "float64", "float64")
    kern[:, 0] = -1e-30
    g[:, :, :4, :4] = 1e-300
    taps = np.matmul(kern.reshape(3, -1).T, g.reshape(n, 3, -1))[:, :9]
    taps = taps.reshape(n, 9, *g.shape[2:])[:, :, :4, :4]
    if not (np.signbit(taps) & (taps == 0)).all():
        pytest.skip("this BLAS sums the underflowed products to +0.0")
    out, grads = _conv2d_reference(x, kern, bias, 1, 1, g)
    assert _conv2d_bytes(x, kern, bias, 1, 1, g) == [out.tobytes()] + [
        gr.tobytes() for gr in grads]


def test_bilinear_upsample_constant_preserved():
    x = Tensor(np.full((1, 1, 3, 3), 7.0))
    y = bilinear_upsample(x, 9, 9)
    np.testing.assert_allclose(y.data, 7.0, atol=1e-12)


def test_bilinear_upsample_identity_when_same_size():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 2, 4, 4))
    np.testing.assert_allclose(bilinear_upsample(Tensor(x), 4, 4).data, x, atol=1e-12)


def test_bilinear_upsample_2x_mean_preserving():
    # half-pixel centers: the global mean is preserved under 2x upsampling
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 1, 4, 4))
    y = bilinear_upsample(Tensor(x), 8, 8).data
    np.testing.assert_allclose(y.mean(), x.mean(), atol=1e-12)


def test_bilinear_upsample_known_1d_values():
    # [0, 1] widened to 4: half-pixel sample points 0.25 and 0.75 of the cell grid
    x = Tensor(np.array([[[[0.0, 1.0]]]]))
    y = bilinear_upsample(x, 1, 4).data[0, 0, 0]
    np.testing.assert_allclose(y, [0.0, 0.25, 0.75, 1.0], atol=1e-12)


def _blend_reference(x, th, tw):
    # the two-neighbour blend: gather the rows and columns either side of
    # each half-pixel-centre sample point and mix them by its fraction
    def axis(src, dst):
        coords = np.clip((np.arange(dst) + 0.5) * (src / dst) - 0.5, 0.0, src - 1.0)
        lo = np.floor(coords).astype(int)
        return lo, np.minimum(lo + 1, src - 1), coords - lo
    r0, r1, fr = axis(x.shape[2], th)
    c0, c1, fc = axis(x.shape[3], tw)
    fr, fc = fr[:, None], fc[None, :]
    v = x[:, :, r0, :] * (1.0 - fr) + x[:, :, r1, :] * fr
    return v[:, :, :, c0] * (1.0 - fc) + v[:, :, :, c1] * fc


UPSAMPLE_SIZES = [((1, 1), (4, 4)), ((2, 2), (16, 16)), ((3, 3), (7, 7)),
                  ((16, 16), (64, 64)), ((3, 5), (7, 16))]


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
@pytest.mark.parametrize("src,dst", UPSAMPLE_SIZES)
def test_bilinear_upsample_matches_blend_reference(src, dst, dtype, tol):
    x = np.random.default_rng(8).standard_normal((2, 3, *src)).astype(dtype)
    got = bilinear_upsample(Tensor(x), *dst).data
    np.testing.assert_allclose(got, _blend_reference(x, *dst), rtol=0, atol=tol)


@pytest.mark.parametrize("src,dst", UPSAMPLE_SIZES)
def test_bilinear_upsample_backward_is_adjoint(src, dst):
    # <up(x), g> == <x, up^T(g)>: the backward applies the transpose map
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((2, 3, *src)), requires_grad=True)
    g = rng.standard_normal((2, 3, *dst))
    y = bilinear_upsample(x, *dst)
    (y * g).sum().backward()
    np.testing.assert_allclose((y.data * g).sum(), (x.data * x.grad).sum(),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("src,dst", [(1, 4), (2, 16), (3, 7), (16, 64), (5, 16), (4, 4)])
def test_interp_matrix_rows_are_two_tap_partitions_of_unity(src, dst):
    m = _interp_matrix(src, dst)
    assert m.shape == (dst, src) and m.dtype == np.float64
    np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert ((m != 0).sum(axis=1) <= 2).all()
    assert (m >= 0).all()


def test_interp_matrix_is_built_once_and_read_only():
    # one cached, read-only array per (src, dst, dtype); float32 is the
    # float64 matrix rounded, and float64 is the default
    m64 = _interp_matrix(5, 16, np.float64)
    np.testing.assert_array_equal(m64, _interp_matrix.__wrapped__(5, 16))
    for dtype in (np.float32, np.float64):
        m = _interp_matrix(5, 16, dtype)
        assert _interp_matrix(5, 16, dtype) is m and m.dtype == dtype
        assert m.tobytes() == m64.astype(dtype).tobytes()
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        assert m[0, 0] == 1.0
    assert _interp_matrix(5, 16, np.float32) is not _interp_matrix(5, 16, np.float64)


@pytest.mark.parametrize("dtype", [None, np.float64])
def test_bilinear_upsample_interpolates_in_the_given_dtype(dtype):
    # float32 input: the weights are float32 by default, so the output is;
    # an explicit float64 gives float64 weights and output, as before the
    # decoder kept its dtype. The gradient lands in the input's dtype.
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal((2, 3, 16, 20)).astype(np.float32 if dtype is None else dtype)
    rh = _interp_matrix(4, 16, dtype or np.float32)
    rw = _interp_matrix(5, 20, dtype or np.float32)
    y = bilinear_upsample(x, 16, 20, dtype)
    assert y.data.dtype == (dtype or np.float32)
    assert y.data.tobytes() == (rh @ x.data @ rw.T).tobytes()
    (y * g).sum().backward()
    assert x.grad.dtype == np.float32
    assert x.grad.tobytes() == (rh.T @ g @ rw).astype(np.float32).tobytes()
    same = bilinear_upsample(x, 4, 5, dtype)
    assert same.data.dtype == (dtype or np.float32)
    np.testing.assert_array_equal(same.data, x.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilinear_upsample_is_unchanged_across_repeated_calls(dtype):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 5, 7)).astype(dtype)
    g = rng.standard_normal((2, 3, 16, 20))
    results = []
    for _ in range(3):
        t = Tensor(x, requires_grad=True)
        y = bilinear_upsample(t, 16, 20)
        (y * g).sum().backward()
        results.append((y.data.tobytes(), t.grad.tobytes()))
    assert results[0] == results[1] == results[2]


def test_backward_consumes_the_graph():
    """Leaves keep their gradient; every other node drops its gradient,
    its closure and its parents, and a second pass through it raises
    before any gradient moves."""
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = (x * x).exp()
    loss = (y * 0.5).sum()
    loss.backward()
    grad = x.grad.copy()
    for node in (y, loss):
        assert node.grad is None and node._parents == ()
        with pytest.raises(RuntimeError):
            node._backward(np.ones_like(node.data))
    with pytest.raises(RuntimeError):
        loss.backward()
    with pytest.raises(RuntimeError):  # a fresh node on top would reach x first
        (x * y).sum().backward()
    np.testing.assert_array_equal(x.grad, grad)


def test_zero_grad_clears_and_backward_accumulates():
    x = Tensor(np.ones(2), requires_grad=True)
    (x * x).sum().backward()
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [4.0, 4.0])  # two passes accumulate
    x.zero_grad()
    assert x.grad is None


def test_float32_data_stays_float32():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = (x * 2.0).relu()
    assert y.data.dtype == np.float32


def _small_forward(x, k):
    y = conv2d(x, k, padding=1)
    z = bilinear_upsample(y.relu(), 16, 16)
    return log_softmax(z, axis=1) * 2.0 + (y * y).sum()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_grad_records_no_graph_and_keeps_values(dtype):
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(dtype), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(dtype), requires_grad=True)
    tracked = _small_forward(x, k)
    with no_grad():
        free = _small_forward(x, k)
        assert not (x * k.sum()).requires_grad
    assert tracked.requires_grad and tracked._parents
    assert not free.requires_grad
    assert free._parents == () and free._backward is None
    np.testing.assert_array_equal(free.data, tracked.data)
    assert free.data.dtype == tracked.data.dtype


def test_no_grad_restores_recording_after_an_exception():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        with no_grad():
            with no_grad():
                pass
            assert not (x * 2.0).requires_grad  # the inner block leaves it off
            raise RuntimeError("inside")
    y = x * 2.0
    assert y.requires_grad and y._parents[0] is x


# -- fused ops against the composites they replaced ----------------------------------
# Each oracle is the chain of primitives the op used to record, with a
# subtraction spelled as negation plus addition as it was. A fused op does
# the same arithmetic forward, and backward replays the chain rule in the
# chain's order, so values and gradients are bit-equal.


def _softmax_composite(t, axis):
    e = (t + (-Tensor(t.data.max(axis=axis, keepdims=True)))).exp()
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax_composite(t, axis):
    z = t + (-Tensor(t.data.max(axis=axis, keepdims=True)))
    return z + (-z.exp().sum(axis=axis, keepdims=True).log())


def _grads(f, *leaves, weight):
    for t in leaves:
        t.zero_grad()
    out = f(*leaves)
    (out * weight).sum().backward()
    return out.data, [t.grad for t in leaves]


def _leaves(rng, *shapes, dtype=np.float64):
    return [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]


@pytest.mark.parametrize("fused,composite", [
    (lambda t: softmax(t, 1), lambda t: _softmax_composite(t, 1)),
    (lambda t: log_softmax(t, 1), lambda t: _log_softmax_composite(t, 1)),
    (lambda t: softmax(t, 0), lambda t: _softmax_composite(t, 0)),
    (lambda t: log_softmax(t, 0), lambda t: _log_softmax_composite(t, 0)),
], ids=["softmax", "log_softmax", "softmax_axis0", "log_softmax_axis0"])
def test_fused_softmax_equals_its_composite(fused, composite):
    rng = np.random.default_rng(3)
    (x,) = _leaves(rng, (3, 4, 5, 5))
    x.data *= 4.0
    weight = rng.standard_normal(x.shape)
    out_f, (g_f,) = _grads(fused, x, weight=weight)
    out_c, (g_c,) = _grads(composite, x, weight=weight)
    np.testing.assert_array_equal(out_f, out_c)
    np.testing.assert_array_equal(g_f, g_c)


@pytest.mark.parametrize("fused,composite", [
    (lambda a, b: a - b, lambda a, b: a + (-b)),
    (lambda a, b: 1.5 - b * a, lambda a, b: Tensor(np.asarray(1.5)) + (-(b * a))),
], ids=["sub", "rsub"])
def test_fused_subtraction_equals_negate_plus_add(fused, composite):
    rng = np.random.default_rng(4)
    a, b = _leaves(rng, (3, 4), (3, 1))  # b broadcasts
    weight = rng.standard_normal((3, 4))
    out_f, g_f = _grads(fused, a, b, weight=weight)
    out_c, g_c = _grads(composite, a, b, weight=weight)
    np.testing.assert_array_equal(out_f, out_c)
    for gf, gc in zip(g_f, g_c):
        np.testing.assert_array_equal(gf, gc)


def test_sigmoid_and_softplus_equal_the_three_exp_forms():
    x = np.linspace(-40.0, 40.0, 101)
    e = lambda: np.exp(-np.abs(x))  # noqa: E731
    sig = np.where(x >= 0, 1.0 / (1.0 + e()), e() / (1.0 + e()))
    np.testing.assert_array_equal(Tensor(x).sigmoid().data, sig)
    np.testing.assert_array_equal(Tensor(x).softplus().data,
                                  np.maximum(x, 0.0) + np.log1p(e()))


@pytest.mark.parametrize("op", [
    lambda t: softmax(t, 1), lambda t: log_softmax(t, 1), lambda t: t - t * t,
    lambda t: 2.0 - t, lambda t: t.sigmoid(), lambda t: t.softplus(),
], ids=["softmax", "log_softmax", "sub", "rsub", "sigmoid", "softplus"])
def test_fused_ops_keep_float32(op):
    (x,) = _leaves(np.random.default_rng(5), (2, 3, 4), dtype=np.float32)
    out = op(x)
    out.sum().backward()
    assert out.data.dtype == np.float32
    assert x.grad.dtype == np.float32
