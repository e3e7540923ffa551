import numpy as np

from crispdec.gradcheck import _check, broken_gradient_result, rel_err
from crispdec.tensor import Tensor


def square_sum(grad_of):
    """sum(x^2) whose backward hands `grad_of(x)` to x."""
    def f(t):
        def bwd(g):
            t._accumulate(g * grad_of(t.data))

        return Tensor._from_op(t.data * t.data, (t,), bwd).sum()

    return f


def test_correct_gradient_passes():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    assert _check("square", square_sum(lambda d: 2.0 * d), [x]).passed


def test_wrong_gradient_fails():
    result = broken_gradient_result()
    assert not result.passed
    assert result.max_rel_err > 0.1


def test_nan_gradient_fails():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    result = _check("nan", square_sum(lambda d: np.full_like(d, np.nan)), [x])
    assert not result.passed
    assert rel_err(np.array([np.nan]), np.array([1.0])) == np.inf


def test_sampled_coordinates_agree_with_all_coordinates():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    wrong = square_sum(lambda d: 2.0 * d + (np.arange(d.size) == 7).reshape(d.shape))
    full = _check("all", wrong, [x])
    # a sample as large as the tensor is every coordinate
    assert _check("all", wrong, [x], sample=x.size, rng=rng) == full
    sampled = _check("sample", wrong, [x], sample=5, rng=np.random.default_rng(1))
    assert 0 <= sampled.max_rel_err <= full.max_rel_err
    assert not full.passed
