"""The Levenberg-Marquardt fit both local fits call (polypush._lm)."""

import numpy as np
import pytest

from polypush import _lm, tensor_ring
from polypush.errors import ConvergenceError
from polypush.tensor_ring import TRConfig, decompose


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jac(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def linear_system(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((20, 5))
    b = rng.standard_normal(20)
    return A, b, np.linalg.lstsq(A, b, rcond=None)[0]


@pytest.mark.parametrize("seed", range(3))
def test_linear_residual_reaches_lstsq_in_one_step(seed):
    A, b, want = linear_system(seed)
    # the cap leaves the start's evaluation and one trial, which is accepted
    one = _lm.least_squares(lambda x: A @ x - b, np.zeros(5), jac=lambda x: A, max_nfev=2)
    assert (one.nfev, one.stop) == (2, "cap")
    assert np.max(np.abs(one.x - want)) <= 1e-13 * np.max(np.abs(want))
    # the Gauss-Newton step lands on the minimum, where the gradient vanishes
    full = _lm.least_squares(lambda x: A @ x - b, np.zeros(5), jac=lambda x: A, max_nfev=100)
    assert (full.nfev, full.stop) == (2, "tol")
    assert np.max(np.abs(full.x - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(full.fun, A @ full.x - b)


@pytest.mark.parametrize("x0", [(-1.2, 1.0), (3.0, -4.0), (0.0, 0.0), (10.0, 10.0)])
def test_rosenbrock_converges(x0):
    out = _lm.least_squares(rosenbrock, x0, jac=rosenbrock_jac, max_nfev=2000)
    assert out.stop in ("step", "tol")
    assert np.max(np.abs(out.x - 1.0)) <= 1e-12
    assert out.nfev <= 100


def test_exact_fit_stops_on_the_gradient():
    out = _lm.least_squares(rosenbrock, (1.0, 1.0), jac=rosenbrock_jac, max_nfev=2000)
    assert (out.nfev, out.stop) == (1, "tol")
    assert np.array_equal(out.x, [1.0, 1.0])


@pytest.mark.parametrize("cap", [1, 2, 5, 9])
def test_max_nfev_is_kept(cap):
    calls = []

    def counted(x):
        calls.append(1)
        return rosenbrock(x)

    out = _lm.least_squares(counted, (-1.2, 1.0), jac=rosenbrock_jac, max_nfev=cap)
    assert out.stop == "cap"
    assert out.nfev == len(calls) == cap


def test_inconsistent_table_stops_on_the_plateau(monkeypatch):
    # no (2,3) network has S = I and T = 5: every start crawls along a
    # plateau of cost ~16.78, which the cap of FIT_MAX_NFEV took to end
    results = []
    real = tensor_ring.least_squares

    def recording(fun, x0, **kw):
        out = real(fun, x0, **kw)
        results.append(out)
        return out

    monkeypatch.setattr(tensor_ring, "least_squares", recording)
    with pytest.raises(ConvergenceError):
        decompose(np.eye(3), 5.0 * np.ones((3, 3, 3)), TRConfig(r=2, restarts=4))
    assert len(results) == 5
    for out in results:
        assert out.stop == "plateau"
        assert out.nfev < 200


def test_svd_falls_back_to_the_transpose(monkeypatch):
    # LAPACK's gesdd can fail to converge on a rank-deficient Jacobian (seen
    # on a 36 x 32 one of an ell = 2 low-rank fit) and decompose its transpose
    A, b, want = linear_system(0)
    real = np.linalg.svd

    def tall_fails(M, full_matrices=True):
        if M.shape[0] > M.shape[1]:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(M, full_matrices=full_matrices)

    monkeypatch.setattr(np.linalg, "svd", tall_fails)
    out = _lm.least_squares(lambda x: A @ x - b, np.zeros(5), jac=lambda x: A, max_nfev=100)
    assert out.stop == "tol"
    assert np.max(np.abs(out.x - want)) <= 1e-13 * np.max(np.abs(want))
