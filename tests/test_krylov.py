import numpy as np
import pytest

from sgtorus import krylov


def _nonsymmetric(rng, size):
    """A well-conditioned nonsymmetric matrix with a positive diagonal."""
    return np.eye(size) * size + rng.standard_normal((size, size))


def _spd(rng, size):
    b = rng.standard_normal((size, size))
    return b @ b.T + np.diag(rng.random(size) * size + 1.0)


def _jacobi(a):
    diag = np.diag(a).copy()
    return lambda v: v / diag


class TestReductions:
    def test_dot_and_norm_are_pairwise_sums(self, rng):
        a, b = rng.standard_normal((2, 3, 1000))
        assert krylov.dot(a, b) == float(np.add.reduce((a * b).ravel()))
        assert krylov.norm(a) == float(np.add.reduce((a * a).ravel())) ** 0.5


class TestGmres:
    @pytest.mark.parametrize("restart", [3, 8, 40])
    def test_matches_dense_solve(self, rng, restart):
        a = _nonsymmetric(rng, 40)
        b = rng.standard_normal(40)
        x, iters, converged = krylov.gmres(a.__matmul__, b, _jacobi(a), restart,
                                           200, 1e-12 * krylov.norm(b))
        assert converged
        assert 1 <= iters <= 40 + 200
        exact = np.linalg.solve(a, b)
        assert np.max(np.abs(x - exact)) <= 1e-10 * np.max(np.abs(exact))
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_exact_preconditioner_takes_one_iteration(self, rng):
        a = _nonsymmetric(rng, 30)
        inv = np.linalg.inv(a)
        b = rng.standard_normal(30)
        x, iters, converged = krylov.gmres(a.__matmul__, b, inv.__matmul__,
                                           10, 3, 1e-10 * krylov.norm(b))
        assert converged and iters == 1
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=0)

    def test_reports_failure_after_max_cycles(self, rng):
        a = _nonsymmetric(rng, 60)
        b = rng.standard_normal(60)
        x, iters, converged = krylov.gmres(a.__matmul__, b, lambda v: v,
                                           2, 3, 1e-14 * krylov.norm(b))
        assert not converged
        assert iters == 6
        # each cycle still reduces the residual
        assert np.linalg.norm(a @ x - b) < np.linalg.norm(b)

    def test_zero_rhs_is_solved_by_zero(self):
        x, iters, converged = krylov.gmres(lambda v: 2.0 * v, np.zeros(5),
                                           lambda v: v, 5, 2, 0.0)
        assert converged and iters == 0 and not x.any()

    def test_absolute_target_stops_at_first_cycle_meeting_it(self, rng):
        a = _nonsymmetric(rng, 60)
        b = rng.standard_normal(60)
        restart, atol = 3, 1e-4 * np.linalg.norm(b)
        x, iters, converged = krylov.gmres(a.__matmul__, b, lambda v: v,
                                           restart, 50, atol)
        assert converged
        assert np.linalg.norm(a @ x - b) <= atol
        # the same solve cut one cycle earlier misses the target, so no
        # cycle before the last one met it
        cycles = -(-iters // restart)
        assert cycles >= 2
        x_early, early, met = krylov.gmres(a.__matmul__, b, lambda v: v,
                                           restart, cycles - 1, atol)
        assert not met and early == restart * (cycles - 1)
        assert np.linalg.norm(a @ x_early - b) > atol
        # a target at 1e-14 |b| runs on
        _, exact_iters, _ = krylov.gmres(a.__matmul__, b, lambda v: v,
                                         restart, 50, 1e-14 * krylov.norm(b))
        assert exact_iters > iters

    def test_absolute_target_below_relative_one_changes_nothing(self, rng):
        # a caller that floors its relative target, as the Newton update
        # does, passes the larger of the two
        a = _nonsymmetric(rng, 40)
        b = rng.standard_normal(40)
        relative = 1e-8 * krylov.norm(b)
        plain = krylov.gmres(a.__matmul__, b, _jacobi(a), 8, 20, relative)
        floored = krylov.gmres(a.__matmul__, b, _jacobi(a), 8, 20,
                               max(relative, 1e-9 * np.linalg.norm(b)))
        np.testing.assert_array_equal(plain[0], floored[0])
        assert plain[1:] == floored[1:]


class Counted:
    """A callable that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, v):
        self.calls += 1
        return self.fn(v)


class TestStoredPreconditionedBasis:
    """Each cycle keeps precondition(basis[j]) and adds their combination
    to x, so precondition runs once per iteration and apply once per
    iteration plus once per cycle, for the explicit residual."""

    @pytest.mark.parametrize("restart, max_cycles", [(3, 4), (5, 2)])
    def test_counts_when_every_cycle_runs_full(self, rng, restart, max_cycles):
        a = _nonsymmetric(rng, 60)
        b = rng.standard_normal(60)
        apply, precondition = Counted(a.__matmul__), Counted(_jacobi(a))
        _, iters, converged = krylov.gmres(apply, b, precondition, restart,
                                           max_cycles, 1e-14 * krylov.norm(b))
        assert not converged and iters == restart * max_cycles
        assert precondition.calls == iters
        assert apply.calls == iters + max_cycles

    def test_counts_of_one_cycle(self, rng):
        a = _nonsymmetric(rng, 40)
        b = rng.standard_normal(40)
        apply, precondition = Counted(a.__matmul__), Counted(_jacobi(a))
        _, iters, converged = krylov.gmres(apply, b, precondition, 40, 3,
                                           1e-12 * krylov.norm(b))
        assert converged and 1 <= iters <= 40
        assert precondition.calls == iters
        assert apply.calls == iters + 1

    def test_exact_preconditioner_is_applied_once(self, rng):
        a = _nonsymmetric(rng, 30)
        apply, precondition = Counted(a.__matmul__),\
            Counted(np.linalg.inv(a).__matmul__)
        b = rng.standard_normal(30)
        _, iters, converged = krylov.gmres(apply, b, precondition, 10, 3,
                                           1e-10 * krylov.norm(b))
        assert converged and iters == 1
        assert precondition.calls == 1 and apply.calls == 2

    def test_restart_two_over_many_cycles_matches_dense_solve(self, rng):
        # every restart must start a fresh set of stored vectors
        a = _nonsymmetric(rng, 40)
        b = rng.standard_normal(40)
        apply, precondition = Counted(a.__matmul__), Counted(_jacobi(a))
        target = 1e-12 * krylov.norm(b)
        x, iters, converged = krylov.gmres(apply, b, precondition, 2, 200,
                                           target)
        assert converged and iters >= 6
        cycles = apply.calls - iters
        assert cycles >= 3 and precondition.calls == iters
        assert krylov.norm(b - a @ x) <= target
        exact = np.linalg.solve(a, b)
        assert np.max(np.abs(x - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_preconditioner_returning_its_argument(self, rng):
        # the stored vectors are then views of basis rows
        a = _nonsymmetric(rng, 40)
        b = rng.standard_normal(40)
        seen = []

        def identity(v):
            seen.append(v)
            return v

        target = 1e-12 * krylov.norm(b)
        x, iters, converged = krylov.gmres(a.__matmul__, b, identity, 5, 100,
                                           target)
        assert converged and iters > 5
        assert all(v.base is not None for v in seen)
        assert krylov.norm(b - a @ x) <= target
        exact = np.linalg.solve(a, b)
        assert np.max(np.abs(x - exact)) <= 1e-10 * np.max(np.abs(exact))


class TestCg:
    @pytest.mark.parametrize("precondition", ["none", "jacobi"])
    def test_matches_dense_solve(self, rng, precondition):
        a = _spd(rng, 50)
        b = rng.standard_normal(50)
        m = (lambda v: v) if precondition == "none" else _jacobi(a)
        seen = []
        x, iters, converged = krylov.cg(a.__matmul__, b, m, 1e-12, 500,
                                        callback=lambda xk: seen.append(xk.copy()))
        assert converged
        assert len(seen) == iters >= 1
        np.testing.assert_array_equal(seen[-1], x)
        exact = np.linalg.solve(a, b)
        assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_reports_failure_after_maxiter(self, rng):
        a = _spd(rng, 50)
        b = rng.standard_normal(50)
        x, iters, converged = krylov.cg(a.__matmul__, b, lambda v: v, 1e-14, 3)
        assert not converged and iters == 3

    def test_indefinite_operator_breaks_down(self):
        a = np.diag([1.0, -1.0])
        x, iters, converged = krylov.cg(a.__matmul__, np.array([1.0, 1.0]),
                                        lambda v: v, 1e-10, 10)
        assert not converged and iters == 0

    def test_zero_rhs_is_solved_by_zero(self):
        x, iters, converged = krylov.cg(lambda v: v, np.zeros(4), lambda v: v,
                                        1e-10, 10)
        assert converged and iters == 0 and not x.any()
