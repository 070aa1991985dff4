"""Restarted GMRES and preconditioned CG with fixed-order reductions.

Every inner product and norm is np.add.reduce of an elementwise product,
numpy's pairwise sum in an order fixed by the array length alone, and no
vector operation reaches the BLAS, whose threads split a dot product in
an order that depends on their number.  A solve therefore gives the same
bits whatever the BLAS thread count.  The operator and the preconditioner
are callables on 1D arrays.  GMRES stores the preconditioned Krylov
vectors of a cycle, so it preconditions once per iteration.
"""

import numpy as np


def dot(a, b, out=None):
    """sum(a * b) over all entries, in numpy's pairwise order; the
    products go to out if it is given."""
    return float(np.add.reduce(np.multiply(a, b, out=out).ravel()))


def norm(a, out=None):
    """Euclidean norm of all entries of a, in the order of dot."""
    return dot(a, a, out) ** 0.5


def gmres(apply, b, precondition, restart, max_cycles, target):
    """Right-preconditioned GMRES(restart) for apply(x) = b from x = 0
    (Saad and Schultz, 1986), to the absolute residual target.

    A caller such as an inexact Newton method sets target to stop as soon
    as the residual is small enough for its own use.  Each cycle builds a
    modified Gram-Schmidt Arnoldi basis V of apply(precondition(.)) and
    keeps its least-squares residual with Givens rotations; it stops once
    that residual meets the target.  The preconditioned basis
    Z = precondition(V), which the Arnoldi step computes anyway, is
    stored, as in flexible GMRES (Saad, 1993), and x gains Z y: a
    k-iteration cycle holds k more vectors of b's size and calls
    precondition once per iteration.  Convergence is decided by the
    explicit residual |b - apply(x)| at the end of each cycle.  Returns
    (x, iterations, converged), converged False after max_cycles cycles
    short of the target.
    """
    x = np.zeros_like(b)
    r = b
    basis = np.empty((restart + 1, b.size))
    scratch = np.empty(b.size)  # products, so no reduction allocates
    iters = 0
    for cycle in range(max_cycles + 1):
        beta = norm(r)
        if beta <= target or cycle == max_cycles:
            return x, iters, beta <= target
        hess = np.zeros((restart + 1, restart))
        cs, sn = np.zeros(restart), np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = beta
        basis[0] = r / beta
        zs = []  # precondition(basis[j]), possibly a view of that row
        for j in range(restart):
            zs.append(precondition(basis[j]))
            w = apply(zs[j])
            for i in range(j + 1):
                hess[i, j] = dot(w, basis[i], scratch)
                w -= np.multiply(basis[i], hess[i, j], out=scratch)
            hess[j + 1, j] = norm(w, scratch)
            if hess[j + 1, j] > 0.0:
                np.divide(w, hess[j + 1, j], out=basis[j + 1])
            for i in range(j):
                a, c = hess[i, j], hess[i + 1, j]
                hess[i, j] = cs[i] * a + sn[i] * c
                hess[i + 1, j] = cs[i] * c - sn[i] * a
            d = np.hypot(hess[j, j], hess[j + 1, j])
            cs[j], sn[j] = hess[j, j] / d, hess[j + 1, j] / d
            hess[j, j] = d
            g[j + 1] = -sn[j] * g[j]
            g[j] *= cs[j]
            iters += 1
            if abs(g[j + 1]) <= target:
                break
        k = j + 1
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - dot(hess[i, i + 1:k], y[i + 1:k])) / hess[i, i]
        for i in range(k):
            x += np.multiply(zs[i], y[i], out=scratch)
        r = b - apply(x)


def cg(apply, b, precondition, rtol, maxiter, callback=None):
    """Preconditioned conjugate gradients for apply(x) = b from x = 0,
    with apply and precondition symmetric positive definite on the span
    of the iterates.

    Stops before an iteration once the recursive residual is at most
    rtol |b|; callback, if given, sees the iterate after each iteration.
    Returns (x, iterations, converged), converged False after maxiter
    iterations or once r.z or p.Ap is not positive (a breakdown).
    """
    target = rtol * norm(b)
    x = np.zeros_like(b)
    r = b.copy()
    scratch = np.empty_like(b)
    for k in range(maxiter):
        if norm(r, scratch) <= target:
            return x, k, True
        z = precondition(r)
        rz = dot(r, z, scratch)
        if not rz > 0.0:
            return x, k, False
        if k == 0:
            p = z.copy()
        else:
            p *= rz / rz_prev
            p += z
        q = apply(p)
        curvature = dot(p, q, scratch)
        if not curvature > 0.0:
            return x, k, False
        alpha = rz / curvature
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(q, alpha, out=scratch)
        rz_prev = rz
        if callback is not None:
            callback(x)
    return x, maxiter, norm(r) <= target
