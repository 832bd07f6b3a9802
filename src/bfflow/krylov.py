"""Hand-rolled conjugate gradients on ndarray unknowns."""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np


class CGError(RuntimeError):
    """CG failed; carries the last relative residual and the failed member."""

    def __init__(self, message: str, residual: float, iterations: int,
                 member: int | None = None):
        if member is not None:
            message = f"member {member}: {message}"
        super().__init__(f"{message} (rel residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations
        self.member = member


def conjugate_gradient(
    apply_op: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: np.ndarray | None = None,
    rtol: float = 1e-12,
    max_iter: int | None = None,
    inner: Callable[[np.ndarray, np.ndarray], float | np.ndarray] | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Solve A x = b for A self-adjoint positive definite in `inner`.

    `inner` defaults to the flat Euclidean dot product; pass a weighted dot
    when A is only self-adjoint in a weighted metric. `precondition`, if
    given, applies an SPD approximate inverse of A (standard preconditioned
    CG). Convergence is ||r|| <= rtol * ||b|| in `inner`'s norm, measured on
    the true residual either way.

    If `inner` returns one value per index of b's leading axis, that axis
    holds members that `apply_op` and `precondition` treat separately, and
    each member runs its own CG (step lengths, stop test, definiteness check,
    `max_iter` from its own size); a stopped member's x and r are never
    touched again, so each member gets the solution it gets alone.
    A non-finite load or residual raises CGError within two iterations.
    """
    dot = inner if inner is not None else lambda u, v: float(np.vdot(u, v))
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - apply_op(x) if x0 is not None else b.copy()
    bnorm = np.sqrt(dot(b, b))
    batched = np.ndim(bnorm) == 1
    if max_iter is None:
        max_iter = 40 * int(np.sqrt(b[0].size if batched else b.size)) + 200
    # per-member scalars in numpy for a batch (col: one per member, as a
    # column), in plain Python for one system, whose loop costs what it did;
    # a batch's flags are tested by Python's any/all, which over a few
    # members cost a tenth of a numpy reduction's call
    per = (-1,) + (1,) * (b.ndim - 1)
    some, every, not_, col = ((any, all, np.logical_not, lambda s: s.reshape(per))
                              if batched else (bool, bool, operator.not_, lambda s: s))
    x[bnorm == 0.0] = 0.0  # b = 0 solves to zero, whatever x0 is
    tol2 = (rtol * bnorm) ** 2
    rs = dot(r, r)
    # a NaN residual stays live and an infinite one never converges
    live = not_((bnorm == 0.0) | (rs <= tol2) & (rs < np.inf))
    if not some(live):
        return x
    z = precondition(r) if precondition is not None else r
    p = z.copy()
    rz = dot(r, z)
    scratch = np.empty_like(b)  # alpha p and alpha Ap, in turn
    for it in range(max_iter):
        Ap = apply_op(p)
        pAp = dot(p, Ap)
        bad = live & not_(pAp > 0.0)  # "not pAp > 0" also holds for NaN
        if some(bad):
            raise _failure(bad, rs, bnorm, it, pAp)
        if every(live):
            alpha = col(rz / pAp)
            x += np.multiply(p, alpha, out=scratch)
            r -= np.multiply(Ap, alpha, out=scratch)
        else:
            i = live.nonzero()[0]
            alpha = col(rz[i] / pAp[i])
            x[i] += alpha * p[i]
            r[i] -= alpha * Ap[i]
        rs = dot(r, r)
        live = live & not_(rs <= tol2)
        if not some(live):
            return x
        z = precondition(r) if precondition is not None else r
        rz_new = dot(r, z)
        if every(live):
            # beta p + z: the bytes of z + beta p, since addition commutes
            p *= col(rz_new / rz)
            p += z
        else:
            i = live.nonzero()[0]
            p[i] = z[i] + col(rz_new[i] / rz[i]) * p[i]
        rz = rz_new
    raise _failure(live, rs, bnorm, max_iter)


def _failure(members, rs, bnorm, iterations: int, pAp=None) -> CGError:
    """CGError for the first of `members`, with its relative residual; given
    `pAp`, a non-finite residual or a non-positive Krylov direction."""
    m = int(np.flatnonzero(members)[0])
    residual = float(np.ravel(np.sqrt(rs) / bnorm)[m])
    message = "conjugate gradients did not converge"
    if pAp is not None:
        finite = np.isfinite(residual) and np.isfinite(np.ravel(pAp)[m])
        message = ("operator not positive definite on Krylov direction" if finite
                   else "residual is non-finite")
    return CGError(message, residual, iterations, m if np.ndim(bnorm) else None)
