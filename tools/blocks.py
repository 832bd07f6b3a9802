"""Per-call cost of the blocks of the full-system RK4 and semi-implicit steps
and of the Newton elliptic solve.

    python tools/blocks.py [checkout]

Imports bfflow from <checkout>/src (by default this checkout's) and prints
two table rows per state shape, the median and the least over the rounds
(below) of the thread-CPU microseconds per call of
`grid.lap_array`, `grid.grad_array`, `grid.div_array` and
`physics.f_apply_array`, each beside the same operator as the right-hand
side's kernel calls it (the `_k` columns: the sequence the kernel bound to
its arrays, `laplacian`, `gradient`, `divergence` of D u and `drag`, or, in
a checkout whose kernels call the module functions with `out=`, that call
into the kernel's arrays), then of `dynamics._FullSystem.rhs`, one
`dynamics._rk4_full` step (on the flat state, or on the (u, p) tuple in a
checkout that steps one) and one step of `dynamics.simulate`'s loop (the
advance, p's re-projection, the finiteness check and the drift guard), in
thread CPU and, in the `loop_proc` column, in process CPU, at 2D
n = 8, 16, 32, 64 and 3D n = 8, 16, with 1 member (a single state, no member
axis), 6 and 16 members. The system is quintic drag (alpha = beta = 1,
l = 2), D = diag(1, 2[, 1.5]), a random forcing and no convective term; the
step is dt = 1e-5. The loop step is the difference of two `simulate` runs
that store only their ends, of 300 and 10 steps, over 290, so that the
set-up both make cancels; 2D n = 16 with 16 members is the shape of
acceptance criterion c12's runs, whose time is this column times its
100 000 steps. A second table gives
one `dynamics._semi_implicit_full` step of the same system (dt = 0.01,
cg_tol = 1e-12, CG from u, as a run's first step) at 2D n = 16, 32 and 3D
n = 8 with 1 and 2 members, and beside it the step's CG iterations: its
operator applications, less the one that forms the initial residual. A
third table gives one Newton elliptic solve of the truncated system as a
run makes it (`dynamics._TruncatedSystem.solve_u`: quintic drag, a random
forcing and pressure, newton_tol 1e-10, cg_tol 1e-12) at 2D n = 16, 32 and
3D n = 8, from a cold start (u = 0) and warm-started from the solution for
a nearby pressure (p plus 1e-4 times another random pressure), with the
solve's Newton steps and CG iterations beside it; the second and third
tables give the median and the least time per cell.

The cells of one row of the first table, and all cells of the second and of
the third, are timed in turn, one batch of calls per cell, over 7 rounds; a
batch is as many calls as take about 20 ms (one pair of runs for the loop
step). So host load that comes and goes lands on every cell of a round
alike, not on the one cell that happens to be timed then. Every time but
`loop_proc` is CPU time of the calling thread (`time.thread_time`): unlike
wall time, it leaves out the time the thread waits while other processes
run. It also leaves out the threads of numpy's BLAS, which a product or a
dot over more than about 10^4 entries may wake; `loop_proc` times the same
runs in CPU time of the whole process (`time.process_time`), so where it
reads above `loop_step`, those threads ran. A run can still read high when
another process shares the core and its caches, so compare two checkouts by
several alternating runs.

At 2D n = 64 and 3D n = 16 a block's temporaries can pass the C allocator's
mmap threshold, and then each call maps and faults them in afresh, so a
block's time there also depends on what the process allocated before it.
Setting MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ (glibc) to 1 GiB in
the environment holds the allocator steady.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

SHAPES = [(2, 8), (2, 16), (2, 32), (2, 64), (3, 8), (3, 16)]
MEMBERS = (1, 6, 16)
SEMI_IMPLICIT_SHAPES = [(2, 16), (2, 32), (3, 8)]
SEMI_IMPLICIT_MEMBERS = (1, 2)
NEWTON_SHAPES = [(2, 16), (2, 32), (3, 8)]
LOOP_STEPS = (10, 300)  # the two simulate runs of the loop-step column
ROUNDS = 7
REPEAT_SECONDS = 0.02


def _cpu_seconds(fn, number: int = 1) -> float:
    """The thread-CPU seconds of `number` calls of `fn`."""
    t0 = time.thread_time()
    for _ in range(number):
        fn()
    return time.thread_time() - t0


def _batch(fn):
    """A cell of `fn`: a function that times one batch of as many calls of
    `fn` as take about REPEAT_SECONDS and returns the seconds per call, as
    a 1-tuple."""
    fn()
    number = max(1, int(REPEAT_SECONDS / max(_cpu_seconds(fn), 1e-7)))
    return lambda: (_cpu_seconds(fn, number) / number,)


def _rounds(cells) -> list[tuple[float, float]]:
    """The median and the least microseconds per call of each column, the
    cells timed in turn within each of ROUNDS rounds; a cell returns a tuple
    of seconds, one per column."""
    rounds = [sum((cell() for cell in cells), ()) for _ in range(ROUNDS)]
    return [(1e6 * statistics.median(t), 1e6 * min(t)) for t in zip(*rounds)]


def _cg_iterations(dyn, step) -> int:
    """The CG iterations of one call of `step`: the applications of the
    operators handed to `dyn.conjugate_gradient`, less one for each solve
    given an x0 (the application that forms its initial residual)."""
    real, calls = dyn.conjugate_gradient, []

    def counted(apply_op, b, *args, **kwargs):
        def op(x):
            calls.append(1)
            return apply_op(x)
        if (args[0] if args else kwargs.get("x0")) is not None:
            calls.append(-1)
        return real(op, b, *args, **kwargs)

    dyn.conjugate_gradient = counted
    try:
        step()
    finally:
        dyn.conjugate_gradient = real
    return sum(calls)


def _newton_steps(dyn, step) -> int:
    """The Newton steps of the one `dyn.solve_elliptic_arrays` call that
    `step` makes: the length of its residual history, less one."""
    real, steps = dyn.solve_elliptic_arrays, []

    def counted(*args, **kwargs):
        u, history = real(*args, **kwargs)
        steps.append(len(history) - 1)
        return u, history

    dyn.solve_elliptic_arrays = counted
    try:
        step()
    finally:
        dyn.solve_elliptic_arrays = real
    return steps[0]


def _kernel_calls(gr, ph, k, u, p, params, dim):
    """The kernel's own lap u, grad p, div(D u) and f(u): its bound sequences,
    or, where a kernel has none, the module functions into its arrays."""
    if hasattr(k, "laplacian"):
        return (lambda: k.laplacian(u), lambda: k.gradient(p), k.divergence,
                lambda: k.drag(params, u))
    return (lambda: gr.lap_array(u, k.h, dim, out=k.lap, scratch=k.tu),
            lambda: gr.grad_array(p, k.h, dim, out=k.du),
            lambda: gr.div_array(k.Du, k.h, dim, out=k.dp, scratch=k.tp),
            lambda: ph.f_apply_array(u, params, dim, out=k.fu, work=k.phi))


def _rk4_step(np, dyn, sys_, u, p):
    """One `dyn._rk4_full` step from (u, p): on the flat state (u-block, then
    p-block) where the checkout steps one, else on the (u, p) tuple."""
    if hasattr(dyn, "_state_views"):
        step, y = dyn._rk4_full(sys_, 1e-5, u.shape), np.concatenate((u, p), axis=None)
    else:
        step, y = dyn._rk4_full(sys_, 1e-5), (u, p)
    return lambda: step(y)


def _state(gr, rng, g, members):
    """A random (u, p) of `members` members, or a single state for 1."""
    lead = () if members == 1 else (members,)
    return (rng.normal(lead + (g.dim,) + g.shape),
            gr.mean_project_array(rng.normal(lead + g.shape), g.dim))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(checkout.resolve() / "src"))
    import numpy as np
    from bfflow import dynamics as dyn
    from bfflow import grid as gr
    from bfflow import physics as ph
    from bfflow.grid import Grid
    from bfflow.physics import MediumMatrix, NonlinearityParams
    from bfflow.rng import SplitMix64

    params = NonlinearityParams(1.0, 1.0, 0.0, l=2.0)
    cfg = dyn.SolverConfig(dt=1e-5)
    names = ("lap", "lap_k", "grad", "grad_k", "div", "div_k", "f_apply", "f_k",
             "rhs", "rk4_step", "loop_step", "loop_proc")
    print(f"bfflow from {checkout.resolve()}; numpy {np.__version__}; "
          f"thread-CPU (loop_proc: process-CPU) us per call, median and least "
          f"over {ROUNDS} rounds")
    print(f"{'dim':>3} {'n':>3} {'members':>7} {'stat':>6} "
          + " ".join(f"{s:>9}" for s in names))
    for dim, n in SHAPES:
        g = Grid(dim, n)
        D = MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim])
        for members in MEMBERS:
            rng = SplitMix64(1000 * dim + n + members)
            u, p = _state(gr, rng, g, members)
            sys_ = dyn._FullSystem(g, D, params, rng.normal((dim,) + g.shape), False)
            sys_.rhs(u, p)  # builds the kernel, and leaves D u in it
            lap_k, grad_k, div_k, f_k = _kernel_calls(gr, ph, sys_._kernel(u.shape), u, p,
                                                      params, dim)
            blocks = (lambda: gr.lap_array(u, g.h, dim), lap_k,
                      lambda: gr.grad_array(p, g.h, dim), grad_k,
                      lambda: gr.div_array(u, g.h, dim), div_k,
                      lambda: ph.f_apply_array(u, params, dim), f_k,
                      lambda: sys_.rhs(u, p),
                      _rk4_step(np, dyn, sys_, u, p))
            runs = [lambda steps=steps: dyn.simulate(
                        (u, p), g, cfg, sys_.forcing, D, params, steps * cfg.dt,
                        snapshot_every=steps) for steps in LOOP_STEPS]

            def loop_step():
                """The loop step in thread and in process CPU seconds."""
                spans = []
                for run in runs:
                    t0, p0 = time.thread_time(), time.process_time()
                    run()
                    spans.append((time.thread_time() - t0, time.process_time() - p0))
                return tuple((long - short) / (LOOP_STEPS[1] - LOOP_STEPS[0])
                             for short, long in zip(*spans))
            cells = _rounds([_batch(fn) for fn in blocks] + [loop_step])
            for stat, pick in (("median", 0), ("least", 1)):
                row = " ".join(f"{cell[pick]:9.1f}" for cell in cells)
                print(f"{dim:>3} {n:>3} {members:>7} {stat:>6} {row}", flush=True)
    print()
    rows, cells = [], []
    for dim, n in SEMI_IMPLICIT_SHAPES:
        g = Grid(dim, n)
        D = MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim])
        for members in SEMI_IMPLICIT_MEMBERS:
            rng = SplitMix64(1000 * dim + n + members)
            u, p = _state(gr, rng, g, members)
            sys_ = dyn._FullSystem(g, D, params, rng.normal((dim,) + g.shape), False)

            def step(sys_=sys_, u=u, p=p):
                return dyn._semi_implicit_full(sys_, u, p, 0.01, 1e-12)
            rows.append(f"{dim:>3} {n:>3} {members:>7}")
            cells.append((_batch(step), f"{_cg_iterations(dyn, step):9d}"))
    print(f"{'dim':>3} {'n':>3} {'members':>7} {'semi_step':>9} {'least':>9} {'cg_iters':>9}")
    for row, (median, least), (_, iters) in zip(rows, _rounds([c for c, _ in cells]), cells):
        print(f"{row} {median:9.1f} {least:9.1f} {iters}")
    print()
    rows, cells = [], []
    for dim, n in NEWTON_SHAPES:
        g = Grid(dim, n)
        rng = SplitMix64(2000 * dim + n)
        forcing, p = _state(gr, rng, g, 1)
        p_near = p + 1e-4 * _state(gr, rng, g, 1)[1]
        truncated = dyn._TruncatedSystem(g, params, forcing, dyn.SolverConfig(dt=1e-3))
        for start, u0 in (("cold", None), ("warm", truncated.solve_u(p_near))):
            def solve(truncated=truncated, u0=u0, p=p):
                truncated._warm = u0
                return truncated.solve_u(p)
            rows.append(f"{dim:>3} {n:>3} {start:>7}")
            cells.append((_batch(solve), f"{_newton_steps(dyn, solve):9d} "
                                         f"{_cg_iterations(dyn, solve):9d}"))
    print(f"{'dim':>3} {'n':>3} {'start':>7} {'newton':>9} {'least':>9} {'steps':>9} "
          f"{'cg_iters':>9}")
    for row, (median, least), (_, counts) in zip(rows, _rounds([c for c, _ in cells]), cells):
        print(f"{row} {median:9.1f} {least:9.1f} {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
