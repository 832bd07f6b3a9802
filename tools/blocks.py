"""Per-call cost of the blocks of the full-system RK4 and semi-implicit steps
and of the Newton elliptic solve.

    python tools/blocks.py [checkout]

Imports bfflow from <checkout>/src (by default this checkout's) and prints
one table row per state shape: the thread-CPU microseconds per call of
`grid.lap_array`, `grid.grad_array`, `grid.div_array`,
`physics.f_apply_array`, `dynamics._FullSystem.rhs`, one
`dynamics._rk4_full` step and one step of `dynamics.simulate`'s loop (the
advance, p's re-projection, the finiteness check and the drift guard), at 2D
n = 8, 16, 32, 64 and 3D n = 8, 16, with 1 member (a single state, no member
axis), 6 and 16 members. The system is quintic drag (alpha = beta = 1,
l = 2), D = diag(1, 2[, 1.5]), a random forcing and no convective term; the
step is dt = 1e-5. The loop step is the difference of two `simulate` runs
that store only their ends, of 300 and 10 steps, over 290, so that the
set-up both make cancels, each run's time the least of 5; 2D n = 16 with 16
members is the shape of acceptance criterion c12's runs, whose time is
this column times its 100 000 steps. A second table gives
one `dynamics._semi_implicit_full` step of the same system (dt = 0.01,
cg_tol = 1e-12, CG from u, as a run's first step) at 2D n = 16, 32 and 3D
n = 8 with 1 and 2 members, and beside it the step's CG iterations: its
operator applications, less the one that forms the initial residual. A
third table gives one Newton elliptic solve of the truncated system as a
run makes it (`dynamics._TruncatedSystem.solve_u`: quintic drag, a random
forcing and pressure, newton_tol 1e-10, cg_tol 1e-12) at 2D n = 16, 32 and
3D n = 8, from a cold start (u = 0) and warm-started from the solution for
a nearby pressure (p plus 1e-4 times another random pressure), with the
solve's Newton steps and CG iterations beside it. Each other number is the
least over 7 repeats, each repeat timing enough calls to take about 20 ms.

Every time is CPU time of the calling thread (`time.thread_time`): unlike
wall time, it leaves out the time the thread waits while other processes
run. Each is the least of its repeats. A run can still read high when
another process shares the core and its caches, so compare two checkouts
by the medians of several alternating runs: on a shared 2-core host, ten
runs of each gave the c12-shape loop step to a few percent (one
checkout's quartiles 4% apart).

At 2D n = 64 and 3D n = 16 a block's temporaries can pass the C allocator's
mmap threshold, and then each call maps and faults them in afresh, so a
block's time there also depends on what the process allocated before it.
Setting MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ (glibc) to 1 GiB in
the environment holds the allocator steady.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SHAPES = [(2, 8), (2, 16), (2, 32), (2, 64), (3, 8), (3, 16)]
MEMBERS = (1, 6, 16)
SEMI_IMPLICIT_SHAPES = [(2, 16), (2, 32), (3, 8)]
SEMI_IMPLICIT_MEMBERS = (1, 2)
NEWTON_SHAPES = [(2, 16), (2, 32), (3, 8)]
LOOP_STEPS = (10, 300)  # the two simulate runs of the loop-step column
LOOP_REPEATS = 5
REPEATS = 7
REPEAT_SECONDS = 0.02


def _cpu_seconds(fn, number: int = 1) -> float:
    """The thread-CPU seconds of `number` calls of `fn`."""
    t0 = time.thread_time()
    for _ in range(number):
        fn()
    return time.thread_time() - t0


def _us_per_call(fn) -> float:
    """Least over REPEATS of the mean thread-CPU microseconds per call of
    `fn`."""
    fn()
    number = max(1, int(REPEAT_SECONDS / max(_cpu_seconds(fn), 1e-7)))
    return 1e6 * min(_cpu_seconds(fn, number) for _ in range(REPEATS)) / number


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
    names = ("lap", "grad", "div", "f_apply", "rhs", "rk4_step", "loop_step")
    print(f"bfflow from {checkout.resolve()}; numpy {np.__version__}; "
          "least thread-CPU us per call")
    print(f"{'dim':>3} {'n':>3} {'members':>7} " + " ".join(f"{s:>9}" for s in names))
    for dim, n in SHAPES:
        g = Grid(dim, n)
        D = MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim])
        for members in MEMBERS:
            rng = SplitMix64(1000 * dim + n + members)
            u, p = _state(gr, rng, g, members)
            sys_ = dyn._FullSystem(g, D, params, rng.normal((dim,) + g.shape), False)
            step = dyn._rk4_full(sys_, 1e-5)
            blocks = (lambda: gr.lap_array(u, g.h, dim),
                      lambda: gr.grad_array(p, g.h, dim),
                      lambda: gr.div_array(u, g.h, dim),
                      lambda: ph.f_apply_array(u, params, dim),
                      lambda: sys_.rhs(u, p),
                      lambda: step((u, p)))
            cells = [_us_per_call(fn) for fn in blocks]
            runs = [min(_cpu_seconds(lambda: dyn.simulate(
                        (u, p), g, cfg, sys_.forcing, D, params, steps * cfg.dt,
                        snapshot_every=steps)) for _ in range(LOOP_REPEATS))
                    for steps in LOOP_STEPS]
            cells.append(1e6 * (runs[1] - runs[0]) / (LOOP_STEPS[1] - LOOP_STEPS[0]))
            cells = " ".join(f"{cell:9.1f}" for cell in cells)
            print(f"{dim:>3} {n:>3} {members:>7} {cells}", flush=True)
    print()
    print(f"{'dim':>3} {'n':>3} {'members':>7} {'semi_step':>9} {'cg_iters':>9}")
    for dim, n in SEMI_IMPLICIT_SHAPES:
        g = Grid(dim, n)
        D = MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim])
        for members in SEMI_IMPLICIT_MEMBERS:
            rng = SplitMix64(1000 * dim + n + members)
            u, p = _state(gr, rng, g, members)
            sys_ = dyn._FullSystem(g, D, params, rng.normal((dim,) + g.shape), False)

            def step():
                return dyn._semi_implicit_full(sys_, u, p, 0.01, 1e-12)
            print(f"{dim:>3} {n:>3} {members:>7} {_us_per_call(step):9.1f} "
                  f"{_cg_iterations(dyn, step):9d}", flush=True)
    print()
    print(f"{'dim':>3} {'n':>3} {'start':>7} {'newton':>9} {'steps':>9} {'cg_iters':>9}")
    for dim, n in NEWTON_SHAPES:
        g = Grid(dim, n)
        rng = SplitMix64(2000 * dim + n)
        forcing, p = _state(gr, rng, g, 1)
        p_near = p + 1e-4 * _state(gr, rng, g, 1)[1]
        truncated = dyn._TruncatedSystem(g, params, forcing, dyn.SolverConfig(dt=1e-3))
        for start, u0 in (("cold", None), ("warm", truncated.solve_u(p_near))):
            def solve():
                truncated._warm = u0
                return truncated.solve_u(p)
            print(f"{dim:>3} {n:>3} {start:>7} {_us_per_call(solve):9.1f} "
                  f"{_newton_steps(dyn, solve):9d} {_cg_iterations(dyn, solve):9d}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
