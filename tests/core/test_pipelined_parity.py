"""Parity for the Algorithm 2/3 loops: one program, in the paper's line order.

Each loop runs its collectives as blocking calls at the lines that read
their results — on every backend.  ``overlap`` is accepted and must be
inert.  The contract: every backend × ``overlap`` value × variant
produces byte-identical factors, the same error history and identical cost
ledgers, all matching the lockstep oracle bit for bit, and no fit ever starts
a helper thread or books hidden communication.  Each of Algorithm 3's
reduce-scatter lines (7 and 13) is one physical call, as the ledger books it.
"""

import collections
import functools
import logging
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.hpc_nmf as hpc_mod
import repro.core.local_ops as local_ops_mod
import repro.core.naive as naive_mod
import repro.core.spmd_loop as loop_mod
from repro.comm.backends import run_spmd
from repro.comm.communicator import SelfComm
from repro.comm.profiler import Profiler, TaskCategory
from repro.core.api import fit
from repro.core.config import NMFConfig
from repro.core.observers import IterationObserver

VARIANTS = ("naive", "hpc1d", "hpc2d")
BACKENDS = ("lockstep", "thread", "process", "socket")
# p = 6 as 2×3 with m = 62 makes every block_counts split ragged (31 rows
# three ways, 15/14 columns two ways): uneven reduce-scatter counts.
GRIDS = {4: (2, 2), 6: (2, 3)}
MODES = {
    "default": dict(max_iters=4),
    "early_stop": dict(max_iters=12, tol=1e-3),   # stops at iteration 7-8
    "no_error": dict(max_iters=4, compute_error=False),
}


def _dense(seed=0, m=62, n=44):
    rng = np.random.default_rng(seed)
    return np.abs(rng.standard_normal((m, n)))


def _sparse(seed=3, m=70, n=50):
    return sp.random(m, n, density=0.15, random_state=seed, format="csr")


def _run(variant, backend, kind, p, mode, overlap):
    A = _dense(seed=7) if kind == "dense" else _sparse(seed=9)
    grid = {"grid": GRIDS[p]} if variant == "hpc2d" else {}
    return fit(A, 5, variant=variant, backend=backend, n_ranks=p, seed=11,
               overlap=overlap, **grid, **MODES[mode])


@functools.lru_cache(maxsize=None)
def _oracle(variant, kind, p, mode):
    return _run(variant, "lockstep", kind, p, mode, overlap=False)


def _assert_same_run(a, b):
    assert a.W.tobytes() == b.W.tobytes()
    assert a.H.tobytes() == b.H.tobytes()
    assert a.relative_error_history == b.relative_error_history
    assert a.iterations == b.iterations
    assert a.ledger_summary == b.ledger_summary


# p = 4 and 6 forked ranks oversubscribe small hosts on purpose: parity, not speed.
@pytest.mark.filterwarnings("ignore:.*oversubscribe.*:RuntimeWarning")
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("p", list(GRIDS))
@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_schedule_parity(variant, backend, kind, p, mode):
    oracle = _oracle(variant, kind, p, mode)
    blocking = _run(variant, backend, kind, p, mode, overlap=False)
    default = _run(variant, backend, kind, p, mode, overlap=True)
    _assert_same_run(blocking, default)  # the parameter is inert
    _assert_same_run(oracle, default)
    if mode == "early_stop":
        assert default.converged and default.iterations < MODES[mode]["max_iters"]


@pytest.mark.parametrize("grid", [(2, 3), (3, 2)])
@settings(max_examples=8, deadline=None)
@given(m=st.integers(min_value=13, max_value=34), n=st.integers(min_value=11, max_value=30))
def test_uneven_scatter_counts_stay_byte_identical(grid, m, n):
    """Non-power-of-two grids make block_counts uneven (m % pr != 0 etc.),
    driving ragged reduce-scatter splits through lines 7 and 13."""
    A = np.abs(np.random.default_rng(m * 100 + n).standard_normal((m, n)))
    common = dict(variant="hpc2d", n_ranks=6, grid=grid, max_iters=2, seed=17)
    oracle = fit(A, 3, backend="lockstep", overlap=False, **common)
    thread = fit(A, 3, backend="thread", **common)
    _assert_same_run(oracle, thread)


# -- the facts the one-mode design rests on ------------------------------------

@pytest.mark.parametrize("overlap", [True, False])
@pytest.mark.parametrize("variant", VARIANTS)
def test_no_fit_starts_a_helper_thread_or_books_hidden_comm(
    variant, overlap, refuse_helper_threads
):
    """Whatever ``overlap`` says, a collective runs on the rank's own thread
    at the line that reads it: its seconds are exposed, none hidden."""
    res = fit(_dense(seed=8), 5, variant=variant, backend="thread", n_ranks=4,
              max_iters=3, seed=11, overlap=overlap)
    assert "HiddenComm" not in res.breakdown.seconds
    assert res.breakdown.communication > 0.0
    assert res.iterations == 3


def test_exception_inside_the_loop_surfaces_as_itself_on_every_rank(
    monkeypatch, refuse_helper_threads
):
    """The line-6 product raises in iteration 1, after iteration 0's
    reduce-scatters completed: nothing is in flight to clean up, the
    exception surfaces as itself on every rank and from ``fit``."""
    calls = threading.local()
    real = local_ops_mod.BlockProducts.h_at

    class Boom(RuntimeError):
        pass

    def failing(self, out):
        calls.n = getattr(calls, "n", 0) + 1
        if calls.n == 2:  # one line-6 product per iteration → iteration 1
            raise Boom("line-6 GEMM failed")
        return real(self, out)

    monkeypatch.setattr(local_ops_mod.BlockProducts, "h_at", failing)
    config = NMFConfig(k=4, max_iters=3, seed=1, grid=(2, 2))
    A = _dense(seed=4, m=24, n=18)

    def program(comm):
        try:
            hpc_mod.hpc_nmf(comm, A, config)
        except Boom as exc:
            return type(exc).__name__
        return "no exception"

    assert run_spmd(4, program, backend="thread") == ["Boom"] * 4
    with pytest.raises(Boom):
        fit(A, 4, variant="hpc2d", backend="thread", n_ranks=4, grid=(2, 2),
            max_iters=3, seed=1)


@pytest.mark.parametrize("overlap", [True, False])
def test_fit_logs_one_debug_line(caplog, overlap):
    """One DEBUG record per fit from rank 0 — silent unless asked for."""
    with caplog.at_level(logging.DEBUG, logger="repro.core"):
        fit(_dense(seed=8), 5, variant="hpc2d", backend="thread", n_ranks=4,
            max_iters=3, seed=11, overlap=overlap)
    (record,) = [r for r in caplog.records if r.name == "repro.core"]
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    for fact in ("hpc2d", "grid=2x2", "backend=thread", "max_iters=3"):
        assert fact in message


# -- checks no matrix cell covers ----------------------------------------------

def _capture_profilers(monkeypatch):
    """Every profiler a loop makes, each counting the tasks it books."""
    captured = []

    class CapturingProfiler(Profiler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.booked = collections.Counter()
            captured.append(self)

        def task(self, category):
            self.booked[category] += 1
            return super().task(category)

    monkeypatch.setattr(loop_mod, "Profiler", CapturingProfiler)
    return captured


class _StopNever(IterationObserver):
    def on_iteration(self, event):
        return False


TILE_MODES = {
    "fixed": {},                                   # tol == 0, nobody watching
    "tol": dict(tol=1e-12),                        # a stop the loop must test for
    "observer": dict(observers=[_StopNever()]),    # a rank-0 vote every iteration
}


@pytest.mark.parametrize("mode", list(TILE_MODES))
@pytest.mark.parametrize("variant", VARIANTS)
def test_history_seconds_tile_the_loop(variant, mode, monkeypatch):
    """Under every stopping rule the iterations' clocks tile the loop:
    iteration i's ``seconds`` run from its first statement — its own factor
    gather — to its record.  A gather outside the clocks would change
    ``iterations / Σ seconds`` — the benchmark's ``work_per_s`` — without
    changing the program; on this shape (cheap SpMM, 10 MB gathers) it is
    several percent of an iteration.  So every collective rank 0 issues
    between one record and the next (the record's own stop vote aside) is
    stamped inside ``[iter_start_i, iter_start_i + seconds_i]``, with
    ``iter_start`` as the loop hands it to ``SpmdLoop.end_iteration``; and
    from one record to the last the clocks sum to no more than the wall."""
    import time

    from repro.comm.communicator import Comm
    from repro.core.observers import LoopControl
    from repro.data import sparse_synthetic

    root = {}              # rank 0's thread (lockstep runs a thread per rank)
    stamps = []            # rank 0's record times
    starts, ends = [], []  # end_iteration's iter_start argument, and its return
    collectives = []       # (enter, leave, index of the iteration they belong to)
    in_record = threading.local()
    real_record = LoopControl.record
    real_end = loop_mod.SpmdLoop.end_iteration

    def record(self, *args, **kwargs):
        if self._root:
            root["thread"] = threading.get_ident()
            stamps.append(time.perf_counter())
        in_record.active = True
        try:
            return real_record(self, *args, **kwargs)
        finally:
            in_record.active = False

    def end_iteration(self, iteration, iter_start, *args):
        stop = real_end(self, iteration, iter_start, *args)
        if self.control._root:
            starts.append(iter_start)
            ends.append(time.perf_counter())
        return stop

    def stamped(name):
        real = getattr(Comm, name)

        def collective(self, *args, **kwargs):
            enter = time.perf_counter()
            value = real(self, *args, **kwargs)
            on_root = threading.get_ident() == root.get("thread")
            if on_root and not getattr(in_record, "active", False):
                collectives.append((enter, time.perf_counter(), len(ends)))
            return value

        monkeypatch.setattr(Comm, name, collective)

    monkeypatch.setattr(LoopControl, "record", record)
    monkeypatch.setattr(loop_mod.SpmdLoop, "end_iteration", end_iteration)
    for name in ("allgatherv", "allreduce", "reduce_scatter", "barrier"):
        stamped(name)
    A = sparse_synthetic(30000, 40000, density=1e-4, seed=3)
    res = fit(A, 32, variant=variant, backend="lockstep", n_ranks=2, max_iters=6,
              seed=11, solver="hals", **TILE_MODES[mode])
    assert len(res.history) == len(stamps) == len(starts) == 6
    # Rank 0 learns its thread at its first record, so iteration 0's
    # collectives are not seen; iterations 1..5 each issue some.
    seen = {index for _, _, index in collectives}
    assert set(range(1, 6)) <= seen
    for enter, leave, index in collectives:
        if index >= len(starts):
            continue  # after the loop (the result's assembly)
        start, seconds = starts[index], res.history[index].seconds
        assert start <= enter <= leave <= start + seconds, (
            index, enter - start, leave - start, seconds)
    wall = stamps[-1] - stamps[0]                      # records 0 → 5: iterations 1..5
    covered = sum(s.seconds for s in res.history[1:])
    assert covered <= wall


# (variant, n_ranks, grid): hpc2d's 2 × 3 grid reduce-scatters over 3-rank
# rows and 2-rank columns; hpc1d's 3 × 1 grid runs its line-7/line-11
# collectives on a size-1 row communicator (they hand back their input).
LINE_ORDER_CASES = [("naive", 3, None), ("hpc1d", 3, None), ("hpc2d", 6, (2, 3))]


def _expected_line_order(variant, grid, iteration):
    """Each rank's collectives in one iteration, in the paper's line order."""
    error_path = [("allreduce", "world"), ("allreduce", "world")]  # cross term, H Hᵀ
    if variant == "naive":
        # Algorithm 2: gather H, gather W (H Hᵀ comes from the error path).
        return [("allgatherv", "world"), ("allgatherv", "world")] + error_path
    line4 = [("allreduce", "world")] if iteration == 0 else []  # later: cached
    return (
        line4
        + [("allgatherv", "col")]                        # line 5: H_j
        + [("reduce_scatter", "row")]                    # line 7: (A Hᵀ)_i
        + [("allreduce", "world")]                       # line 10: Wᵀ W
        + [("allgatherv", "row")]                        # line 11: W_i
        + [("reduce_scatter", "col")]                    # line 13: (Wᵀ A)_j
        + error_path
    )


@pytest.mark.parametrize("variant, p, grid", LINE_ORDER_CASES)
def test_collectives_run_in_the_papers_line_order(variant, p, grid, monkeypatch):
    """Every rank issues, per iteration, exactly the collectives of its
    algorithm's lines in the order the paper lists them, each on the
    communicator the line names — no gather ahead of its line, none after a
    stopping decision."""
    from repro.comm.communicator import Comm
    from repro.core.observers import LoopControl

    seen = threading.local()
    real_grid = hpc_mod.ProcessGrid

    def grid_spy(*args, **kwargs):
        seen.grid = real_grid(*args, **kwargs)
        return seen.grid

    def where(comm):
        grid_ = getattr(seen, "grid", None)
        if grid_ is not None and comm is grid_.row_comm:
            return "row"
        if grid_ is not None and comm is grid_.col_comm:
            return "col"
        return "world"

    def spy(name):
        real = getattr(Comm, name)

        def call(self, *args, **kwargs):  # allreduce_scalar calls allreduce
            log = getattr(seen, "log", None)
            if log is not None:
                log.append((name, where(self)))
            return real(self, *args, **kwargs)

        return call

    real_start, real_record = LoopControl.start, LoopControl.record

    def start(self):
        seen.log, seen.iterations = [], []
        return real_start(self)

    def record(self, *args, **kwargs):
        seen.iterations.append(seen.log)
        seen.log = []
        return real_record(self, *args, **kwargs)

    monkeypatch.setattr(hpc_mod, "ProcessGrid", grid_spy)
    for name in ("allgatherv", "reduce_scatter", "allreduce"):
        monkeypatch.setattr(Comm, name, spy(name))
    monkeypatch.setattr(LoopControl, "start", start)
    monkeypatch.setattr(LoopControl, "record", record)
    config = NMFConfig(k=4, max_iters=3, seed=1, grid=grid)
    program = naive_mod.naive_parallel_nmf if variant == "naive" else hpc_mod.hpc_nmf

    def rank_program(comm):
        program(comm, _dense(seed=4, m=26, n=19), config, variant=variant)
        return seen.iterations, seen.log  # (per iteration, after the last record)

    for iterations, after_last in run_spmd(p, rank_program, backend="thread"):
        used_grid = grid or (p, 1)
        assert iterations == [_expected_line_order(variant, used_grid, i) for i in range(3)]
        assert after_last == []


def test_hpc_error_path_allreduces_are_booked(monkeypatch):
    """The cross-term allreduce_scalar counts as AllReduce wall time: on each
    of 2 ranks, T iterations with error tracking book 4 + 3(T-1) AllReduce
    tasks (iteration 0: line 4, line 10, cross, gram_h_new; later iterations
    skip line 4 via the gram cache).  At p = 1 every collective hands back its
    input and none is booked."""
    captured = _capture_profilers(monkeypatch)
    config = NMFConfig(k=4, max_iters=3, seed=1)
    A = _dense(seed=4, m=24, n=18)
    run_spmd(2, hpc_mod.hpc_nmf, A, config, backend="thread")
    assert [p.booked[TaskCategory.ALL_REDUCE] for p in captured] == [4 + 3 * (3 - 1)] * 2
    hpc_mod.hpc_nmf(SelfComm(), A, config)
    assert captured[-1].booked[TaskCategory.ALL_REDUCE] == 0


def test_naive_error_path_allreduces_are_booked(monkeypatch):
    """Naive books 2 AllReduce tasks per iteration and rank with error
    tracking: the cross term and the H-Gram reduction (its gram_h is computed
    redundantly, not reduced)."""
    captured = _capture_profilers(monkeypatch)
    config = NMFConfig(k=4, max_iters=3, seed=1)
    run_spmd(2, naive_mod.naive_parallel_nmf, _dense(seed=4, m=24, n=18), config,
             backend="thread")
    assert [p.booked[TaskCategory.ALL_REDUCE] for p in captured] == [2 * 3] * 2


def test_w_local_lives_in_its_workspace_buffer():
    """The line-8 result transpose lands in the persistent w_local workspace
    buffer — the same array object every iteration, not a fresh
    ascontiguousarray copy."""
    config = NMFConfig(k=4, max_iters=3, seed=1)
    comm = SelfComm()
    out = hpc_mod.hpc_nmf(comm, _dense(seed=4, m=24, n=18), config)
    assert out["W_local"] is comm.workspace.get("w_local", out["W_local"].shape)
    assert out["W_local"].flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("kind, buffers", [
    ("dense", {"w_local", "rhs"}),
    ("sparse", {"ht_w_home", "rhs"}),
])
def test_one_rank_workspace_holds_only_the_homes(kind, buffers):
    """A 1 × 1 fit (Algorithm 1) allocates no receive buffer: each of its
    collectives hands back its input.  A sparse block's (H_j)_iᵀ send copy
    (line 5 to line 7) and W's home (line 8 on) share one flat buffer."""
    comm = SelfComm()
    A = _dense(seed=4, m=24, n=18) if kind == "dense" else _sparse(seed=9)
    out = hpc_mod.hpc_nmf(comm, A, NMFConfig(k=4, max_iters=3, seed=1))
    held = comm.workspace._buffers
    assert set(held) == buffers
    home = held["ht_w_home" if kind == "sparse" else "w_local"]
    assert np.shares_memory(out["W_local"], home)


@pytest.mark.parametrize("variant", ("sequential",) + VARIANTS)
def test_dense_fit_never_calls_the_sparse_kernel(variant, monkeypatch):
    """Dense blocks go to BLAS, k-leading, with nothing to turn."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a dense fit called a sparse kernel")

    monkeypatch.setattr(local_ops_mod, "csr_product_t", forbidden)
    monkeypatch.setattr(local_ops_mod, "csc_product_t", forbidden)
    parallel = dict(backend="thread", n_ranks=4) if variant != "sequential" else {}
    res = fit(_dense(seed=8), 5, variant=variant, max_iters=3, seed=11, **parallel)
    assert res.iterations == 3


def _record_solver_rhs(monkeypatch):
    """Every solver a fit builds logs the ``rhs`` of each solve, per thread."""
    seen = threading.local()
    real_make_solver = NMFConfig.make_solver

    def make_recording_solver(config):
        solver = real_make_solver(config)
        real_solve = solver.solve

        def solve(gram, rhs, x0=None, out=None):
            if not hasattr(seen, "rhs"):
                seen.rhs = []
            seen.rhs.append(rhs)
            return real_solve(gram, rhs, x0=x0, out=out)

        solver.solve = solve
        return solver

    monkeypatch.setattr(NMFConfig, "make_solver", make_recording_solver)
    return seen


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("variant, buffer_name", [("naive", "rhs"), ("hpc2d", "aht_block")])
def test_line8_rhs_is_the_buffer_the_mm_wrote(variant, buffer_name, kind, monkeypatch):
    """The W-update NLS reads the k × m/p workspace buffer the MM (naive: the
    front of the flat rhs buffer) or the line-7 reduce-scatter (hpc2d on a
    2 × 2 grid) wrote — the same C-ordered memory every iteration, no
    transposed copy in between."""
    seen = _record_solver_rhs(monkeypatch)
    config = NMFConfig(k=4, max_iters=3, seed=1)
    A = _dense(seed=4, m=26, n=18) if kind == "dense" else _sparse(seed=9, m=26, n=18)
    program = naive_mod.naive_parallel_nmf if variant == "naive" else hpc_mod.hpc_nmf

    def rank_program(comm):
        program(comm, A, config)
        w_rhs = seen.rhs[0::2]  # solves alternate W-update, H-update
        buffer = comm.workspace._buffers[buffer_name]
        same = all(
            np.shares_memory(r, buffer) and r.ctypes.data == buffer.ctypes.data for r in w_rhs
        )
        return len(w_rhs), same, all(r.flags.c_contiguous for r in w_rhs)

    assert run_spmd(4, rank_program, backend="thread") == [(3, True, True)] * 4


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("grid", [(2, 1), (1, 2), (3, 1)])
def test_one_d_grid_rhs_is_the_array_the_mm_wrote(grid, kind, monkeypatch):
    """A size-1 row (column) communicator hands its collectives' input back:
    on ``pr × 1`` the line-8 right-hand side *is* the array the line-6 MM
    returned and line 12 reads the rank's own ``W`` block, on ``1 × pc`` the
    same for lines 12/14 and ``H`` — the size-1 communicator's receive
    buffers are never allocated.  The other half-iteration still goes through
    its buffers, and factors and ledger equal the lockstep oracle's."""
    seen = _record_solver_rhs(monkeypatch)
    pr, pc = grid
    made = threading.local()
    products = local_ops_mod.BlockProducts
    real_h_at, real_wt_a = products.h_at, products.wt_a

    def h_at(self, out):
        result = real_h_at(self, out)
        made.__dict__.setdefault("h_at", []).append(result)
        return result

    def wt_a(self, W, out):
        result = real_wt_a(self, W, out)
        made.__dict__.setdefault("wt_a", []).append(result)
        return result

    monkeypatch.setattr(products, "h_at", h_at)
    monkeypatch.setattr(products, "wt_a", wt_a)
    A = _dense(seed=4, m=26, n=19) if kind == "dense" else _sparse(seed=9)
    config = NMFConfig(k=4, max_iters=3, seed=1, grid=grid)
    # (the MM feeding the size-1 reduce-scatter)
    scattered = "h_at" if pc == 1 else "wt_a"
    # (where collectives over a size > 1 communicator would have put their results)
    unused = {"W_i", "aht_block"} if pc == 1 else {"H_j", "H_jt", "wta_block"}

    def rank_program(comm):
        hpc_mod.hpc_nmf(comm, A, config)
        ws = comm.workspace
        w_rhs, h_rhs = seen.rhs[0::2], seen.rhs[1::2]
        handed_back, buffered = (w_rhs, h_rhs) if pc == 1 else (h_rhs, w_rhs)
        products = getattr(made, scattered)
        return (
            len(products) == 3 and all(r is out for r, out in zip(handed_back, products)),
            all(r is ws.get("wta_block" if pc == 1 else "aht_block", r.shape) for r in buffered),
            not unused & set(ws._buffers),
        )

    p = pr * pc
    assert run_spmd(p, rank_program, backend="thread") == [(True, True, True)] * p
    common = dict(variant="hpc2d", n_ranks=p, grid=grid, max_iters=3, seed=1)
    _assert_same_run(fit(A, 4, backend="lockstep", **common), fit(A, 4, backend="thread", **common))


def test_sequential_line8_rhs_is_c_contiguous(monkeypatch):
    seen = _record_solver_rhs(monkeypatch)
    fit(_dense(seed=8), 5, variant="sequential", max_iters=3, seed=11)
    assert len(seen.rhs) == 6
    assert all(r.flags.c_contiguous for r in seen.rhs)


@pytest.mark.parametrize("variant, p, grid", [
    ("naive", 3, None),       # A_i Hᵀ and Wᵀ Aⁱ
    ("hpc1d", 3, None),
    ("hpc2d", 2, (2, 1)),     # sparse_wire's grid
    ("hpc2d", 6, (2, 3)),
])
def test_sparse_fit_runs_each_kernel_once_per_line(variant, p, grid, monkeypatch):
    """One sparse product per MM line and rank and iteration, whatever the
    grid: line 6's CSR kernel once, line 12's CSC kernel once."""
    calls = []

    def counting(real):
        def kernel(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return kernel

    for name in ("csr_product_t", "csc_product_t"):
        monkeypatch.setattr(local_ops_mod, name, counting(getattr(local_ops_mod, name)))
    extra = {"grid": grid} if grid else {}
    fit(_sparse(seed=9), 5, variant=variant, backend="thread", n_ranks=p,
        max_iters=3, seed=11, **extra)
    assert calls.count("csr_product_t") == p * 3
    assert calls.count("csc_product_t") == p * 3
    assert len(calls) == 2 * p * 3


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("grid", [(3, 1), (1, 3)])
def test_products_are_of_the_block_itself(grid, kind, monkeypatch):
    """No operand is cut out of the block: lines 6 and 12 each multiply
    ``A_ij`` itself, once per iteration, into a ``k × rows`` / ``k × cols``
    product."""
    seen = threading.local()
    real_from_global = hpc_mod.DistMatrix2D.from_global

    def spy(grid_, A_):
        data = real_from_global(grid_, A_)
        seen.block = data.block
        return data

    monkeypatch.setattr(hpc_mod.DistMatrix2D, "from_global", spy)
    products = local_ops_mod.BlockProducts
    real_h_at, real_wt_a = products.h_at, products.wt_a

    def h_at(self, out):
        seen.calls.append(("h_at", self.block is seen.block, out.shape))
        return real_h_at(self, out)

    def wt_a(self, W, out):
        seen.calls.append(("wt_a", self.block is seen.block, out.shape))
        return real_wt_a(self, W, out)

    monkeypatch.setattr(products, "h_at", h_at)
    monkeypatch.setattr(products, "wt_a", wt_a)
    A = _dense(seed=4, m=26, n=19) if kind == "dense" else _sparse(seed=9)
    config = NMFConfig(k=4, max_iters=2, seed=1, grid=grid)

    def rank_program(comm):
        seen.calls = []
        hpc_mod.hpc_nmf(comm, A, config)
        rows, cols = seen.block.shape
        one_iteration = [("h_at", True, (4, rows)), ("wt_a", True, (4, cols))]
        return seen.calls == one_iteration * 2

    assert run_spmd(3, rank_program, backend="thread") == [True] * 3


_LEDGER_NAMES = {"allgatherv": "all_gather", "reduce_scatter": "reduce_scatter",
                 "allreduce": "all_reduce"}


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("variant, p, grid", [
    ("naive", 4, None), ("naive", 6, None),
    ("hpc1d", 4, None), ("hpc1d", 6, None),
    ("hpc2d", 4, (2, 2)), ("hpc2d", 6, (2, 3)), ("hpc2d", 6, (3, 2)),
])
def test_every_booked_collective_is_one_physical_call(variant, p, grid, kind, monkeypatch):
    """The ledger books one entry per §2.3 collective, and the loop runs one
    physical call for it: a rank's collectives on communicators of more than
    one rank, from the loop's start on, are its ledger's calls per
    operation."""
    from repro.comm.communicator import Comm
    from repro.core.observers import LoopControl

    seen = threading.local()

    def spy(name):
        real = getattr(Comm, name)

        def call(self, *args, **kwargs):  # allreduce_scalar calls allreduce
            counts = getattr(seen, "counts", None)
            if counts is not None and self.size > 1:
                counts[_LEDGER_NAMES[name]] = counts.get(_LEDGER_NAMES[name], 0) + 1
            return real(self, *args, **kwargs)

        return call

    real_start = LoopControl.start

    def start(self):
        seen.counts = {}
        return real_start(self)

    for name in _LEDGER_NAMES:
        monkeypatch.setattr(Comm, name, spy(name))
    monkeypatch.setattr(LoopControl, "start", start)
    config = NMFConfig(k=4, max_iters=3, seed=1, grid=grid or (p, 1))
    program = naive_mod.naive_parallel_nmf if variant == "naive" else hpc_mod.hpc_nmf
    A = _dense(seed=4, m=26, n=19) if kind == "dense" else _sparse(seed=9)

    def rank_program(comm):
        out = program(comm, A, config, variant=variant)
        booked = {op: entry["calls"] for op, entry in out["ledger"].summary().items()}
        return seen.counts, booked

    # (one operation's calls per iteration: hpc1d's line 7 is on a
    # one-rank row communicator, so it moves and books nothing)
    operation, per_iteration = {"naive": ("all_gather", 2), "hpc1d": ("reduce_scatter", 1),
                                "hpc2d": ("reduce_scatter", 2)}[variant]
    for physical, booked in run_spmd(p, rank_program, backend="thread"):
        assert physical == booked
        assert booked[operation] == per_iteration * 3


def test_overlap_flag_is_noop_for_sequential():
    A = _dense(seed=2)
    default = fit(A, 5, variant="sequential", max_iters=4, seed=11)
    off = fit(A, 5, variant="sequential", max_iters=4, seed=11, overlap=False)
    np.testing.assert_array_equal(default.W, off.W)
    np.testing.assert_array_equal(default.H, off.H)
