"""NLS kernels registry: interchangeable inner engines for the BPP solver.

The local NLS solve is the largest per-iteration bar of the paper's default
configuration (§6.3), so :class:`~repro.nls.bpp.BlockPrincipalPivoting`
delegates its pivot loop to a *kernel* from this registry.  The kernel is an
argument of the BPP solver (``BlockPrincipalPivoting(kernel=...)``, and of
the serving path that builds one), not an option of a fit or a plan: both
engines give the same bytes, and a fit always runs the default.

``batched`` (the default, :data:`DEFAULT_KERNEL`)
    Vectorized so that one pivot round costs O(k) Python/LAPACK dispatches,
    not O(distinct passive-set patterns): boolean-array exchange rules,
    patterns grouped with ``packbits`` + one ``np.unique``, and every size
    class's patterns and columns found with one stable ``argsort`` each.  Per
    pattern *size*, one stacked ``np.linalg.cholesky`` of the uncached
    patterns (Gram blocks gathered through flat indices) whose solve forms
    are written straight into that size's ``s × s × capacity`` factor stack.
    Right-hand sides are gathered and solutions scattered through flat
    ``take`` / ``put`` indices, and each size class gets one element-wise
    forward/back substitution (:func:`_sweep`) over a compact
    ``s × s × columns`` stack, its products written into one scratch buffer
    per round.
``scalar``
    The readable reference oracle: Python loops apply the Kim & Park exchange
    rules per column and solve one passive-set pattern at a time.
    Byte-identical to ``batched`` (see below).

``"auto"`` is a plain alias of :data:`DEFAULT_KERNEL`.

Byte-identity contract
----------------------
Both kernels factorize with ``np.linalg.cholesky`` (whose stacked gufunc is
bit-identical to per-matrix calls) and solve the same compact ``s × s``
systems through one primitive, :func:`_substitute`, made of element-wise
multiply / subtract / divide steps only — no reductions — so a column's
solution depends on ``(gram, pattern, rhs column)`` and not on which columns
share the call, the rank's block, the micro-batch or the workspace chunk.
``scalar`` hands it one pattern's factor, ``batched`` a stack of them.
``tests/core/test_kernel_parity.py`` pins this at the full-factorization
level.  Both kernels cache factors by passive-set pattern (the Gram matrix
never changes within a solve): recomputing would give the same bits.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.nls.base import NLSState
from repro.util.errors import SolverError

__all__ = [
    "NLSKernel",
    "ScalarKernel",
    "BatchedKernel",
    "available_kernels",
    "resolve_kernel",
    "make_kernel",
    "DEFAULT_KERNEL",
    "cholesky_flops",
    "triangular_solve_flops",
]


#: What ``kernel=None`` means everywhere (solver, serving) and what every fit runs.
DEFAULT_KERNEL = "batched"

#: Byte cap on the factor stack one substitution sweeps over (``8 s²`` bytes
#: per column of a size-``s`` class); larger classes go through in chunks.  A
#: safety valve, not a knob: columns are independent, so no bit can change.
WORKSPACE_BYTES = 8 << 20


# -- flop accounting primitives ---------------------------------------------
def cholesky_flops(size: int) -> float:
    """Flops to factorize one ``size × size`` SPD block (``s³/3``)."""
    return size**3 / 3.0


def triangular_solve_flops(size: int, columns: int = 1) -> float:
    """Flops for forward+back substitution of ``columns`` RHS (``2 s² c``)."""
    return 2.0 * size * size * columns


# -- shared numerical primitives (byte-parity by construction) ---------------
def _solve_form(factors: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cholesky factors ``(..., s, s)`` in the form :func:`_substitute` reads.

    ``L = L̃ D`` with ``L̃`` unit lower triangular, so ``L Lᵀ = L̃ D² L̃ᵀ``:
    the strict lower triangle holds ``L̃`` and the diagonal ``D²``, which
    takes the per-step division out of both sweeps.  ``out`` (any strides,
    e.g. a view of a factor stack) receives the form instead of a new array.
    """
    diag = np.diagonal(factors, axis1=-2, axis2=-1)
    form = np.divide(factors, diag[..., None, :], out=out)
    at = np.arange(factors.shape[-1])
    form[..., at, at] = diag * diag
    return form


def _factorize_pattern(gram, idx, state: NLSState) -> np.ndarray:
    """Solve form of ``chol(gram[idx, idx])``; all NaN if that block is singular."""
    try:
        L = np.linalg.cholesky(gram[np.ix_(idx, idx)])
    except np.linalg.LinAlgError:
        return np.full((idx.size, idx.size), np.nan)
    state.extra["cholesky_flops"] += cholesky_flops(idx.size)
    return _solve_form(L)


def _substitute(form: np.ndarray, b: np.ndarray, work: Optional[np.ndarray] = None) -> None:
    """Solve ``L Lᵀ x = b`` in place for a stack of factors, element-wise.

    ``form`` is ``s × s × n`` (:func:`_solve_form`, factor index last): one
    factor per column of ``b``, or ``n == 1``, one factor broadcast over all
    of them.  Column-oriented substitution: every step is an element-wise
    multiply and subtract, so no column's result depends on its neighbours.
    Every step's product lands in one scratch buffer, ``work`` (a flat
    float64 array of at least ``(s - 1) n`` elements; made here if omitted).
    """
    s, n = b.shape
    rows = max(s - 1, 0)
    work = np.empty((rows, n)) if work is None else work[: rows * n].reshape(rows, n)
    multiply, subtract = np.multiply, np.subtract
    for j in range(s - 1):
        below, step = b[j + 1 :], work[j:]
        multiply(form[j + 1 :, j], b[j], step)
        subtract(below, step, below)
    b /= form.diagonal().T
    for j in range(s - 1, 0, -1):
        above, step = b[:j], work[:j]
        multiply(form[j, :j], b[j], step)
        subtract(above, step, above)


def _sweep(positions: np.ndarray, forms: np.ndarray, slots: np.ndarray, source, out, work) -> None:
    """Substitute one size class of a pivot round.

    ``positions`` (``size × columns``) holds the flat positions of the class's
    right-hand sides in ``source`` and of their solutions in ``out``;
    ``slots`` the slots of its columns' factors in the ``forms`` stack, or a
    single slot when the class has one pattern, whose factor is then
    broadcast, not gathered.  A gathered factor stack stays under
    :data:`WORKSPACE_BYTES`.
    """
    size, columns = positions.shape
    lone = slots.size == 1
    step = columns if lone else max(1, WORKSPACE_BYTES // (8 * size * size))
    for lo in range(0, columns, step):
        part = positions[:, lo : lo + step]
        b = source.take(part)
        _substitute(forms.take(slots if lone else slots[lo : lo + step], axis=2), b, work)
        out.put(part, b)


def _solve_pattern(gram, rhs, idx, form, state: NLSState) -> np.ndarray:
    """Every column of ``rhs`` solved on one pattern's compact system (rows ``idx``)."""
    x = np.zeros(rhs.shape)
    sub = rhs[idx]
    if np.isnan(form[:1, :1]).any():
        # Singular passive block (no Cholesky factor): minimum-norm solution.
        sub = np.linalg.lstsq(gram[np.ix_(idx, idx)], sub, rcond=None)[0]
    else:
        _substitute(form[:, :, None], sub)
        state.extra["triangular_solve_flops"] += triangular_solve_flops(idx.size, sub.shape[1])
    x[idx] = sub
    return x


class NLSKernel:
    """The BPP pivot loop; a kernel supplies its two hooks over the unconverged
    columns ``cols`` (an index array or ``slice(None)``): ``_exchange`` (Kim &
    Park's rules) and ``_solve_groups`` (the passive-set systems).
    """

    #: registry name; subclasses override
    name: str = "abstract"

    def make_cache(self):
        """A fresh, empty pattern → factor cache of this kernel's own kind."""
        return {}

    def solve(
        self,
        gram: np.ndarray,
        rhs: np.ndarray,
        x0: Optional[np.ndarray],
        *,
        max_backup: int,
        max_iters: int,
        tol: float,
        cache=None,
    ) -> Tuple[np.ndarray, NLSState]:
        """Run BPP on pre-validated inputs; return ``(x, state)``.

        ``x`` may contain tiny negatives (the solver shell clamps); ``state``
        carries pivot diagnostics plus measured flop tallies in
        ``state.extra['cholesky_flops']`` / ``['triangular_solve_flops']``.

        ``cache`` is the passive-pattern → factor cache, an object from
        :meth:`make_cache` (sized with ``len()``); ``None`` gives each call a
        fresh one.  A caller that solves against the SAME ``gram`` repeatedly
        (serving: ``gram = WᵀW`` is fixed per model version) may pass a
        persistent one so factors survive across calls; replace it whenever
        ``gram`` changes.  Only completed factorizations are inserted, so an
        exception mid-solve leaves no half-made entry.
        """
        k, c = rhs.shape
        state = self._fresh_state()
        if cache is None:
            cache = self.make_cache()
        x = np.zeros((k, c))
        y = -rhs
        passive = np.zeros((k, c), dtype=bool)
        if x0 is not None and np.any(x0 > 0):
            passive = x0 > 0
            self._solve_groups(gram, rhs, passive, x, slice(None), cache, state)
            y = gram @ x - rhs
        alpha = np.full(c, max_backup)  # remaining full exchanges per column
        beta = np.full(c, k + 1)  # best (lowest) infeasibility count per column

        for iteration in range(max_iters):
            infeasible = np.where(passive, x < -tol, y < -tol)
            counts = infeasible.sum(axis=0)
            not_done = counts.nonzero()[0]
            if not_done.size == 0:
                state.iterations, state.converged = iteration, True
                return x, state
            # While every column is still pivoting (a whole serving batch, the
            # first rounds of a fit) plain views replace the fancy copies.
            cols = slice(None) if not_done.size == c else not_done
            self._exchange(passive, infeasible, counts, cols, alpha, beta, max_backup, state)
            self._solve_groups(gram, rhs, passive, x, cols, cache, state)
            y[:, cols] = gram @ x[:, cols] - rhs[:, cols]
        state.iterations, state.converged = max_iters, False
        return x, state

    @staticmethod
    def _fresh_state() -> NLSState:
        return NLSState(extra={"cholesky_flops": 0.0, "triangular_solve_flops": 0.0})


# -- kernels -----------------------------------------------------------------
class ScalarKernel(NLSKernel):
    """The column-at-a-time reference BPP engine (pure NumPy + Python loops).

    Columns sharing a passive-set pattern are grouped in a dict so one
    Cholesky serves the group; each group's compact system goes through
    :func:`_substitute` on its own.  The oracle ``batched`` is tested against.
    """

    name = "scalar"

    @staticmethod
    def _exchange(passive, infeasible, n_infeasible, cols, alpha, beta, max_backup, state):
        for col in np.arange(passive.shape[1])[cols]:
            count = n_infeasible[col]
            if count < beta[col]:
                # Progress: remember the new best and reset the budget.
                beta[col] = count
                alpha[col] = max_backup
                exchange = infeasible[:, col]
                state.full_exchanges += 1
            elif alpha[col] >= 1:
                # No progress but budget remains: full exchange anyway.
                alpha[col] -= 1
                exchange = infeasible[:, col]
                state.full_exchanges += 1
            else:
                # Backup rule: exchange only the largest infeasible index.
                exchange = np.zeros(passive.shape[0], dtype=bool)
                exchange[np.flatnonzero(infeasible[:, col]).max()] = True
                state.backup_exchanges += 1
            passive[exchange, col] = ~passive[exchange, col]

    @staticmethod
    def _solve_groups(gram, rhs, passive, x, cols, cache, state):
        patterns: Dict[bytes, list] = {}
        for col in np.arange(passive.shape[1])[cols]:
            patterns.setdefault(passive[:, col].tobytes(), []).append(col)
        for pattern, members in patterns.items():
            entry = cache.get(pattern)
            if entry is None:
                idx = np.flatnonzero(np.frombuffer(pattern, dtype=bool))
                entry = cache[pattern] = (idx, _factorize_pattern(gram, idx, state))
            x[:, members] = _solve_pattern(gram, rhs[:, members], *entry, state)


class _FactorStacks:
    """The batched kernel's cache: pattern key → slot in its size's factor stack.

    ``forms[s]`` is ``s × s × capacity``, factor index last: the compact solve
    forms of every size-``s`` pattern seen (NaN for a singular one), written
    straight into their slots when factorized, so one ``take`` hands
    :func:`_substitute` the per-column stack of a size class and a cached
    factor is never restacked.
    """

    def __init__(self) -> None:
        self.slots: Dict[bytes, int] = {}
        self.forms: Dict[int, np.ndarray] = {}
        self.used: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.slots)

    def slots_for(self, gram, keys: List[bytes], idx: np.ndarray, state) -> np.ndarray:
        """Slots of same-size patterns (a row of ``idx`` each), factorizing the new ones."""
        slots = np.fromiter(map(self.slots.get, keys, repeat(-1)), np.intp, len(keys))
        new = (slots < 0).nonzero()[0]
        if new.size == 0:
            return slots
        size = idx.shape[1]
        used, forms = self.used.get(size, 0), self.forms.get(size)
        if forms is None or used + new.size > forms.shape[2]:
            grown = np.empty((size, size, used + max(used // 2, new.size)))
            if used:
                grown[:, :, :used] = forms[:, :, :used]
            forms = grown
        blocks = idx[new]
        # Past ``used``: no slot points here until the commit below.
        fresh = forms[:, :, used : used + new.size]
        try:
            # One stacked Cholesky for the whole size class, its Gram blocks
            # gathered through flat indices.
            k = gram.shape[0]
            factors = np.linalg.cholesky(gram.take(blocks[:, :, None] * k + blocks[:, None, :]))
        except np.linalg.LinAlgError:
            # At least one singular block: per-pattern calls (bit-identical
            # for the nonsingular ones).
            for at, block in enumerate(blocks):
                fresh[:, :, at] = _factorize_pattern(gram, block, state)
        else:
            _solve_form(factors, out=fresh.transpose(2, 0, 1))
            state.extra["cholesky_flops"] += new.size * cholesky_flops(size)
        # Commit only now, so an exception above leaves no half-made entry.
        self.forms[size], self.used[size] = forms, used + new.size
        made = np.arange(used, used + new.size)
        self.slots.update(zip(map(keys.__getitem__, new.tolist()), made.tolist()))
        slots[new] = made
        return slots


class BatchedKernel(NLSKernel):
    """Vectorized BPP engine (the default; see the module docstring).

    Per pivot round: array-at-once exchange rules, one ``np.unique`` grouping,
    and per pattern *size* one stacked Cholesky of the uncached patterns and
    one :func:`_substitute` sweep.  Byte-identical to :class:`ScalarKernel`.
    """

    name = "batched"

    def make_cache(self) -> _FactorStacks:
        return _FactorStacks()

    @staticmethod
    def _exchange(passive, infeasible, n_infeasible, cols, alpha, beta, max_backup, state):
        counts, best = n_infeasible[cols], beta[cols]
        flips = infeasible[:, cols]
        stuck = counts >= best  # no progress: spend budget, or back up without any
        beta[cols] = np.minimum(counts, best)
        n_backup = 0
        if stuck.any():
            budget = alpha[cols]
            retry = stuck & (budget >= 1)
            alpha[cols] = np.where(stuck, budget - retry, max_backup)
            backup = stuck ^ retry
            n_backup = int(np.count_nonzero(backup))
        else:
            alpha[cols] = max_backup
        if n_backup:
            # Backup rule: flip only the largest infeasible index.
            last = (passive.shape[0] - 1) - np.argmax(flips[::-1], axis=0)
            flips = flips & ~backup
            flips[last[backup], np.flatnonzero(backup)] = True
        state.full_exchanges += counts.size - n_backup
        state.backup_exchanges += n_backup
        passive[:, cols] ^= flips

    @staticmethod
    def _solve_groups(gram, rhs, passive, x, cols, stacks, state):
        patterns, targets = passive[:, cols], rhs[:, cols]
        first = patterns[:, 0]
        if (patterns == first[:, None]).all():
            # One pattern covers the call (serving; a W-update at convergence):
            # no grouping, and its factor is broadcast, not gathered per column.
            idx, key = first.nonzero()[0], np.packbits(first).tobytes()
            if idx.size == 0:
                x[:, cols] = 0.0
                return
            slot = stacks.slots.get(key)
            if slot is None:
                slot = stacks.slots_for(gram, [key], idx[None], state)[0]
            form = stacks.forms[idx.size][:, :, slot]
            x[:, cols] = _solve_pattern(gram, targets, idx, form, state)
            return
        packed = np.ascontiguousarray(np.packbits(patterns, axis=0).T)
        packed = packed.view(f"V{packed.shape[1]}").ravel()  # any k: multi-byte keys
        keys, at, inverse = np.unique(packed, return_index=True, return_inverse=True)
        distinct = patterns[:, at]
        sizes = distinct.sum(axis=0)
        k, n = targets.shape
        # A size class is one run of the patterns sorted stably by size (key
        # order within) and one run of the columns (column order within); the
        # classes go in ascending size, so the Cholesky tallies add up in the
        # same order however the columns are spread.
        by_size = np.argsort(sizes, kind="stable")
        per_size = np.bincount(sizes, minlength=k + 1)
        group_ends = np.cumsum(per_size).tolist()
        row_ends = np.cumsum(per_size * np.arange(k + 1)).tolist()
        column_sizes = sizes[inverse]
        columns = np.argsort(column_sizes, kind="stable")
        column_ends = np.cumsum(np.bincount(column_sizes, minlength=k + 1)).tolist()
        place = np.empty_like(by_size)
        place[by_size] = np.arange(by_size.size)
        place = place[inverse]  # each column's pattern, as a position in ``by_size``
        passive_rows = np.nonzero(distinct[:, by_size].T)[1]  # every pattern's, in that order
        source, out = targets.ravel(), np.zeros((k, n))
        work = np.empty((k - 1) * n)
        for size in range(1, k + 1):
            first_group, end_group = group_ends[size - 1], group_ends[size]
            if first_group == end_group:
                continue
            groups = by_size[first_group:end_group]
            idx = passive_rows[row_ends[size - 1] : row_ends[size]].reshape(-1, size)
            slots = stacks.slots_for(gram, keys[groups].tolist(), idx, state)
            forms = stacks.forms[size]
            members = columns[column_ends[size - 1] : column_ends[size]]
            local = place[members] - first_group
            # Flat positions in ``targets`` (and ``out``) of the class's
            # compact right-hand sides, s × columns.
            positions = idx[local].T * n + members
            _sweep(positions, forms, slots if groups.size == 1 else slots[local], source, out, work)
            solved = members.size
            for group in np.flatnonzero(np.isnan(forms[0, 0, slots])):
                # Singular passive block: its columns' sweep results are replaced.
                theirs = members[local == group]
                bad = forms[:, :, slots[group]]
                out[:, theirs] = _solve_pattern(gram, targets[:, theirs], idx[group], bad, state)
                solved -= theirs.size
            state.extra["triangular_solve_flops"] += triangular_solve_flops(size, solved)
        x[:, cols] = out


# -- registry ----------------------------------------------------------------
_KERNELS: Dict[str, Type[NLSKernel]] = {"batched": BatchedKernel, "scalar": ScalarKernel}


def available_kernels() -> List[str]:
    """Every registered kernel name."""
    return sorted(_KERNELS)


def resolve_kernel(name: Optional[str]) -> str:
    """Normalize a requested kernel name to a registered one.

    ``None`` and ``"auto"`` both mean :data:`DEFAULT_KERNEL` (``batched``).
    An unknown name raises :class:`SolverError` — a typo must not silently
    fall back.
    """
    name = "auto" if name is None else name.lower()
    if name == "auto":
        return DEFAULT_KERNEL
    if name not in _KERNELS:
        raise SolverError(
            f"unknown NLS kernel {name!r}; registered: {available_kernels()} "
            "(or 'auto')"
        )
    return name


def make_kernel(name: Optional[str] = None) -> NLSKernel:
    """Instantiate a kernel by name ('scalar', 'batched', 'auto')."""
    return _KERNELS[resolve_kernel(name)]()
