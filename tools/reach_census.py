#!/usr/bin/env python3
"""Reach census: which functions of ``src/repro`` the committed programs run.

A function stays in ``src/`` because a program runs it: an example, a CLI
line or inline script of CI, CI's doctest step, or the layered benchmark.
A test reaching it does not count.  This tool runs each program of
:data:`PROGRAMS` in a subprocess with a recorder installed at interpreter
start (a generated ``sitecustomize`` on ``PYTHONPATH``): ``sys.setprofile``
and ``threading.setprofile`` note every code object entered.  A process
reports at exit; forked ranks and serve workers inherit the recorder and
report through an ``os._exit`` wrapper.  It then maps the entered code
objects onto every ``def`` under ``src/repro`` and prints function- and
line-level reach per module (a function's lines run from its ``def`` to its
last line).

Every function no program reaches needs a verdict: :data:`EXEMPT` says why
it stays.  :data:`CALLED` names the program that was made to reach a
function, and :data:`DELETED` records what went; together they are the
"Reach census" table of ``docs/ARCHITECTURE.md``.

Usage, from the repository root (stdlib only; about 3 minutes, and the
serve self-test's worker rows need a host with 2 or more CPUs)::

    python tools/reach_census.py             # run the programs, print the census
    python tools/reach_census.py --check     # and exit 1 on what the verdicts do not cover
    python tools/reach_census.py --markdown  # and print the verdict table
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
CI = REPO / ".github" / "workflows" / "ci.yml"


class Program(NamedTuple):
    """One non-test caller: ``argv`` (``python`` is this interpreter) or a
    ``script`` fed to ``python -``.  ``in_ci`` programs must appear in the CI
    workflow as written here; ``unrunnable`` says why one is not run."""

    name: str
    argv: Tuple[str, ...] = ()
    script: str = ""
    in_ci: bool = True
    unrunnable: str = ""


def _cli(*args: str) -> Tuple[str, ...]:
    return ("python", "-m", "repro", *args)


# CI's `variant="auto"` fit (doctest-and-front-door-smoke) and its "Fit
# memory stays put" fit, line for line.
_AUTO_FIT = """\
import numpy as np
from repro import fit

A = np.abs(np.random.default_rng(0).standard_normal((320, 12)))
res = fit(A, 3, variant="auto", grid="auto", n_ranks=4,
          backend="lockstep", max_iters=2)
assert res.plan is not None, "auto fit must record its plan"
assert res.plan.variant == res.variant
assert res.plan.grid == res.grid_shape
assert res.plan.breakdown.total > 0
print("auto plan provenance:", res.plan.summary())
# The plan is saved with the result and loads back equal.
restored = type(res).load(res.save("auto-fit.npz")).plan
assert restored.to_dict() == res.plan.to_dict(), (restored, res.plan)
"""

_MEMORY_FIT = """\
import resource
from repro import fit
from repro.data import sparse_synthetic
A = sparse_synthetic(15000, 10000, density=8e-4, seed=7)
fit(A, 32, variant='hpc2d', n_ranks=2, backend='socket', solver='hals', max_iters=6, seed=7)
fit(A, 32, variant='sequential', solver='hals', max_iters=6, seed=7)
own, kids = (resource.getrusage(who).ru_maxrss / 1024 for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(f'peak RSS: parent (sequential fit) {own:.1f} MiB, ranks {kids:.1f} MiB')
"""

_WRITE_DSYN = ("import numpy as np; from repro.data import load_dataset; "
               'np.save("dsyn.npy", load_dataset("dsyn-small"))')

# The programs, in CI's order, run from one working directory (so `serve`
# deploys the model `factorize --save` wrote).  CI's two live-server
# scripts drive the paths `serve --self-test` drives.  Then what CI does not
# run: the measured scaling study and the examples (their docstrings give
# these run lines), and the whole layered benchmark.  The examples' solver
# census is a measurement that takes minutes even at --smoke; it calls
# nothing its fits do not.
PROGRAMS: Tuple[Program, ...] = (
    Program("quickstart", ("python", "examples/quickstart.py")),
    Program("scaling_study SSYN", ("python", "examples/scaling_study.py", "SSYN")),
    Program("scaling_study", ("python", "examples/scaling_study.py")),
    Program("factorize hpc2d socket", _cli("factorize", "SSYN", "-k", "4", "--variant", "hpc2d",
                                           "--ranks", "4", "--backend", "socket")),
    Program("plan socket", _cli("plan", "SSYN", "--ranks", "4", "--backend", "socket")),
    Program("mpi parity program", unrunnable="the mpi leg: needs OpenMPI's mpirun and mpi4py"),
    Program("factorize --save", _cli("factorize", "ssyn-small", "-k", "6", "--iters", "10",
                                     "--save", "ssyn-model.npz")),
    Program("serve --self-test", _cli("serve", "--models-dir", ".", "--port", "0",
                                      "--kernel", "auto", "--self-test", "8")),
    Program("doctest", ("python", "-m", "pytest", "-q", "--doctest-modules",
                        "src/repro/core/api.py", "src/repro/core/variants.py")),
    Program("factorize symmetric lockstep", _cli("factorize", "SSYN", "-k", "4", "--variant",
                                                 "symmetric", "--backend", "lockstep")),
    Program("factorize hpc2d process", _cli("factorize", "SSYN", "-k", "4", "--variant", "hpc2d",
                                            "--ranks", "2", "--backend", "process")),
    Program("factorize hpc1d process", _cli("factorize", "SSYN", "-k", "4", "--variant", "hpc1d",
                                            "--ranks", "2", "--backend", "process")),
    Program("factorize Video naive", _cli("factorize", "Video", "-k", "4", "--variant", "naive",
                                          "--ranks", "2", "--backend", "process")),
    Program("variants", _cli("variants")),
    Program("datasets", _cli("datasets")),
    Program("write dsyn.npy", ("python", "-c", _WRITE_DSYN)),
    Program("factorize dsyn.npy", _cli("factorize", "dsyn.npy", "-k", "4", "--ranks", "2",
                                       "--backend", "process")),
    Program("plan SSYN", _cli("plan", "SSYN")),
    Program("plan sparse shape", _cli("plan", "--shape", "20000", "200", "--density", "0.01")),
    Program("plan local", _cli("plan", "--shape", "20000", "200", "-p", "4", "--machine", "local")),
    Program("plan socket shape", _cli("plan", "--shape", "4000", "3000", "-p", "4",
                                      "--backend", "socket")),
    Program("plan local process", _cli("plan", "--shape", "4000", "3000", "-p", "2",
                                       "--machine", "local", "--backend", "process")),
    Program("fit variant=auto", script=_AUTO_FIT),
    Program("memory-step fit", script=_MEMORY_FIT),
    Program("scaling_study SSYN --measured",
            ("python", "examples/scaling_study.py", "SSYN", "--measured"), in_ci=False),
    Program("graph_clustering", ("python", "examples/graph_clustering.py"), in_ci=False),
    Program("streaming_video", ("python", "examples/streaming_video.py"), in_ci=False),
    Program("topic_modeling", ("python", "examples/topic_modeling.py"), in_ci=False),
    Program("video_background_subtraction",
            ("python", "examples/video_background_subtraction.py"), in_ci=False),
    Program("benchmark", ("python", "benchmarks/layered/run.py", "--workload", "all",
                          "--trace", "1", "--seconds", "4", "--out", "bench-out"), in_ci=False),
)


class Exempt(NamedTuple):
    """A function no program reaches that stays, and why."""

    kind: str  # "safety", "platform", "test oracle" or "abstract declaration"
    reason: str
    test: str = ""  # safety rows: the tier-1 test that reaches it (--check runs it)
    sometimes: str = ""  # the program a race lets reach it now and then, and why


class Called(NamedTuple):
    """A function that stays because a committed program was made to reach it."""

    program: str  # the PROGRAMS row that reaches it (--check asserts it does)
    reason: str


class Deleted(NamedTuple):
    """A function that went because no program reached it."""

    lines: int  # its lines when it went
    reason: str


_ABORTS = "the abort path: a failed rank's peers must not hang"
_TEST_ONLY = "only tests called it"
_NO_CALLER = "no caller at all"

EXEMPT: Dict[str, Exempt] = {
    # -- safety: failure paths, each reached by the named tier-1 test --------
    "repro.comm.backends.base:SharedGroupState.abort": Exempt(
        "safety", _ABORTS + " (thread backend)",
        "tests/comm/test_backends.py::TestLockstepBackend::"
        "test_real_failure_preferred_over_peer_abort_echoes"),
    "repro.comm.backends.forked:ForkedRuntime.broadcast_abort": Exempt(
        "safety", _ABORTS + " (process and socket)",
        "tests/comm/test_forked_backends.py::TestForkedBackends::"
        "test_exception_propagates_with_real_failure_preferred"),
    "repro.comm.backends.forked:ForkedRuntime._raise_abort": Exempt(
        "safety", "a forked rank whose peer failed or vanished raises a named "
        "`PeerAbortError` instead of waiting out its timeout",
        "tests/comm/test_forked_backends.py::TestForkedBackends::"
        "test_survivors_see_an_abort_naming_the_dead_peer",
        sometimes="factorize hpc2d socket: at p = 4 a rank can leave the shutdown "
        "barrier and close while a peer still waits there for a third rank's "
        "token; the peer's reader takes the clean EOF for a lost peer, and the "
        "barrier's `except PeerAbortError` swallows the abort (3 runs in 10)"),
    "repro.comm.backends.forked:_picklable_exception": Exempt(
        "safety", "a failed forked rank reports its exception to the parent",
        "tests/comm/test_forked_backends.py::TestForkedBackends::"
        "test_exception_propagates_with_real_failure_preferred"),
    "repro.comm.backends.lockstep:_LockstepScheduler._abort_locked": Exempt(
        "safety", _ABORTS + " (lockstep)",
        "tests/comm/test_backends.py::TestLockstepBackend::test_exception_propagates"),
    "repro.comm.backends.lockstep:_LockstepScheduler._raise_abort_locked": Exempt(
        "safety", _ABORTS + " (lockstep)",
        "tests/comm/test_backends.py::TestLockstepBackend::test_exception_propagates"),
    "repro.comm.backends.lockstep:LockstepGroupState._new_mailbox": Exempt(
        "safety", "a lockstep receive suspends, so one that can never complete is a "
        "named deadlock instead of a hang (lockstep collectives move through slots)",
        "tests/comm/test_backends.py::TestLockstepBackend::test_deadlock_detected_with_diagnosis"),
    "repro.comm.backends.lockstep:_LockstepMailbox.__init__": Exempt(
        "safety", "as `LockstepGroupState._new_mailbox`",
        "tests/comm/test_backends.py::TestLockstepBackend::test_deadlock_detected_with_diagnosis"),
    "repro.comm.backends.lockstep:_LockstepMailbox.get": Exempt(
        "safety", "as `LockstepGroupState._new_mailbox`",
        "tests/comm/test_backends.py::TestLockstepBackend::test_deadlock_detected_with_diagnosis"),
    "repro.comm.backends.lockstep:_LockstepMailbox.put": Exempt(
        "safety", "the send that wakes a suspended lockstep receive",
        "tests/comm/test_backends.py::TestLockstepBackend::test_point_to_point_ring"),
    "repro.serve.server:ProjectionService._fail": Exempt(
        "safety", "a failed batch solve fails its requests, not the server",
        "tests/serve/test_server.py::TestSlowKernel::test_kernel_failure_fails_batch_but_not_service"),
    "repro.serve.server:_HttpError.__init__": Exempt(
        "safety", "a malformed HTTP request gets a named 400",
        "tests/serve/test_server.py::TestHttpServer::test_malformed_http_gets_named_400"),
    "repro.serve.server:_reject_non_numbers": Exempt(
        "safety", "a column entry that is not a JSON number gets a 400 naming it",
        "tests/serve/test_server.py::TestHttpServer::test_non_number_entries_get_a_400_naming_them"),
    "repro.serve.server:_json_type": Exempt(
        "safety", "as `_reject_non_numbers`",
        "tests/serve/test_server.py::TestHttpServer::test_non_number_entries_get_a_400_naming_them"),
    "repro.serve.errors:ModelNotFoundError.__init__": Exempt(
        "safety", "an unknown model gets a 404 listing the known ones",
        "tests/serve/test_store.py::TestLookup::test_unknown_name_lists_known_models"),
    "repro.serve.errors:ModelNotFoundError.__str__": Exempt(
        "safety", "as `ModelNotFoundError.__init__`",
        "tests/serve/test_store.py::TestLookup::test_unknown_name_lists_known_models"),
    "repro.util.errors:ModelLoadError.__init__": Exempt(
        "safety", "a missing or invalid artifact is refused with its path",
        "tests/serve/test_store.py::TestLoading::test_missing_file_raises_model_load_error"),
    "repro.util.validation:check_matrix": Exempt(
        "safety", "the exact check behind `check_nonnegative_matrix` when its one-pass "
        "test fails: NaN or Inf is a `ShapeError`",
        "tests/util/test_validation.py::TestCheckNonnegativeMatrix::"
        "test_nan_is_reported_before_a_negative"),
    "repro.util.validation:check_nonnegative": Exempt(
        "safety", "as `check_matrix`: a negative entry is a `NonNegativityError`",
        "tests/util/test_validation.py::TestCheckNonnegativeMatrix::"
        "test_negative_raises_non_negativity_error"),
    "repro.nls.bpp:BlockPrincipalPivoting.reset_cache": Exempt(
        "safety", "drops a persistent pattern cache whose Gram changed",
        "tests/nls/test_stacked_solve.py::TestColumnIndependence::"
        "test_warm_start_and_persistent_cache_do_not_change_bits"),
    # -- platform: the mpi leg (mpirun + mpi4py) is not runnable here ---------
    **{f"repro.comm.backends.mpi:{name}": Exempt(
        "platform", "the mpi backend; CI's mpi leg runs it under `mpirun -n 4`")
       for name in ("_MPIMailbox.__init__", "_MPIMailbox.put", "_MPIMailbox.get",
                    "MPIGroupState.__init__", "MPIGroupState._new_mailbox",
                    "MPIGroupState.make_subgroup", "MPIGroupState.wait",
                    "MPIComm._from_all", "MPIComm.split", "MPIBackend.run")},
    # -- test oracle ------------------------------------------------------------
    "repro.core.initialization:init_h_global": Exempt(
        "test oracle", "the whole initial H that every rank's `init_h_slice` must cut "
        "exactly; kept beside it so the two cannot drift"),
    # -- abstract declarations: an interface, no body to run --------------------
    **{key: Exempt("abstract declaration", "declares an interface; subclasses implement it")
       for key in ("repro.comm.backends.base:Backend.run",
                   "repro.comm.backends.forked:ForkedRuntime.make_slots",
                   "repro.comm.backends.forked:ForkedBackend._make_runtime",
                   "repro.core.observers:IterationObserver.on_start",
                   "repro.core.observers:IterationObserver.on_iteration",
                   "repro.core.regularized:Penalty.normal_equations",
                   "repro.core.regularized:Penalty.local_scalars",
                   "repro.core.regularized:Penalty.objective_term",
                   "repro.nls.base:NLSSolver.solve")},
}

_WRITE_PATH = ("the serve write path (README documents `/ingest` and `/reload`); "
               "the self-test ingests `--refresh-every` columns and reloads")

CALLED: Dict[str, Called] = {
    **{key: Called("serve --self-test", _WRITE_PATH)
       for key in ("repro.serve.project:ModelRefresher.__init__",
                   "repro.serve.project:ModelRefresher.columns_seen",
                   "repro.serve.project:ModelRefresher.ingest",
                   "repro.serve.project:ModelRefresher._publish",
                   "repro.serve.server:ProjectionServer._ingest",
                   "repro.serve.server:ProjectionServer._reload",
                   "repro.serve.store:ModelStore.reload",
                   "repro.serve.store:ModelStore.swap",
                   "repro.serve.store:ModelStore.install",
                   "repro.serve.store:ModelEntry.k",
                   "repro.serve.store:ModelEntry.__reduce__",
                   "repro.serve.supervisor:Peers.publish",
                   "repro.core.streaming:StreamingNMF.frames_seen")},
    "repro.serve.store:ModelStore.load_all": Called(
        "serve --self-test", "`repro serve --models-dir` (a deployment flag): CI's "
        "self-test line deploys its directory"),
    "repro.core.variants:_hpc1d": Called(
        "factorize hpc1d process", "the paper's HPC-NMF-1D; a CI CLI line runs it"),
    "repro.cli:_cmd_datasets": Called(
        "datasets", "how a user finds the aliases `factorize` and `plan` accept"),
    "repro.data.registry:_video_small": Called(
        "factorize Video naive", "the measured-scale Video, one of the paper's four "
        "datasets"),
    "repro.data.synthetic:dense_synthetic": Called(
        "write dsyn.npy", "the measured-scale DSYN, one of the paper's four datasets"),
    "repro.dist.distmatrix:_on_temp_memmap": Called(
        "factorize dsyn.npy", "a file-backed input's blocks stay file-backed "
        "(`repro factorize x.npy` maps the file)"),
    "repro.core.api:NMF.transform": Called(
        "doctest", "the estimator's projection, exact BPP as `repro serve` answers"),
    "repro.core.api:NMF.fit_transform": Called(
        "doctest", "the estimator's scikit-learn spelling of `fit(A).W_`"),
    **{key: Called("fit variant=auto", "an auto fit's plan is saved with its result "
                   "and loads back equal")
       for key in ("repro.plan.planner:ExecutionPlan.to_dict",
                   "repro.plan.planner:ExecutionPlan.from_dict",
                   "repro.plan.problem:ProblemSpec.to_dict",
                   "repro.plan.problem:ProblemSpec.from_dict")},
    "repro.comm.profiler:TimeBreakdown.scaled": Called(
        "scaling_study SSYN --measured", "the measured series of the scaling study"),
}

DELETED: Dict[str, Deleted] = {
    "repro.core.variants:_streaming": Deleted(
        56, "the `streaming` row: `StreamingNMF` keeps its callers "
        "(`examples/streaming_video.py`, the refresher); `Variant.sparse_ok` and the "
        "row's `window` / `refresh_every` / `refresh_iters` options went with it"),
    "repro.core.observers:CheckpointEvery.__init__": Deleted(
        6, "no program checkpoints a fit; `NMFResult.save` writes one"),
    "repro.core.observers:CheckpointEvery.on_iteration": Deleted(
        14, "as `CheckpointEvery.__init__`"),
    "repro.core.observers:IterationEvent.has_factors": Deleted(
        3, "only `CheckpointEvery` read it"),
    "repro.core.observers:IterationEvent.has_error": Deleted(3, _TEST_ONLY),
    "repro.comm.profiler:Profiler.add": Deleted(5, _TEST_ONLY),
    "repro.comm.profiler:Profiler.seconds": Deleted(2, _TEST_ONLY),
    "repro.comm.profiler:Profiler.calls": Deleted(
        2, _TEST_ONLY + "; the per-category call counts it read went too"),
    "repro.comm.workspace:CollectiveWorkspace.__len__": Deleted(2, _TEST_ONLY),
    "repro.comm.workspace:CollectiveWorkspace.nbytes": Deleted(3, _TEST_ONLY),
    "repro.comm.workspace:CollectiveWorkspace.clear": Deleted(3, _TEST_ONLY),
    "repro.comm.workspace:CollectiveWorkspace.__repr__": Deleted(2, _NO_CALLER),
    "repro.dist.partition:block_offsets": Deleted(10, _TEST_ONLY),
    "repro.comm.grid:ProcessGrid.size": Deleted(2, _TEST_ONLY),
    "repro.comm.grid:ProcessGrid.rank": Deleted(2, _TEST_ONLY),
    "repro.comm.grid:ProcessGrid.__repr__": Deleted(5, _NO_CALLER),
    "repro.core.result:NMFResult.objective": Deleted(
        3, _NO_CALLER + "; `history[-1].objective` is the value"),
    "repro.core.result:NMFResult.objective_history": Deleted(2, _TEST_ONLY),
    "repro.core.result:NMFResult.seconds_per_iteration": Deleted(
        5, _TEST_ONLY + " (it divided the per-category maxima by the iterations)"),
    "repro.core.result:NMFResult.reconstruction": Deleted(3, _TEST_ONLY),
    "repro.core.streaming:StreamingNMF.background": Deleted(5, _TEST_ONLY),
    "repro.core.symmetric:SymNMFResult.cluster_sizes": Deleted(2, _TEST_ONLY),
    "repro.core.api:NMF.H_": Deleted(2, _TEST_ONLY + " (an alias of `components_`)"),
    "repro.core.api:NMF.__repr__": Deleted(5, _NO_CALLER),
    "repro.serve.store:ModelStore.__contains__": Deleted(2, _TEST_ONLY),
    "repro.serve.stats:LatencyWindow.__len__": Deleted(2, _TEST_ONLY),
    "repro.plan.planner:ExecutionPlan.seconds_per_iteration": Deleted(
        3, _TEST_ONLY + " (an alias of `breakdown.total`)"),
    "repro.plan.problem:ProblemSpec.density": Deleted(2, _TEST_ONLY),
    "repro._lazy:lazy_exports.__dir__": Deleted(
        2, _NO_CALLER + ": `dir()` of a package facade lists what it resolved"),
    "repro.comm.backends.base:Backend.__repr__": Deleted(2, _NO_CALLER),
    "repro.comm.backends.process:_ProcessSlots.__len__": Deleted(2, _NO_CALLER),
    "repro.comm.backends.process:_ProcessSlots.__iter__": Deleted(2, _NO_CALLER),
    "repro.comm.communicator:CommHandle.done": Deleted(
        3, _TEST_ONLY + " (a handle is complete at issue)"),
    "repro.comm.communicator:CommHandle.test": Deleted(2, _TEST_ONLY + ", as `done`"),
    "repro.comm.communicator:CommHandle.__repr__": Deleted(2, _NO_CALLER),
    "repro.comm.communicator:Comm.group_ranks": Deleted(3, _NO_CALLER),
    "repro.comm.communicator:Comm.__repr__": Deleted(2, _NO_CALLER),
    "repro.comm.backends.forked:ForkedGroupState.abort": Deleted(
        4, _NO_CALLER + ": forked ranks abort through the runtime's broadcast"),
    "repro.comm.backends.lockstep:LockstepGroupState.abort": Deleted(
        2, _NO_CALLER + ": lockstep ranks abort through the scheduler's `finish`"),
    "repro.comm.backends.lockstep:_LockstepScheduler.abort": Deleted(
        3, "only `LockstepGroupState.abort` called it"),
    "repro.comm.backends.mpi:MPIGroupState.abort": Deleted(
        2, _NO_CALLER + ": `MPIBackend.run` aborts the job itself"),
    "repro.dist.distmatrix:DistMatrix2D.is_sparse": Deleted(3, "only its `__repr__` read it"),
    "repro.dist.distmatrix:DistMatrix2D.__repr__": Deleted(6, _NO_CALLER),
    "repro.dist.factors:DistributedFactorW.__repr__": Deleted(5, _NO_CALLER),
    "repro.dist.factors:DistributedFactorH.__repr__": Deleted(5, _NO_CALLER),
    "repro.nls.base:NLSSolver.__repr__": Deleted(2, _NO_CALLER),
    "repro.nls.kernels:NLSKernel.__repr__": Deleted(2, _NO_CALLER),
}


# The recorder, written to <tmp>/sitecustomize.py.  It keeps to the stdlib
# and records code objects only; names are resolved after the run.
RECORDER = """\
import atexit, os, sys, threading

_OUT = os.environ["REACH_CENSUS_OUT"]
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    codes = list(_seen)
    path = os.path.join(_OUT, "%d-%d.txt" % (os.getpid(), len(os.listdir(_OUT))))
    with open(path, "w") as out:
        for code in codes:
            out.write("%s\\t%d\\t%s\\n" % (os.path.abspath(code.co_filename),
                                      code.co_firstlineno, code.co_name))


_real_exit = os._exit


def _exit(status):
    _dump()
    _real_exit(status)


os._exit = _exit
atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
"""


class Function(NamedTuple):
    module: str  # "repro.core.api"
    qualname: str  # "NMF.transform"
    first: int  # its first line (the first decorator's), as co_firstlineno
    lines: int

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def functions(src: Path = SRC) -> List[Function]:
    """Every ``def`` (methods and nested functions too) under ``src``."""
    found = []
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts).removesuffix(".__init__")

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    qualname = prefix + child.name
                    found.append(Function(module, qualname, first,
                                          child.end_lineno - child.lineno + 1))
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def record(argv: List[str], out_dir: Path, *, cwd: Path, src: Path = SRC,
           stdin: str = "", timeout: float = 900) -> Set[Tuple[str, int, str]]:
    """Run ``argv`` under the recorder: the ``(file, first line, name)`` of
    every code object under ``src`` that it, or any process it started, entered."""
    site, calls = out_dir / "site", out_dir / "calls"
    site.mkdir(parents=True)
    calls.mkdir()
    (site / "sitecustomize.py").write_text(RECORDER)
    env = dict(os.environ, REACH_CENSUS_OUT=str(calls))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(site), str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(argv, cwd=cwd, env=env, input=stdin, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{shlex.join(argv)} exited {proc.returncode}:\n{proc.stdout[-4000:]}")
    root = str(src.resolve()) + os.sep
    entered = set()
    for dump in calls.iterdir():
        for line in dump.read_text().splitlines():
            filename, first, name = line.rsplit("\t", 2)
            if filename.startswith(root):
                entered.add((filename, int(first), name))
    return entered


def run_programs(programs=PROGRAMS, log=print) -> Dict[str, Set[Tuple[str, int, str]]]:
    """Each runnable program's entered code objects."""
    reached = {}
    with tempfile.TemporaryDirectory(prefix="reach-census-") as tmp:
        work = Path(tmp) / "work"
        work.mkdir()
        for number, program in enumerate(programs):
            if program.unrunnable:
                log(f"  {program.name}: not run ({program.unrunnable})")
                continue
            argv = [sys.executable if a == "python" else a for a in (program.argv or ("python", "-"))]
            argv = [str(REPO / a) if a.endswith(".py") and (REPO / a).is_file() else a for a in argv]
            start = time.perf_counter()
            reached[program.name] = record(argv, Path(tmp) / f"p{number}", cwd=work,
                                           stdin=program.script)
            log(f"  {program.name}: {time.perf_counter() - start:.1f} s")
    return reached


def census(reached: Dict[str, Set[Tuple[str, int, str]]], src: Path = SRC):
    """``(function, names of the programs that reached it)`` for every function."""
    by_code = defaultdict(set)
    for name, entered in reached.items():
        for code in entered:
            by_code[code].add(name)
    rows = []
    for fn in functions(src):
        base = (src / Path(*fn.module.split("."))).resolve()
        paths = (f"{base}.py", str(base / "__init__.py"))
        name = fn.qualname.rsplit(".", 1)[-1]
        rows.append((fn, sorted(set().union(*(by_code.get((p, fn.first, name), ())
                                               for p in paths)))))
    return rows


def _ci_drift(programs=PROGRAMS) -> List[str]:
    """``in_ci`` programs the CI workflow does not run as written here, and
    CLI or example lines CI runs that no program here is."""
    text = CI.read_text()
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    joined = re.sub(r"\\\n\s*", " ", text)
    commands = " ".join(joined.split())
    listed = {shlex.join(p.argv) for p in programs if p.argv}
    out = [f"{CI.name} runs `{line}`, which PROGRAMS does not list"
           for line in sorted({" ".join(m.group(0).split()) for m in re.finditer(
               r"\bpython (-m repro|examples/)[^\n|;&]*", joined)}) if line not in listed]
    for program in programs:
        if not program.in_ci or program.unrunnable:
            continue
        if program.script:
            want = [line.strip() for line in program.script.splitlines() if line.strip()]
            if not any(lines[i:i + len(want)] == want for i in range(len(lines))):
                out.append(f"program {program.name!r}: its script is not in {CI.name}")
        elif shlex.join(program.argv) not in commands:
            out.append(f"program {program.name!r}: `{shlex.join(program.argv)}` is not in {CI.name}")
    return out


def _safety_tests_reach(log=print) -> List[str]:
    """Run each safety row's test under the recorder; the rows it misses."""
    keys_by_test = defaultdict(list)
    for key, row in EXEMPT.items():
        if row.kind == "safety":
            keys_by_test[row.test].append(key)
    out = []
    with tempfile.TemporaryDirectory(prefix="reach-census-tests-") as tmp:
        for number, (test, keys) in enumerate(sorted(keys_by_test.items())):
            argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test]
            try:
                entered = record(argv, Path(tmp) / f"t{number}", cwd=REPO)
            except RuntimeError as exc:
                out.append(f"safety test {test} failed or does not exist:\n{exc}")
                continue
            reached = {fn.key for fn, names in census({test: entered}) if names}
            out += [f"{key}: exempt (safety), but {test} does not reach it"
                    for key in keys if key not in reached]
            log(f"  {test}: {len(keys)} row(s)")
    return out


def problems(rows, log=print) -> List[str]:
    """What ``--check`` refuses: an unreached function without a verdict, a
    verdict that no longer holds, and a program table that no longer matches CI."""
    by_key = {fn.key: names for fn, names in rows}
    out = [f"{fn.key} ({fn.lines} lines): no program reaches it and it has no verdict"
           for fn, names in rows if not names and fn.key not in EXEMPT]
    for key, row in EXEMPT.items():
        if key not in by_key:
            out.append(f"{key}: exempt ({row.kind}) but no longer exists")
        elif by_key[key] and not row.sometimes:
            out.append(f"{key}: exempt ({row.kind}) but reached by {', '.join(by_key[key])}")
    for key, row in CALLED.items():
        if row.program not in by_key.get(key, ()):
            out.append(f"{key}: its caller {row.program!r} does not reach it")
    out += [f"{key}: deleted, but defined again" for key in DELETED if key in by_key]
    return out + _ci_drift() + _safety_tests_reach(log)


def report(rows, log=print) -> None:
    """Function- and line-level reach per module, then the unreached functions."""
    per_module = defaultdict(lambda: [0, 0, 0, 0])  # functions, reached, lines, reached
    for fn, names in rows:
        counts = per_module[fn.module]
        counts[0] += 1
        counts[2] += fn.lines
        if names:
            counts[1] += 1
            counts[3] += fn.lines
    log(f"{'module':<34} {'functions reached':>18} {'lines reached':>16}")
    for module in [*sorted(per_module), "total"]:
        c = per_module[module] if module != "total" else [sum(x) for x in zip(*per_module.values())]
        log(f"{module:<34} {c[1]:>8} / {c[0]:<7} {c[3]:>7} / {c[2]:<6}")
    unreached = [fn for fn, names in rows if not names]
    log(f"\nunreached: {len(unreached)} functions, {sum(fn.lines for fn in unreached)} lines")
    for fn in unreached:
        row = EXEMPT.get(fn.key)
        log(f"  {fn.key} ({fn.lines})  [{row.kind if row else 'no verdict'}]")


def markdown(rows) -> str:
    """The verdict table of docs/ARCHITECTURE.md's "Reach census"."""
    lines_of = {fn.key: fn.lines for fn, _ in rows}
    entries = [(key, lines_of.get(key, 0), f"stays: {row.kind}",
                row.reason + (f" (`{row.test.split('::')[-1]}`)" if row.test else "")
                + (f"; reached now and then by {row.sometimes}" if row.sometimes else ""))
               for key, row in EXEMPT.items()]
    entries += [(key, lines_of.get(key, 0), f"caller: {row.program}", row.reason)
                for key, row in CALLED.items()]
    entries += [(key, row.lines, "deleted", row.reason) for key, row in DELETED.items()]
    table = ["| function | lines | verdict | why |", "|---|---|---|---|"]
    table += [f"| `{key}` | {lines} | {verdict} | {why} |"
              for key, lines, verdict, why in sorted(entries)]
    return "\n".join(table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached function without a verdict, a verdict "
                             "that no longer holds, or a table that no longer matches CI")
    parser.add_argument("--markdown", action="store_true",
                        help="also print the verdict table of docs/ARCHITECTURE.md")
    args = parser.parse_args(argv)
    print("running the programs:")
    rows = census(run_programs())
    print()
    report(rows)
    if args.markdown:
        print()
        print(markdown(rows))
    if not args.check:
        return 0
    print("\nrunning the safety rows' tests:")
    found = problems(rows)
    for problem in found:
        print("reach census:", problem, file=sys.stderr)
    print(f"\n{len(found)} problem(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
