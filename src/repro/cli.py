"""Command-line interface: ``python -m repro <command>``.

The five subcommands cover the common workflows:

* ``factorize`` — run any NMF variant on a registered dataset or
  an ``.npy``/``.npz`` file and print the result summary;
* ``plan`` — print the planner's candidate table (variant × grid, predicted
  per-task split, total, words moved) for a dataset or an ad-hoc
  ``--shape M N [--density D]`` problem, paper-Table-2 style;
* ``variants`` — list the variants and what each accepts;
* ``serve`` — deploy saved models behind the continuously batched
  projection server (``repro serve model.npz``; see :mod:`repro.serve`);
* ``datasets`` — list the registered datasets and their dimensions.

The ``--variant``, ``--solver`` and ``--backend`` choices are derived from
the variant table and the solver / backend registries, so a new entry in
any of them is immediately reachable from the CLI.  Timing a fit is not
a subcommand: ``benchmarks/layered/run.py`` is the repository's stopwatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro import __version__

if TYPE_CHECKING:
    from repro.perf.machine import MachineSpec


def _load_input(name_or_path: str):
    """Load a dataset by registry name or paper name, or a matrix from a file.

    Accepts the measured-scale registry names (``ssyn-small``), the paper's
    dataset names (``SSYN`` resolves to the measured-scale instance) and
    ``.npy``/``.npz`` paths.  A ``.npy`` file is memory-mapped, not read:
    the fit's blocks of a mapped ``A`` are file-backed too
    (:meth:`repro.dist.distmatrix.DistMatrix2D.from_global`), so ``A`` is
    never made resident as a whole.
    """
    import numpy as np

    from repro.data.registry import DATASETS, PAPER_DATASETS, load_dataset, measured_scale

    if name_or_path in DATASETS:
        return load_dataset(name_or_path)
    if name_or_path in PAPER_DATASETS:
        return measured_scale(name_or_path).load()
    path = Path(name_or_path)
    if not path.exists():
        known = sorted(DATASETS) + sorted(PAPER_DATASETS)
        raise SystemExit(
            f"'{name_or_path}' is neither a registered dataset ({', '.join(known)}) "
            "nor an existing file"
        )
    if path.suffix == ".npz":
        import scipy.sparse as sp

        try:
            return sp.load_npz(path)
        except Exception:
            with np.load(path) as data:
                return data[next(iter(data.files))]
    return np.load(path, mmap_mode="r")


def _cmd_factorize(args: argparse.Namespace) -> int:
    from repro.core.api import fit
    from repro.util.errors import ShapeError

    if args.ranks < 1:
        raise SystemExit(f"--ranks must be >= 1, got {args.ranks}")
    A = _load_input(args.input)
    try:
        # No --variant: fit's own rule (sequential on one rank, hpc2d above).
        result = fit(
            A,
            args.k,
            variant=args.variant,
            n_ranks=args.ranks,
            backend=args.backend,
            max_iters=args.iters,
            solver=args.solver,
            seed=args.seed,
        )
    except ShapeError as exc:  # e.g. a sequential-only variant with --ranks 4
        raise SystemExit(str(exc)) from None
    print(result.summary())
    if args.save:
        written = result.save(args.save)
        print(f"result written to {written} (reload with repro.NMFResult.load)")
    return 0


def _resolve_machine(name: str, ranks: int = 1) -> MachineSpec:
    from repro.perf.machine import MachineSpec, edison_machine

    if name == "edison":
        return edison_machine()
    # "local": micro-benchmark this host.  When planning a parallel run,
    # measure the per-rank GEMM rate under real contention (process backend)
    # rather than extrapolating the single-rank rate — but never launch more
    # probe processes than this process may actually use.
    from repro.util import available_cpus

    return MachineSpec.calibrate(ranks=max(1, min(ranks, available_cpus())))


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.data.registry import DATASETS, PAPER_DATASETS, paper_scale
    from repro.plan import ProblemSpec, plan_candidates, render_plan_table
    from repro.util.errors import ShapeError

    if args.ranks < 1:
        raise SystemExit(f"--ranks must be >= 1, got {args.ranks}")
    if args.shape and args.input:
        raise SystemExit(
            f"pass either a dataset name ({args.input!r}) or --shape, not both"
        )
    if args.density is not None and not args.shape:
        raise SystemExit(
            "--density only applies to ad-hoc --shape problems; registered "
            "datasets carry their own sparsity"
        )
    if args.shape:
        m, n = args.shape
        if m < 1 or n < 1:
            raise SystemExit(f"--shape dimensions must be positive, got {m} {n}")
        nnz = args.density * m * n if args.density is not None else None
        try:
            problem = ProblemSpec(m=m, n=n, k=args.k, nnz=nnz)
        except ShapeError as exc:  # e.g. density outside [0, 1] or k < 1
            raise SystemExit(str(exc)) from None
    elif args.input:
        if args.input in PAPER_DATASETS:
            spec = paper_scale(args.input)
        elif args.input in DATASETS:
            spec = DATASETS[args.input]
        else:
            known = sorted(DATASETS) + sorted(PAPER_DATASETS)
            raise SystemExit(
                f"'{args.input}' is not a registered dataset; known: {', '.join(known)}"
            )
        try:
            problem = ProblemSpec.from_dataset(spec, args.k)
        except ShapeError as exc:  # e.g. -k 0
            raise SystemExit(str(exc)) from None
    else:
        raise SystemExit("pass a dataset name (e.g. SSYN) or --shape M N")
    machine = _resolve_machine(args.machine, ranks=args.ranks)
    plans = plan_candidates(problem, args.ranks, machine=machine, backend=args.backend)
    print(render_plan_table(plans))
    return 0


def _cmd_variants(_args: argparse.Namespace) -> int:
    from repro.core.variants import VARIANTS

    flags = ("parallelizable", "sparse_ok")
    header = f"{'name':>12}  " + "  ".join(flags) + "  summary"
    print(header)
    for name, variant in sorted(VARIANTS.items()):
        cells = "  ".join(
            f"{'yes' if getattr(variant, f) else '-':>{len(f)}}" for f in flags
        )
        options = f" (options: {', '.join(variant.options)})" if variant.options else ""
        print(f"{name:>12}  {cells}  {variant.summary}{options}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ModelStore, ProjectionServer, ProjectionService
    from repro.serve.server import bind, run_self_test
    from repro.serve.supervisor import serve
    from repro.util.errors import ModelLoadError

    # Bound before the models load and the workers fork: every worker serves
    # on these sockets.
    try:
        listeners = bind(args.host, args.port)
    except OSError as exc:
        raise SystemExit(f"cannot listen on {args.host}:{args.port}: {exc}") from None
    store = ModelStore(root=args.models_dir)
    try:
        if args.models_dir and not args.models:
            store.load_all()
        for spec in args.models:
            if "=" in spec:
                name, _, path = spec.partition("=")
                store.load(path, name=name)
            else:
                store.load(spec)
    except ModelLoadError as exc:
        for listener in listeners:
            listener.close()
        raise SystemExit(str(exc)) from None
    if len(store) == 0:
        for listener in listeners:
            listener.close()
        raise SystemExit(
            "nothing to serve: pass one or more .npz model artifacts "
            "(optionally as NAME=path) or --models-dir"
        )

    def build(worker: int) -> ProjectionServer:
        service = ProjectionService(
            store,
            max_batch_columns=args.max_batch,
            queue_limit=args.queue_limit,
            default_deadline=args.deadline,
            kernel=args.kernel,
        )
        return ProjectionServer(
            service, host=args.host, sockets=listeners, worker=worker,
            refresh_every=args.refresh_every,
        )

    def ready(server: ProjectionServer) -> None:
        workers = server.peers.started if server.peers else 1
        print(
            f"serving {store.names()} on http://{server.host}:{server.port} "
            f"(kernel={args.kernel}, continuous batching, "
            f"max batch={args.max_batch} columns, {workers} worker"
            f"{'s' if workers > 1 else ''})",
            flush=True,
        )

    async def self_test(server: ProjectionServer) -> None:
        summary = await run_self_test(server, n_requests=args.self_test)
        print(
            f"self-test passed: {summary['requests']} concurrent "
            f"requests against model {summary['model']!r}"
        )
        print(json.dumps(summary["stats"], indent=2))

    try:
        return serve(build, ready=ready, until=self_test if args.self_test is not None else None)
    except KeyboardInterrupt:  # SIGINT during --self-test
        print("\nshutting down")
        return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from repro.data.registry import DATASETS

    print(f"{'name':>16}  {'kind':>7}  {'m':>10}  {'n':>10}  {'nnz (est.)':>12}  description")
    for name in sorted(DATASETS):
        spec = DATASETS[name]
        print(
            f"{name:>16}  {spec.kind:>7}  {spec.m:>10}  {spec.n:>10}"
            f"  {spec.nnz_estimate:>12.3g}  {spec.description}"
        )
    return 0


def _number(kind: Callable[[str], Any], ok: Callable[[Any], bool], rule: str):
    """An argparse ``type``: parse with ``kind``, then reject what fails ``ok``.

    The usage error names the option, and comes before any model loads.
    """
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


_positive_int = _number(int, lambda v: v >= 1, ">= 1")
_port = _number(int, lambda v: 0 <= v <= 65535, "in 0-65535")
_positive_seconds = _number(float, lambda v: v > 0, "> 0")


def _factorize_arguments(fact: argparse.ArgumentParser) -> None:
    from repro.comm.backends import available_backends
    from repro.core.variants import available_variants
    from repro.nls.base import available_solvers

    fact.add_argument("input",
                      help="registered dataset name, paper dataset name "
                           "(SSYN/DSYN/Video/Webbase), or .npy/.npz file")
    fact.add_argument("-k", type=int, required=True, help="target rank")
    fact.add_argument("--ranks", type=int, default=1,
                      help="number of SPMD ranks (parallelizable variants only)")
    fact.add_argument("--variant", default=None, choices=available_variants(),
                      help="NMF variant by name (default: sequential "
                           "at --ranks 1, hpc2d above — the library's rule)")
    fact.add_argument("--backend", default=None, choices=available_backends(),
                      help="SPMD execution backend (lockstep = deterministic, "
                           "scales to hundreds of simulated ranks; process = "
                           "one OS process per rank, true parallelism); "
                           "ignored by sequential-only variants")
    fact.add_argument("--solver", default="bpp", choices=available_solvers(),
                      help="local NLS solver by registry name")
    fact.add_argument("--iters", type=int, default=20, help="outer iterations")
    fact.add_argument("--seed", type=int, default=42)
    fact.add_argument("--no-overlap", action="store_true",
                      help="accepted and ignored: every collective of the "
                           "Algorithm 2/3 loops is a blocking call at the line "
                           "that reads it, with or without this flag (it "
                           "goes when the benchmark stops passing overlap=)")
    fact.add_argument("--save", help="write the full result to this .npz path")


def _plan_arguments(plan: argparse.ArgumentParser) -> None:
    from repro.comm.backends import available_backends

    plan.add_argument(
        "input", nargs="?",
        help="registered dataset name or paper dataset name "
             "(SSYN/DSYN/Video/Webbase resolve to paper scale); "
             "omit when using --shape",
    )
    plan.add_argument(
        "--shape", nargs=2, type=int, metavar=("M", "N"),
        help="ad-hoc problem dimensions instead of a dataset name",
    )
    plan.add_argument(
        "--density", type=float, default=None,
        help="nonzero fraction for an ad-hoc sparse problem (default: dense)",
    )
    plan.add_argument("-k", type=int, default=50, help="target rank (default 50)")
    plan.add_argument(
        "-p", "--ranks", type=int, default=600,
        help="number of SPMD ranks to plan for (default 600, the paper's "
             "comparison core count)",
    )
    plan.add_argument(
        "--machine", default="edison", choices=["edison", "local"],
        help="machine constants to price against ('local' micro-benchmarks "
             "this host via MachineSpec.calibrate)",
    )
    plan.add_argument("--backend", default=None, choices=available_backends(),
                      help="execution backend the plans will run on: socket "
                           "and mpi price every collective at the wire's "
                           "alpha-beta costs, in-process backends at the "
                           "machine's own")


def _serve_arguments(serve: argparse.ArgumentParser) -> None:
    from repro.nls.kernels import available_kernels
    from repro.serve.project import MAX_BATCH_COLUMNS

    serve.add_argument(
        "models", nargs="*",
        help=".npz model artifacts to deploy (written by factorize --save); "
             "each may be a bare path (model name = file stem) or NAME=path",
    )
    serve.add_argument("--models-dir", default=None,
                       help="directory to resolve bare model names against; "
                            "with no positional models, every *.npz in it is "
                            "deployed")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=8571,
                       help="TCP port (0 = pick a free ephemeral port)")
    serve.add_argument("--kernel", default="auto",
                       choices=available_kernels() + ["auto"],
                       help="BPP kernel for the batched projection solves "
                            "(default auto = batched; responses are "
                            "byte-identical across kernels)")
    serve.add_argument("--max-batch", type=_positive_int, default=MAX_BATCH_COLUMNS,
                       help="max columns per batched NLS call; a batch is the "
                            "requests queued when the solver frees up "
                            f"(default {MAX_BATCH_COLUMNS})")
    serve.add_argument("--queue-limit", type=_positive_int, default=256,
                       help="max queued requests before 503 load shedding")
    serve.add_argument("--deadline", type=_positive_seconds, default=2.0,
                       help="default per-request deadline in seconds "
                            "(overridable per request via JSON 'timeout')")
    serve.add_argument("--refresh-every", type=_positive_int, default=16,
                       help="ingest endpoint: publish a refreshed model "
                            "version every N ingested columns")
    serve.add_argument("--self-test", nargs="?", type=int, const=8,
                       default=None, metavar="N",
                       help="start the server, fire N concurrent projections "
                            "at it through a stdlib HTTP client (default 8), "
                            "verify 200s + finite residuals, then exit — the "
                            "CI smoke mode")


def _no_arguments(_parser: argparse.ArgumentParser) -> None:
    pass


# name -> (help line, argument builder, handler)
_COMMANDS = {
    "factorize": ("run NMF on a dataset or matrix file",
                  _factorize_arguments, _cmd_factorize),
    "plan": ("print the cost-model candidate table (variant x grid) for a problem",
             _plan_arguments, _cmd_plan),
    "variants": ("list registered NMF variants", _no_arguments, _cmd_variants),
    "serve": ("serve saved NMF models over HTTP: continuously batched "
              "projection of fresh columns onto the trained basis",
              _serve_arguments, _cmd_serve),
    "datasets": ("list registered datasets", _no_arguments, _cmd_datasets),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` parser, with every subcommand and its help line.

    A subcommand's arguments import the registries their choices come from,
    so with ``command`` only that subcommand gets its arguments (``repro
    serve`` loads no fit machinery); without, all five do.
    """
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, handler) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if command is None or command == name:
            add_arguments(subparser)
        subparser.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option that takes a value, so the first
    # bare word is the subcommand (or an error argparse will report).
    command = next((arg for arg in argv if not arg.startswith("-")), "")
    args = build_parser(command).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
