"""Entry point of the fresh interpreters ``run.py`` starts (not for direct use).

``python3 child.py '<json spec>'`` runs one role (``fit``, ``serve`` or
``probes``) and prints its result as one marked JSON line.  The parent has
already pinned BLAS through the environment; the child verifies the pin
before it measures anything.
"""

from __future__ import annotations

import json
import os
import sys

RESULT_MARK = "LAYERED_RESULT "
EXIT_NOT_PINNED = 3


def main() -> int:
    spec = json.loads(sys.argv[1])
    from harness.hostinfo import child_fingerprint

    fingerprint = child_fingerprint()
    if fingerprint["blas_threads"] > 1:
        print(
            f"layered benchmark: BLAS is not pinned in this child "
            f"({fingerprint['blas_threads']} threads after a GEMM, env "
            f"{fingerprint['blas_env']}); refusing to measure the scheduler",
            file=sys.stderr,
        )
        return EXIT_NOT_PINNED

    role = spec["role"]
    if role == "fit":
        from harness import fitload

        out = fitload.run(spec)
    elif role == "serve":
        from harness import serveload

        out = serveload.run(spec, dict(os.environ))
    elif role == "probes":
        from harness import probes

        out = probes.run(spec)
    else:
        raise SystemExit(f"unknown role {role!r}")
    out["fingerprint"] = fingerprint
    print(RESULT_MARK + json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
