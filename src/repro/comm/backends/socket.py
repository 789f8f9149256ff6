"""The TCP wire backend: collective payloads travel as frames, not shared memory.

:class:`SocketBackend` is the substrate whose ranks communicate the way a
distributed-memory machine does — length-prefixed frames over persistent TCP
connections (see :mod:`repro.comm.wire` for the frame layout).  The launcher,
the mesh, the token transport and the failure handling are the shared forked
runtime (:mod:`repro.comm.backends.forked`); what this module adds is the
choice of *where collective payloads go*: nowhere but the wire.  Its group
states have no deposit slots, so :class:`~repro.comm.communicator.Comm` moves
every collective point-to-point (see that module: one body per collective,
the two byte movers of :mod:`repro.comm.collectives` underneath, the same
rank-order combine as over slots — hence factors **byte-identical** to the
thread / process / lockstep backends).

For the two collectives that carry the factor blocks the bytes on the wire
are the bytes of the §2.3 model — ``(p-1)/p · n`` words per rank — and a
contiguous block goes to and comes from the kernel without a staging copy in
user space (see :mod:`repro.comm.wire`).  Because the collectives genuinely
serialize onto a byte stream, this backend's measurements transfer to
multi-node deployments in a way the shared-memory backends' cannot.
"""

from __future__ import annotations

from typing import Tuple

from repro.comm.backends.forked import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_TIMEOUT,
    ForkedBackend,
    ForkedRuntime,
)


class _WireRuntime(ForkedRuntime):
    """The forked runtime with nowhere to deposit: payloads ride the frames."""

    def make_slots(self, members: Tuple[int, ...]) -> None:
        return None


class SocketBackend(ForkedBackend):
    """Launches an SPMD program on ``n_ranks`` processes over a TCP mesh.

    Parameters
    ----------
    n_ranks:
        Number of SPMD ranks (forked processes).  Exceeding the host's CPU
        count emits a :class:`RuntimeWarning`, as on the process backend.
    name:
        Label used in process names and diagnostics.
    timeout:
        Seconds a rank waits on a barrier or recv token before raising a
        :class:`~repro.util.errors.CommunicatorError` naming the token and
        the likely-stuck peer.
    connect_timeout:
        Seconds allowed for building the full mesh (and for each hello
        handshake); a rank that cannot reach a peer raises naming that peer
        and its port.
    """

    registry_name = "socket"

    def __init__(
        self,
        n_ranks: int,
        name: str = "spmd",
        *,
        timeout: float = DEFAULT_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        super().__init__(n_ranks, name, timeout)
        self.connect_timeout = float(connect_timeout)

    def _make_runtime(self) -> _WireRuntime:
        # Every collective here moves point-to-point through
        # repro.comm.collectives.  Importing it before the ranks fork means
        # they inherit it instead of importing it again on every fit (a
        # module-level import would cost every cold start that never uses
        # this backend).
        import repro.comm.collectives  # noqa: F401

        return _WireRuntime(self.n_ranks, self.timeout, self.connect_timeout)
