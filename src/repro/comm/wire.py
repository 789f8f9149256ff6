"""Length-prefixed frame codec for the forked backends (:mod:`repro.comm.backends.forked`).

A *frame* is the unit in which the forked runtime moves one keyed payload —
a barrier token, a point-to-point message, an abort notice — between two
rank processes over a TCP stream.  There is one encoding for everything:
the ``(key, payload)`` pair is pickled with protocol 5, whose *out-of-band
buffers* keep every array's bytes out of the pickle stream — the stream
carries only dtype, shape and structure, the bytes travel as raw segments
behind it.  A bare array, a ``(tag, array)`` mailbox message and recursive
doubling's ``[(idx, array), …]`` rounds all take that same path:

.. code-block:: text

    +----------------+-----------------+-----------------------+--------------+
    | header_len u32 | payload_len u64 | segment lengths u64[] | segments ... |
    +----------------+-----------------+-----------------------+--------------+
      little-endian     little-endian     header (header_len B)  payload_len B

    segment 0   := pickle protocol-5 stream of (key, payload)
    segment i>0 := the i-th out-of-band buffer: one array's raw C-order bytes

``key`` is any picklable routing key (the runtime uses tuples such as
``("bar", uid, epoch, round, src)`` and ``("msg", uid, src)``).  Arrays that
are not C-contiguous are canonicalized to C order on the way out; arrays
with object dtype have no raw form and stay inside the pickle stream.

Copies: :func:`encode_frame_parts` returns the array segments as
``memoryview``\\ s of the caller's arrays, so a scatter-gather
:func:`send_frame` hands them to the kernel without staging them in a
payload-sized ``bytes``; :func:`read_frame` receives each segment straight
into a freshly allocated buffer that *becomes* the decoded array's memory —
so decoding always returns a fresh, writable array, one copy (the kernel's)
per direction.

The codec is pure (bytes in, bytes out) so it is unit-testable without any
sockets: :func:`encode_frame` / :func:`decode_frame` join and split the same
parts in memory, and :func:`read_frame` runs over any ``read_into(buffer)``
callable, which the runtime binds to a blocking socket via
:func:`recv_into_exact`.
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Any, Callable, List, Tuple

import numpy as np

from repro.util.errors import CommunicatorError

#: Frame preamble: u32 header length, u64 payload length (little-endian).
PREAMBLE = struct.Struct("<IQ")

#: Refuse to decode frames claiming more than this many payload bytes — a
#: corrupted or adversarial length prefix must not drive a multi-gigabyte
#: allocation before the stream is even read.
MAX_FRAME_BYTES = 1 << 34  # 16 GiB

#: Same guard for the header, which holds one u64 per segment (a frame has
#: one segment per array it carries, plus the pickle stream).
MAX_HEADER_BYTES = 1 << 20

#: Segments handed to one ``sendmsg`` call (POSIX guarantees IOV_MAX >= 16;
#: Linux has 1024).
_IOV_BATCH = 64

#: Frames up to this size are received with one read after the preamble.
_SMALL_FRAME_BYTES = 1 << 16

#: Fills the whole writable buffer it is given, or raises.
ReadInto = Callable[[memoryview], Any]


class _FramePickler(pickle.Pickler):
    """Protocol-5 pickler that sends every raw-dtype array out of band.

    numpy only emits a :class:`pickle.PickleBuffer` for contiguous arrays
    (anything else is copied *into* the stream), reconstructs Fortran buffers
    in Fortran order and read-only buffers read-only; copying those to a
    C-order array first keeps strided slices out of the stream and gives the
    receiver the writable C-order array the in-process mailboxes would have
    handed it.
    """

    def reducer_override(self, obj: Any) -> Any:
        if (
            type(obj) is np.ndarray
            and not (obj.flags.c_contiguous and obj.flags.writeable)
            and not obj.dtype.hasobject
        ):
            return np.array(obj, order="C").__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        return NotImplemented


def encode_frame_parts(key: Any, payload: Any) -> List[Any]:
    """One ``(key, payload)`` as the byte segments of a self-delimiting frame.

    The first part is the preamble plus header, the second the pickle
    stream, the rest ``memoryview``\\ s of the arrays inside ``payload`` (no
    copy, so the arrays must stay unmodified until the parts are sent).
    """
    buffers: List[memoryview] = []
    stream = io.BytesIO()
    _FramePickler(
        stream,
        protocol=pickle.HIGHEST_PROTOCOL,
        buffer_callback=lambda buf: buffers.append(buf.raw()),
    ).dump((key, payload))
    segments = [stream.getbuffer(), *buffers]
    lengths = [seg.nbytes for seg in segments]
    header = struct.pack(f"<{len(lengths)}Q", *lengths)
    return [PREAMBLE.pack(len(header), sum(lengths)) + header, *segments]


def encode_frame(key: Any, payload: Any) -> bytes:
    """Serialize one ``(key, payload)`` into a single ``bytes`` frame."""
    return b"".join(encode_frame_parts(key, payload))


def _check_preamble(header_len: int, payload_len: int) -> None:
    if payload_len > MAX_FRAME_BYTES:
        raise CommunicatorError(
            f"wire frame declares {payload_len} payload bytes, over the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupted stream?)"
        )
    if header_len > MAX_HEADER_BYTES:
        raise CommunicatorError(
            f"wire frame declares {header_len} header bytes, over the "
            f"{MAX_HEADER_BYTES}-byte limit (corrupted stream?)"
        )
    if header_len < 8 or header_len % 8:
        raise CommunicatorError(
            f"wire frame declares a {header_len}-byte header; it holds one u64 "
            "per segment and at least the pickle stream's (corrupted stream?)"
        )


def frame_length(preamble: bytes) -> int:
    """Bytes that follow a frame's ``preamble`` (checked against the limits).

    For readers that cannot hand :func:`read_frame` a blocking
    ``read_into`` (an asyncio stream): read the preamble, then this many
    bytes, and :func:`decode_frame` the two joined.
    """
    header_len, payload_len = PREAMBLE.unpack(preamble)
    _check_preamble(header_len, payload_len)
    return header_len + payload_len


def read_frame(read_into: ReadInto) -> Tuple[Any, Any]:
    """Read and decode one frame through ``read_into(buffer)``.

    ``read_into`` must either fill the whole buffer or raise; the runtime
    binds it to a blocking connection via :func:`recv_into_exact`.  Array
    segments are received directly into the memory of the arrays returned.
    """
    preamble = bytearray(PREAMBLE.size)
    read_into(memoryview(preamble))
    header_len, payload_len = PREAMBLE.unpack(preamble)
    _check_preamble(header_len, payload_len)
    # Control tokens and k × k blocks arrive in one read after the preamble: a
    # system call costs more than copying those few bytes apart afterwards.
    coalesced = header_len + payload_len <= _SMALL_FRAME_BYTES
    head = bytearray(header_len + payload_len if coalesced else header_len)
    read_into(memoryview(head))
    lengths = struct.unpack_from(f"<{header_len // 8}Q", head)
    if sum(lengths) != payload_len:
        raise CommunicatorError(
            f"wire-frame header lists segments of {sum(lengths)} bytes in "
            f"total but the preamble declares {payload_len} (corrupted stream?)"
        )
    segments = []
    offset = header_len
    for length in lengths:
        if coalesced:
            segment = head[offset:offset + length]  # its own aligned copy
            offset += length
        else:
            # A uint8 array rather than a bytearray: no zero fill, and the
            # decoded array is a writable view of exactly this allocation.
            segment = np.empty(length, dtype=np.uint8)
            if length:
                read_into(memoryview(segment))
        segments.append(segment)
    try:
        key, payload = pickle.loads(segments[0], buffers=segments[1:])
    except Exception as exc:
        raise CommunicatorError(f"undecodable wire-frame payload: {exc}") from exc
    return key, payload


def decode_frame(buf: bytes) -> Tuple[Any, Any]:
    """Decode one complete frame from ``buf`` (must contain exactly one frame)."""
    if len(buf) < PREAMBLE.size:
        raise CommunicatorError(
            f"truncated wire frame: {len(buf)} bytes, preamble needs {PREAMBLE.size}"
        )
    header_len, payload_len = PREAMBLE.unpack_from(buf, 0)
    _check_preamble(header_len, payload_len)
    end = PREAMBLE.size + header_len + payload_len
    if len(buf) != end:
        raise CommunicatorError(
            f"wire frame length mismatch: buffer holds {len(buf)} bytes, "
            f"frame declares {end}"
        )
    return read_frame(io.BytesIO(buf).readinto)  # cannot run short: lengths checked


def send_frame(sock, parts: List[Any]) -> None:
    """Scatter-gather send of a frame's parts over a (blocking) socket."""
    views = [memoryview(part).cast("B") for part in parts if len(part)]
    while views:
        sent = sock.sendmsg(views[:_IOV_BATCH])
        while sent:
            if sent >= views[0].nbytes:
                sent -= views[0].nbytes
                del views[0]
            else:
                views[0] = views[0][sent:]
                sent = 0


def recv_into_exact(sock, dest: memoryview) -> None:
    """Fill ``dest`` (a flat byte view) from a (blocking) socket.

    Raises :class:`ConnectionError` on EOF mid-frame — the reader thread
    turns that into an abort naming the dead peer.
    """
    filled = 0
    while filled < dest.nbytes:
        got = sock.recv_into(dest[filled:] if filled else dest)
        if not got:
            raise ConnectionError(
                f"connection closed after {filled} of {dest.nbytes} expected bytes"
            )
        filled += got
