"""The wire-frame codec: every payload must round-trip bit-exactly.

The socket backend's byte-identity guarantee rests on this codec — a frame
that perturbs a single array byte would silently break cross-backend parity.
The codec is pure (bytes in, bytes out), so these tests exercise it without
any sockets: hypothesis drives arbitrary keys, dtypes and shapes through
``encode_frame``/``decode_frame``, and :func:`read_frame` is layered over an
in-memory stream the way the backend layers it over a blocking connection.
The copy-count tests at the end are the exception: they move one frame over
a ``socketpair`` under ``tracemalloc``.
"""

import io
import pickle
import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.wire import (
    MAX_FRAME_BYTES,
    MAX_HEADER_BYTES,
    PREAMBLE,
    decode_frame,
    encode_frame,
    encode_frame_parts,
    read_frame,
    recv_into_exact,
    send_frame,
)
from repro.util.errors import CommunicatorError

RAW_DTYPES = ["<f8", "<f4", "<i8", "<i4", "<u2", "|b1", "<c16"]

keys = st.one_of(
    st.integers(),
    st.text(max_size=8),
    st.tuples(st.text(max_size=4), st.integers(0, 99), st.integers(0, 99)),
)


def _stream_reader(frames: bytes):
    """Bind read_frame to an in-memory byte stream, as the backend binds it
    to a blocking socket."""
    stream = io.BytesIO(frames)

    def read_into(dest: memoryview) -> None:
        got = stream.readinto(dest)
        if got != dest.nbytes:
            raise ConnectionError(f"stream ended after {got} of {dest.nbytes} bytes")

    return read_into


class TestArrayRoundTrip:
    @given(
        key=keys,
        dtype=st.sampled_from(RAW_DTYPES),
        shape=st.one_of(
            st.tuples(st.integers(0, 7)),
            st.tuples(st.integers(0, 5), st.integers(0, 4)),
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_arrays_round_trip_bit_exactly(self, key, dtype, shape, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal(shape).astype(np.dtype(dtype), copy=False)
        out_key, out = decode_frame(encode_frame(key, arr))
        assert out_key == key
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert out.tobytes() == arr.tobytes()  # bit-exact, incl. NaN patterns

    def test_decoded_array_is_fresh_and_writable(self):
        arr = np.arange(6.0).reshape(2, 3)
        _, out = decode_frame(encode_frame("k", arr))
        out += 1.0  # collectives combine into received arrays in place
        assert out.flags.writeable and out.flags.c_contiguous

    def test_noncontiguous_input_is_canonicalized(self):
        arr = np.arange(24.0).reshape(4, 6)[::2, ::3]
        _, out = decode_frame(encode_frame("k", arr))
        np.testing.assert_array_equal(out, arr)

    def test_fortran_and_readonly_inputs_decode_c_ordered_and_writable(self):
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        frozen = np.arange(4.0)
        frozen.flags.writeable = False
        for arr in (fortran, frozen):
            _, out = decode_frame(encode_frame("k", arr))
            np.testing.assert_array_equal(out, arr)
            assert out.flags.writeable and out.flags.c_contiguous

    def test_nan_and_inf_survive(self):
        arr = np.array([np.nan, np.inf, -np.inf, -0.0])
        _, out = decode_frame(encode_frame("k", arr))
        assert out.tobytes() == arr.tobytes()


def _array_segments(parts):
    """The out-of-band segments of a frame (parts = header, stream, arrays…)."""
    return parts[2:]


class TestArraysTravelOutOfBand:
    """No array byte is pickled, whatever container the array rides in."""

    PAYLOADS = {
        "bare": lambda a, b: a,
        "mailbox_message": lambda a, b: (7, a),
        "recursive_doubling_round": lambda a, b: [(0, a), (3, b)],
    }

    @pytest.mark.parametrize("shape", sorted(PAYLOADS))
    def test_segments_are_views_of_the_senders_arrays(self, shape, monkeypatch):
        a = np.arange(4096.0).reshape(64, 64)
        b = np.arange(512, dtype=np.int32)
        payload = self.PAYLOADS[shape](a, b)
        arrays = [a] if shape != "recursive_doubling_round" else [a, b]

        def no_dumps(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("array payloads must not pass through pickle.dumps")

        monkeypatch.setattr(pickle, "dumps", no_dumps)
        parts = encode_frame_parts(("msg", 1, 0), payload)
        segments = _array_segments(parts)
        assert len(segments) == len(arrays)
        for segment, arr in zip(segments, arrays):
            assert isinstance(segment, memoryview) and segment.nbytes == arr.nbytes
            assert np.shares_memory(np.frombuffer(segment, dtype=np.uint8), arr)
        # Everything that *was* pickled (key, structure, dtype, shape) is small.
        assert sum(len(part) for part in parts[:2]) < 1024

        key, out = decode_frame(b"".join(parts))
        assert key == ("msg", 1, 0)
        flat = [out] if shape == "bare" else [out[1]] if shape == "mailbox_message" else [
            block for _, block in out
        ]
        for got, arr in zip(flat, arrays):
            assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes()
            assert got.flags.writeable and not np.shares_memory(got, arr)

    def test_strided_slice_is_canonicalized_not_pickled(self):
        base = np.arange(1 << 16, dtype=np.float64).reshape(256, 256)
        parts = encode_frame_parts("k", (0, base[:, 10:200]))
        (segment,) = _array_segments(parts)
        assert segment.nbytes == base[:, 10:200].nbytes
        assert len(parts[1]) < 1024


class TestObjectRoundTrip:
    @given(
        key=keys,
        payload=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=12),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4),
            max_leaves=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_objects_round_trip(self, key, payload):
        assert decode_frame(encode_frame(key, payload)) == (key, payload)

    def test_object_dtype_arrays_take_the_pickle_path(self):
        arr = np.array([{"a": 1}, None], dtype=object)
        _, out = decode_frame(encode_frame("k", arr))
        assert isinstance(out, np.ndarray) and out.dtype == object
        assert out[0] == {"a": 1} and out[1] is None

    def test_structured_dtype_arrays_take_the_pickle_path(self):
        arr = np.array([(1, 2.0)], dtype=[("a", "<i4"), ("b", "<f8")])
        _, out = decode_frame(encode_frame("k", arr))
        assert out.dtype.names == ("a", "b")
        assert out.tobytes() == arr.tobytes()


class TestMalformedFrames:
    def test_truncated_preamble(self):
        with pytest.raises(CommunicatorError, match="truncated"):
            decode_frame(b"\x01\x02")

    def test_truncated_payload(self):
        frame = encode_frame("k", np.arange(4.0))
        with pytest.raises(CommunicatorError, match="length mismatch"):
            decode_frame(frame[:-3])

    def test_trailing_garbage(self):
        frame = encode_frame("k", np.arange(4.0))
        with pytest.raises(CommunicatorError, match="length mismatch"):
            decode_frame(frame + b"xx")

    def test_oversized_length_prefix_is_refused_before_allocation(self):
        buf = PREAMBLE.pack(4, MAX_FRAME_BYTES + 1) + b"head"
        with pytest.raises(CommunicatorError, match="over the"):
            decode_frame(buf)
        with pytest.raises(CommunicatorError, match="over the"):
            read_frame(_stream_reader(buf))

    @pytest.mark.parametrize("header_len", [MAX_HEADER_BYTES + 8, 0xFFFFFFF8])
    def test_oversized_header_length_is_refused_before_allocation(self, header_len):
        # One corrupt preamble must not drive a multi-GiB header allocation.
        buf = PREAMBLE.pack(header_len, 16) + b"\x00" * 64
        with pytest.raises(CommunicatorError, match="header bytes, over the"):
            decode_frame(buf)
        tracemalloc.start()
        try:
            with pytest.raises(CommunicatorError, match="header bytes, over the"):
                read_frame(_stream_reader(buf))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("header_len", [0, 4, 12])
    def test_header_that_cannot_hold_whole_segment_lengths_is_refused(self, header_len):
        buf = PREAMBLE.pack(header_len, 0) + b"\x00" * header_len
        with pytest.raises(CommunicatorError, match="-byte header"):
            decode_frame(buf)

    def test_corrupted_header_is_a_communicator_error(self):
        frame = bytearray(encode_frame("k", [1, 2, 3]))
        header_len, _ = PREAMBLE.unpack_from(bytes(frame), 0)
        for i in range(PREAMBLE.size, PREAMBLE.size + header_len):
            frame[i] ^= 0xFF
        with pytest.raises(CommunicatorError, match="header"):
            decode_frame(bytes(frame))

    def test_corrupted_pickle_stream_is_a_communicator_error(self):
        frame = bytearray(encode_frame("k", [1, 2, 3]))
        header_len, _ = PREAMBLE.unpack_from(bytes(frame), 0)
        for i in range(PREAMBLE.size + header_len, len(frame)):
            frame[i] ^= 0xFF
        with pytest.raises(CommunicatorError, match="undecodable"):
            decode_frame(bytes(frame))

    def test_array_segment_shorter_than_its_shape_declares(self):
        header, stream, segment = encode_frame_parts("k", np.arange(4.0))
        short = bytes(segment)[:16]  # the stream says 4 float64 = 32 bytes
        lengths = struct.pack("<2Q", len(stream), len(short))
        buf = PREAMBLE.pack(len(lengths), len(stream) + len(short)) + lengths
        with pytest.raises(CommunicatorError, match="undecodable"):
            decode_frame(buf + bytes(stream) + short)


class TestStreaming:
    @given(
        payloads=st.lists(
            st.one_of(st.integers(), st.text(max_size=6)), min_size=1, max_size=6
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_back_to_back_frames_demux_in_order(self, payloads):
        stream = b"".join(
            encode_frame(("msg", i), p) for i, p in enumerate(payloads)
        )
        read_exact = _stream_reader(stream)
        for i, expected in enumerate(payloads):
            assert read_frame(read_exact) == (("msg", i), expected)

    def test_read_frame_raises_on_mid_frame_eof(self):
        frame = encode_frame("k", np.arange(128.0))
        with pytest.raises(ConnectionError, match="ended after"):
            read_frame(_stream_reader(frame[: len(frame) // 2]))

    def test_empty_array_segment_is_not_read(self):
        reads = []
        read_into = _stream_reader(encode_frame("k", (5, np.ones((3, 0)))))

        def counting(dest):
            reads.append(dest.nbytes)
            read_into(dest)

        key, (tag, out) = read_frame(counting)
        assert (key, tag, out.shape) == ("k", 5, (3, 0))
        assert 0 not in reads

    def test_recv_into_exact_reassembles_fragmented_stream(self):
        class Chunky:
            """A socket that delivers one byte per recv_into call."""

            def __init__(self, data):
                self.data, self.pos = data, 0

            def recv_into(self, dest):
                if self.pos >= len(self.data):
                    return 0
                dest[0] = self.data[self.pos]
                self.pos += 1
                return 1

        frame = encode_frame("k", np.arange(5.0))
        sock = Chunky(frame)
        got = bytearray(len(frame))
        recv_into_exact(sock, memoryview(got))
        assert bytes(got) == frame
        with pytest.raises(ConnectionError, match="connection closed"):
            recv_into_exact(sock, memoryview(bytearray(1)))

    def test_send_frame_resumes_after_partial_sends(self):
        class Dribbling:
            """A socket whose sendmsg takes at most 5 bytes per call."""

            def __init__(self):
                self.sent = bytearray()

            def sendmsg(self, views):
                chunk = b"".join(bytes(v) for v in views)[:5]
                self.sent += chunk
                return len(chunk)

        payload = [(0, np.arange(7.0)), (1, np.zeros((2, 0))), (2, np.arange(3))]
        sock = Dribbling()
        send_frame(sock, encode_frame_parts("k", payload))
        assert bytes(sock.sent) == encode_frame("k", payload)


class TestCopiesOverASocket:
    """One frame over a socketpair: user space stages no payload-sized copy.

    tracemalloc sees every thread, so the untraced side of each transfer
    works out of memory allocated before tracing starts.
    """

    PAYLOAD_BYTES = 16 << 20

    @staticmethod
    def _traced(fn, background):
        """Peak bytes allocated while ``fn`` runs against ``background``."""
        thread = threading.Thread(target=background)
        thread.start()
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            thread.join(timeout=30)
        assert not thread.is_alive()
        return result, peak

    def test_send_and_receive_allocate_no_staging_copies(self):
        arr = np.arange(self.PAYLOAD_BYTES // 8, dtype=np.float64)
        message = (("msg", 0, 1), (3, arr))
        frame_bytes = len(encode_frame(*message))
        left, right = socket.socketpair()
        try:
            sink = memoryview(bytearray(frame_bytes))
            _, send_peak = self._traced(
                lambda: send_frame(left, encode_frame_parts(*message)),
                background=lambda: recv_into_exact(right, sink),
            )
            assert bytes(sink) == encode_frame(*message)
            del sink

            parts = encode_frame_parts(*message)
            (key, (tag, out)), recv_peak = self._traced(
                lambda: read_frame(lambda dest: recv_into_exact(right, dest)),
                background=lambda: send_frame(left, parts),
            )
        finally:
            left.close()
            right.close()
        assert (key, tag) == (message[0], 3)
        assert out.tobytes() == arr.tobytes()
        out += 1.0  # fresh and writable: collectives combine in place
        assert not np.shares_memory(out, arr)
        assert send_peak < 0.1 * arr.nbytes
        assert recv_peak < 1.5 * arr.nbytes
