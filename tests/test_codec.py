"""Round-trip and malformed-input tests for the message codec."""

import hashlib
import math
import struct

import numpy as np
import pytest

from fleetsim.codec import MAX_DEPTH, decode, encode
from fleetsim.errors import CodecError, DecodeError


SCALARS = [
    True,
    False,
    0,
    -1,
    2**63 - 1,
    -(2**63),
    0.0,
    -0.0,
    1.5,
    math.pi,
    float("inf"),
    "",
    "hello",
    "naïve ünïcode ✓",
    b"",
    b"\x00\xff\x01",
]


@pytest.mark.parametrize("value", SCALARS)
def test_scalar_round_trip(value):
    out = decode(encode(value))
    if isinstance(value, float):
        # bit-exact, including signed zero
        assert struct.pack("<d", out) == struct.pack("<d", value)
    else:
        assert out == value
        assert type(out) is type(value)


def test_nan_round_trip():
    out = decode(encode(float("nan")))
    assert math.isnan(out)


def test_vector_round_trip():
    v = np.array([1.0, -2.5, 3e-17])
    out = decode(encode(v))
    assert isinstance(out, np.ndarray)
    assert out.shape == (3,)
    assert np.array_equal(out, v)


def _bits(arr):
    return np.asarray(arr, dtype="<f8").tobytes()


def _nan_with_payload():
    return np.frombuffer(struct.pack("<QQ", 0x7FF0000000000ABC, 0xFFF8000000000001), "<f8")


def _read_only(arr):
    arr.flags.writeable = False
    return arr


VECTORS = {
    "specials": lambda: np.concatenate([_nan_with_payload(), [0.0, -0.0, np.inf, -np.inf,
                                                              5e-324, -2.2e-308]]),
    "empty": lambda: np.zeros(0),
    "strided": lambda: np.arange(12.0)[::5] / 3.0,
    "read_only": lambda: _read_only(np.linspace(-1.0, 1.0, 5)),
    "big_endian": lambda: np.array([1.5, -0.0, 3e-310], dtype=">f8"),
    "float32": lambda: np.array([0.1, -2.5, 1e-40], dtype=np.float32),
}


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_vector_shortcut_matches_the_generic_walk(name):
    """A bare vector and one inside a list give the same item bytes and
    the same decoded bits."""
    v = VECTORS[name]()
    blob = encode(v)
    wrapped = encode([v])
    assert blob == wrapped[5:]
    out = decode(blob)
    assert out.dtype == np.float64 and out.flags.writeable
    assert _bits(out) == _bits(decode(wrapped)[0]) == _bits(v.astype("<f8"))
    for other in (bytearray(blob), memoryview(blob)):
        again = decode(other)
        assert _bits(again) == _bits(out) and again.flags.writeable


def test_decoded_vector_is_a_fresh_writable_copy():
    blob = encode(np.array([1.0, 2.0]))
    a, b = decode(blob), decode(blob)
    a += 1.0
    assert np.array_equal(b, [1.0, 2.0])
    assert not np.shares_memory(a, b)


@pytest.mark.parametrize("blob", [
    struct.pack("<BI", 6, 12) + b"\x00" * 12,           # not a multiple of 8
    struct.pack("<BI", 6, 8) + b"\x00" * 9,             # a trailing byte
    struct.pack("<BI", 6, 16) + b"\x00" * 8,            # body runs past the end
    struct.pack("<BI", 6, 8) + b"\x00" * 8 + encode(1),  # a second item
])
def test_malformed_vector_still_raises(blob):
    with pytest.raises(DecodeError):
        decode(blob)


def _mat_item(m):
    """A MAT item as the generic walk has always written it."""
    a = np.ascontiguousarray(m, dtype="<f8")
    return struct.pack("<BIII", 7, 8 + a.nbytes, *a.shape) + a.tobytes()


MATRICES = {
    "plan_outputs": lambda: np.arange(8.0).reshape(8, 1) / 3.0,
    "one_by_one": lambda: np.array([[-0.0]]),
    "zero_rows": lambda: np.zeros((0, 3)),
    "zero_cols": lambda: np.zeros((4, 0)),
    "specials": lambda: VECTORS["specials"]().reshape(2, 4),
    "read_only": lambda: _read_only(np.linspace(-1.0, 1.0, 6).reshape(2, 3)),
}

# 2-d arrays that are not C-contiguous little-endian float64
WALKED_MATRICES = {
    "strided": lambda: (np.arange(24.0).reshape(4, 6) / 3.0)[:, ::2],
    "transposed": lambda: (np.arange(12.0).reshape(3, 4) / 7.0).T,
    "float32": lambda: np.array([[0.1, -2.5], [1e-40, 3.0]], dtype=np.float32),
    "big_endian": lambda: np.array([[1.5, -0.0, 3e-310]], dtype=">f8"),
}


@pytest.mark.parametrize("name", sorted(MATRICES) + sorted(WALKED_MATRICES))
def test_matrix_shortcut_writes_the_walks_bytes(name):
    """Every 2-d float array, whatever its layout or dtype, writes the MAT
    item the walk always wrote, and decoding gives a fresh writable (r, c)
    float64 array with its bits."""
    m = {**MATRICES, **WALKED_MATRICES}[name]()
    blob = encode(m)
    assert blob == _mat_item(m) == encode([m])[5:]
    for data in (blob, bytearray(blob), memoryview(blob)):
        out = decode(data)
        assert out.dtype == np.float64 and out.shape == m.shape
        assert out.flags.writeable and out.flags.c_contiguous
        assert _bits(out) == _bits(m)


def test_decoded_matrix_is_a_fresh_writable_copy():
    blob = encode(np.array([[1.0, 2.0], [3.0, 4.0]]))
    a, b = decode(blob), decode(blob)
    a += 1.0
    assert np.array_equal(b, [[1.0, 2.0], [3.0, 4.0]])
    assert not np.shares_memory(a, b)


@pytest.mark.parametrize("blob", [
    _mat_item(np.ones((2, 3)))[:-1],                                    # truncated body
    _mat_item(np.ones((2, 3)))[:10],                                    # truncated dims
    struct.pack("<BIII", 7, 8 + 16, 1, 1) + b"\x00" * 16,               # dims too small
    struct.pack("<BIII", 7, 8 + 8, 2, 1) + b"\x00" * 8,                 # dims too large
    struct.pack("<BIII", 7, 8, 2**32 - 1, 2**32 - 1),                   # huge dims, no body
    struct.pack("<BI", 7, 4) + b"\x00" * 4,                             # no room for dims
    _mat_item(np.ones((1, 1))) + b"\x00",                               # a trailing byte
    _mat_item(np.ones((1, 1))) + encode(1),                             # a second item
])
def test_malformed_matrix_still_raises(blob):
    with pytest.raises(DecodeError):
        decode(blob)


def test_matrix_round_trip():
    m = np.arange(12, dtype=float).reshape(3, 4) / 7.0
    out = decode(encode(m))
    assert out.shape == (3, 4)
    assert np.array_equal(out, m)


def test_empty_vector():
    out = decode(encode(np.zeros(0)))
    assert out.shape == (0,)


def test_list_round_trip():
    value = [1, "a", [2.0, True], np.array([0.5, 0.5])]
    out = decode(encode(value))
    assert out[0] == 1 and out[1] == "a"
    assert out[2] == [2.0, True]
    assert np.array_equal(out[3], value[3])


def test_dict_round_trip():
    value = {"pose": np.array([1.0, 2.0]), "round": 7, "tags": ["a", "b"]}
    out = decode(encode(value))
    assert set(out) == set(value)
    assert np.array_equal(out["pose"], value["pose"])
    assert out["round"] == 7
    assert out["tags"] == ["a", "b"]


def test_nested_structure():
    value = {"layers": [{"w": np.eye(2)}, {"w": np.zeros((1, 3))}]}
    out = decode(encode(value))
    assert np.array_equal(out["layers"][0]["w"], np.eye(2))
    assert out["layers"][1]["w"].shape == (1, 3)


def nested(depth, inner):
    """``inner`` wrapped in ``depth`` levels, alternating maps and lists."""
    value = inner
    for level in range(depth):
        value = [value] if level % 2 else {"k": value}
    return value


def wrapped(blob, depth):
    """The bytes of ``nested(depth, ·)`` around an encoded ``blob``, built
    by hand so that they can go past what ``encode`` accepts."""
    for level in range(depth):
        if level % 2:
            blob = struct.pack("<BI", 8, len(blob)) + blob
        else:
            body = encode("k") + blob
            blob = struct.pack("<BI", 9, len(body)) + body
    return blob


def test_nesting_at_the_limit_round_trips():
    # an empty list or map is a level of its own
    for value in (nested(MAX_DEPTH, 1.5), nested(MAX_DEPTH - 1, []),
                  nested(MAX_DEPTH - 1, {})):
        blob = encode(value)
        assert decode(blob) == value
    assert wrapped(encode(1.5), MAX_DEPTH) == encode(nested(MAX_DEPTH, 1.5))


def test_nesting_past_the_limit_raises_on_both_sides():
    for value in (nested(MAX_DEPTH + 1, 1.5), nested(MAX_DEPTH, []),
                  nested(MAX_DEPTH, {})):
        with pytest.raises(CodecError):
            encode(value)
    for depth in (MAX_DEPTH + 1, MAX_DEPTH + 2):  # a map, then a list, is one too deep
        with pytest.raises(DecodeError):
            decode(wrapped(encode(1.5), depth))


def test_deeply_nested_blob_raises_decode_error():
    """A well-formed 25 000-byte blob of 5000 nested lists is rejected, not
    recursed into until the interpreter's stack runs out."""
    blob = b""
    for _ in range(5000):
        blob = struct.pack("<BI", 8, len(blob)) + blob
    assert len(blob) == 25000
    with pytest.raises(DecodeError):
        decode(blob)


def test_encode_decode_byte_identity():
    """decode . encode is the identity on bytes for valid payloads."""
    value = {"x": [1, 2.5, "s"], "m": np.ones((2, 2))}
    blob = encode(value)
    assert encode(decode(blob)) == blob


def test_int_out_of_range():
    with pytest.raises(CodecError):
        encode(2**63)
    with pytest.raises(CodecError):
        encode(-(2**63) - 1)


def test_integer_array_rejected():
    with pytest.raises(CodecError):
        encode(np.array([1, 2, 3]))


def test_high_rank_array_rejected():
    with pytest.raises(CodecError):
        encode(np.zeros((2, 2, 2)))


def test_non_string_keys_rejected():
    with pytest.raises(CodecError):
        encode({1: "a"})


def test_unsupported_type_rejected():
    with pytest.raises(CodecError):
        encode(object())
    with pytest.raises(CodecError):
        encode(None)
    with pytest.raises(CodecError):
        encode({"ok": {1, 2}})


def test_decode_requires_bytes():
    with pytest.raises(DecodeError):
        decode("not bytes")


def test_decode_empty():
    with pytest.raises(DecodeError):
        decode(b"")


def test_decode_trailing_bytes():
    blob = encode(42) + b"\x00"
    with pytest.raises(DecodeError):
        decode(blob)


def test_decode_truncated_header():
    blob = encode(42)
    with pytest.raises(DecodeError):
        decode(blob[:3])


def test_decode_body_past_end():
    blob = bytearray(encode("hello"))
    # inflate the declared length beyond the buffer
    struct.pack_into("<I", blob, 1, 999)
    with pytest.raises(DecodeError):
        decode(bytes(blob))


def test_decode_bad_int_length():
    blob = struct.pack("<BI", 2, 3) + b"\x00\x00\x00"
    with pytest.raises(DecodeError):
        decode(blob)


def test_decode_invalid_utf8():
    blob = struct.pack("<BI", 4, 2) + b"\xff\xfe"
    with pytest.raises(DecodeError):
        decode(blob)


def test_decode_vector_length_not_multiple_of_8():
    blob = struct.pack("<BI", 6, 7) + b"\x00" * 7
    with pytest.raises(DecodeError):
        decode(blob)


def test_decode_matrix_length_mismatch():
    # claims 2x2 but carries one float
    body = struct.pack("<II", 2, 2) + struct.pack("<d", 1.0)
    blob = struct.pack("<BI", 7, len(body)) + body
    with pytest.raises(DecodeError):
        decode(blob)


def test_decode_unknown_tag():
    blob = struct.pack("<BI", 200, 0)
    with pytest.raises(DecodeError):
        decode(blob)


def test_decode_map_key_must_be_string():
    # map body is (key item, value item) pairs; smuggle in an int key
    body = encode(5) + encode(1)
    blob = struct.pack("<BI", 9, len(body)) + body
    with pytest.raises(DecodeError):
        decode(blob)


def test_decode_map_key_without_value():
    body = encode("orphan")
    blob = struct.pack("<BI", 9, len(body)) + body
    with pytest.raises(DecodeError):
        decode(blob)


def test_decode_malformed_bool():
    blob = struct.pack("<BI", 1, 1) + b"\x02"
    with pytest.raises(DecodeError):
        decode(blob)


def _wire_arrays():
    """Vectors and matrices of every layout and dtype the encoder accepts."""
    return ([make() for _, make in sorted(VECTORS.items())]
            + [make() for _, make in sorted({**MATRICES, **WALKED_MATRICES}.items())]
            + [np.zeros((0, 0)), np.array([[0.5, -65504.0]], dtype=np.float16),
               (np.arange(30.0).reshape(5, 6) / 9.0)[::2, 1::2].T])


def _wire_table():
    """A fixed value table covering every tag, the scalar extremes and
    every array layout, bare and nested in lists and maps."""
    nan = struct.unpack("<d", struct.pack("<Q", 0x7FF800000000ABCD))[0]
    scalars = [True, False, 0, -1, 2**63 - 1, -(2**63), np.int32(-7), np.bool_(True),
               0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
               float("inf"), float("-inf"), nan, np.float32(0.1), "", "naïve ünïcode ✓ 𝄞",
               b"", b"\x00\xff\x01", [], {}]
    table = scalars + [scalars, {"s%d" % k: v for k, v in enumerate(scalars)}]
    for arr in _wire_arrays():
        table += [arr, [arr, 1.5], {"a": arr, "b": [arr]}]
    table.append(nested(MAX_DEPTH, np.arange(3.0).reshape(3, 1)))
    return table


# sha256 of the concatenated encodings of ``_wire_table()``
WIRE_DIGEST = "a33c9bcb16922de84478de55b89748163a49828e9a685974b7a022ec8ed764f1"


def _same(out, again, value):
    """``out`` and ``again`` decode ``value``: equal, floats and arrays to
    the bit, and every array a fresh writable C-contiguous float64 array."""
    if isinstance(value, np.ndarray):
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.flags.writeable and out.flags.c_contiguous
        assert out.shape == value.shape and _bits(out) == _bits(value)
        assert not np.shares_memory(out, again)
    elif isinstance(value, (list, dict)):
        keys = list(value) if isinstance(value, dict) else list(range(len(value)))
        assert type(out) is type(value) and len(out) == len(value)
        if isinstance(value, dict):
            assert list(out) == keys
        for k in keys:
            _same(out[k], again[k], value[k])
    elif isinstance(value, (float, np.floating)):
        assert type(out) is float and _bits(out) == _bits(float(value))
    else:
        plain = value.item() if isinstance(value, np.generic) else value
        assert out == plain and type(out) is type(plain)


def test_wire_format_digest():
    """The bytes written for a fixed value table are pinned by one digest,
    and every blob decodes back from bytes, bytearray and memoryview."""
    table = _wire_table()
    blobs = [encode(value) for value in table]
    assert hashlib.sha256(b"".join(blobs)).hexdigest() == WIRE_DIGEST
    for value, blob in zip(table, blobs):
        for data in (blob, bytearray(blob), memoryview(blob)):
            _same(decode(data), decode(data), value)


def test_zero_d_array_goes_as_a_one_element_vector():
    for value in (np.array(1.5), np.array(-0.0, dtype=">f8"), np.array(0.25, dtype=np.float32)):
        assert encode(value) == encode(value.reshape(1))
        assert encode([value]) == encode([value.reshape(1)])
