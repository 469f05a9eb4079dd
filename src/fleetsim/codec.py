"""Self-describing binary codec for message payloads.

Agents exchange raw byte strings; this codec is the canonical way to get
structured values in and out of them without pinning a payload type system
at the transport layer.

Wire format (little-endian throughout): every value is a TLV item

    tag:u8  length:u32  body:length bytes

with tags

    0x01 BOOL    body = 1 byte, 0 or 1
    0x02 INT     body = i64
    0x03 FLOAT   body = f64 (bit-exact round trip)
    0x04 STR     body = utf-8 text
    0x05 BYTES   body = raw bytes
    0x06 VEC     body = k * f64, a 1-d float64 array
    0x07 MAT     body = rows:u32 cols:u32 then rows*cols f64 row-major
    0x08 LIST    body = concatenated TLV items
    0x09 MAP     body = concatenated (STR key item, value item) pairs

Supported python values: bool, int (within i64), float, str, bytes,
1-d/2-d float64 numpy arrays, lists of supported values, and dicts with
str keys. ``decode(encode(v))`` reproduces ``v`` (arrays compare with
``np.array_equal``, including dtype and shape), with one exception: a 0-d
float array goes as a one-element VEC and decodes with shape (1,).

Lists and maps nest at most ``MAX_DEPTH`` levels deep: ``encode`` refuses
deeper values, and ``decode`` rejects deeper bytes instead of recursing.

One walk goes each way. ``encode`` writes an array, bare or nested, as one
VEC or MAT item of its values in C order, whatever its layout or float
dtype; ``decode`` reads the payload by offset and returns every array as
a fresh writable C-contiguous float64 copy.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CodecError, DecodeError

__all__ = ["MAX_DEPTH", "encode", "decode"]

MAX_DEPTH = 64

_BOOL, _INT, _FLOAT, _STR, _BYTES, _VEC, _MAT, _LIST, _MAP = range(1, 10)

_HEAD = struct.Struct("<BI")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_DIMS = struct.Struct("<II")
_LE_F8 = np.dtype("<f8")

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def encode(value) -> bytes:
    """Serialize a supported value to bytes."""
    if type(value) is np.ndarray:
        return _array_item(value)
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _item(out: bytearray, tag: int, body: bytes) -> None:
    if len(body) > 0xFFFFFFFF:
        raise CodecError("payload body too large: %d bytes" % len(body))
    out += _HEAD.pack(tag, len(body))
    out += body


def _encode_into(value, out: bytearray, depth: int = 0) -> None:
    # ``depth`` counts the lists and maps enclosing ``value``
    # bool first: it is a subclass of int
    if isinstance(value, (bool, np.bool_)):
        _item(out, _BOOL, b"\x01" if value else b"\x00")
    elif isinstance(value, (int, np.integer)):
        v = int(value)
        if not _I64_MIN <= v <= _I64_MAX:
            raise CodecError("integer %d does not fit in i64" % v)
        _item(out, _INT, _I64.pack(v))
    elif isinstance(value, (float, np.floating)):
        _item(out, _FLOAT, _F64.pack(float(value)))
    elif isinstance(value, str):
        _item(out, _STR, value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray)):
        _item(out, _BYTES, bytes(value))
    elif isinstance(value, np.ndarray):
        out += _array_item(value)
    elif isinstance(value, (list, dict)):
        if depth == MAX_DEPTH:
            raise CodecError("lists and maps nest deeper than %d levels" % MAX_DEPTH)
        body = bytearray()
        if isinstance(value, list):
            for v in value:
                _encode_into(v, body, depth + 1)
            _item(out, _LIST, bytes(body))
        else:
            for k, v in value.items():
                if not isinstance(k, str):
                    raise CodecError("map keys must be str, got %r" % type(k).__name__)
                _encode_into(k, body)
                _encode_into(v, body, depth + 1)
            _item(out, _MAP, bytes(body))
    else:
        raise CodecError("unsupported value type %r" % type(value).__name__)


def _array_item(arr: np.ndarray) -> bytes:
    """One VEC or MAT item; ``tobytes`` writes C order for any layout."""
    if arr.dtype != _LE_F8:
        if not np.issubdtype(arr.dtype, np.floating):
            raise CodecError("arrays must be float, got dtype %s" % arr.dtype)
        arr = arr.astype(_LE_F8)
    if arr.ndim > 2:
        raise CodecError("only 1-d and 2-d arrays are supported, got %d-d" % arr.ndim)
    size = arr.nbytes if arr.ndim < 2 else arr.nbytes + 8
    if size > 0xFFFFFFFF:
        raise CodecError("payload body too large: %d bytes" % size)
    if arr.ndim < 2:  # a 0-d array goes as a 1-element vector
        return _HEAD.pack(_VEC, size) + arr.tobytes()
    return _HEAD.pack(_MAT, size) + _DIMS.pack(*arr.shape) + arr.tobytes()


def decode(data: bytes):
    """Parse bytes produced by :func:`encode`. Raises DecodeError otherwise."""
    if type(data) is not bytes:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise DecodeError("decode needs bytes, got %r" % type(data).__name__)
        data = bytes(data)
    if not data:
        raise DecodeError("empty payload")
    value, used = _decode_one(data, 0, len(data))
    if used != len(data):
        raise DecodeError("trailing bytes after payload (%d unused)" % (len(data) - used))
    return value


def _decode_one(data: bytes, pos: int, limit: int, depth: int = 0):
    """The item at ``data[pos:]`` and the offset past it; the item must end
    by ``limit``, and ``depth`` counts the lists and maps enclosing it."""
    if limit - pos < _HEAD.size:
        raise DecodeError("truncated item header")
    tag, length = _HEAD.unpack_from(data, pos)
    pos += _HEAD.size
    end = pos + length
    if end > limit:
        raise DecodeError("item body runs past end of buffer")

    if tag == _VEC:
        if length % 8:
            raise DecodeError("vector body not a multiple of 8")
        return np.frombuffer(data, _LE_F8, length // 8, pos).copy(), end
    if tag == _MAT:
        if length < 8:
            raise DecodeError("matrix body too short")
        r, c = _DIMS.unpack_from(data, pos)
        if length != 8 + 8 * r * c:
            raise DecodeError("matrix body length mismatch")
        return np.frombuffer(data, _LE_F8, r * c, pos + 8).reshape(r, c).copy(), end
    if tag == _BOOL:
        if length != 1 or data[pos] > 1:
            raise DecodeError("malformed bool")
        return data[pos] == 1, end
    if tag == _INT:
        if length != 8:
            raise DecodeError("malformed int")
        return _I64.unpack_from(data, pos)[0], end
    if tag == _FLOAT:
        if length != 8:
            raise DecodeError("malformed float")
        return _F64.unpack_from(data, pos)[0], end
    if tag == _STR:
        try:
            return data[pos:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid utf-8 in string") from exc
    if tag == _BYTES:
        return data[pos:end], end
    if tag != _LIST and tag != _MAP:
        raise DecodeError("unknown tag 0x%02x" % tag)
    if depth == MAX_DEPTH:
        raise DecodeError("lists and maps nest deeper than %d levels" % MAX_DEPTH)
    depth += 1
    if tag == _LIST:
        items = []
        while pos < end:
            v, pos = _decode_one(data, pos, end, depth)
            items.append(v)
        return items, end
    out = {}
    while pos < end:
        k, pos = _decode_one(data, pos, end, depth)
        if not isinstance(k, str):
            raise DecodeError("map key is not a string")
        if pos >= end:
            raise DecodeError("map key without value")
        out[k], pos = _decode_one(data, pos, end, depth)
    return out, end
