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
``np.array_equal``, including dtype and shape).

Lists and maps nest at most ``MAX_DEPTH`` levels deep: ``encode`` refuses
deeper values, and ``decode`` rejects deeper bytes instead of recursing.

A bare float64 vector or C-contiguous matrix (the pose and plan payloads)
skips the generic walk both ways, with the walk's bytes and fresh arrays.
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
_U32 = struct.Struct("<I")
_DIMS = struct.Struct("<II")
_LE_F8 = np.dtype("<f8")

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def encode(value) -> bytes:
    """Serialize a supported value to bytes."""
    if type(value) is np.ndarray and value.dtype == _LE_F8 and value.nbytes <= 0xFFFFFFF0:
        if value.ndim == 1:
            return _HEAD.pack(_VEC, value.nbytes) + value.tobytes()
        if value.ndim == 2 and value.flags.c_contiguous:
            return _HEAD.pack(_MAT, value.nbytes + 8) + _DIMS.pack(*value.shape) + value.tobytes()
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
        _encode_array(value, out)
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


def _encode_array(arr: np.ndarray, out: bytearray) -> None:
    if not np.issubdtype(arr.dtype, np.floating):
        raise CodecError("arrays must be float, got dtype %s" % arr.dtype)
    a = np.ascontiguousarray(arr, dtype="<f8")
    if a.ndim == 1:
        _item(out, _VEC, a.tobytes())
    elif a.ndim == 2:
        r, c = a.shape
        _item(out, _MAT, _U32.pack(r) + _U32.pack(c) + a.tobytes())
    else:
        raise CodecError("only 1-d and 2-d arrays are supported, got %d-d" % a.ndim)


def decode(data: bytes):
    """Parse bytes produced by :func:`encode`. Raises DecodeError otherwise."""
    if type(data) is bytes and len(data) >= _HEAD.size:
        tag, length = _HEAD.unpack_from(data)
        if length == len(data) - _HEAD.size:
            # one whole VEC or MAT item: a fresh writable copy, as the walk returns
            if tag == _VEC and not length % 8:
                return np.frombuffer(data, _LE_F8, offset=_HEAD.size).copy()
            if tag == _MAT and length >= 8:
                r, c = _DIMS.unpack_from(data, _HEAD.size)
                if length == 8 + 8 * r * c:
                    return np.frombuffer(data, _LE_F8, offset=_HEAD.size + 8).reshape(r, c).copy()
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise DecodeError("decode needs bytes, got %r" % type(data).__name__)
    buf = memoryview(bytes(data))
    if len(buf) == 0:
        raise DecodeError("empty payload")
    value, used = _decode_one(buf)
    if used != len(buf):
        raise DecodeError("trailing bytes after payload (%d unused)" % (len(buf) - used))
    return value


def _decode_one(buf: memoryview, depth: int = 0):
    # ``depth`` counts the lists and maps enclosing the item
    if len(buf) < _HEAD.size:
        raise DecodeError("truncated item header")
    tag, length = _HEAD.unpack_from(buf, 0)
    end = _HEAD.size + length
    if end > len(buf):
        raise DecodeError("item body runs past end of buffer")
    body = buf[_HEAD.size : end]

    if tag == _BOOL:
        if length != 1 or body[0] not in (0, 1):
            raise DecodeError("malformed bool")
        return bool(body[0]), end
    if tag == _INT:
        if length != 8:
            raise DecodeError("malformed int")
        return _I64.unpack(body)[0], end
    if tag == _FLOAT:
        if length != 8:
            raise DecodeError("malformed float")
        return _F64.unpack(body)[0], end
    if tag == _STR:
        try:
            return bytes(body).decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid utf-8 in string") from exc
    if tag == _BYTES:
        return bytes(body), end
    if tag == _VEC:
        if length % 8:
            raise DecodeError("vector body not a multiple of 8")
        return np.frombuffer(body, dtype="<f8").astype(np.float64), end
    if tag == _MAT:
        if length < 8:
            raise DecodeError("matrix body too short")
        r = _U32.unpack(body[0:4])[0]
        c = _U32.unpack(body[4:8])[0]
        if length != 8 + 8 * r * c:
            raise DecodeError("matrix body length mismatch")
        flat = np.frombuffer(body[8:], dtype="<f8").astype(np.float64)
        return flat.reshape(r, c), end
    if tag != _LIST and tag != _MAP:
        raise DecodeError("unknown tag 0x%02x" % tag)
    if depth == MAX_DEPTH:
        raise DecodeError("lists and maps nest deeper than %d levels" % MAX_DEPTH)
    depth += 1
    pos = 0
    if tag == _LIST:
        items = []
        while pos < length:
            v, used = _decode_one(body[pos:], depth)
            items.append(v)
            pos += used
        return items, end
    out = {}
    while pos < length:
        k, used = _decode_one(body[pos:], depth)
        pos += used
        if not isinstance(k, str):
            raise DecodeError("map key is not a string")
        if pos >= length:
            raise DecodeError("map key without value")
        v, used = _decode_one(body[pos:], depth)
        pos += used
        out[k] = v
    return out, end
