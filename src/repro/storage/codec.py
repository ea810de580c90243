"""The storage value codec: one canonical tagged binary encoding.

Backends must agree *exactly* on what survives a round trip, or flipping
``REPRO_STORAGE`` would change simulation behavior.  So both backends
store the bytes this module produces and decode them the same way:
tuples come back as lists, dict keys as ``str``, bytes as ``bytes``.

Every value is one tag byte followed by its body (big-endian)::

    0x00 None          0x03 int    u32 length, two's-complement bytes
    0x01 True          0x04 float  8-byte IEEE 754 double
    0x02 False         0x05 str    u32 length, UTF-8 bytes
                       0x06 bytes  u32 length, raw bytes
                       0x07 list   u32 count, then each item
                       0x08 dict   u32 count, then per pair the key
                                   (u32 length, UTF-8) and the value

Lists and tuples both encode as list.  Dict keys are coerced with
``str()`` and written in sorted order, so equal values always encode to
equal bytes, whatever their dict insertion order.  Journal records
carry AJOs and Uspace files as raw byte strings, which pass through
with one copy and no text escaping.

The socket codec in :mod:`repro.net.wire` is deliberately separate: it
keeps tuples, non-string keys and insertion order, and adds
Request/Reply tags that storage never holds.

:func:`decode_value` raises only
:class:`~repro.storage.errors.StorageCorruptError` on malformed input
(truncation, an unknown tag, invalid UTF-8, trailing bytes);
:func:`encode_value` raises :class:`TypeError` on an unsupported type.
"""

from __future__ import annotations

import struct

from repro.storage.errors import StorageCorruptError

__all__ = ["encode_value", "decode_value"]

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_DICT = 0x08

_NONE = bytes([_T_NONE])
_TRUE = bytes([_T_TRUE])
_FALSE = bytes([_T_FALSE])

#: Tag byte plus u32 length/count: the header of every sized value.
_HEAD = struct.Struct(">BI")
_FLOAT = struct.Struct(">Bd")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


def encode_value(value: object) -> bytes:
    """Canonical byte encoding of a plain value."""
    out: list[bytes] = []
    _encode(value, out)
    return b"".join(out)


def _encode(value: object, out: list[bytes]) -> None:
    if isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_HEAD.pack(_T_STR, len(raw)))
        out.append(raw)
    elif isinstance(value, dict):
        if not all(type(key) is str for key in value):
            value = {str(key): item for key, item in value.items()}
        out.append(_HEAD.pack(_T_DICT, len(value)))
        for key in sorted(value):
            raw = key.encode("utf-8")
            out.append(_U32.pack(len(raw)))
            out.append(raw)
            _encode(value[key], out)
    elif value is None:
        out.append(_NONE)
    elif value is True:
        out.append(_TRUE)
    elif value is False:
        out.append(_FALSE)
    elif isinstance(value, int):
        raw = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
        out.append(_HEAD.pack(_T_INT, len(raw)))
        out.append(raw)
    elif isinstance(value, float):
        out.append(_FLOAT.pack(_T_FLOAT, value))
    elif isinstance(value, (bytes, bytearray)):
        out.append(_HEAD.pack(_T_BYTES, len(value)))
        out.append(bytes(value))
    elif isinstance(value, (list, tuple)):
        out.append(_HEAD.pack(_T_LIST, len(value)))
        for item in value:
            _encode(item, out)
    else:
        raise TypeError(
            f"storage values must be plain data (None/bool/int/float/str/"
            f"bytes/list/tuple/dict); got {type(value).__name__}"
        )


def decode_value(data: bytes) -> object:
    """Invert :func:`encode_value`; malformed input is ``storage.corrupt``."""
    try:
        value, end = _decode(data, 0)
    except (IndexError, struct.error, UnicodeDecodeError, RecursionError) as exc:
        raise StorageCorruptError(f"corrupt storage value: {exc}") from None
    if end != len(data):
        raise StorageCorruptError(
            f"corrupt storage value: {len(data) - end} trailing bytes"
        )
    return value


def _span(data: bytes, pos: int) -> tuple[int, int]:
    """Read a u32 length at ``pos``; return the body's ``(start, end)``."""
    start = pos + 4
    end = start + _U32.unpack_from(data, pos)[0]
    if end > len(data):
        raise StorageCorruptError("corrupt storage value: truncated body")
    return start, end


def _decode(data: bytes, pos: int) -> tuple[object, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_STR:
        start, end = _span(data, pos)
        return data[start:end].decode("utf-8"), end
    if tag == _T_DICT:
        count = _U32.unpack_from(data, pos)[0]
        pos += 4
        out: dict[str, object] = {}
        for _ in range(count):
            start, end = _span(data, pos)
            key = data[start:end].decode("utf-8")
            out[key], pos = _decode(data, end)
        return out, pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        start, end = _span(data, pos)
        return int.from_bytes(data[start:end], "big", signed=True), end
    if tag == _T_FLOAT:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == _T_BYTES:
        start, end = _span(data, pos)
        return data[start:end], end
    if tag == _T_LIST:
        count = _U32.unpack_from(data, pos)[0]
        pos += 4
        items: list[object] = []
        for _ in range(count):
            item, pos = _decode(data, pos)
            items.append(item)
        return items, pos
    raise StorageCorruptError(f"corrupt storage value: unknown tag 0x{tag:02x}")
