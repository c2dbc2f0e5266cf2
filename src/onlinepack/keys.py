"""Keyed, replayable randomness.

Every stochastic quantity in the library is derived from a structured draw
key: a tuple of ints, strings, and byte strings such as
``(master_seed, "traj", k, prefix_key, j)``.  The key is hashed into a
16-byte blake2b digest, so the same key always yields the same values
regardless of call order.  Hot paths (tree draws, rounding, generative
rows) expand the digest into U[0,1) words with ``uniform`` and
``uniforms``, which equal the first values of the reference
``UniformStream``; cold paths that want the numpy Generator API seed a
counter-based Philox generator with it (``generator``).  This makes every
sampling decision a pure function of its key, which is what lets the
on-demand recursion and the full-sweep reference method share randomness
exactly.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

KeyPart = int | str | bytes

_INV_2_53 = 2.0 ** -53
_blake2b = hashlib.blake2b
_len4 = struct.Struct("<I").pack
_word = struct.Struct("<Q").unpack_from
_pack_counter = struct.Struct("<Q").pack
_BLOCK0 = (0).to_bytes(8, "little")


def _subclass_part(part) -> bytes:
    """Serialization of a part whose type subclasses int, str or bytes."""
    if isinstance(part, bool):
        raise TypeError("bool key parts are ambiguous; use int")
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True)
    if isinstance(part, str):
        raw = part.encode("utf-8")
        return b"s" + _len4(len(raw)) + raw
    if isinstance(part, bytes):
        return b"b" + _len4(len(part)) + part
    raise TypeError(f"unsupported key part type: {type(part)!r}")


def key_digest(*parts: KeyPart) -> bytes:
    """16-byte digest of a structured draw key. Ints, strings, and bytes only.

    Each part is tagged and, where its length varies, length-prefixed:
    ``i`` + 16-byte signed little-endian int, ``s`` + 4-byte length + UTF-8,
    ``b`` + 4-byte length + raw bytes.  The parts are concatenated and
    hashed in one call.
    """
    buf = b""
    for part in parts:
        tp = type(part)
        if tp is bytes:
            buf += b"b" + _len4(len(part)) + part
        elif tp is int:
            buf += b"i" + part.to_bytes(16, "little", signed=True)
        elif tp is str:
            raw = part.encode("utf-8")
            buf += b"s" + _len4(len(raw)) + raw
        else:
            buf += _subclass_part(part)
    return _blake2b(buf, digest_size=16).digest()


def generator(*parts: KeyPart) -> np.random.Generator:
    """Counter-based generator seeded purely by the draw key.

    Convenient for cold paths that want the full numpy Generator API
    (choice, permutation); construction costs tens of microseconds, so hot
    paths use ``uniform`` and ``uniforms`` instead.
    """
    digest = key_digest(*parts)
    words = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=words))


class UniformStream:
    """Cheap counter-expanded U[0,1) stream from a draw key.

    Each 32-byte block is blake2b(digest || block_counter) and yields four
    53-bit uniforms, so the stream is a pure function of the key with no
    generator-construction overhead.
    """

    __slots__ = ("digest", "_block", "_pos", "_counter")

    def __init__(self, *parts: KeyPart):
        self.digest = key_digest(*parts)
        self._block: tuple[int, ...] = ()
        self._pos = 0
        self._counter = 0

    def next(self) -> float:
        if self._pos >= len(self._block):
            h = hashlib.blake2b(
                self.digest + self._counter.to_bytes(8, "little"),
                digest_size=32)
            words = struct.unpack("<4Q", h.digest())
            self._block = tuple(w >> 11 for w in words)
            self._pos = 0
            self._counter += 1
        v = self._block[self._pos]
        self._pos += 1
        return v * _INV_2_53


def uniform(*parts: KeyPart) -> float:
    """One U[0,1) variate as a pure function of the draw key.

    Equal to ``UniformStream(*parts).next()``: the first word of block 0.
    """
    block = _blake2b(key_digest(*parts) + _BLOCK0, digest_size=32).digest()
    return (_word(block)[0] >> 11) * _INV_2_53


def uniforms(n: int, *parts: KeyPart) -> list[float]:
    """The first n values of ``UniformStream(*parts).next()``, in one call."""
    blocks = (n + 3) // 4
    # block c hashes digest || c as 8 little-endian bytes; the digest's part
    # of the state is shared
    seeded = _blake2b(key_digest(*parts), digest_size=32)
    raw = []
    for c in range(blocks):
        h = seeded.copy()
        h.update(_pack_counter(c))
        raw.append(h.digest())
    words = struct.unpack(f"<{4 * blocks}Q", b"".join(raw))
    return [(w >> 11) * _INV_2_53 for w in words[:n]]
