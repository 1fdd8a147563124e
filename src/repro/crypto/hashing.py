"""Collision-resistant hashing for block identifiers.

We use BLAKE2b (from :mod:`hashlib`) truncated to 16 bytes, rendered as hex.
The paper's H(.) maps arbitrary input to a fixed-size digest; 128 bits is
ample for simulation-scale collision resistance while keeping identifiers
readable in traces.

Performance: :func:`hash_fields` is the single hottest crypto primitive in
the simulator — every signature tag, threshold-share tag, block id and coin
value goes through it.  A **fast stable encoder** (:func:`_encode_into`)
dispatches on the concrete field type instead of calling ``repr`` through
the generic protocol for every field.  The byte encoding is *identical* to
the historical ``repr``-based one, so digests — and therefore block ids and
common-coin leader elections — are stable across versions
(``tests/crypto/test_hashing.py`` pins them).  There is no digest memo:
encoding and hashing directly costs less than an average lookup with a key
that keeps ``False`` and ``0`` apart, and a process-wide memo keeps every
digest alive (``docs/PERFORMANCE.md``).  Blocks and certificates cache
their own digests in a ``cached_property``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

#: Modeled wire size of a digest, in bytes (we model a 32-byte digest on the
#: wire even though the in-memory hex id is truncated for readability).
DIGEST_WIRE_SIZE = 32

Digest = str

_blake2b = hashlib.blake2b


def hash_bytes(data: bytes) -> Digest:
    """Hash raw bytes to a hex digest."""
    return _blake2b(data, digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Field encoding
# ----------------------------------------------------------------------
# Sequence markers, pre-encoded.  They delimit (possibly nested) tuples and
# lists so that hash_fields((1, 2), 3) != hash_fields(1, (2, 3)).
_SEQ_OPEN = (len(b"'<seq>'")).to_bytes(8, "big") + b"'<seq>'"
_SEQ_CLOSE = (len(b"'</seq>'")).to_bytes(8, "big") + b"'</seq>'"


def _encode_into(parts: bytearray, fields: Iterable[object]) -> None:
    """Append the length-prefixed encoding of ``fields`` to ``parts``.

    The per-field bytes match ``repr(field).encode("utf-8")`` exactly (ints
    take a fast path that is byte-identical), so digests are stable against
    the original generic encoder.
    """
    for field in fields:
        kind = type(field)
        if kind is int:
            encoded = b"%d" % field
        elif kind is str:
            encoded = repr(field).encode("utf-8")
        elif kind is tuple or kind is list:
            parts += _SEQ_OPEN
            _encode_into(parts, field)
            parts += _SEQ_CLOSE
            continue
        else:
            encoded = repr(field).encode("utf-8")
        parts += len(encoded).to_bytes(8, "big")
        parts += encoded


def hash_fields(*fields: object) -> Digest:
    """Hash a tuple of simple fields (ints, strings, digests, tuples).

    Fields are rendered with an unambiguous length-prefixed encoding so that
    ``hash_fields("ab", "c") != hash_fields("a", "bc")``.
    """
    parts = bytearray()
    _encode_into(parts, fields)
    return _blake2b(bytes(parts), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# perfbench compatibility shims
# ----------------------------------------------------------------------
# ``perfbench/`` imports these three names from the days of a process-wide
# digest memo.  They exist only for perfbench and go in its next change.


def hash_fields_uncached(*fields: object) -> Digest:
    """Same digest as :func:`hash_fields`; kept only for perfbench.

    A function of its own, not an alias: the tracer wraps functions by
    identity, so an alias would nest two spans around every hash.
    """
    return hash_fields(*fields)


def clear_hash_cache() -> None:
    """No-op; kept only for perfbench (there is no digest memo)."""


def hash_cache_size() -> int:
    """Always 0; kept only for perfbench (there is no digest memo)."""
    return 0
