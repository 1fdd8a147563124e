"""Unit tests for hashing."""

from hypothesis import given, strategies as st

from repro.crypto.hashing import hash_bytes, hash_fields


def test_hash_is_deterministic():
    assert hash_fields("a", 1, (2, 3)) == hash_fields("a", 1, (2, 3))


def test_hash_differs_on_content():
    assert hash_fields("a") != hash_fields("b")


def test_hash_differs_on_field_boundaries():
    # Length-prefixing means moving a character across a boundary changes the hash.
    assert hash_fields("ab", "c") != hash_fields("a", "bc")


def test_nested_sequences_are_distinguished():
    assert hash_fields((1, 2), 3) != hash_fields(1, (2, 3))
    assert hash_fields([1, 2]) == hash_fields((1, 2))


def test_digest_is_fixed_width_hex():
    digest = hash_bytes(b"data")
    assert len(digest) == 32
    int(digest, 16)  # parses as hex


@given(st.lists(st.integers(), max_size=8), st.lists(st.integers(), max_size=8))
def test_property_distinct_tuples_distinct_hashes(a, b):
    if a != b:
        assert hash_fields(*a) != hash_fields(*b)
    else:
        assert hash_fields(*a) == hash_fields(*b)


# ----------------------------------------------------------------------
# Pinned encoding
# ----------------------------------------------------------------------
# Block ids and common-coin leader elections are hash_fields digests, so the
# byte encoding must never drift.  These digests were recorded from the
# encoder as it stood before the digest memo was removed; a change to any of
# them changes every fallback leader sequence.
PINNED_PAYLOADS = [
    ((), "cae66941d9efbd404e4d88758ea67670"),
    (("vote", "abcd1234", 7, 3), "76155d3462b7e5f6c89be18c0a98761f"),
    (("block", ("parent", 0), [1, 2, 3], -42), "70e9714bf13b6a1862f318ef35e93103"),
    (("tag", True, None, 3.5), "3c4e73cb89b324fcbfcea71a5d645090"),
    (("nested", (("deep", (1,)), "x")), "67b040a3907ef3126ddb6ba20f395f80"),
]

#: scalar -> (digest of the scalar alone, digest of ``("k", scalar)``).
PINNED_SCALARS = [
    (False, "5d23cc33f8fd2c2fc53d086e35615d8b", "6fc72680d8ad112c46e2024f3ad283d2"),
    (0, "a8543fa12297c811593c5ee73c615b09", "7d1a0b0b6d039978e6dad3a8a90fd3b0"),
    (True, "0cca81393e4c9b895a40abfb863bc8c1", "52d26d2efb52597a61988c63fe5086bd"),
    (1, "ff5af8f73fb03ded2ab6adbf729db231", "37d26a31a71aaf4800ba8817e4627b54"),
    (1.0, "1f24097ae325679c0aa579f976f3b338", "f3d54ee0ac85e3316db1ce253dd61bff"),
    (0.0, "1803b968067410fb65377bd583ccd830", "999d9e3e3c7d09a9e33d6046bd3c09f9"),
]


def test_payload_digests_are_pinned():
    for fields, digest in PINNED_PAYLOADS:
        assert hash_fields(*fields) == digest, fields


def test_scalar_digests_are_pinned():
    for value, alone, nested in PINNED_SCALARS:
        assert hash_fields(value) == alone, value
        assert hash_fields(("k", value)) == nested, value


def test_unhashable_fields_fall_back_to_uncached():
    """Nested lists (unhashable, so once kept out of a digest memo) encode
    exactly like their tuple spelling."""
    digest = hash_fields("k", [1, [2, 3]])
    assert digest == hash_fields("k", (1, (2, 3)))


def test_memo_distinguishes_type_aliased_values():
    """``False == 0`` and ``1 == 1.0`` in Python, but they encode differently
    (regression: a since-removed digest memo once served a cached ``False``
    digest for ``0``)."""
    for a, b in [(False, 0), (True, 1), (1, 1.0), (0.0, False)]:
        assert hash_fields(a) != hash_fields(b)
        # Nested occurrences must be distinguished too.
        assert hash_fields(("k", a)) != hash_fields(("k", b))
