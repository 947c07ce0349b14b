"""The replica-state digest is canonical: equal states give equal digests
whatever the dict order, and no two field layouts collide by construction."""

from crossword.protocol import state_hash


def test_digest_ignores_insertion_order():
    a = {"x": b"1", "y": b"22", "z": b""}
    b = {"z": b"", "y": b"22", "x": b"1"}
    assert state_hash(a, 3, 2) == state_hash(b, 3, 2)


def test_fields_are_length_prefixed():
    assert state_hash({"a": b"bc"}, 0, 0) != state_hash({"ab": b"c"}, 0, 0)
    assert state_hash({}, 0, 0) != state_hash({"": b""}, 0, 0)


def test_indices_change_the_digest():
    kv = {"k": b"v"}
    base = state_hash(kv, 5, 4)
    assert state_hash(kv, 6, 4) != base
    assert state_hash(kv, 5, 5) != base
    assert state_hash(kv, 4, 5) != base
    assert 0 <= base < 2**64
