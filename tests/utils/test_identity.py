"""IdentityKey: object identity that survives address reuse."""

import gc

from repro.utils.identity import IdentityKey


class _Thing:
    pass


class TestIdentityKey:
    def test_matches_same_objects_and_values(self):
        a, b = _Thing(), _Thing()
        key = IdentityKey(a, b, values=("numpy", 1.5))
        assert key.matches(a, b, values=("numpy", 1.5))
        assert not key.matches(b, a, values=("numpy", 1.5))
        assert not key.matches(a, b, values=("numba", 1.5))
        assert not key.matches(a, values=("numpy", 1.5))

    def test_does_not_keep_objects_alive(self):
        a = _Thing()
        key = IdentityKey(a)
        del a
        gc.collect()
        assert all(ref() is None for ref in key._refs)

    def test_reused_address_does_not_match(self):
        a = _Thing()
        old_id = id(a)
        key = IdentityKey(a)
        del a
        gc.collect()
        # CPython may hand the freed block to a later object of the same
        # size; whether or not it does, no new object may match
        for _ in range(1000):
            obj = _Thing()
            assert not key.matches(obj)
            if id(obj) == old_id:
                break
