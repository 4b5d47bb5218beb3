"""Cache keys that name objects by identity without keeping them alive.

``id(obj)`` is only an identity while ``obj`` lives: once it is freed,
CPython may hand the same address to the next allocation, and a cache
keyed on ``id(nlist)`` then hits for a brand-new neighbor list.
:class:`IdentityKey` holds weak references instead, the way
:mod:`repro.kernels.lowering` tracks potentials.
"""

from __future__ import annotations

import weakref


class IdentityKey:
    """The identity of some objects plus some plain values.

    :meth:`matches` is True only while every remembered object is alive
    and is the very object passed in, and the values compare equal.
    """

    __slots__ = ("_refs", "_values")

    def __init__(self, *objects: object, values: tuple = ()) -> None:
        self._refs = tuple(weakref.ref(obj) for obj in objects)
        self._values = tuple(values)

    def matches(self, *objects: object, values: tuple = ()) -> bool:
        """Same live objects (by identity) and equal values?"""
        return (
            len(objects) == len(self._refs)
            and all(ref() is obj for ref, obj in zip(self._refs, objects))
            and self._values == tuple(values)
        )
