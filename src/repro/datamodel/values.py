"""Values that may appear in database facts: constants and labeled nulls.

The data-exchange literature distinguishes *constants* (ordinary data
values from the active domain) from *labeled nulls* (placeholders invented
by the chase for existentially quantified variables).  Homomorphisms may
map labeled nulls to any value but must fix constants.

Both kinds are interned: constructing a value returns the one live object
for its key, so equality is identity and ``__eq__``/``__hash__`` are
``object``'s C defaults.  Every ``Fact`` hash, match-index probe and dict
lookup on values therefore runs in C.  Each class keeps its own table, a
``weakref.WeakValueDictionary``, so a value lives only as long as
something outside the table refers to it.  A value that is dropped and
made again is a new object; nothing may depend on which object (or which
address, hence which set order) it got.  Pickling, ``copy`` and
``deepcopy`` go back through the constructor and so re-intern.
Construction is thread-safe: a miss re-checks the table under a lock
before it adds an object, so two threads never make two objects for one
key.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Union

#: ``(type(value), value)`` -> the live ``Constant`` for it.
_constants: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
#: label -> the live ``LabeledNull`` for it.
_nulls: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
#: Serializes table misses (a hit never takes it).
_miss_lock = threading.Lock()


class Constant:
    """An ordinary data value.  Homomorphisms map constants to themselves.

    Constants are interned by ``(type(value), value)``: ``Constant("a") is
    Constant("a")``, while ``Constant(1)``, ``Constant(1.0)`` and
    ``Constant(True)`` are three distinct constants even though their
    payloads compare equal.  Instances are immutable.
    """

    __slots__ = ("value", "__weakref__")

    value: object

    def __new__(cls, value: object) -> Constant:
        key = (type(value), value)
        interned = _constants.get(key)
        if interned is None:
            with _miss_lock:
                interned = _constants.get(key)
                if interned is None:
                    interned = object.__new__(cls)
                    object.__setattr__(interned, "value", value)
                    _constants[key] = interned
        return interned

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Constant is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Constant is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Constant, (self.value,))

    def __repr__(self) -> str:
        return f"{self.value}"


class LabeledNull:
    """A labeled null introduced by the chase for an existential variable.

    Nulls are interned by label: ``LabeledNull(3) is LabeledNull(3)``, so
    two nulls with the same label are the same null.  Homomorphisms may
    map a null to a constant or to another null.  Instances are immutable.
    """

    __slots__ = ("label", "__weakref__")

    label: int

    def __new__(cls, label: int) -> LabeledNull:
        interned = _nulls.get(label)
        if interned is None:
            with _miss_lock:
                interned = _nulls.get(label)
                if interned is None:
                    interned = object.__new__(cls)
                    object.__setattr__(interned, "label", label)
                    _nulls[label] = interned
        return interned

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"LabeledNull is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"LabeledNull is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (LabeledNull, (self.label,))

    def __repr__(self) -> str:
        return f"N{self.label}"


Value = Union[Constant, LabeledNull]


def is_null(value: Value) -> bool:
    """Return True iff *value* is a labeled null."""
    return isinstance(value, LabeledNull)


class NullFactory:
    """Generates fresh labeled nulls with unique, monotonically rising labels.

    A single factory is threaded through a chase run so that nulls created
    for different tgd firings never collide.
    """

    def __init__(self, start: int = 0):
        self._counter = itertools.count(start)

    def fresh(self) -> LabeledNull:
        """Return a labeled null never produced by this factory before."""
        return LabeledNull(next(self._counter))
