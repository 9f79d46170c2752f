import inspect

import pytest

from fintop import space
from fintop.carrier import _Record, _meet_bits


def replace(obj, **changes):
    """`obj` rebuilt through its constructor, with `changes` in place of the
    fields of the same names (a fault injector for fintop's records).  The
    constructor's parameters name the fields that are read from `obj`: the
    class's ``__slots__``, in order, when it uses the positional
    ``_Record.__init__``, else its signature.  So a cache that is not a
    constructor argument starts empty again, and a change to one raises
    TypeError."""
    cls = type(obj)
    if cls.__init__ is _Record.__init__:
        unknown = sorted(set(changes) - set(cls.__slots__))
        if unknown:
            raise TypeError(f"{cls.__qualname__} has no fields {unknown}")
        return cls(*(changes.get(name, getattr(obj, name)) for name in cls.__slots__))
    fields = {name: getattr(obj, name) for name in inspect.signature(cls).parameters}
    return cls(**{**fields, **changes})


def _point_meets(n, masks):
    """U_p for every point p, met point by point: the intersection of the
    members containing p (the carrier when none does).  The reference for
    ``space._column_preorder``, which computes the same U_p for fintop."""
    full = (1 << n) - 1
    return [_meet_bits(masks, 1 << p, full) for p in range(n)]


@pytest.fixture
def sierpinski():
    # opens {∅, {1}, {0,1}}
    return space(2, [0b00, 0b10, 0b11])


@pytest.fixture
def mirror_sierpinski():
    # opens {∅, {0}, {0,1}}
    return space(2, [0b00, 0b01, 0b11])


@pytest.fixture
def three_point():
    # opens {∅, {0}, {0,1}, {0,1,2}} — a nested (chain) topology on 3 points
    return space(3, [0b000, 0b001, 0b011, 0b111])
