"""Immutable records: what ``ppp`` used of ``@dataclass(frozen=True)``.

One shared ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` read the
field names from the class, so no method is generated and compiled per
class, and no ``dataclasses`` (and with it ``inspect``) loads at start-up.
"""

_set = object.__setattr__


class Record:
    """Base of a frozen record.

    The fields are the subclass's own annotated names, in order; a class
    attribute of the same name is that field's default.  ``__init__`` binds
    positional and keyword arguments to the fields, then calls
    ``__post_init__``.  Fields cannot be assigned or deleted.  Records are
    equal, and hash alike, when they are of the same class and their field
    tuples are equal.  ``replace`` builds a changed copy through
    ``__init__``, so its checks run again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)  # a write to __dict__ would slow every later read
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in given:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
        values = {**cls._defaults, **given, **kwargs}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required argument(s): {', '.join(missing)}")
        return [values[f] for f in fields]

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={_shown(v)}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({shown})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked as a new record is."""
        return self.__class__(**{**dict(zip(self._fields, self._values())), **changes})


def _shown(v) -> str:
    """``repr(v)``, with ints and Fractions, also inside tuples, written by
    ``decimal_text``."""
    from fractions import Fraction
    from .transforms import decimal_text  # transforms imports this module
    if type(v) is tuple:
        return f"({', '.join(map(_shown, v))}{',' if len(v) == 1 else ''})"
    if type(v) is Fraction:
        return f"Fraction({decimal_text(v.numerator)}, {decimal_text(v.denominator)})"
    return decimal_text(v) if type(v) is int else repr(v)
