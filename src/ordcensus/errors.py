"""Exception types, and the checked-record base, shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ResourceGuardError(RuntimeError):
    """A feasibility guard was exceeded (enumeration would be too large)."""


class InvariantViolation(RuntimeError):
    """Two independent computations of the same quantity disagree.

    This always indicates a bug somewhere, never bad user input, so it is
    kept distinct from DomainError.
    """


class Checked(tuple):
    """Base of a record ``R(Checked, namedtuple(...))`` whose ``_check(self)``
    raises on bad fields: construction, ``_make``, ``_replace``, pickle and
    copy all build through this ``__new__``, so each runs the checks once."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))
