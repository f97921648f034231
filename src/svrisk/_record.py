"""Immutable value records, built from closures rather than generated code.

``@frozen`` makes a class an immutable value record over its fields (its
``__slots__``, else its annotations): positional, keyword and default
construction, ``__post_init__`` on every construction, the repr
``Name(field=value, ...)``, equality only within the class, the hash of the
field values, no ordering, copies and pickles, and ``AttributeError`` on
assigning or deleting.  A hot class declares ``__slots__`` and an
``__init__`` that calls ``setfield``; a slot whose name starts with ``_`` is
a cache, not a field, and takes no part in any of these.
"""

from operator import attrgetter

setfield = object.__setattr__


def fields(obj) -> tuple[str, ...] | None:
    """The field names of a record in order; None when ``obj`` is not a record."""
    return getattr(type(obj), "_record_fields", None)


def _frozen_error(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def frozen(cls):
    names = tuple(n for n in cls.__dict__.get("__slots__") or cls.__dict__.get("__annotations__", ())
                  if not n.startswith("_"))
    getter = attrgetter(*names) if names else lambda self: ()
    values = (lambda self: (getter(self),)) if len(names) == 1 else getter
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        for name, value in zip(names, args):
            setfield(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs and name not in defaults:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            setfield(self, name, kwargs.pop(name, defaults.get(name)))
        if kwargs or len(args) > len(names):
            raise TypeError(f"{cls.__name__}() got unexpected arguments")
        if post is not None:
            post(self)

    def __repr__(self):
        items = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    cls.__init__ = cls.__dict__.get("__init__", __init__)
    cls.__repr__, cls.__eq__, cls.__hash__ = __repr__, __eq__, lambda self: hash(values(self))
    cls.__setattr__ = cls.__delattr__ = _frozen_error
    cls.__reduce__ = lambda self: (type(self), values(self))  # copy and pickle
    cls.__match_args__ = cls._record_fields = names
    return cls
