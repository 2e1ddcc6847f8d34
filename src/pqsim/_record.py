"""Frozen record classes built without generated code: the part of
``dataclasses`` that pqsim's value and report classes use.

``@record`` takes a class's own annotations, in order, as its fields and
gives it ``__init__`` (positional or keyword arguments, then
``__post_init__`` if the class has one), a ``__setattr__`` and
``__delattr__`` that raise ``dataclasses.FrozenInstanceError``, and
``__eq__``/``__hash__`` over the compared fields and the dataclass
``__repr__`` text unless ``eq=False`` or ``repr=False``.  ``field`` gives a
field a default, a default factory, or leaves it out of comparison or repr;
``replace`` copies a record with some fields changed, through
``__init__``.

``dataclasses`` compiles about six methods per class with ``exec``; these
are closures, so importing pqsim compiles nothing for its records and does
not import ``dataclasses``.  Each class gets its own ``__init__`` function
object, so wrapping ``cls.__dict__["__init__"]`` wraps that class alone.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()
_set = object.__setattr__


class _Field:
    __slots__ = ("default", "default_factory", "compare", "repr")

    def __init__(self, default, default_factory, compare, repr):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def field(*, default=_MISSING, default_factory=None, compare: bool = True,
          repr: bool = True) -> _Field:
    """A field's default or default factory, and whether ``__eq__``,
    ``__hash__`` and ``__repr__`` read it."""
    return _Field(default, default_factory, compare, repr)


def record(cls=None, /, *, eq: bool = True, repr: bool = True):
    """Make ``cls`` a frozen record, as ``@dataclass(frozen=True, eq=eq,
    repr=repr)`` would; usable bare or with arguments."""
    if cls is None:
        return lambda cls: _make_record(cls, eq, repr)
    return _make_record(cls, eq, repr)


def replace(obj, /, **changes):
    """A new record of ``obj``'s class with ``changes`` applied; its
    ``__init__`` and ``__post_init__`` run again."""
    return type(obj)(**({name: getattr(obj, name) for name in obj._record_fields} | changes))


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _make_record(cls, eq: bool, show: bool):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    specs = {}
    for name in names:
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, _Field):
            spec = _Field(spec, None, True, True)
        specs[name] = spec
        # the class attribute is the plain default, as a dataclass leaves it
        if spec.default is not _MISSING:
            setattr(cls, name, spec.default)
        elif name in cls.__dict__:
            delattr(cls, name)
    defaults = {name: spec for name, spec in specs.items()
                if spec.default is not _MISSING or spec.default_factory is not None}
    where = f"{cls.__qualname__}.__init__()"
    count = len(names)
    has_post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        """All field values in order from a call that is not one positional
        argument per field, with a dataclass ``__init__``'s TypeErrors."""
        if len(args) > count:
            raise TypeError(f"{where} takes {count + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        values, missing = list(args), []
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                spec = defaults[name]
                values.append(spec.default if spec.default_factory is None
                              else spec.default_factory())
            else:
                missing.append(name)
        for name in kwargs:
            problem = "multiple values for argument" if name in names else \
                "an unexpected keyword argument"
            raise TypeError(f"{where} got {problem} {name!r}")
        if missing:
            raise TypeError(f"{where} missing {len(missing)} required argument(s): "
                            + ", ".join(map(repr, missing)))
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        # set field by field: on CPython 3.11, building the instance's
        # __dict__ instead makes every later attribute read about 4x slower
        for name, value in zip(names, args):
            _set(self, name, value)
        if has_post_init:
            self.__post_init__()

    methods = [__init__]
    if eq:
        compared = [name for name in names if specs[name].compare]
        key = get = attrgetter(*compared)
        if len(compared) == 1:  # a dataclass compares and hashes a 1-tuple
            def key(self):
                return (get(self),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        methods += [__eq__, __hash__]
    if show:
        shown = [name for name in names if specs[name].repr]

        def __repr__(self):
            body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
            return f"{self.__class__.__qualname__}({body})"

        methods.append(__repr__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls._record_fields = names
    return cls
