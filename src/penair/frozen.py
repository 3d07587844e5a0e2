"""The frozen base of penair's value classes. Unlike ``dataclasses``, which
imports ``inspect`` and with it ``ast``, ``dis`` and ``tokenize``, it costs
a command nothing to import beyond its own definition."""


class Frozen:
    """An immutable record whose fields are its class's annotations, in order.

    As with ``@dataclass(frozen=True)``, a default is a class attribute, and
    a subclass that defines no ``__init__`` gets one that takes the fields by
    position or keyword and then calls ``__post_init__`` where the class
    defines one (which may replace a value with ``object.__setattr__``).
    Equality, the hash and the repr are the fields', and an instance equals
    only an instance of its own class. Assigning or deleting any attribute
    raises AttributeError. ``__dict__`` holds exactly the fields, in order,
    so pickle and copy need no help.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        if "__init__" not in vars(cls):
            cls.__init__ = _init(cls)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _init(cls):
    # compiled per class, as namedtuple compiles its __new__: Python binds the
    # arguments and names a missing or unexpected one, and the instance dict
    # is built in one step rather than by one setattr per field
    params = ", ".join(f"{f}=_cls.{f}" if f in vars(cls) else f for f in cls._fields)
    fields = ", ".join(f"{f!r}: {f}" for f in cls._fields)
    source = f"def __init__(self, {params}):\n    _set(self, '__dict__', {{{fields}}})\n"
    if hasattr(cls, "__post_init__"):
        source += "    self.__post_init__()\n"
    namespace = {"_set": object.__setattr__, "_cls": cls}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
