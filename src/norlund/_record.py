"""Record, the frozen value base of the library's value types: a subclass's
fields are its annotations in order, a class attribute of a field's name is
its default, __match_args__ is the field tuple, and the subclass's own
__init__, written once when the class is created, calls __post_init__ where
the class defines one."""


class Record:
    def __init_subclass__(cls) -> None:
        names = tuple(cls.__dict__.get("__annotations__", {}))
        body = [f"_set(self, {n!r}, {n})" for n in names]
        body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
        # _set stores past the refusing __setattr__; a native __init__ binds at half *args' cost.
        source = f"def __init__({', '.join(('self', *names))}): {'; '.join(body) or 'pass'}"
        exec(source, namespace := {"_set": object.__setattr__})
        cls.__init__, cls.__match_args__ = namespace["__init__"], names
        cls.__init__.__defaults__ = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__match_args__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__
