"""The one typed reader of JSON fields, shared by every boundary.

The model schemas, ledger rows, progress events, protocol frames, served
model options and corpus files check each field against its annotation
here, so a value of the wrong JSON type is refused, never coerced
(``int(16.5)`` truncates, ``"false"`` is truthy). :data:`_KINDS` is the
only table of field kinds: exact JSON types (a bool is no ``int``;
``float`` is any non-bool number), composed into ``List[X]``,
``Dict[str, X]`` and ``Optional[X]``; ``Any`` is unchecked. Every
refusal reads ``<field> must be <kind>, got <value>``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

#: Annotation -> the exact types of its JSON values, and its kind.
_KINDS: Dict[Any, Tuple[Tuple[type, ...], str]] = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "a boolean"),
    str: ((str,), "a string"),
    list: ((list,), "a list"),
    dict: ((dict,), "an object"),
}

#: A value predicate; ``None`` means unchecked.
Check = Optional[Callable[[Any], bool]]


@functools.lru_cache(maxsize=None)
def kind_of(hint: Any) -> Tuple[Check, str]:
    """The predicate of annotation ``hint`` and the kind a refusal names;
    a hint outside the grammar above is a :class:`TypeError`."""
    if hint is Any:
        return None, "anything"
    if hint in _KINDS:
        types, kind = _KINDS[hint]
        return (lambda value: type(value) in types), kind
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and len(args) == 2 and args[1] is type(None):
        check, kind = kind_of(args[0])
        return check and (lambda value: value is None or check(value)), f"{kind} or null"
    if origin in (list, dict) and args:
        check, kind = kind_of(args[-1])
        if check is None:
            return kind_of(origin)
        items = iter if origin is list else dict.values
        return (
            lambda value: type(value) is origin and all(map(check, items(value)))
        ), f"{_KINDS[origin][1]} of {_plural(kind)}"
    raise TypeError(f"no JSON kind for annotation {hint!r}")


def _plural(kind: str) -> str:
    """``"a list of numbers"`` -> ``"lists of numbers"``."""
    noun, __, rest = kind.split(" ", 1)[1].partition(" ")
    return f"{noun}s {rest}".rstrip()


def _refusal(field: str, kind: str, value: Any) -> str:
    return f"{field} must be {kind}, got {value!r:.40}"


def expect(value: Any, hint: type, field: str, key: Any = None) -> Any:
    """``value`` if it reads as ``hint``, a key of :data:`_KINDS`, else
    :class:`TypeError` naming ``field`` (``field[key]`` for an entry). An
    int read as a ``float`` comes back a float: fingerprints tell them apart."""
    if type(value) is hint:
        return value
    types, kind = _KINDS[hint]
    if type(value) in types:  # an int where a float belongs
        return float(value)
    raise TypeError(_refusal(field if key is None else f"{field}[{key}]", kind, value))


def check_known(what: str, keys: Iterable, allowed: Sequence[str]) -> None:
    """:class:`ValueError` naming the first of ``keys`` not in ``allowed``:
    a misspelled field must not read as its default."""
    for key in keys:
        if key not in allowed:
            raise ValueError(f"unknown {what} {key!r}; expected one of {list(allowed)}")


@functools.lru_cache(maxsize=None)
def fields_of(cls: type) -> Tuple[Tuple[str, Check, str, bool], ...]:
    """``(name, check, kind, required)`` per field of dataclass ``cls``;
    its type hints are resolved once per class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, *kind_of(hints[f.name]), f.default is dataclasses.MISSING is f.default_factory)
        for f in dataclasses.fields(cls)
    )


def read_fields(cls: type, data: Dict[str, Any], error: type) -> Any:
    """An instance of dataclass ``cls`` read from the JSON object ``data``.

    A key that is not a field is ignored. A missing field takes its
    default, and so does a null one that has a default. A present field
    that does not read as its annotation, a null required field that is
    not ``Optional`` and a missing required field raise ``error``.
    """
    kwargs = {}
    for name, check, kind, required in fields_of(cls):
        value = data.get(name)
        if value is None and (not required or name not in data):
            continue
        if check is not None and not check(value):
            raise error(_refusal(f"field {name!r}", kind, value))
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:  # a required field is missing
        raise error(str(exc)) from None


__all__ = ["check_known", "expect", "fields_of", "kind_of", "read_fields"]
