"""Structural checks for JSON decoded from outside the program.

A schema is matched against decoded JSON as follows:

- a dict: an object that has at least these keys, each value matching;
- a list of one schema: an array whose items all match it;
- a list of several schemas: an array of exactly that many items, matched
  position by position;
- a tuple: any one of its alternatives;
- a range: an integer in it;
- a type: an instance of it (a bool is not an int);
- any other value: that value itself.
"""

from __future__ import annotations

import json


def check(data, schema, path: str = "$") -> None:
    """Raise ValueError naming the key path of the first mismatch."""
    if isinstance(schema, dict):
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected an object, got {_kind(data)}")
        for key, sub in schema.items():
            if key not in data:
                raise ValueError(f"{path}.{key}: missing key")
            check(data[key], sub, f"{path}.{key}")
    elif isinstance(schema, list):
        if not isinstance(data, list):
            raise ValueError(f"{path}: expected an array, got {_kind(data)}")
        if len(schema) > 1 and len(data) != len(schema):
            raise ValueError(f"{path}: expected {len(schema)} items, got {len(data)}")
        for k, item in enumerate(data):
            check(item, schema[k] if len(schema) > 1 else schema[0], f"{path}[{k}]")
    elif not _fits(data, schema):
        raise ValueError(f"{path}: expected {_describe(schema)}, got {_kind(data)}")


def _fits(data, schema) -> bool:
    if isinstance(schema, tuple):
        return any(_fits(data, alt) for alt in schema)
    if isinstance(schema, (dict, list)):
        try:
            check(data, schema)
        except ValueError:
            return False
        return True
    if isinstance(schema, range):
        return _fits(data, int) and data in schema
    if isinstance(schema, type):
        return isinstance(data, schema) and not (isinstance(data, bool) and schema is not bool)
    return type(data) is type(schema) and data == schema


def _describe(schema) -> str:
    if isinstance(schema, tuple):
        return " or ".join(_describe(alt) for alt in schema)
    if isinstance(schema, dict):
        return "an object with keys " + ", ".join(map(json.dumps, schema))
    if isinstance(schema, list):
        return "an array"
    if isinstance(schema, range):
        return f"an integer in [{schema.start}, {schema.stop})"
    if isinstance(schema, type):
        return _TYPE_NAMES.get(schema, schema.__name__)
    return json.dumps(schema)


_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _kind(data) -> str:
    if isinstance(data, (dict, list)):
        return _TYPE_NAMES[type(data)]
    return json.dumps(data)
