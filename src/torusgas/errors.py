"""Error types, config readers and the JSON writer shared across the package.

The CLI maps ConfigError to exit code 2 and InvariantViolation to exit
code 1; everything else is a plain bug.  The readers of parsed user input
raise ConfigError naming the key.  `write_json` writes every JSON file of
the package; it lives here, where every writer can import it.
"""

import json
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Bad user input: malformed config, invalid kernel, wrong grid shapes."""


class InvariantViolation(RuntimeError):
    """A runtime check that should hold by construction failed."""


def require(mapping, key: str, where: str):
    """mapping[key] from parsed user input, as a ConfigError when absent."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def as_number(kind, value, key: str):
    """kind(value), with kind int or float, from parsed user input; a value
    that does not convert is a ConfigError naming `key`.  A boolean is no
    number, an integer must be integral (2, 2.0 or "2", not 2.7), so
    nothing is truncated, and a float must be finite (JSON readers accept
    NaN and Infinity)."""
    try:
        if isinstance(value, bool) or (kind is int and not isinstance(value, str)
                                       and value != int(value)):
            raise ValueError
        number = kind(value)
        if kind is float and not np.isfinite(number):
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None


def as_list(values, key: str) -> list:
    """A list (or tuple) from parsed user input, as a ConfigError naming `key` otherwise."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    return values


def as_numbers(kind, values, key: str) -> list:
    """A config list converted entry by entry with `as_number`."""
    return [as_number(kind, v, f"{key} entry") for v in as_list(values, key)]


def as_string(value, key: str) -> str:
    """A string from parsed user input; anything else is a ConfigError naming `key`."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _plain(data):
    """`data` with non-string dict keys as repr(float(key)), tuples as lists,
    and numpy arrays and scalars as Python lists and numbers."""
    if isinstance(data, dict):
        return {key if isinstance(key, str) else repr(float(key)): _plain(value)
                for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_plain(item) for item in data]
    if isinstance(data, (np.ndarray, np.generic)):
        return data.tolist()
    return data


def write_json(path, data):
    """A JSON output file: `data` made plain, indent 1, keys sorted as strings."""
    Path(path).write_text(json.dumps(_plain(data), indent=1, sort_keys=True))
