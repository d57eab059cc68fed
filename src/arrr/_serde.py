"""Internal CSV, JSON and float serialization helpers shared across modules.

All floats are written with 17 significant digits so that round-trips
through text are exact for IEEE doubles. JSON is read here too: configs and
model meta.json through `read_json`, each value through `_get`'s type check.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from typing import Any, Dict, Sequence

import numpy as np

FLOAT_FMT = "%.17g"


def fmt_float(x: float) -> str:
    return FLOAT_FMT % float(x)


_BLOCK = 2048   # elements formatted per step, which bounds the temporaries


def write_matrix_csv(path, a: np.ndarray) -> None:
    """Write a matrix as CSV, each float as `FLOAT_FMT % x`, byte for byte.

    Blocks of about _BLOCK elements are formatted at once by
    `_fmt17.format_block`; a row holding an element it cannot certify is
    written by FLOAT_FMT."""
    # imported here: a command that writes no matrix does not compile it
    from ._fmt17 import format_block
    a = np.atleast_2d(np.asarray(a, dtype=float))
    line = ",".join([FLOAT_FMT] * a.shape[1]) + "\n"
    step = max(1, _BLOCK // max(1, a.shape[1]))
    with open(path, "wb") as f:
        if a.shape[1] == 0:
            f.write(b"\n" * a.shape[0])
            return
        for i in range(0, a.shape[0], step):
            block = a[i:i + step]
            out, row_ok = format_block(block)
            if row_ok.all():
                f.write(out.tobytes().translate(None, b"\0"))
                continue
            for row, field, good in zip(block, out, row_ok):
                f.write(field.tobytes().translate(None, b"\0") if good
                        else (line % tuple(row.tolist())).encode())


def read_matrix_csv(path) -> np.ndarray:
    """The matrix in a CSV file; ValueError, naming the file, when it holds
    no data, a row of another length or a cell that is not a number."""
    with warnings.catch_warnings():
        # reported below by file name, not by numpy's UserWarning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
        except ValueError as e:
            raise ValueError("%s: %s" % (path, e)) from None
    _want(a.size > 0, "%s holds no data" % path)
    return a


def _jsonable(v):
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    # strict JSON has no Infinity/NaN tokens
    return repr(v) if isinstance(v, float) and not math.isfinite(v) else v


def write_json(path, payload) -> None:
    """Write `payload` as strict JSON with sorted keys: numpy values become
    Python numbers and lists, a non-finite float its repr string."""
    with open(path, "w") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def read_json(path) -> Dict[str, Any]:
    """The JSON object in a file; ValueError, naming the file, when the file
    does not parse or its root is not an object."""
    with open(path) as f:
        try:
            obj = json.load(f)
        except ValueError as e:
            raise ValueError("%s: %s" % (path, e)) from None
    _want(isinstance(obj, dict), "%s: the root must be a JSON object" % path)
    return obj


# Type checks for the values read from a JSON file. The code that consumes a
# value checks its range; these only make sure it has a type that code accepts.
_REQUIRED = object()
NUM = (float, int)
NULL = type(None)
_JSON_TYPES = {float: "number", int: "integer", str: "string", list: "list",
               dict: "object", NULL: "null"}


def _want(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _is(v, types) -> bool:
    # a bool is never a number, and an integer must convert to a float
    return (isinstance(v, types) and not isinstance(v, bool)
            and (not isinstance(v, int) or abs(v) <= sys.float_info.max))


def _huge(v) -> bool:
    """Whether v is, or a list or object in v holds, an integer beyond the
    float range: one that a message names without its hundreds of digits."""
    if isinstance(v, (list, dict)):
        return any(map(_huge, v.values() if isinstance(v, dict) else v))
    return isinstance(v, int) and abs(v) > sys.float_info.max


def _get(sec: Dict[str, Any], where: str, key: str, types, default=_REQUIRED,
         items=()) -> Any:
    """sec[key] after a JSON type check, or `default` when the key is absent.

    `types` are the accepted Python types, under the rule of `_is`. A list
    must be non-empty and hold only values of the types `items`.
    """
    name = "%s.%s" % (where, key) if where else key
    if key not in sec:
        _want(default is not _REQUIRED, "%s is missing" % name)
        return default
    v = sec[key]
    types = types if isinstance(types, tuple) else (types,)
    items = items if isinstance(items, tuple) else (items,)
    ok = _is(v, types) and (not isinstance(v, list)
                            or (len(v) > 0 and all(_is(i, items) for i in v)))
    _want(ok or not _huge(v), "%s %s an integer beyond the float range" % (
        name, "is" if isinstance(v, int) else "holds"))
    _want(ok, "%s must be %s%s, got %s" % (
        name, " or ".join(_JSON_TYPES[t] for t in types),
        " of %s" % " or ".join(_JSON_TYPES[t] for t in items) if items else "",
        json.dumps(v)))
    return v


def _only(sec: Dict[str, Any], where: str, keys: Sequence[str]) -> None:
    """Reject every key of `sec` outside `keys`, the keys its reader reads."""
    unknown = sorted(set(sec) - set(keys))
    _want(not unknown, "%s: unknown fields %s" % (where, unknown))
