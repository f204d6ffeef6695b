"""The on-disk schemas, and the input and output helpers every command shares.

Complex scalars are [re, im] pairs of JSON numbers, kets are arrays of those,
matrices are nested row-major arrays, and infinities are serialized as the
string "inf". Each model-file kind has one field table, walked by both its
writer (here) and its reader (``cli``). ``_typed`` is the one JSON type test:
a JSON bool is neither an integer nor a number. ``CliInputError`` is any
problem with user input, exit code 1; a library ValueError raised where a
command reads its input comes from that input, and ``_input_errors`` makes it
an input error. So is a write that fails, to a file or to standard output.

``cli`` (``verify``, ``demo`` and the entry point) and ``search_cli``
(``sweep`` and ``optimize``) both import this module, never each other: under
``python -m waylimit.cli`` the entry point runs as ``__main__``, and a second
copy of it would bring a second ``CliInputError`` class that ``main`` does
not catch.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import __version__
from .linalg import ACL_GATE_TOL, INEQUALITY_SLACK, Ket, Operator, PRECONDITION_TOL, STRUCTURE_TOL
from .spin import named_state

if TYPE_CHECKING:  # annotations only
    from .bounds import ConservationPair
    from .measurement import MeasurementModel
    from .yw import YWModel

SCHEMA_VERSION = "v1"

TOLERANCES = {
    "inequality_slack": INEQUALITY_SLACK,
    "acl_gate": ACL_GATE_TOL,
    "acl_precondition": ACL_GATE_TOL,
    "yanase_precondition": PRECONDITION_TOL,
    "hermitian": STRUCTURE_TOL,
    "unitary": STRUCTURE_TOL,
}


class CliInputError(ValueError):
    """Any problem with user input; always maps to exit code 1."""


# the refusal of finite input whose arithmetic overflows; see cli.main
_OVERFLOW = "values overflow double precision"


@contextmanager
def _input_errors(where: str = ""):
    """A library ValueError, or the FloatingPointError or OverflowError of an overflow
    (see cli.main), becomes an input error after ``where: ``; a CliInputError passes through."""
    try:
        yield
    except CliInputError:
        raise
    except (ValueError, FloatingPointError, OverflowError) as exc:
        text = str(exc) if isinstance(exc, ValueError) else _OVERFLOW
        raise CliInputError(f"{where}: {text}" if where else text) from exc


# ---------------------------------------------------------------------------
# JSON values


# json.load yields exact builtin types, so one exact-type test per JSON kind
# needs no special case: a JSON bool (type bool) is neither an integer nor a number
_JSON_TYPES = {"integer": (int,), "number": (int, float), "boolean": (bool,),
               "string": (str,), "array": (list,), "object": (dict,)}


def _excerpt(text: str) -> str:
    """text as an error message echoes it: a short prefix, then "..." if cut."""
    return text if len(text) <= 60 else text[:60] + "..."


def _typed(value, path: str, kind: str):
    """value when it has the JSON type kind, else an input error naming path.
    A number must be finite as a float; json reads 1e999 as infinity."""
    if type(value) not in _JSON_TYPES[kind]:
        raise CliInputError(f"{path}: expected a JSON {kind}, got {_excerpt(json.dumps(value))}")
    if kind == "number":
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer past the float range
            finite = False
        if not finite:
            raise CliInputError(f"{path}: expected a finite JSON number, got one that "
                                f"overflows a float")
    return value


def _complex_to_json(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _complex_from_json(value, path: str) -> complex:
    try:
        re, im = _typed(value, path, "array")
        return complex(_typed(re, path, "number"), _typed(im, path, "number"))
    except ValueError:
        raise CliInputError(f"{path}: expected a [re, im] pair of JSON numbers, "
                            f"got {_excerpt(json.dumps(value))}") from None


def _complex_list(value, path: str) -> np.ndarray:
    """A JSON array of [re, im] pairs, as a complex array; entry k is named
    path[k] in errors."""
    return np.array([_complex_from_json(z, f"{path}[{k}]")
                     for k, z in enumerate(_typed(value, path, "array"))], dtype=np.complex128)


def _vector_to_json(v: np.ndarray) -> list:
    return [_complex_to_json(z) for z in v]


def ket_to_json(ket: Ket):
    return _vector_to_json(ket.amplitudes)


def ket_from_json(value, path: str) -> Ket:
    amps = _complex_list(value, path)
    with _input_errors(path):
        return Ket(amps)


def operator_to_json(op: Operator):
    return [[_complex_to_json(z) for z in row] for row in op.matrix]


def operator_from_json(value, path: str, tag: str) -> Operator:
    rows = []
    for i, row in enumerate(_typed(value, path, "array")):
        if len(_typed(row, f"{path}[{i}]", "array")) != len(value):
            raise CliInputError(f"{path}: row {i} does not make the matrix square")
        rows.append(_complex_list(row, f"{path}[{i}]"))
    with _input_errors(path):
        return Operator(np.array(rows), frozenset({tag}))


def _sanitize(value):
    """Replace non-finite floats by their sentinel strings, recursively."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _dump_json(payload) -> str:
    return json.dumps(_sanitize(payload), indent=2) + "\n"


def _fmt(x) -> str:
    """CSV field format: a string as it is, an integer in full, a float to 17
    significant digits, locale independent, with the JSON sentinels."""
    s = _sanitize(x)
    return str(s) if isinstance(s, (str, int)) else f"{x:.17g}"


def _no_constants(where: str):
    # python's json reads NaN, Infinity and -Infinity, which are not JSON numbers
    def reject(name: str):
        raise CliInputError(f"{where}: non-standard JSON literal {name}; numbers must be finite")
    return reject


def _parse_json(text: str, where: str, malformed) -> object:
    """text parsed as JSON, or an input error naming where; malformed(exc)
    words a json.JSONDecodeError, which each caller words its own way."""
    with _input_errors(where):  # an integer literal past Python's digit limit
        try:
            return json.loads(text, parse_constant=_no_constants(where))
        except json.JSONDecodeError as exc:
            raise CliInputError(malformed(exc)) from exc
        except RecursionError:
            raise CliInputError(f"{where}: JSON nested too deeply to read") from None


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bytes that are not UTF-8
        raise CliInputError(f"{path}: {exc}") from exc
    return _parse_json(text, path, lambda exc: f"{path}: invalid JSON at line {exc.lineno}, "
                                               f"column {exc.colno}: {exc.msg}")


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def _write_stdout(text: str):
    """text on standard output, flushed, so that a closed stream fails here, an
    input error as a failed file write is in ``_write_text``. A failed flush
    leaves nothing buffered, so the interpreter's own flush at exit stays silent
    and the exit code is main's."""
    try:
        if sys.stdout is None:  # the interpreter started with descriptor 1 closed
            raise OSError("the stream is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise CliInputError(f"cannot write standard output: {exc}") from exc


# ---------------------------------------------------------------------------
# Model files


# each form a field can take: (reader(value, path), writer(value))
_FORMS = {
    "integer": (lambda v, path: _typed(v, path, "integer"), int),
    "hermitian": (lambda v, path: operator_from_json(v, path, "hermitian"), operator_to_json),
    "unitary": (lambda v, path: operator_from_json(v, path, "unitary"), operator_to_json),
    "state": (ket_from_json, ket_to_json),
    # complex vectors whose squared norm is a weight, such as a yw_model's branches
    "amplitudes": (_complex_list, _vector_to_json),
}

# the fields of each model-file kind, in file order: key -> form. The writer
# and the reader of the kind both walk its table.
_MODEL_FIELDS = {"object_dim": "integer", "probe_dim": "integer", "A": "hermitian",
                 "L1": "hermitian", "L2": "hermitian", "M": "hermitian", "U": "unitary",
                 "xi": "state"}
_YW_FIELDS = {"probe_dim": "integer", "xi": "state", "xi_plus": "amplitudes",
              "xi_minus": "amplitudes", "eta_plus": "amplitudes", "eta_minus": "amplitudes",
              "M": "hermitian"}


def _fields_to_dict(head: dict, fields: dict, values: dict, name: str, description: str) -> dict:
    """A model file: schema, head, each field of the table from values, then metadata."""
    return {"schema": SCHEMA_VERSION, **head,
            **{key: _FORMS[form][1](values[key]) for key, form in fields.items()},
            "metadata": {"name": name, "description": description}}


def _read_fields(doc: dict, fields: dict, prefix: str = "") -> dict:
    """Every field of a table, parsed; any missing field is reported first."""
    for key in fields:
        if key not in doc:
            raise CliInputError(f"{prefix}{key}: missing required field")
    return {key: _FORMS[form][0](doc[key], prefix + key) for key, form in fields.items()}


def _model_file(doc, fields: dict):
    """The parsed fields and the metadata of a model file of one kind. Other
    keys are ignored; metadata is optional, but its name is echoed, so a string."""
    if _typed(doc, "model file", "object").get("schema") != SCHEMA_VERSION:
        raise CliInputError(
            f"schema: expected {SCHEMA_VERSION!r}, got {_excerpt(repr(doc.get('schema')))}")
    values = _read_fields(doc, fields)
    metadata = _typed(doc.get("metadata", {}), "metadata", "object")
    _typed(metadata.get("name", ""), "metadata.name", "string")
    return values, metadata


def model_to_dict(model: MeasurementModel, pair: ConservationPair,
                  name: str = "", description: str = "") -> dict:
    values = {**vars(model), "L1": pair.L1, "L2": pair.L2}
    return _fields_to_dict({}, _MODEL_FIELDS, values, name, description)


def yw_model_to_dict(yw: YWModel, name: str = "", description: str = "") -> dict:
    return _fields_to_dict({"kind": "yw_model"}, _YW_FIELDS, vars(yw), name, description)


def _parse_state(spec, object_dim: int, path: str = "--state") -> Ket:
    """A named state or a JSON ket, as text (``--state``) or parsed (``psi``)."""
    if isinstance(spec, str):
        try:
            spec = named_state(spec)
        except ValueError:
            text = spec
            spec = _parse_json(text, path, lambda exc: f"{path} must be a named state or "
                                                       f"a JSON ket, got {_excerpt(repr(text))}")
    ket = spec if isinstance(spec, Ket) else ket_from_json(spec, path)
    if ket.dim != object_dim:
        raise CliInputError(f"{path}: ket has dim {ket.dim}, expected {object_dim}")
    return ket


def _environment(seed: Optional[int]) -> dict:
    return {"tool_version": __version__, "seed": seed, "tolerances": dict(TOLERANCES)}
