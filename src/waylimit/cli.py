"""Command-line surface: verify models, sweep probe sizes, optimize, emit demos.

This module owns the on-disk schemas. Complex scalars are [re, im] pairs of
JSON numbers, kets are arrays of those, matrices are nested row-major arrays,
and infinities are serialized as the string "inf". Each model-file kind has
one field table, walked by both its writer and its reader. ``_typed`` is the
one JSON type test: a JSON bool is neither an integer nor a number. Model
files ignore keys outside their table; an ``optimize`` config rejects unknown
keys at every level. Exit codes are 0 (all applicable inequalities hold), 1
(input problem, a sweep in which every size failed, or an internal error,
which is labeled as such), and 2 (an inequality that is a theorem failed, the
regression alarm). A library ValueError raised where a command reads its
input comes from that input: ``_input_errors`` makes it an input error. One
raised inside the search is a bug, an internal error: a sweep row fails only
where its probe cannot be built. ``main`` runs every command under one
floating-point policy, which refuses finite input whose arithmetic
overflows. Set WAYLIMIT_DEBUG=1 to print the traceback of an internal error.

``verify`` and ``demo`` need neither the optimizer nor the oscillator
module, so ``sweep`` and ``optimize`` import what they use when they run;
a cold ``verify`` then compiles and loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import Optional

import numpy as np

from . import __version__
from .bounds import ConservationPair, bound_report, check_pair
from .linalg import (
    ACL_GATE_TOL,
    DimensionMismatch,
    INEQUALITY_SLACK,
    Ket,
    Operator,
    PRECONDITION_TOL,
    PreconditionError,
    STRUCTURE_TOL,
    TheoremViolation,
)
from .measurement import MeasurementModel
from .spin import (
    SWAP,
    YWModel,
    named_state,
    spin_operators,
    swap_demo_model,
    trivial_demo_model,
    yw_error_at_alpha_y,
    yw_eps_y,
    yw_sample_model,
)

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


# the refusal of finite input whose arithmetic overflows; see main
_OVERFLOW = "values overflow double precision"


@contextmanager
def _input_errors(where: str = ""):
    """A library ValueError, or the FloatingPointError of an overflow (see main),
    becomes an input error after ``where: ``; a CliInputError passes through."""
    try:
        yield
    except CliInputError:
        raise
    except (ValueError, FloatingPointError) as exc:
        text = _OVERFLOW if isinstance(exc, FloatingPointError) else str(exc)
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


def model_from_dict(doc: dict):
    f, metadata = _model_file(doc, _MODEL_FIELDS)
    with _input_errors():
        model = MeasurementModel(f["object_dim"], f["probe_dim"], f["xi"], f["U"], f["M"], f["A"])
        pair = ConservationPair(L1=f["L1"], L2=f["L2"])
        check_pair(model, pair)
    return model, pair, metadata


def yw_model_to_dict(yw: YWModel, name: str = "", description: str = "") -> dict:
    return _fields_to_dict({"kind": "yw_model"}, _YW_FIELDS, vars(yw), name, description)


def yw_model_from_dict(doc: dict):
    fields, metadata = _model_file(doc, _YW_FIELDS)
    with _input_errors():
        return YWModel(**fields), None, metadata


def load_model_file(path: str):
    """(model, pair, metadata) from a model file, or from the ``result_model`` of
    an ``optimize`` output. A ``kind: yw_model`` file holds partial interaction
    data and no conservation pair; it loads as (YWModel, None, metadata)."""
    doc = _typed(_read_json(path), "model file", "object")
    if "result_model" in doc:
        # an ``optimize`` output: verify the model it found
        doc = _typed(doc["result_model"], "result_model", "object")
    if doc.get("kind") == "yw_model":
        return yw_model_from_dict(doc)
    return model_from_dict(doc)


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


# ---------------------------------------------------------------------------
# verify


def _environment(seed: Optional[int]) -> dict:
    return {"tool_version": __version__, "seed": seed, "tolerances": dict(TOLERANCES)}


def _csv_field(value: str) -> str:
    if any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _emit_verify(args, name: str, fields: dict, violations, head: dict, notes: dict) -> int:
    """verify's JSON payload or CSV row for either file kind; 2 when an
    inequality failed. Only the JSON carries head and notes. A figure other
    than a bound (infinite as its sentinel) is infinite only by overflow."""
    if any(value is not None and not math.isfinite(value)
           for key, value in fields.items() if not key.endswith("_bound")):
        raise OverflowError("an infinite figure")
    if args.csv:
        row = [_csv_field(name), _csv_field(args.state)]
        row += ["" if value is None else _fmt(value) for value in fields.values()]
        row.append("|".join(violations))
        header = ["model_name", "state", *fields, "violations"]
        sys.stdout.write(",".join(header) + "\n" + ",".join(row) + "\n")
    else:
        sys.stdout.write(_dump_json({
            "schema": SCHEMA_VERSION, **head, "model_name": name, "state": args.state,
            **fields, "violations": list(violations), **notes,
            "environment": _environment(None)}))
    return 2 if violations else 0


def _yw_figures(yw: YWModel, state_spec: str):
    """eps_y^2 and the squared noise at alpha_y of partial interaction data.
    2 eps(alpha_y)^2 <= eps_y^2 holds for every valid model (the record
    spectrum lies in [-1/2, 1/2]), so a failure is the regression alarm."""
    if state_spec != "alpha_y":
        raise CliInputError(
            f"--state: a yw_model file is verified at alpha_y only, got {state_spec!r}")
    fields = {"eps_y_sq": yw_eps_y(yw), "error_at_alpha_y": yw_error_at_alpha_y(yw)}
    ok = 2.0 * fields["error_at_alpha_y"] <= fields["eps_y_sq"] + INEQUALITY_SLACK
    return fields, [] if ok else ["yw_relation"]


def cmd_verify(args) -> int:
    model, pair, metadata = load_model_file(args.model)
    name = metadata.get("name", "")
    if isinstance(model, YWModel):
        fields, violations = _yw_figures(model, args.state)
        return _emit_verify(args, name, fields, violations, {"kind": "yw_model"}, {})
    report = bound_report(model, pair, _parse_state(args.state, model.object_dim))
    # the report's fields in order; its null reasons are a note of the JSON only
    fields = {key: value for key, value in vars(report).items() if key != "null_reasons"}
    return _emit_verify(args, name, fields, report.violations(), {},
                        {"null_reasons": dict(report.null_reasons)})


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    from .optimizer import OptimizerConfig, SweepRow, sweep_probe_size

    parse_size = int if args.family == "spin_ladder" else float
    with _input_errors("--sizes"):
        sizes = [parse_size(s) for s in args.sizes.split(",") if s]
    if not sizes:
        raise CliInputError("--sizes: need at least one size")
    bad = [s for s in sizes if not (math.isfinite(s) and s >= 0)]
    if bad:
        raise CliInputError(f"--sizes: sizes must be finite and nonnegative, got {bad[0]!r}")
    with _input_errors():
        config = OptimizerConfig(restarts=args.restarts, max_iters=args.max_iters,
                                 seed=args.seed)
    rows = sweep_probe_size(args.family, sizes, config)
    # the row's fields in order; a failure goes to stderr instead
    columns = [f.name for f in dataclasses.fields(SweepRow) if f.name != "error"]
    lines = [",".join(columns)]
    for row in rows:
        if row.error:
            print(f"size {_fmt(row.size)} failed: {row.error}", file=sys.stderr)
        lines.append(",".join(_fmt(getattr(row, key)) for key in columns))
    _write_text(args.out, "\n".join(lines) + "\n")
    # a sweep in which no size succeeded must not look like a success
    return 1 if all(row.error for row in rows) else 0


# ---------------------------------------------------------------------------
# optimize


_NAMED_OBSERVABLES = {"s_x": 0, "s_y": 1, "s_z": 2}


def _observable_from_config(value, path: str) -> Operator:
    if isinstance(value, str):
        if value not in _NAMED_OBSERVABLES:
            raise CliInputError(
                f"{path}: unknown observable {value!r}, expected one of "
                f"{sorted(_NAMED_OBSERVABLES)} or a matrix")
        return spin_operators()[_NAMED_OBSERVABLES[value]]
    return operator_from_json(value, path, "hermitian")


def _swap_theta(basis) -> np.ndarray:
    from .optimizer import hermitian_coordinates

    if len(basis.vectors) != 4:
        raise CliInputError("theta0 'swap' needs a two-qubit composite space")
    h = Operator.hermitian((np.pi / 2.0) * (np.eye(4) - SWAP))
    with _input_errors("theta0 'swap' is not conservative here"):
        return hermitian_coordinates(basis, h)


# the fields of an explicit probe: key -> form, as in the model-file tables
_PROBE_FIELDS = {"L2": "hermitian", "M": "hermitian", "xi": "state"}

# the keys each form of probe may give
_PROBE_KEYS = {"spin_ladder": ("family", "size"), "oscillator": ("family", "alpha", "beta"),
               "explicit": tuple(_PROBE_FIELDS)}

# the type of each optimizer setting a config file may give
_CONFIG_TYPES = {"seed": "integer", "restarts": "integer", "max_iters": "integer",
                 "objective": "string", "optimize_xi": "boolean"}


def _config_object(value, path: str, known) -> dict:
    """value when it is a JSON object whose keys are all in known; path is its
    place in the config, "" for the top level."""
    obj = _typed(value, path or "config", "object")
    for key in obj:
        if key not in known:
            where = f"{path}.{key}" if path else key
            raise CliInputError(f"{where}: unknown key, expected one of {list(known)}")
    return obj


def _load_optimize_config(path: str):
    from .optimizer import (OptimizerConfig, commutant_basis, oscillator_probe,
                            spin_ladder_probe)
    from .oscillator import CoherentAmplitudes, fock_cutoff

    doc = _config_object(_read_json(path), "",
                         (*_CONFIG_TYPES, "theta0", "psi", "object", "probe"))

    obj = _config_object(doc.get("object", {}), "object", ("A", "L1"))
    a = _observable_from_config(obj.get("A", "s_x"), "object.A")
    l1 = _observable_from_config(obj.get("L1", "s_z"), "object.L1")
    if l1.dim != a.dim:
        raise CliInputError(f"object.L1: has dim {l1.dim}, expected {a.dim} to match object.A")

    probe = _typed(doc.get("probe", {"family": "spin_ladder", "size": 2}), "probe", "object")
    if "family" in probe and probe["family"] not in ("spin_ladder", "oscillator"):
        raise CliInputError(f"probe.family: unknown family {_excerpt(repr(probe['family']))}")
    form = probe.get("family", "explicit")
    _config_object(probe, "probe", _PROBE_KEYS[form])
    if form == "spin_ladder":
        size = _typed(probe.get("size", 2), "probe.size", "integer")
        with _input_errors("probe.size"):
            l2, m, xi = spin_ladder_probe(size)
    elif form == "oscillator":
        amps = CoherentAmplitudes(*(_complex_from_json(probe.get(k, [0.0, 0.0]), f"probe.{k}")
                                    for k in ("alpha", "beta")))
        with _input_errors("probe"):
            l2, m, xi = oscillator_probe(fock_cutoff(amps), amps)
    else:
        l2, m, xi = _read_fields(probe, _PROBE_FIELDS, "probe.").values()

    pair = ConservationPair(L1=l1, L2=l2)
    psi = _parse_state(doc.get("psi", "alpha_y"), a.dim, "psi")

    theta0 = doc.get("theta0", "zero")
    if theta0 == "zero":
        theta0_value = None
    elif theta0 == "swap":
        theta0_value = tuple(_swap_theta(commutant_basis(pair)))
    elif isinstance(theta0, str):
        raise CliInputError(
            f"theta0: expected 'zero', 'swap' or a JSON array, got {_excerpt(json.dumps(theta0))}")
    else:  # its length is the optimizer's check
        theta0_value = tuple(float(_typed(t, f"theta0[{k}]", "number"))
                             for k, t in enumerate(_typed(theta0, "theta0", "array")))

    # only the settings the file gives; the defaults live in OptimizerConfig
    settings = {key: _typed(doc[key], key, kind)
                for key, kind in _CONFIG_TYPES.items() if key in doc}
    with _input_errors("config"):
        config = OptimizerConfig(theta0=theta0_value, **settings)
    return a, pair, m, xi, psi, config


def cmd_optimize(args) -> int:
    from .optimizer import optimize_noise

    a, pair, m, xi, psi, config = _load_optimize_config(args.config)
    try:
        run = optimize_noise(a, pair, m, xi, psi, config)
    except (DimensionMismatch, PreconditionError) as exc:
        # the config's operators do not fit together or break the Yanase condition
        raise CliInputError(str(exc)) from exc
    # the run's fields in order; the array and the model are converted in place
    text = _dump_json({"schema": SCHEMA_VERSION, **vars(run),
                       "theta": [float(t) for t in run.theta],
                       "result_model": model_to_dict(run.result_model, pair, name="optimized"),
                       "environment": _environment(run.seed)})
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# demo


# name -> writer of the demo's model file
_DEMOS = {
    "swap": lambda: model_to_dict(*swap_demo_model(), "swap-demo", "conservative zero-noise "
                                  "readout that violates the Yanase condition"),
    "trivial": lambda: model_to_dict(*trivial_demo_model(), "trivial-demo",
                                     "identity interaction with a null record"),
    "yw-sample": lambda: yw_model_to_dict(yw_sample_model(), "yw-sample",
                                          "partial interaction data with eps_y^2 = 0.1"),
}
DEMO_NAMES = tuple(_DEMOS)


def cmd_demo(args) -> int:
    if args.name not in _DEMOS:
        raise CliInputError(
            f"unknown demo {args.name!r}; available: {', '.join(DEMO_NAMES)}")
    sys.stdout.write(_dump_json(_DEMOS[args.name]()))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> _Parser:
    parser = _Parser(prog="waylimit",
                     description="noise bounds for quantum measurements under "
                                 "additive conservation laws")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="evaluate every bound on a model file")
    p_verify.add_argument("model", help="path to a model JSON file")
    p_verify.add_argument("--state", default="alpha_y",
                          help="named state (alpha_x..beta_z) or inline JSON ket")
    p_verify.add_argument("--csv", action="store_true", help="emit a CSV row instead of JSON")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="bound vs achieved error over probe sizes")
    p_sweep.add_argument("--family", required=True, choices=["spin_ladder", "oscillator"])
    p_sweep.add_argument("--sizes", required=True,
                         help="comma separated sizes (ladder levels, or coherent "
                              "|alpha|^2+|beta|^2)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--restarts", type=int, default=4)
    p_sweep.add_argument("--max-iters", type=int, default=40)
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("optimize", help="minimize the noise over conservative interactions")
    p_opt.add_argument("config", help="path to an optimizer config JSON file")
    p_opt.add_argument("--out", default=None, help="output JSON path (stdout if omitted)")
    p_opt.set_defaults(func=cmd_optimize)

    p_demo = sub.add_parser("demo", help="print a built-in model file")
    p_demo.add_argument("name", help="swap, trivial, or yw-sample")
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # numpy raises on overflow instead of warning, as do float power and _emit_verify
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (CliInputError, FloatingPointError, OverflowError) as exc:
        text = exc if isinstance(exc, CliInputError) else f"the model's {_OVERFLOW}"
        print(f"error: {text}", file=sys.stderr)
        return 1
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the exit contract allows {0, 1, 2} only
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if os.environ.get("WAYLIMIT_DEBUG") == "1":
            import traceback  # only on this path, to keep start-up light
            traceback.print_exc(file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
