"""Command-line surface: verify models, sweep probe sizes, optimize, emit demos.

This module owns the on-disk schemas. Complex scalars are two-element
[re, im] arrays, kets are arrays of those, matrices are nested row-major
arrays, and infinities are serialized as the string "inf". Exit codes are
0 (all applicable inequalities hold), 1 (input problem, a sweep in which
every size failed, or an internal error, which is labeled as such), and 2
(an inequality that is a theorem failed, the regression alarm). Set WAYLIMIT_DEBUG=1 to print the traceback
of an internal error.

``verify`` and ``demo`` need neither the optimizer nor the oscillator
module, so ``sweep`` and ``optimize`` import what they use when they run;
a cold ``verify`` then compiles and loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .bounds import BoundReport, ConservationPair, bound_report, check_pair
from .linalg import (
    ACL_GATE_TOL,
    DimensionMismatch,
    INEQUALITY_SLACK,
    Ket,
    Operator,
    PRECONDITION_TOL,
    PreconditionError,
    STRUCTURE_TOL,
    StructureError,
    TheoremViolation,
)
from .measurement import MeasurementModel
from .spin import (
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


# ---------------------------------------------------------------------------
# JSON encoding


def _complex_to_json(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _complex_from_json(value, path: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, (int, float)) for x in value)):
        raise CliInputError(f"{path}: expected a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def ket_to_json(ket: Ket):
    return [_complex_to_json(z) for z in ket.amplitudes]


def ket_from_json(value, path: str, normalized: bool = True) -> Ket:
    if not isinstance(value, list) or not value:
        raise CliInputError(f"{path}: expected a nonempty array of [re, im] pairs")
    amps = [_complex_from_json(z, f"{path}[{k}]") for k, z in enumerate(value)]
    try:
        return Ket(np.array(amps), normalized=normalized)
    except (StructureError, ValueError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def operator_to_json(op: Operator):
    return [[_complex_to_json(z) for z in row] for row in op.matrix]


def operator_from_json(value, path: str, structure: frozenset) -> Operator:
    if not isinstance(value, list) or not value:
        raise CliInputError(f"{path}: expected a nonempty nested array")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise CliInputError(f"{path}: row {i} does not make the matrix square")
        rows.append([_complex_from_json(z, f"{path}[{i}][{j}]")
                     for j, z in enumerate(row)])
    try:
        return Operator(np.array(rows), structure)
    except (StructureError, ValueError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc


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


def _fmt(x: float) -> str:
    """CSV number format: 17 significant digits, locale independent, JSON sentinels."""
    s = _sanitize(x)
    return s if isinstance(s, str) else f"{x:.17g}"


# ---------------------------------------------------------------------------
# Model files


def model_to_dict(model: MeasurementModel, pair: ConservationPair,
                  name: str = "", description: str = "") -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "object_dim": model.object_dim,
        "probe_dim": model.probe_dim,
        "A": operator_to_json(model.A),
        "L1": operator_to_json(pair.L1),
        "L2": operator_to_json(pair.L2),
        "M": operator_to_json(model.M),
        "U": operator_to_json(model.U),
        "xi": ket_to_json(model.xi),
        "metadata": {"name": name, "description": description},
    }


def model_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise CliInputError("model file must contain a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise CliInputError(f"schema: expected {SCHEMA_VERSION!r}, got {doc.get('schema')!r}")
    for key in ("object_dim", "probe_dim", "A", "L1", "L2", "M", "U", "xi"):
        if key not in doc:
            raise CliInputError(f"{key}: missing required field")
    object_dim = doc["object_dim"]
    probe_dim = doc["probe_dim"]
    if not isinstance(object_dim, int) or not isinstance(probe_dim, int):
        raise CliInputError("object_dim/probe_dim: expected integers")
    hermitian = frozenset({"hermitian"})
    a = operator_from_json(doc["A"], "A", hermitian)
    l1 = operator_from_json(doc["L1"], "L1", hermitian)
    l2 = operator_from_json(doc["L2"], "L2", hermitian)
    m = operator_from_json(doc["M"], "M", hermitian)
    u = operator_from_json(doc["U"], "U", frozenset({"unitary"}))
    xi = ket_from_json(doc["xi"], "xi")
    try:
        model = MeasurementModel(object_dim, probe_dim, xi, u, m, a)
        pair = ConservationPair(L1=l1, L2=l2)
        check_pair(model, pair)
    except (DimensionMismatch, StructureError, ValueError) as exc:
        raise CliInputError(str(exc)) from exc
    metadata = doc.get("metadata") or {}
    return model, pair, metadata


def _no_constants(where: str):
    # python's json reads NaN, Infinity and -Infinity, which are not JSON numbers
    def reject(name: str):
        raise CliInputError(f"{where}: non-standard JSON literal {name}; numbers must be finite")
    return reject


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=_no_constants(path))
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def load_model_file(path: str):
    """(model, pair, metadata) from a model file, or from the ``result_model``
    of an ``optimize`` output. A ``kind: yw_model`` file holds partial
    interaction data and no conservation pair; it loads as
    (YWModel, None, metadata)."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "result_model" in doc:
        # an ``optimize`` output: verify the model it found
        doc = doc["result_model"]
    if isinstance(doc, dict) and doc.get("kind") == "yw_model":
        return yw_model_from_dict(doc)
    return model_from_dict(doc)


def yw_model_to_dict(yw) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "yw_model",
        "probe_dim": yw.probe_dim,
        "xi": ket_to_json(yw.xi),
        "xi_plus": ket_to_json(yw.xi_plus),
        "xi_minus": ket_to_json(yw.xi_minus),
        "eta_plus": ket_to_json(yw.eta_plus),
        "eta_minus": ket_to_json(yw.eta_minus),
        "M": operator_to_json(yw.M),
        "metadata": {"name": "yw-sample",
                     "description": "partial interaction data with eps_y^2 = 0.1"},
    }


def yw_model_from_dict(doc: dict):
    if doc.get("schema") != SCHEMA_VERSION:
        raise CliInputError(f"schema: expected {SCHEMA_VERSION!r}, got {doc.get('schema')!r}")
    for key in ("probe_dim", "xi", "xi_plus", "xi_minus", "eta_plus", "eta_minus", "M"):
        if key not in doc:
            raise CliInputError(f"{key}: missing required field")
    if not isinstance(doc["probe_dim"], int):
        raise CliInputError("probe_dim: expected an integer")
    # only xi is a state; the branch amplitudes carry weights below 1
    kets = {key: ket_from_json(doc[key], key, normalized=key == "xi")
            for key in ("xi", "xi_plus", "xi_minus", "eta_plus", "eta_minus")}
    m = operator_from_json(doc["M"], "M", frozenset({"hermitian"}))
    try:
        yw = YWModel(probe_dim=doc["probe_dim"], M=m, **kets)
    except (StructureError, ValueError) as exc:
        raise CliInputError(str(exc)) from exc
    return yw, None, doc.get("metadata") or {}


def _parse_state(spec, object_dim: int, path: str = "--state") -> Ket:
    """A named state or a JSON ket, as text (``--state``) or parsed (``psi``)."""
    if isinstance(spec, str):
        try:
            spec = named_state(spec)
        except ValueError:
            try:
                spec = json.loads(spec, parse_constant=_no_constants(path))
            except json.JSONDecodeError as exc:
                raise CliInputError(
                    f"{path} must be a named state or a JSON ket, got {spec!r}") from exc
    ket = spec if isinstance(spec, Ket) else ket_from_json(spec, path)
    if ket.dim != object_dim:
        raise CliInputError(f"{path}: ket has dim {ket.dim}, expected {object_dim}")
    return ket


# ---------------------------------------------------------------------------
# verify


_REPORT_FIELDS = (
    "eps_sq", "fundamental_bound", "yanase_bound", "spin_bound",
    "acl_residual", "yanase_residual", "commutator_identity_residual",
    "uncertainty_lhs", "uncertainty_rhs",
)


def _environment(seed: Optional[int]) -> dict:
    return {"tool_version": __version__, "seed": seed, "tolerances": dict(TOLERANCES)}


def report_to_dict(report: BoundReport, state_spec: str, name: str,
                   seed: Optional[int] = None) -> dict:
    payload = {"schema": SCHEMA_VERSION, "model_name": name, "state": state_spec}
    for key in _REPORT_FIELDS:
        payload[key] = getattr(report, key)
    payload["violations"] = list(report.violations())
    payload["null_reasons"] = dict(report.null_reasons)
    payload["environment"] = _environment(seed)
    return payload


def _csv_field(value: str) -> str:
    if any(c in value for c in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _verify_csv(fields: dict, violations, state_spec: str, name: str) -> str:
    header = ["model_name", "state", *fields, "violations"]
    row = [_csv_field(name), _csv_field(state_spec)]
    row += ["" if value is None else _fmt(value) for value in fields.values()]
    row.append("|".join(violations))
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def _verify_yw(yw: YWModel, args, name: str) -> int:
    """eps_y^2 and the squared noise at alpha_y of partial interaction data.

    2 eps(alpha_y)^2 <= eps_y^2 holds for every valid model (the record
    spectrum lies in [-1/2, 1/2]), so a failure is the regression alarm.
    """
    if args.state != "alpha_y":
        raise CliInputError(
            f"--state: a yw_model file is verified at alpha_y only, got {args.state!r}")
    fields = {"eps_y_sq": yw_eps_y(yw), "error_at_alpha_y": yw_error_at_alpha_y(yw)}
    ok = 2.0 * fields["error_at_alpha_y"] <= fields["eps_y_sq"] + INEQUALITY_SLACK
    violations = [] if ok else ["yw_relation"]
    if args.csv:
        sys.stdout.write(_verify_csv(fields, violations, args.state, name))
    else:
        payload = {"schema": SCHEMA_VERSION, "kind": "yw_model", "model_name": name,
                   "state": args.state, **fields, "violations": violations,
                   "environment": _environment(None)}
        sys.stdout.write(_dump_json(payload))
    return 0 if ok else 2


def cmd_verify(args) -> int:
    model, pair, metadata = load_model_file(args.model)
    name = str(metadata.get("name", ""))
    if isinstance(model, YWModel):
        return _verify_yw(model, args, name)
    psi = _parse_state(args.state, model.object_dim)
    report = bound_report(model, pair, psi)
    if args.csv:
        fields = {key: getattr(report, key) for key in _REPORT_FIELDS}
        sys.stdout.write(_verify_csv(fields, report.violations(), args.state, name))
    else:
        sys.stdout.write(_dump_json(report_to_dict(report, args.state, name)))
    return 2 if report.violations() else 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    from .optimizer import OptimizerConfig, sweep_probe_size

    parse_size = int if args.family == "spin_ladder" else float
    try:
        sizes = [parse_size(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        raise CliInputError(f"--sizes: {exc}") from exc
    if not sizes:
        raise CliInputError("--sizes: need at least one size")
    bad = [s for s in sizes if not (math.isfinite(s) and s >= 0)]
    if bad:
        raise CliInputError(f"--sizes: sizes must be finite and nonnegative, got {bad[0]!r}")
    try:
        config = OptimizerConfig(restarts=args.restarts, max_iters=args.max_iters,
                                 seed=args.seed)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    rows = sweep_probe_size(args.family, sizes, config)
    lines = ["family,size,var_mz,bound,achieved,gap_ratio,seed"]
    for row in rows:
        if row.error:
            print(f"size {_fmt(row.size)} failed: {row.error}", file=sys.stderr)
        lines.append(",".join([
            row.family, _fmt(row.size), _fmt(row.var_mz), _fmt(row.bound),
            _fmt(row.achieved), _fmt(row.gap_ratio), str(row.seed),
        ]))
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
    return operator_from_json(value, path, frozenset({"hermitian"}))


def _swap_theta(basis) -> np.ndarray:
    from .optimizer import hermitian_coordinates

    if basis.conserved.dim != 4:
        raise CliInputError("theta0 'swap' needs a two-qubit composite space")
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[2, 1] = swap[1, 2] = swap[3, 3] = 1.0
    h = Operator.hermitian((np.pi / 2.0) * (np.eye(4) - swap))
    try:
        return hermitian_coordinates(basis, h)
    except ValueError as exc:
        raise CliInputError(f"theta0 'swap' is not conservative here: {exc}") from exc


_JSON_TYPES = {"integer": int, "number": (int, float), "boolean": bool, "string": str}

# the keys each form of probe may give
_PROBE_KEYS = {"spin_ladder": ("family", "size"), "oscillator": ("family", "alpha", "beta"),
               "explicit": ("L2", "M", "xi")}

# the type of each optimizer setting a config file may give
_CONFIG_TYPES = {"seed": "integer", "restarts": "integer", "max_iters": "integer",
                 "tol": "number", "objective": "string", "optimize_xi": "boolean"}


def _typed(value, path: str, kind: str):
    """value when it has the JSON type kind; a JSON bool is neither an
    integer nor a number here."""
    if not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) != (kind == "boolean"):
        raise CliInputError(f"{path}: expected a JSON {kind}, got {json.dumps(value)}")
    return value


def _load_optimize_config(path: str):
    from .optimizer import (OptimizerConfig, commutant_basis, oscillator_probe,
                            spin_ladder_probe)
    from .oscillator import CoherentAmplitudes, fock_cutoff

    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise CliInputError("config must be a JSON object")

    known = {*_CONFIG_TYPES, "theta0", "psi", "object", "probe"}
    unknown = set(doc) - known
    if unknown:
        raise CliInputError(f"unknown config fields: {sorted(unknown)}")

    obj = doc.get("object") or {}
    if not isinstance(obj, dict):
        raise CliInputError(f"object: expected a JSON object, got {json.dumps(obj)}")
    a = _observable_from_config(obj.get("A", "s_x"), "object.A")
    l1 = _observable_from_config(obj.get("L1", "s_z"), "object.L1")
    if l1.dim != a.dim:
        raise CliInputError(f"object.L1: has dim {l1.dim}, expected {a.dim} to match object.A")

    probe = doc.get("probe") or {"family": "spin_ladder", "size": 2}
    if not isinstance(probe, dict):
        raise CliInputError(f"probe: expected a JSON object, got {json.dumps(probe)}")
    if "family" in probe and probe["family"] not in ("spin_ladder", "oscillator"):
        raise CliInputError(f"probe.family: unknown family {probe['family']!r}")
    form = probe.get("family", "explicit")
    for key in probe:
        if key not in _PROBE_KEYS[form]:
            hint = "; the cutoff now follows from alpha and beta" if key == "n_max" else ""
            raise CliInputError(f"probe.{key}: unknown key for a {form} probe, expected "
                                f"one of {list(_PROBE_KEYS[form])}{hint}")
    if form == "spin_ladder":
        size = _typed(probe.get("size", 2), "probe.size", "integer")
        try:
            l2, m, xi = spin_ladder_probe(size)
        except ValueError as exc:
            raise CliInputError(f"probe.size: {exc}") from exc
    elif form == "oscillator":
        amps = CoherentAmplitudes(*(_complex_from_json(probe.get(k, [0.0, 0.0]), f"probe.{k}")
                                    for k in ("alpha", "beta")))
        try:
            l2, m, xi = oscillator_probe(fock_cutoff(amps), amps)
        except ValueError as exc:
            raise CliInputError(f"probe: {exc}") from exc
    else:
        for key in ("L2", "M", "xi"):
            if key not in probe:
                raise CliInputError(f"probe.{key}: missing (explicit probes need L2, M, xi)")
        l2 = operator_from_json(probe["L2"], "probe.L2", frozenset({"hermitian"}))
        m = operator_from_json(probe["M"], "probe.M", frozenset({"hermitian"}))
        xi = ket_from_json(probe["xi"], "probe.xi")

    pair = ConservationPair(L1=l1, L2=l2)
    psi = _parse_state(doc.get("psi", "alpha_y"), a.dim, "psi")

    theta0 = doc.get("theta0", "zero")
    if theta0 == "zero":
        theta0_value = None
    elif theta0 == "swap":
        theta0_value = tuple(_swap_theta(commutant_basis(pair.total())))
    elif isinstance(theta0, list):
        theta0_value = tuple(float(_typed(t, f"theta0[{k}]", "number"))
                             for k, t in enumerate(theta0))
        size = commutant_basis(pair.total()).size
        if len(theta0_value) != size:
            raise CliInputError(f"theta0: has length {len(theta0_value)}, expected {size}")
    else:
        raise CliInputError(f"theta0: expected 'zero', 'swap', or a list, got {theta0!r}")

    # only the settings the file gives; the defaults live in OptimizerConfig
    settings = {key: _typed(doc[key], key, kind)
                for key, kind in _CONFIG_TYPES.items() if key in doc}
    try:
        config = OptimizerConfig(theta0=theta0_value, **settings)
    except ValueError as exc:
        raise CliInputError(f"config: {exc}") from exc
    return a, pair, m, xi, psi, config


def cmd_optimize(args) -> int:
    from .optimizer import optimize_noise

    a, pair, m, xi, psi, config = _load_optimize_config(args.config)
    try:
        run = optimize_noise(a, pair, m, xi, psi, config)
    except (DimensionMismatch, PreconditionError) as exc:
        # the config's operators do not fit together or break the Yanase condition
        raise CliInputError(str(exc)) from exc
    payload = {
        "schema": SCHEMA_VERSION,
        "seed": run.seed,
        "objective": config.objective,
        "final_objective": run.final_objective,
        "bound_value": run.bound_value,
        "converged": run.converged,
        "theta": [float(t) for t in run.theta],
        "objective_trace": list(run.objective_trace),
        "restart_final_objectives": list(run.restart_final_objectives),
        "result_model": model_to_dict(run.result_model, pair, name="optimized"),
        "environment": _environment(run.seed),
    }
    text = _dump_json(payload)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# demo


DEMO_NAMES = ("swap", "trivial", "yw-sample")


def cmd_demo(args) -> int:
    if args.name == "swap":
        model, pair = swap_demo_model()
        doc = model_to_dict(model, pair, name="swap-demo",
                            description="conservative zero-noise readout that "
                                        "violates the Yanase condition")
    elif args.name == "trivial":
        model, pair = trivial_demo_model()
        doc = model_to_dict(model, pair, name="trivial-demo",
                            description="identity interaction with a null record")
    elif args.name == "yw-sample":
        doc = yw_model_to_dict(yw_sample_model())
    else:
        raise CliInputError(
            f"unknown demo {args.name!r}; available: {', '.join(DEMO_NAMES)}")
    sys.stdout.write(_dump_json(doc))
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
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
