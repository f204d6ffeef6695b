"""Command-line surface: verify models, sweep probe sizes, optimize, emit demos.

The on-disk schemas and the helpers that read and write them live in
``schema``; the names of its public API are re-exported here. Model files
ignore keys outside their table; an ``optimize`` config rejects unknown keys
at every level. Exit codes are 0 (all applicable inequalities hold), 1 (input
problem, a failed write, a sweep in which every size failed, or an internal
error, which is labeled as such), and 2 (an inequality that is a theorem
failed, the regression alarm). A library ValueError raised inside the search
is a bug, an internal error: a sweep row fails only where its probe cannot be
built. ``main`` runs every command under one floating-point policy, which
refuses finite input whose arithmetic overflows. Set WAYLIMIT_DEBUG=1 to print
the traceback of an internal error.

A cold ``verify`` of a model file, or ``demo swap`` and ``demo trivial``,
loads ``linalg``, ``measurement``, ``bounds``, ``spin``, ``schema`` and this
module, and nothing more of the package. A ``kind: yw_model`` file and
``demo yw-sample`` add ``yw``; ``sweep`` and ``optimize`` run their bodies
from ``search_cli``, which loads the optimizer and the oscillator.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .bounds import ConservationPair, bound_report, check_pair
from .linalg import INEQUALITY_SLACK, TheoremViolation, exceeds
from .measurement import MeasurementModel
from .schema import (  # noqa: F401  (the public names are re-exported)
    SCHEMA_VERSION,
    TOLERANCES,
    CliInputError,
    _MODEL_FIELDS,
    _OVERFLOW,
    _YW_FIELDS,
    _dump_json,
    _environment,
    _fmt,
    _input_errors,
    _model_file,
    _parse_state,
    _read_json,
    _typed,
    _write_stdout,
    ket_from_json,
    ket_to_json,
    model_to_dict,
    operator_from_json,
    operator_to_json,
    yw_model_to_dict,
)
from .spin import swap_demo_model, trivial_demo_model, yw_sample_model


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


# ---------------------------------------------------------------------------
# Model files

# The readers stay beside the entry point, which is all that runs them:
# bench/tracer.py patches cli's bindings, and load_model_file calls
# model_from_dict through them.


def model_from_dict(doc: dict):
    f, metadata = _model_file(doc, _MODEL_FIELDS)
    with _input_errors():
        model = MeasurementModel(f["object_dim"], f["probe_dim"], f["xi"], f["U"], f["M"], f["A"])
        pair = ConservationPair(L1=f["L1"], L2=f["L2"])
        check_pair(model, pair)
    return model, pair, metadata


def yw_model_from_dict(doc: dict):
    from .yw import YWModel

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


# ---------------------------------------------------------------------------
# verify


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
        _write_stdout(",".join(header) + "\n" + ",".join(row) + "\n")
    else:
        _write_stdout(_dump_json({
            "schema": SCHEMA_VERSION, **head, "model_name": name, "state": args.state,
            **fields, "violations": list(violations), **notes,
            "environment": _environment(None)}))
    return 2 if violations else 0


def _yw_figures(data, state_spec: str):
    """eps_y^2 and the squared noise at alpha_y of partial interaction data.
    2 eps(alpha_y)^2 <= eps_y^2 holds for every valid model (the record
    spectrum lies in [-1/2, 1/2]), so a failure is the regression alarm."""
    from . import yw

    if state_spec != "alpha_y":
        raise CliInputError(
            f"--state: a yw_model file is verified at alpha_y only, got {state_spec!r}")
    fields = {"eps_y_sq": yw.yw_eps_y(data), "error_at_alpha_y": yw.yw_error_at_alpha_y(data)}
    failed = exceeds(2.0 * fields["error_at_alpha_y"] - fields["eps_y_sq"], INEQUALITY_SLACK)
    return fields, ["yw_relation"] if failed else []


def cmd_verify(args) -> int:
    model, pair, metadata = load_model_file(args.model)
    name = metadata.get("name", "")
    if pair is None:  # a kind: yw_model file, partial interaction data
        fields, violations = _yw_figures(model, args.state)
        return _emit_verify(args, name, fields, violations, {"kind": "yw_model"}, {})
    report = bound_report(model, pair, _parse_state(args.state, model.object_dim))
    # the report's figures in order; null_reasons is a JSON note and noise_scale no figure
    fields = {k: v for k, v in vars(report).items() if k not in ("null_reasons", "noise_scale")}
    return _emit_verify(args, name, fields, report.violations(), {},
                        {"null_reasons": dict(report.null_reasons)})


# ---------------------------------------------------------------------------
# sweep and optimize, whose bodies search_cli holds


def cmd_sweep(args) -> int:
    from .search_cli import cmd_sweep
    return cmd_sweep(args)


def cmd_optimize(args) -> int:
    from .search_cli import cmd_optimize
    return cmd_optimize(args)


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
    _write_stdout(_dump_json(_DEMOS[args.name]()))
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
