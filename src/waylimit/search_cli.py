"""The ``sweep`` and ``optimize`` commands and the optimize-config reader.

``cli`` imports this module when one of the two commands runs, so a cold
``verify`` or ``demo`` compiles none of it. It takes the shared JSON and
model-file helpers from ``schema``, never from ``cli``, which runs as
``__main__`` under ``python -m waylimit.cli``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import numpy as np

# the optimizer's names are read when a command runs, so a patched name is the one used
from . import optimizer
from .bounds import ConservationPair
from .linalg import DimensionMismatch, Operator, PreconditionError
from .oscillator import CoherentAmplitudes, fock_cutoff
from .schema import (
    SCHEMA_VERSION,
    CliInputError,
    _complex_from_json,
    _dump_json,
    _environment,
    _excerpt,
    _fmt,
    _input_errors,
    _parse_state,
    _read_fields,
    _read_json,
    _typed,
    _write_stdout,
    _write_text,
    model_to_dict,
    operator_from_json,
)
from .spin import SWAP, spin_operators


def cmd_sweep(args) -> int:
    parse_size = int if args.family == "spin_ladder" else float
    with _input_errors("--sizes"):
        sizes = [parse_size(s) for s in args.sizes.split(",") if s]
    if not sizes:
        raise CliInputError("--sizes: need at least one size")
    bad = [s for s in sizes if not (math.isfinite(s) and s >= 0)]
    if bad:
        raise CliInputError(f"--sizes: sizes must be finite and nonnegative, got {bad[0]!r}")
    with _input_errors():
        config = optimizer.OptimizerConfig(restarts=args.restarts, max_iters=args.max_iters,
                                 seed=args.seed)
    rows = optimizer.sweep_probe_size(args.family, sizes, config)
    # the row's fields in order; a failure goes to stderr instead
    columns = [f.name for f in dataclasses.fields(optimizer.SweepRow) if f.name != "error"]
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
    if len(basis.vectors) != 4:
        raise CliInputError("theta0 'swap' needs a two-qubit composite space")
    h = Operator.hermitian((np.pi / 2.0) * (np.eye(4) - SWAP))
    with _input_errors("theta0 'swap' is not conservative here"):
        return optimizer.hermitian_coordinates(basis, h)


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
            l2, m, xi = optimizer.spin_ladder_probe(size)
    elif form == "oscillator":
        amps = CoherentAmplitudes(*(_complex_from_json(probe.get(k, [0.0, 0.0]), f"probe.{k}")
                                    for k in ("alpha", "beta")))
        with _input_errors("probe"):
            l2, m, xi = optimizer.oscillator_probe(fock_cutoff(amps), amps)
    else:
        l2, m, xi = _read_fields(probe, _PROBE_FIELDS, "probe.").values()

    pair = ConservationPair(L1=l1, L2=l2)
    psi = _parse_state(doc.get("psi", "alpha_y"), a.dim, "psi")

    theta0 = doc.get("theta0", "zero")
    if theta0 == "zero":
        theta0_value = None
    elif theta0 == "swap":
        theta0_value = tuple(_swap_theta(optimizer.commutant_basis(pair)))
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
        config = optimizer.OptimizerConfig(theta0=theta0_value, **settings)
    return a, pair, m, xi, psi, config


def cmd_optimize(args) -> int:
    a, pair, m, xi, psi, config = _load_optimize_config(args.config)
    try:
        run = optimizer.optimize_noise(a, pair, m, xi, psi, config)
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
        _write_stdout(text)
    return 0
