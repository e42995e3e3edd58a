"""Command-line interface: unwrap, synth and error subcommands.

Exit codes: 0 success, 2 malformed input file or unwritable output path,
3 dimension mismatch between grids, 4 numerical breakdown.  Diagnostics go
to stderr; requested outputs are NPY grids or JSON files.
"""

import argparse
import dataclasses
import errno
import json
import os
import sys
from contextlib import contextmanager

from .arrayio import ArrayFileError, load_grid, save_grid
from .irls import IrlsParams, unwrap
from .objective import ModelParams, lipschitz_constant
from .pcg import NumericalBreakdown
from .phase import WeightField, congruent_round, shift_error, wrap_to_principal
from .synth import SCENE_KINDS, SceneSpec, add_phase_noise, generate_scene, wrap_scene

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_DIM_MISMATCH = 3
EXIT_NUMERIC = 4


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _fail(code, message):
    raise _CliError(code, message)


@contextmanager
def _writing(path):
    try:
        yield
    except OSError as exc:
        _fail(EXIT_BAD_INPUT, f"cannot write {path}: {exc.strerror or exc}")


def _file_key(path):
    """Equal for two names of one file: device and inode when it exists, else the real path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_writable(outputs, inputs):
    """Fail before the work when an output is a directory, names another file or cannot be made."""
    seen = {_file_key(path): path for path in inputs if path}
    for path in filter(None, outputs):
        key = _file_key(path)
        if key in seen:
            _fail(EXIT_BAD_INPUT, f"cannot write {path}: same file as {seen[key]}")
        seen[key] = path
        if os.path.isdir(path):
            _fail(EXIT_BAD_INPUT, f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            _fail(EXIT_BAD_INPUT, f"cannot write {path}: {os.strerror(errno.ENOENT)}")
        if not os.access(parent, os.W_OK):
            _fail(EXIT_BAD_INPUT, f"cannot write {path}: {os.strerror(errno.EACCES)}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="phaseirls",
        description="L1-norm 2-D phase unwrapping via IRLS with a preconditioned CG solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_unwrap = sub.add_parser("unwrap", help="unwrap a wrapped phase grid")
    p_unwrap.add_argument("--input", required=True, help="wrapped phase NPY file")
    p_unwrap.add_argument("--output", required=True, help="unwrapped output NPY file")
    p_unwrap.add_argument("--cv", help="vertical arc weights, shape (N-1, M)")
    p_unwrap.add_argument("--ch", help="horizontal arc weights, shape (N, M-1)")
    p_unwrap.add_argument("--tau", type=float, default=ModelParams.tau)
    p_unwrap.add_argument("--delta", type=float, default=ModelParams.delta)
    p_unwrap.add_argument("--max-outer", type=int, default=IrlsParams.max_outer_iters)
    p_unwrap.add_argument("--cg-start", type=int, default=IrlsParams.max_iter_cg_start)
    p_unwrap.add_argument("--eps-tol", type=float, default=IrlsParams.rel_improvement_tol)
    p_unwrap.add_argument("--cg-growth", type=float, default=IrlsParams.cg_growth_factor)
    p_unwrap.add_argument("--trace", help="write per-iteration records as JSON lines")
    p_unwrap.add_argument(
        "--congruent",
        action="store_true",
        help="round the output onto the grid congruent to the input mod 2*pi",
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument(
        "--kind",
        required=True,
        choices=SCENE_KINDS,
    )
    p_synth.add_argument("--rows", type=int, required=True)
    p_synth.add_argument("--cols", type=int, required=True)
    p_synth.add_argument("--amplitude", type=float, default=1.0)
    p_synth.add_argument("--scale", type=float, default=8.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise-sigma", type=float, default=0.0)
    p_synth.add_argument("--out-truth", help="unwrapped ground-truth NPY file")
    p_synth.add_argument("--out-wrapped", help="wrapped scene NPY file")

    p_error = sub.add_parser("error", help="shift-compensated error metrics")
    p_error.add_argument("--estimate", required=True)
    p_error.add_argument("--truth", required=True)
    p_error.add_argument("--json-out", help="write metrics JSON here instead of stdout")

    return parser


def _load(path, role):
    try:
        return load_grid(path)
    except ArrayFileError as exc:
        _fail(EXIT_BAD_INPUT, f"{role}: {exc}")


def _load_image(path, role):
    # weight grids may be empty (a 1xM image has no vertical arcs); images may not
    arr = _load(path, role)
    if arr.size == 0:
        _fail(EXIT_BAD_INPUT, f"{role}: empty grid of shape {arr.shape}")
    return arr


def _emit_json(payload, path):
    # a non-finite value is a ValueError here, never invalid JSON in the output
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if path:
        with _writing(path), open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _solver_params(args, weights):
    """``unwrap``'s model and loop parameters from the flags; exit 2 when out of range."""
    try:
        model = ModelParams(tau=args.tau, delta=args.delta)
        params = IrlsParams(
            max_iter_cg_start=args.cg_start,
            rel_improvement_tol=args.eps_tol,
            cg_growth_factor=args.cg_growth,
            max_outer_iters=args.max_outer,
        )
        if weights is not None:
            # unwrap needs a finite c_max^2/delta; uniform weights always have one
            lipschitz_constant(weights, model)
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, f"invalid parameters: {exc}")
    return model, params


def _cmd_unwrap(args):
    """The ``unwrap`` command.

    The wrapped input is held only in a dict, not by a name, so that without
    ``--congruent``, which reads it after the solve, it is popped as
    ``unwrap``'s argument: ``unwrap`` drops it once the gradients exist, and
    the input is freed before the loop allocates its grids.  That rests on
    CPython 3.11 and later moving call arguments into the callee's frame; an
    older interpreter keeps the caller's reference through the call.
    """
    held = {"x": wrap_to_principal(_load_image(args.input, "input"), 0.0)}
    n, m = held["x"].shape
    weights = None
    if (args.cv is None) != (args.ch is None):
        _fail(EXIT_BAD_INPUT, "weights require both --cv and --ch")
    if args.cv is not None:
        cv = _load(args.cv, "cv weights")
        ch = _load(args.ch, "ch weights")
        if cv.shape != (n - 1, m) or ch.shape != (n, m - 1):
            _fail(
                EXIT_DIM_MISMATCH,
                f"weight shapes {cv.shape}/{ch.shape} do not match image {(n, m)}",
            )
        try:
            weights = WeightField(cv, ch)
        except ValueError as exc:
            _fail(EXIT_BAD_INPUT, f"invalid weights: {exc}")

    model, params = _solver_params(args, weights)

    try:
        # a pop leaves no reference here: the call's argument is the last one
        result = unwrap(held["x"] if args.congruent else held.pop("x"), weights, model, params)
    except NumericalBreakdown as exc:
        _fail(EXIT_NUMERIC, f"solver breakdown: {exc}")

    out = result.u
    if args.congruent:
        out = congruent_round(out, held["x"])
    with _writing(args.output):
        save_grid(args.output, out)

    if args.trace:
        with _writing(args.trace), open(args.trace, "w", encoding="utf-8") as fh:
            for rec in result.trace.records:
                fh.write(json.dumps(dataclasses.asdict(rec)) + "\n")
    return EXIT_OK


def _cmd_synth(args):
    if not args.out_truth and not args.out_wrapped:
        _fail(EXIT_BAD_INPUT, "nothing to do: pass --out-truth and/or --out-wrapped")
    # both grids are made before the first write, so a bad input writes nothing
    try:
        spec = SceneSpec(
            kind=args.kind,
            rows=args.rows,
            cols=args.cols,
            amplitude=args.amplitude,
            feature_scale=args.scale,
            seed=args.seed,
        )
        truth = generate_scene(spec)
        wrapped = add_phase_noise(wrap_scene(truth), args.noise_sigma, args.seed + 1)
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, f"invalid scene spec: {exc}")
    for path, grid in ((args.out_truth, truth), (args.out_wrapped, wrapped)):
        if path:
            with _writing(path):
                save_grid(path, grid)
    return EXIT_OK


def _cmd_error(args):
    est = _load_image(args.estimate, "estimate")
    truth = _load_image(args.truth, "truth")
    if est.shape != truth.shape:
        _fail(EXIT_DIM_MISMATCH, f"shape mismatch: {est.shape} vs {truth.shape}")
    try:
        report = shift_error(est, truth)
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, f"cannot compare: {exc}")
    _emit_json(
        {
            "alpha": report.alpha,
            "max_abs": report.max_abs,
            "rmse": report.rmse,
            "congruent_fraction": report.congruent_fraction,
        },
        args.json_out,
    )
    return EXIT_OK


# each command's handler, then the flags naming the files it reads and writes
_COMMANDS = {
    "unwrap": (_cmd_unwrap, ("input", "cv", "ch"), ("output", "trace")),
    "synth": (_cmd_synth, (), ("out_truth", "out_wrapped")),
    "error": (_cmd_error, ("estimate", "truth"), ("json_out",)),
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler, inputs, outputs = _COMMANDS[args.command]
    try:
        _check_writable([getattr(args, f) for f in outputs], [getattr(args, f) for f in inputs])
        return handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
