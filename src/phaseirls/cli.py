"""Command-line interface: unwrap, synth, error, and spectrum subcommands.

Exit codes: 0 success, 2 malformed input file or unwritable output path,
3 dimension mismatch between grids, 4 numerical breakdown.  Diagnostics go
to stderr; requested outputs are NPY grids or JSON files.
"""

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from .arrayio import ArrayFileError, load_grid, save_grid
from .diagnostics import conditioning_report
from .irls import IrlsParams, unwrap
from .objective import ModelParams, lipschitz_constant
from .pcg import NumericalBreakdown
from .phase import WeightField, congruent_round, shift_error, wrap_to_principal
from .synth import SceneSpec, add_phase_noise, generate_scene, wrap_scene

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


def _check_writable(path):
    """Fail now, not after the solve, when ``path``'s directory is missing or read-only."""
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
    p_unwrap.add_argument(
        "--gradient-interval",
        choices=("symmetric", "positive"),
        default="symmetric",
        help="principal interval for wrapped gradients: [-pi, pi) or [0, 2*pi)",
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument(
        "--kind",
        required=True,
        choices=("ramp", "gaussian-bumps", "plateau-discontinuity"),
    )
    p_synth.add_argument("--rows", type=int, required=True)
    p_synth.add_argument("--cols", type=int, required=True)
    p_synth.add_argument("--amplitude", type=float, default=1.0)
    p_synth.add_argument("--scale", type=float, default=8.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--wrap", action="store_true", help="also produce the wrapped scene")
    p_synth.add_argument("--noise-sigma", type=float, default=0.0)
    p_synth.add_argument("--out-truth", help="unwrapped ground-truth NPY file")
    p_synth.add_argument("--out-wrapped", help="wrapped scene NPY file (needs --wrap)")

    p_error = sub.add_parser("error", help="shift-compensated error metrics")
    p_error.add_argument("--estimate", required=True)
    p_error.add_argument("--truth", required=True)
    p_error.add_argument("--json-out", help="write metrics JSON here instead of stdout")

    p_spec = sub.add_parser("spectrum", help="conditioning study of the dense system")
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("--m", type=int, required=True)
    p_spec.add_argument("--delta", type=float, default=ModelParams.delta)
    p_spec.add_argument("--tau", type=float, default=ModelParams.tau)
    p_spec.add_argument("--seed", type=int, default=0)
    p_spec.add_argument("--json-out", help="write the report JSON here instead of stdout")

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
    text = json.dumps(payload, indent=2, sort_keys=True)
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
    x = wrap_to_principal(_load_image(args.input, "input"), 0.0)
    n, m = x.shape
    weights = None
    if (args.cv is None) != (args.ch is None):
        _fail(EXIT_BAD_INPUT, "weights require both --cv and --ch")
    if args.cv is not None:
        cv = _load(args.cv, "cv weights")
        ch = _load(args.ch, "ch weights")
        if cv.shape != (n - 1, m) or ch.shape != (n, m - 1):
            _fail(
                EXIT_DIM_MISMATCH,
                f"weight shapes {cv.shape}/{ch.shape} do not match image {x.shape}",
            )
        try:
            weights = WeightField(cv=cv, ch=ch)
        except ValueError as exc:
            _fail(EXIT_BAD_INPUT, f"invalid weights: {exc}")

    model, params = _solver_params(args, weights)
    for path in (args.output, args.trace):
        if path:
            _check_writable(path)

    lo = -np.pi if args.gradient_interval == "symmetric" else 0.0
    try:
        result = unwrap(x, weights, model, params, gradient_lo=lo)
    except NumericalBreakdown as exc:
        _fail(EXIT_NUMERIC, f"solver breakdown: {exc}")

    out = result.u
    if args.congruent:
        out = congruent_round(out, x)
    with _writing(args.output):
        save_grid(args.output, out)

    if args.trace:
        with _writing(args.trace), open(args.trace, "w", encoding="utf-8") as fh:
            for rec in result.trace.records:
                fh.write(
                    json.dumps(
                        {
                            "k": rec.k,
                            "m_cg": rec.m_cg,
                            "delta_rel": rec.delta_rel,
                            "h_delta": rec.h_delta,
                            "cg_iters": rec.cg_iters,
                            "fallback": rec.fallback_used,
                            "cg_converged": rec.cg_converged,
                            "cg_rel_residual": rec.cg_rel_residual,
                        }
                    )
                    + "\n"
                )
    return EXIT_OK


def _cmd_synth(args):
    if not args.out_truth and not args.out_wrapped:
        _fail(EXIT_BAD_INPUT, "nothing to do: pass --out-truth and/or --out-wrapped")
    if args.out_wrapped and not args.wrap:
        _fail(EXIT_BAD_INPUT, "--out-wrapped requires --wrap")
    try:
        spec = SceneSpec(
            kind=args.kind,
            rows=args.rows,
            cols=args.cols,
            amplitude=args.amplitude,
            feature_scale=args.scale,
            seed=args.seed,
        )
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, f"invalid scene spec: {exc}")
    truth = generate_scene(spec)
    if args.out_truth:
        with _writing(args.out_truth):
            save_grid(args.out_truth, truth)
    if args.wrap and args.out_wrapped:
        wrapped = wrap_scene(truth)
        if args.noise_sigma > 0:
            wrapped = add_phase_noise(wrapped, args.noise_sigma, args.seed + 1)
        with _writing(args.out_wrapped):
            save_grid(args.out_wrapped, wrapped)
    return EXIT_OK


def _cmd_error(args):
    est = _load_image(args.estimate, "estimate")
    truth = _load_image(args.truth, "truth")
    if est.shape != truth.shape:
        _fail(EXIT_DIM_MISMATCH, f"shape mismatch: {est.shape} vs {truth.shape}")
    report = shift_error(est, truth)
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


def _cmd_spectrum(args):
    try:
        report = conditioning_report(args.n, args.m, args.delta, args.tau, args.seed)
    except ValueError as exc:
        _fail(EXIT_BAD_INPUT, f"invalid spectrum request: {exc}")
    _emit_json(report.to_dict(), args.json_out)
    return EXIT_OK


_COMMANDS = {
    "unwrap": _cmd_unwrap,
    "synth": _cmd_synth,
    "error": _cmd_error,
    "spectrum": _cmd_spectrum,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
