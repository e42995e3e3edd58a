import errno
import json
import os

import numpy as np
import pytest

from phaseirls import cli, kernels
from phaseirls.arrayio import load_grid, save_grid
from phaseirls.cli import main
from phaseirls.irls import MAX_CG_ITERS, IrlsParams
from phaseirls.objective import ModelParams
from phaseirls.phase import TWO_PI, shift_error, wrap_to_principal
from phaseirls.synth import SceneSpec, add_phase_noise, generate_scene, wrap_scene


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def ramp_files(tmp_path):
    truth = tmp_path / "truth.npy"
    wrapped = tmp_path / "wrapped.npy"
    code = run(
        "synth", "--kind", "ramp", "--rows", 48, "--cols", 40,
        "--amplitude", 0.3, "--scale", 1.0, "--seed", 3,
        "--out-truth", truth, "--out-wrapped", wrapped,
    )
    assert code == 0
    return truth, wrapped


class TestSynthCommand:
    def test_deterministic_outputs(self, tmp_path):
        paths = [tmp_path / f"w{i}.npy" for i in (0, 1)]
        for p in paths:
            assert run(
                "synth", "--kind", "gaussian-bumps", "--rows", 32, "--cols", 32,
                "--amplitude", 5.0, "--scale", 8.0, "--seed", 12,
                "--noise-sigma", 0.2, "--out-wrapped", p,
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_requires_an_output(self):
        assert run("synth", "--kind", "ramp", "--rows", 4, "--cols", 4) == 2

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_wrapped_output_alone_is_the_wrapped_scene(self, tmp_path, sigma):
        alone, both = tmp_path / "alone.npy", tmp_path / "both.npy"
        argv = ("synth", "--kind", "gaussian-bumps", "--rows", 12, "--cols", 10,
                "--amplitude", 6.0, "--scale", 3.0, "--seed", 4, "--noise-sigma", sigma)
        assert run(*argv, "--out-wrapped", alone) == 0
        assert run(*argv, "--out-truth", tmp_path / "t.npy", "--out-wrapped", both) == 0
        want = tmp_path / "want.npy"
        truth = generate_scene(SceneSpec("gaussian-bumps", 12, 10, 6.0, 3.0, 4))
        save_grid(want, add_phase_noise(wrap_scene(truth), sigma, 4 + 1))
        assert alone.read_bytes() == both.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("flags", [
        ("--noise-sigma", "inf"),
        ("--noise-sigma", "nan"),
        ("--noise-sigma", "-1"),
        ("--amplitude", "inf"),
        ("--scale", "nan"),
        ("--seed", 2**64),
        # the noise is keyed by seed + 1
        ("--seed", 2**64 - 1, "--noise-sigma", "0.1"),
    ])
    def test_bad_input_exits_2_and_writes_nothing(self, tmp_path, capsys, flags):
        truth, wrapped = tmp_path / "t.npy", tmp_path / "w.npy"
        assert run(
            "synth", "--kind", "gaussian-bumps", "--rows", 8, "--cols", 8,
            "--out-truth", truth, "--out-wrapped", wrapped, *flags,
        ) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invalid scene spec: ")
        assert not truth.exists() and not wrapped.exists()

    @pytest.mark.parametrize("flags", [
        ("--kind", "gaussian-bumps", "--amplitude", "1e308"),
        ("--kind", "ramp", "--amplitude", "1e300", "--scale", "1e-10"),
        # the noise is checked whichever files are asked for
        ("--kind", "gaussian-bumps", "--noise-sigma", "-1"),
    ])
    def test_bad_truth_only_request_exits_2_and_writes_nothing(self, tmp_path, capsys, flags):
        truth = tmp_path / "t.npy"
        assert run("synth", "--rows", 8, "--cols", 8, "--out-truth", truth, *flags) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invalid scene spec: ")
        assert not truth.exists()

    def test_largest_seed_without_noise_exits_0(self, tmp_path):
        assert run(
            "synth", "--kind", "gaussian-bumps", "--rows", 8, "--cols", 8,
            "--seed", 2**64 - 1, "--out-wrapped", tmp_path / "w.npy",
        ) == 0


class TestUnwrapCommand:
    def test_ramp_pipeline(self, tmp_path, ramp_files):
        truth, wrapped = ramp_files
        out = tmp_path / "unwrapped.npy"
        trace = tmp_path / "trace.jsonl"
        assert run(
            "unwrap", "--input", wrapped, "--output", out, "--trace", trace
        ) == 0
        rep = shift_error(load_grid(out), load_grid(truth))
        assert rep.max_abs <= 1e-2

        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records
        assert set(records[0]) == {
            "k", "m_cg", "delta_rel", "h_delta", "cg_iters", "fallback",
            "cg_converged", "cg_rel_residual", "ritz_min", "ritz_max",
        }
        assert records[0]["k"] == 0
        assert records[0]["delta_rel"] is None
        h = [r["h_delta"] for r in records]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(h, h[1:]))

    def test_missing_input_exits_2(self, tmp_path):
        assert run(
            "unwrap", "--input", tmp_path / "nope.npy", "--output", tmp_path / "o.npy"
        ) == 2

    def test_wrong_weight_shape_exits_3(self, tmp_path, ramp_files):
        _, wrapped = ramp_files
        cv = tmp_path / "cv.npy"
        ch = tmp_path / "ch.npy"
        save_grid(cv, np.ones((5, 5)))
        save_grid(ch, np.ones((5, 5)))
        assert run(
            "unwrap", "--input", wrapped, "--output", tmp_path / "o.npy",
            "--cv", cv, "--ch", ch,
        ) == 3

    def test_only_one_weight_file_exits_2(self, tmp_path, ramp_files):
        _, wrapped = ramp_files
        cv = tmp_path / "cv.npy"
        save_grid(cv, np.ones((47, 40)))
        assert run(
            "unwrap", "--input", wrapped, "--output", tmp_path / "o.npy", "--cv", cv
        ) == 2

    def test_congruent_flag(self, tmp_path, ramp_files):
        _, wrapped = ramp_files
        out = tmp_path / "congruent.npy"
        assert run(
            "unwrap", "--input", wrapped, "--output", out, "--congruent"
        ) == 0
        x = load_grid(wrapped)
        u = load_grid(out)
        cycles = (u - x) / TWO_PI
        assert np.max(np.abs(cycles - np.rint(cycles))) < 1e-9

    def test_deterministic_reruns(self, tmp_path, ramp_files):
        _, wrapped = ramp_files
        outs = [tmp_path / f"u{i}.npy" for i in (0, 1)]
        traces = [tmp_path / f"t{i}.jsonl" for i in (0, 1)]
        for o, t in zip(outs, traces):
            assert run("unwrap", "--input", wrapped, "--output", o, "--trace", t) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert traces[0].read_bytes() == traces[1].read_bytes()

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
    def test_empty_input_exits_2(self, tmp_path, capsys, shape):
        empty = tmp_path / "empty.npy"
        save_grid(empty, np.zeros(shape))
        out = tmp_path / "o.npy"
        assert run("unwrap", "--input", empty, "--output", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: input: empty grid")
        assert not out.exists()

    def test_single_row_with_empty_vertical_weights(self, tmp_path):
        m = 12
        truth = 0.4 * np.arange(m)[None, :]
        wrapped = tmp_path / "wrapped.npy"
        cv = tmp_path / "cv.npy"
        ch = tmp_path / "ch.npy"
        save_grid(wrapped, wrap_to_principal(truth, 0.0))
        save_grid(cv, np.zeros((0, m)))
        save_grid(ch, np.ones((1, m - 1)))
        out = tmp_path / "o.npy"
        assert run(
            "unwrap", "--input", wrapped, "--output", out, "--cv", cv, "--ch", ch
        ) == 0
        u = load_grid(out)
        assert u.shape == (1, m)
        assert shift_error(u, truth).max_abs < 1e-10

    def test_solver_breakdown_exits_4(self, tmp_path, capsys, monkeypatch, ramp_files):
        def non_finite(u, wv, wh, fv, fh, out):
            return np.full(u.shape, np.nan)

        monkeypatch.setattr(kernels, "weighted_laplacian", non_finite)
        _, wrapped = ramp_files
        out = tmp_path / "o.npy"
        assert run("unwrap", "--input", wrapped, "--output", out) == 4
        assert capsys.readouterr().err.startswith("error: solver breakdown")
        assert not out.exists()

    def test_start_budget_above_cap_exits_2(self, tmp_path, capsys, ramp_files):
        _, wrapped = ramp_files
        out = tmp_path / "o.npy"
        assert run("unwrap", "--input", wrapped, "--output", out, "--cg-start", 20000) == 2
        err = capsys.readouterr().err.splitlines()
        # names the field --cg-start sets, and its upper bound
        assert len(err) == 1 and "max_iter_cg_start" in err[0] and str(MAX_CG_ITERS) in err[0]
        assert not out.exists()

    def test_uniform_weights_match_explicit_unit_files(self, tmp_path, ramp_files):
        _, wrapped = ramp_files
        x = load_grid(wrapped)
        n, m = x.shape
        cv = tmp_path / "cv.npy"
        ch = tmp_path / "ch.npy"
        save_grid(cv, np.ones((n - 1, m)))
        save_grid(ch, np.ones((n, m - 1)))
        implicit = tmp_path / "implicit.npy"
        explicit = tmp_path / "explicit.npy"
        assert run("unwrap", "--input", wrapped, "--output", implicit) == 0
        assert run(
            "unwrap", "--input", wrapped, "--output", explicit, "--cv", cv, "--ch", ch
        ) == 0
        assert implicit.read_bytes() == explicit.read_bytes()


def test_defaults_are_the_dataclass_defaults():
    parser = cli._build_parser()
    args = parser.parse_args(["unwrap", "--input", "i.npy", "--output", "o.npy"])
    assert cli._solver_params(args, None) == (ModelParams(), IrlsParams())


# flags whose values the solver cannot run with; each stops before the solve
OUT_OF_RANGE = {
    "delta-underflow": ("--delta", 1e-300),
    "delta-overflow": ("--delta", 1e300),
    "cg-growth-nan": ("--cg-growth", "nan"),
    "cg-growth-inf": ("--cg-growth", "inf"),
    "eps-tol-nan": ("--eps-tol", "nan"),
    "max-outer-zero": ("--max-outer", 0),
    "weights-1e154": ("WEIGHTS", 1e154),
    "weights-1e155": ("WEIGHTS", 1e155),
}


@pytest.fixture
def small_wrapped(tmp_path):
    spec = SceneSpec("gaussian-bumps", 16, 16, amplitude=5.0, feature_scale=4.0, seed=2)
    path = tmp_path / "wrapped.npy"
    save_grid(path, wrap_scene(generate_scene(spec)))
    return path


def _weight_flags(tmp_path, value, n=16, m=16):
    cv = tmp_path / "cv.npy"
    ch = tmp_path / "ch.npy"
    save_grid(cv, np.full((n - 1, m), value))
    save_grid(ch, np.full((n, m - 1), value))
    return ("--cv", cv, "--ch", ch)


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_parameters_exit_2_before_the_solve(
    tmp_path, capsys, monkeypatch, small_wrapped, case
):
    def never(*args, **kwargs):
        raise AssertionError("unwrap ran with out-of-range parameters")

    monkeypatch.setattr(cli, "unwrap", never)
    flag, value = OUT_OF_RANGE[case]
    extra = _weight_flags(tmp_path, value) if flag == "WEIGHTS" else (flag, value)
    out = tmp_path / "o.npy"
    assert run("unwrap", "--input", small_wrapped, "--output", out, *extra) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid parameters: ")
    assert not out.exists()


def test_negative_weight_exits_2_before_the_solve(tmp_path, capsys, monkeypatch, small_wrapped):
    def never(*args, **kwargs):
        raise AssertionError("unwrap ran with a negative weight")

    monkeypatch.setattr(cli, "unwrap", never)
    cv, ch = tmp_path / "cv.npy", tmp_path / "ch.npy"
    weights = np.ones((15, 16))
    weights[3, 4] = -0.5
    save_grid(cv, weights)
    save_grid(ch, np.ones((16, 15)))
    out = tmp_path / "o.npy"
    assert run("unwrap", "--input", small_wrapped, "--output", out, "--cv", cv, "--ch", ch) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: invalid weights: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [("--delta", 1e-150), ("--delta", 1e150), ("--cg-growth", 1e308), ("WEIGHTS", 1e150)],
)
def test_extreme_accepted_parameters_run(tmp_path, small_wrapped, extra):
    if extra[0] == "WEIGHTS":
        extra = _weight_flags(tmp_path, extra[1])
    out = tmp_path / "o.npy"
    trace = tmp_path / "t.jsonl"
    assert run("unwrap", "--input", small_wrapped, "--output", out, "--trace", trace, *extra) == 0
    assert np.all(np.isfinite(load_grid(out)))
    h = [json.loads(line)["h_delta"] for line in trace.read_text().splitlines()]
    assert h and all(np.isfinite(h))


class TestErrorCommand:
    def test_self_comparison_is_zero(self, tmp_path):
        grid = tmp_path / "g.npy"
        save_grid(grid, np.linspace(0, 5, 30).reshape(5, 6))
        out = tmp_path / "err.json"
        assert run("error", "--estimate", grid, "--truth", grid, "--json-out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["alpha"] == 0.0
        assert payload["max_abs"] == 0.0
        assert payload["rmse"] == 0.0
        assert payload["congruent_fraction"] == 1.0

    def test_shape_mismatch_exits_3(self, tmp_path):
        a = tmp_path / "a.npy"
        b = tmp_path / "b.npy"
        save_grid(a, np.zeros((3, 3)))
        save_grid(b, np.zeros((4, 3)))
        assert run("error", "--estimate", a, "--truth", b) == 3

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
    def test_empty_grid_exits_2(self, tmp_path, capsys, shape):
        empty = tmp_path / "empty.npy"
        save_grid(empty, np.zeros(shape))
        assert run("error", "--estimate", empty, "--truth", empty) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: estimate: empty grid")

    @pytest.mark.parametrize(
        "estimate",
        [
            # finite errors whose sum overflows: the shift is not a float64
            np.full((2, 2), 1e308),
            # a mean-zero error whose square overflows: the RMSE is not a float64
            np.array([[1e200, -1e200], [0.0, 0.0]]),
        ],
        ids=["mean", "square"],
    )
    def test_overflowing_error_exits_2_without_output(self, tmp_path, capsys, estimate):
        est, truth, out = tmp_path / "est.npy", tmp_path / "truth.npy", tmp_path / "err.json"
        save_grid(est, estimate)
        save_grid(truth, np.zeros((2, 2)))
        assert run("error", "--estimate", est, "--truth", truth, "--json-out", out) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot compare: the error overflows")

    def test_json_output_refuses_non_finite_values(self, tmp_path):
        out = tmp_path / "err.json"
        with pytest.raises(ValueError):
            cli._emit_json({"rmse": float("inf")}, out)
        assert not out.exists()


# every output flag of every command; BAD is a path in a directory that does not exist
UNWRITABLE_OUTPUTS = {
    "unwrap-output": ("unwrap", "--input", "WRAPPED", "--output", "BAD"),
    "unwrap-trace": ("unwrap", "--input", "WRAPPED", "--output", "OK", "--trace", "BAD"),
    "synth-out-truth": ("synth", "--kind", "ramp", "--rows", 4, "--cols", 5, "--out-truth", "BAD"),
    "synth-out-wrapped": (
        "synth", "--kind", "ramp", "--rows", 4, "--cols", 5, "--out-wrapped", "BAD",
    ),
    "error-json-out": ("error", "--estimate", "TRUTH", "--truth", "TRUTH", "--json-out", "BAD"),
}


@pytest.mark.parametrize("target", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_exits_2(tmp_path, capsys, ramp_files, target):
    truth, wrapped = ramp_files
    bad = tmp_path / "missing" / "out"
    paths = {"WRAPPED": wrapped, "TRUTH": truth, "OK": tmp_path / "o.npy", "BAD": bad}
    assert run(*(paths.get(a, a) for a in UNWRITABLE_OUTPUTS[target])) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {bad}: ")


class TestEndToEnd:
    def test_synth_unwrap_error_cycle(self, tmp_path):
        truth = tmp_path / "truth.npy"
        wrapped = tmp_path / "wrapped.npy"
        unwrapped = tmp_path / "unwrapped.npy"
        report = tmp_path / "report.json"
        assert run(
            "synth", "--kind", "gaussian-bumps", "--rows", 64, "--cols", 64,
            "--amplitude", 6.0, "--scale", 12.0, "--seed", 31,
            "--out-truth", truth, "--out-wrapped", wrapped,
        ) == 0
        assert run("unwrap", "--input", wrapped, "--output", unwrapped) == 0
        assert run(
            "error", "--estimate", unwrapped, "--truth", truth, "--json-out", report
        ) == 0
        payload = json.loads(report.read_text())
        assert payload["max_abs"] <= 1e-2
        assert payload["congruent_fraction"] >= 0.999


@pytest.mark.parametrize("flag", ["--output", "--trace"])
def test_unwritable_destination_fails_before_the_solve(
    tmp_path, capsys, monkeypatch, ramp_files, flag
):
    def never(*args, **kwargs):
        raise AssertionError("unwrap ran although the output cannot be written")

    monkeypatch.setattr(cli, "unwrap", never)
    _, wrapped = ramp_files
    bad = tmp_path / "missing" / "out"
    paths = {"--output": tmp_path / "o.npy", "--trace": tmp_path / "t.jsonl", flag: bad}
    assert run("unwrap", "--input", wrapped, *(a for kv in paths.items() for a in kv)) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")
    assert not any(p.exists() for p in paths.values())


# outputs refused before any work: each case is the argv, the refused path and
# the reason, an errno name or the path it names again; ALIAS spells OUT's path
# another way, ALIAS_WRAPPED spells WRAPPED's, and WRAPPED, TRUTH, CV, CH are inputs
CLASHING_OUTPUTS = {
    "unwrap-output-is-directory": (
        ("unwrap", "--input", "WRAPPED", "--output", "DIR"), "DIR", "EISDIR",
    ),
    "unwrap-trace-is-directory": (
        ("unwrap", "--input", "WRAPPED", "--output", "OUT", "--trace", "DIR"), "DIR", "EISDIR",
    ),
    "unwrap-trace-is-output": (
        ("unwrap", "--input", "WRAPPED", "--output", "OUT", "--trace", "ALIAS"), "ALIAS", "OUT",
    ),
    "unwrap-output-is-input": (
        ("unwrap", "--input", "WRAPPED", "--output", "WRAPPED"), "WRAPPED", "WRAPPED",
    ),
    "unwrap-trace-is-input": (
        ("unwrap", "--input", "WRAPPED", "--output", "OUT", "--trace", "ALIAS_WRAPPED"),
        "ALIAS_WRAPPED", "WRAPPED",
    ),
    "unwrap-output-is-hard-link-to-input": (
        ("unwrap", "--input", "WRAPPED", "--output", "LINK"), "LINK", "WRAPPED",
    ),
    "unwrap-output-is-cv": (
        ("unwrap", "--input", "WRAPPED", "--output", "CV", "--cv", "CV", "--ch", "CH"), "CV", "CV",
    ),
    "synth-out-wrapped-is-out-truth": (
        ("synth", "--kind", "ramp", "--rows", 4, "--cols", 5,
         "--out-truth", "OUT", "--out-wrapped", "ALIAS"),
        "ALIAS", "OUT",
    ),
    "error-json-out-is-estimate": (
        ("error", "--estimate", "WRAPPED", "--truth", "TRUTH", "--json-out", "ALIAS_WRAPPED"),
        "ALIAS_WRAPPED", "WRAPPED",
    ),
    "error-json-out-is-directory": (
        ("error", "--estimate", "WRAPPED", "--truth", "TRUTH", "--json-out", "DIR"),
        "DIR", "EISDIR",
    ),
    "error-json-out-in-missing-directory": (
        ("error", "--estimate", "WRAPPED", "--truth", "TRUTH", "--json-out", "MISSING"),
        "MISSING", "ENOENT",
    ),
}


@pytest.mark.parametrize("case", sorted(CLASHING_OUTPUTS))
def test_clashing_destinations_fail_before_the_work(
    tmp_path, capsys, monkeypatch, ramp_files, case
):
    def never(*args, **kwargs):
        raise AssertionError("the work ran although the outputs cannot be written")

    for work in ("unwrap", "generate_scene", "shift_error"):
        monkeypatch.setattr(cli, work, never)
    truth, wrapped = ramp_files
    (tmp_path / "sub").mkdir()
    out = tmp_path / "o.npy"
    paths = {
        "WRAPPED": wrapped, "TRUTH": truth, "CV": tmp_path / "cv.npy", "CH": tmp_path / "ch.npy",
        "DIR": tmp_path, "OUT": out, "ALIAS": tmp_path / "sub" / ".." / "o.npy",
        "ALIAS_WRAPPED": tmp_path / "sub" / ".." / wrapped.name,
        "MISSING": tmp_path / "missing" / "s.json", "LINK": tmp_path / "link.npy",
    }
    os.link(wrapped, paths["LINK"])
    save_grid(paths["CV"], np.ones((47, 40)))
    save_grid(paths["CH"], np.ones((48, 39)))
    inputs = {key: paths[key].read_bytes() for key in ("WRAPPED", "TRUTH", "CV", "CH")}
    argv, named, why = CLASHING_OUTPUTS[case]
    assert run(*(paths.get(a, a) for a in argv)) == 2
    reason = f"same file as {paths[why]}" if why in paths else os.strerror(getattr(errno, why))
    assert capsys.readouterr().err == f"error: cannot write {paths[named]}: {reason}\n"
    assert not out.exists()
    assert {key: paths[key].read_bytes() for key in inputs} == inputs
