import json

import numpy as np
import pytest

from phaseirls import cli, irls
from phaseirls.arrayio import load_grid, save_grid
from phaseirls.cli import main
from phaseirls.irls import MAX_CG_ITERS, IrlsParams
from phaseirls.objective import ModelParams
from phaseirls.phase import TWO_PI, shift_error, wrap_to_principal
from phaseirls.synth import SceneSpec, generate_scene, wrap_scene


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def ramp_files(tmp_path):
    truth = tmp_path / "truth.npy"
    wrapped = tmp_path / "wrapped.npy"
    code = run(
        "synth", "--kind", "ramp", "--rows", 48, "--cols", 40,
        "--amplitude", 0.3, "--scale", 1.0, "--seed", 3,
        "--wrap", "--out-truth", truth, "--out-wrapped", wrapped,
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
                "--wrap", "--noise-sigma", 0.2, "--out-wrapped", p,
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_requires_an_output(self):
        assert run("synth", "--kind", "ramp", "--rows", 4, "--cols", 4) == 2

    def test_wrapped_output_requires_wrap_flag(self, tmp_path):
        assert run(
            "synth", "--kind", "ramp", "--rows", 4, "--cols", 4,
            "--out-wrapped", tmp_path / "w.npy",
        ) == 2


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
            "cg_converged", "cg_rel_residual",
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

    def test_positive_gradient_interval(self, tmp_path):
        # a descending ramp has negative differences, which the two interval
        # conventions wrap to different representatives (-0.3 vs 2*pi - 0.3)
        truth = -0.3 * np.arange(24)[:, None] + np.zeros((24, 20))
        wrapped = tmp_path / "wrapped.npy"
        save_grid(wrapped, wrap_to_principal(truth, 0.0))
        sym = tmp_path / "sym.npy"
        pos = tmp_path / "pos.npy"
        assert run("unwrap", "--input", wrapped, "--output", sym) == 0
        assert run(
            "unwrap", "--input", wrapped, "--output", pos,
            "--gradient-interval", "positive",
        ) == 0
        assert np.all(np.isfinite(load_grid(pos)))
        assert not np.array_equal(load_grid(sym), load_grid(pos))
        # the symmetric convention recovers the descending ramp
        assert shift_error(load_grid(sym), truth).max_abs <= 1e-2

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
        def non_finite(u, wr, out=None, flux=None):
            return np.full(u.shape, np.nan)

        monkeypatch.setattr(irls, "apply_reduced_system", non_finite)
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
    args = parser.parse_args(["spectrum", "--n", "4", "--m", "4"])
    assert (args.tau, args.delta) == (ModelParams().tau, ModelParams().delta)


# flags whose values the solver cannot run with; each stops before the solve
OUT_OF_RANGE = {
    "delta-underflow": ("--delta", 1e-300),
    "delta-overflow": ("--delta", 1e300),
    "cg-growth-nan": ("--cg-growth", "nan"),
    "cg-growth-inf": ("--cg-growth", "inf"),
    "eps-tol-nan": ("--eps-tol", "nan"),
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


class TestSpectrumCommand:
    def test_report_shows_improvement(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run(
            "spectrum", "--n", 16, "--m", 16, "--delta", 1e-6, "--tau", 1e-2,
            "--seed", 5, "--json-out", out,
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["kappa_pre"] < payload["kappa_a"]
        assert payload["rho_pre"] < payload["rho_a"]
        assert len(payload["eig_a"]) > 0

    def test_oversize_request_exits_2(self, tmp_path):
        assert run("spectrum", "--n", 64, "--m", 64) == 2


# every output flag of every command; BAD is a path in a directory that does not exist
UNWRITABLE_OUTPUTS = {
    "unwrap-output": ("unwrap", "--input", "WRAPPED", "--output", "BAD"),
    "unwrap-trace": ("unwrap", "--input", "WRAPPED", "--output", "OK", "--trace", "BAD"),
    "synth-out-truth": ("synth", "--kind", "ramp", "--rows", 4, "--cols", 5, "--out-truth", "BAD"),
    "synth-out-wrapped": (
        "synth", "--kind", "ramp", "--rows", 4, "--cols", 5, "--wrap", "--out-wrapped", "BAD",
    ),
    "error-json-out": ("error", "--estimate", "TRUTH", "--truth", "TRUTH", "--json-out", "BAD"),
    "spectrum-json-out": ("spectrum", "--n", 4, "--m", 4, "--json-out", "BAD"),
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
            "--wrap", "--out-truth", truth, "--out-wrapped", wrapped,
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
