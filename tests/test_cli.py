"""Command-line surface: flags, outputs, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bungee_lab import cli
from bungee_lab.cli import build_parser, main
from bungee_lab.orbit import OrbitParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_bungee_point(self, capsys):
        code, out, _ = run(capsys, "classify", "--f", "1/z^2", "--z0", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "bungee"
        assert doc["confidence"] == "heuristic"
        assert doc["oscillations"] == 2
        assert doc["termination"] == {"kind": "pole", "step": 9}
        assert doc["z0"] == [2.0, 0.0]
        assert doc["params"]["max_iter"] == 1000

    def test_complex_seed_syntax(self, capsys):
        code, out, _ = run(capsys, "classify", "--f", "z^2", "--z0", "0.1,0.2")
        assert code == 0
        assert json.loads(out)["verdict"] == "bounded"

    def test_stderr_carries_human_summary(self, capsys):
        _, _, err = run(capsys, "classify", "--f", "z^2", "--z0", "2")
        assert "escaping" in err and "overflow" in err

    def test_orbit_knobs(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--f", "1/z^2", "--z0", "2",
            "--max-iter", "50", "--escape-radius", "1e6",
            "--bound-radius", "1e3", "--min-osc", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["max_iter"] == 50
        assert doc["params"]["min_oscillations"] == 2

    def test_max_iter_beyond_int32_exits_2(self, capsys):
        # rejected when the params are built, before any step runs
        code, _, err = run(capsys, "classify", "--f", "z^2", "--z0", "0.5",
                           "--max-iter", "2147483648")
        assert code == 2
        assert "max_iter" in err

    @pytest.mark.parametrize("flag, value", [("--escape-radius", "inf"),
                                             ("--escape-radius", "1e400"),
                                             ("--bound-radius", "nan")])
    def test_non_finite_radius_exits_2(self, capsys, flag, value):
        code, out, err = run(capsys, "classify", "--f", "z^2", "--z0", "0.5", f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: escape_radius and bound_radius must be finite")

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--f", "z+", "--z0", "0")
        assert code == 2
        assert "z+" in err and "^" in err  # caret marks the offset

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--f", "w^2", "--z0", "0")
        assert code == 2
        assert "w" in err

    def test_out_of_range_literal_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--f", "1e309*z", "--z0", "0")
        assert code == 2
        assert err.startswith("error: bad expression") and "out of range" in err

    def test_long_sum_classifies(self, capsys):
        terms = "+".join(f"z/{k}" for k in range(1, 1201))
        code, _, _ = run(capsys, "classify", f"--f={terms}", "--z0=0.1")
        assert code == 0

    @staticmethod
    def classify_process(f: str) -> subprocess.CompletedProcess:
        # a fresh process, so that the stack below the parser is the CLI's
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        return subprocess.run(
            [sys.executable, "-m", "bungee_lab", "classify", f"--f={f}", "--z0=0.1"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        )

    @pytest.mark.parametrize("f", ["(" * 250 + "z" + ")" * 250, "-" * 3000 + "z"],
                             ids=["parentheses", "minuses"])
    def test_too_deep_nesting_exits_2(self, f):
        done = self.classify_process(f)
        assert done.returncode == 2
        errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "nests too deeply" in errors[0]
        assert "Traceback" not in done.stderr

    def test_nesting_that_parsed_still_parses(self):
        assert self.classify_process("(" * 240 + "z" + ")" * 240).returncode == 0

    def test_bad_seed_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--f", "z^2", "--z0", "nope")
        assert code == 2

    @pytest.mark.parametrize("z0", ["nan", "1e309", "0,-inf"])
    def test_non_finite_seed_exits_2(self, capsys, z0):
        code, out, err = run(capsys, "classify", "--f", "z^2", f"--z0={z0}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: expected a finite complex number")


class TestRender:
    def test_writes_ppm_and_reports_hash(self, capsys, tmp_path):
        out_file = tmp_path / "img.ppm"
        code, out, _ = run(
            capsys, "render", "--f", "z^2",
            "--grid", "0,0,4,4,24,24", "--max-iter", "80",
            "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out)
        data = out_file.read_bytes()
        assert data.startswith(b"P6\n24 24\n255\n")
        assert doc["sha256"] == hashlib.sha256(data).hexdigest()
        assert doc["out"] == str(out_file)
        assert doc["stats"]["counts"]["bungee"] == 0
        assert doc["stats"]["total"] == 24 * 24

    def test_grid_defaults_allow_four_numbers(self, capsys, tmp_path):
        out_file = tmp_path / "img.ppm"
        code, out, _ = run(
            capsys, "render", "--f", "z^2", "--grid", "0,0,2,2,8,8",
            "--max-iter", "40", "--out", str(out_file),
        )
        assert code == 0

    def test_malformed_grid_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "render", "--f", "z^2", "--grid", "0,0,4",
            "--out", str(tmp_path / "x.ppm"),
        )
        assert code == 2

    def test_infinite_pixel_count_exits_2(self, capsys, tmp_path):
        # int(inf) used to escape as an OverflowError traceback
        code, _, err = run(
            capsys, "render", "--f", "z^2", "--grid", "0,0,4,4,inf,512",
            "--out", str(tmp_path / "x.ppm"),
        )
        assert code == 2
        assert err.startswith("error: --grid numbers must be finite")
        assert not (tmp_path / "x.ppm").exists()

    def test_deterministic_across_worker_counts(self, capsys, tmp_path):
        digests = []
        for w in ("1", "4"):
            out_file = tmp_path / f"img{w}.ppm"
            code, out, _ = run(
                capsys, "render", "--f", "1/z^2",
                "--grid", "0,0,4,4,32,32", "--workers", w,
                "--out", str(out_file),
            )
            assert code == 0
            digests.append(json.loads(out)["sha256"])
        assert digests[0] == digests[1]

    def test_threads_variable_is_ignored(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BUNGEE_LAB_THREADS", "junk")
        code, _, _ = run(
            capsys, "render", "--f", "z^2", "--grid", "0,0,4,4,8,8",
            "--out", str(tmp_path / "x.ppm"),
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flag, value",
        [("--workers", "0"), ("--n-shade", "0"), ("--out", "no-such-dir/x.ppm")],
    )
    def test_bad_render_options_exit_2_before_rendering(
        self, capsys, tmp_path, monkeypatch, flag, value
    ):
        def no_render(*args, **kwargs):
            raise AssertionError("rendered despite a usage error")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("bungee_lab.cli.classify_grid", no_render)
        code, _, err = run(
            capsys, "render", "--f", "z^2", "--grid", "0,0,4,4,8,8",
            "--out", "x.ppm", flag, value,
        )
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


class TestOut:
    @pytest.mark.parametrize(
        "work, argv",
        [
            ("classify_point", ["classify", "--f", "z^2", "--z0", "0.5"]),
            ("find_fixed_points", ["fixed-points", "--f", "z^2"]),
            ("verify_partition", ["verify", "partition", "--f", "z^2"]),
            ("run_preset", ["preset", "sec4-power"]),
        ],
    )
    def test_unwritable_out_exits_2_before_the_work(
        self, capsys, tmp_path, monkeypatch, work, argv
    ):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran despite a usage error")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(f"bungee_lab.cli.{work}", no_work)
        code, out, err = run(capsys, *argv, "--out", "no-such-dir/x.json")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out ") and err.count("\n") == 1

    def test_bad_options_exit_2_before_opening_out(self, capsys, tmp_path):
        out_file = tmp_path / "x.json"
        code, _, err = run(
            capsys, "verify", "commute", "--f", "z^2", "--g", "1/z^2",
            "--tol", "nan", "--out", str(out_file),
        )
        assert code == 2 and err.startswith("error: tolerance")
        assert not out_file.exists()


class TestFixedPoints:
    def test_squaring_map(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--f", "z^2", "--grid", "0,0,4,4")
        assert code == 0
        doc = json.loads(out)
        kinds = {r["kind"] for r in doc["fixed_points"]}
        assert kinds == {"attracting", "repelling"}

    @pytest.mark.parametrize("starts", ["0", "-3", "8193"])
    def test_bad_starts_exit_2_before_searching(self, capsys, monkeypatch, starts):
        # 8193**2 Newton seeds exceed the grid pixel limit; the search must
        # not start, so it cannot allocate them
        def no_search(*args, **kwargs):
            raise AssertionError("find_fixed_points ran")

        monkeypatch.setattr("bungee_lab.cli.find_fixed_points", no_search)
        code, out, err = run(capsys, "fixed-points", "--f", "z^2", "--starts", starts)
        assert code == 2 and out == ""
        assert err == f"error: --starts must be between 1 and 8192, got {starts}\n"

    def test_pixel_counts_in_grid_exit_2(self, capsys, monkeypatch):
        # nx,ny mean nothing to a Newton search; they used to be dropped
        def no_search(*args, **kwargs):
            raise AssertionError("find_fixed_points ran")

        monkeypatch.setattr("bungee_lab.cli.find_fixed_points", no_search)
        code, out, err = run(capsys, "fixed-points", "--f", "z^2", "--grid", "0,0,4,4,9,9")
        assert code == 2 and out == ""
        assert err == "error: --grid wants cx,cy,w,h here, got '0,0,4,4,9,9'\n"

    def test_indifferent_report(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--f", "z*exp(-z^2)",
                           "--grid", "0,0,2,2")
        assert code == 0
        doc = json.loads(out)
        close = [r for r in doc["fixed_points"] if abs(complex(*r["location"])) < 1e-6]
        assert close and close[0]["kind"] == "rationally_indifferent"


class TestVerify:
    def test_commute_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "commute", "--f", "z^2", "--g", "1/z^2",
            "--samples", "400", "--seed", "42",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert doc["detail"]["commutes"] is True

    def test_commute_failure_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "commute", "--f", "z*exp(z^2)",
            "--g", "0.5*z*exp(z^2)", "--samples", "400",
        )
        assert code == 1
        assert json.loads(out)["detail"]["commutes"] is False

    def test_translate_counterexample_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "translate", "--f", "1+z+exp(-z)",
            "--C", "2*pi*i", "--samples", "100",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["detail"]["identity_holds"] is False
        assert doc["detail"]["first_failure"]["n"] == 2

    def test_translate_exact_period_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "verify", "translate", "--f", "sin(z)",
            "--C", "2*pi", "--samples", "100",
        )
        assert code == 0
        assert json.loads(out)["detail"]["identity_holds"] is True

    def test_containment_subcommand(self, capsys):
        code, out, _ = run(
            capsys, "verify", "containment", "--f", "z^2", "--g", "1/z^2",
            "--samples", "500", "--max-iter", "300",
        )
        assert code == 0
        docs = json.loads(out)
        assert isinstance(docs, list) and len(docs) == 2
        assert all(d["violations"] == 0 for d in docs)

    def test_invariance_subcommand(self, capsys):
        # expressions starting with "-" need the --flag=value spelling
        code, out, _ = run(
            capsys, "verify", "invariance", "--f", "z*exp(z^2)",
            "--g=-z*exp(z^2)", "--kind", "escaping", "--samples", "400",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("invariance", "--f", "1/z^2", "--g", "z", "--grid", "0,0,1e-300,1e-300"),
            ("translate", "--f", "sin(z)", "--C", "2*pi", "--n-max", "0"),
        ],
    )
    def test_no_usable_samples_is_inconclusive(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1
        docs = json.loads(out)
        docs = docs if isinstance(docs, list) else [docs]
        assert all(d["samples_confident"] == 0 for d in docs)
        assert all(d["detail"]["inconclusive"] is True for d in docs)
        assert "inconclusive" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("commute", "--f", "z^2", "--g", "z+1", "--tol", "nan"), "tolerance"),
            (("commute", "--f", "z^2", "--g", "z+1", "--tol", "inf"), "tolerance"),
            (("commute", "--f", "z^2", "--g", "z+1", "--tol", "-1"), "tolerance"),
            (("translate", "--f", "sin(z)", "--C", "2*pi", "--tol", "nan"), "tolerance"),
            (("translate", "--f", "sin(z)", "--C", "2*pi", "--n-max", "-5"), "n_max"),
            (("partition", "--f", "z^2", "--seed", "-1"), "seed"),
        ],
    )
    def test_bad_check_options_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_over_cap_composition_exits_2_before_opening_out(self, capsys, tmp_path, monkeypatch):
        # the composite of two 2000-factor products is far over the node cap
        def no_work(*args, **kwargs):
            raise AssertionError("containment ran despite a usage error")

        monkeypatch.setattr(cli, "verify_composition_containments", no_work)
        big = "*".join(["z"] * 2000)
        out_file = tmp_path / "x.json"
        code, out, err = run(
            capsys, "verify", "containment", "--f", big, "--g", big, "--out", str(out_file)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: composition would produce about ")
        assert err.count("\n") == 1
        assert not out_file.exists()

    def test_partition_without_decisive_samples_is_inconclusive(self, capsys):
        # every sample of this tiny square sits on the pole at 0
        code, out, err = run(
            capsys, "verify", "partition", "--f", "1/z^2", "--grid", "0,0,1e-300,1e-300"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["samples_confident"] == 0
        assert doc["detail"]["counts"]["pole"] == doc["samples_total"]
        assert doc["detail"]["inconclusive"] is True
        assert "inconclusive" in err

    def test_partition_with_decisive_samples_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "verify", "partition", "--f", "z^2", "--samples", "256", "--max-iter", "100"
        )
        assert code == 0
        assert json.loads(out)["detail"]["inconclusive"] is False

    @pytest.mark.parametrize("constant", ["exp(1000)", "0^-1", "1e309"])
    def test_bad_translate_constant_exits_2(self, capsys, constant):
        code, out, err = run(capsys, "verify", "translate", "--f", "sin(z)", "--C", constant)
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("commute", "--f", "z", "--g", "z", "--grid", "0,0,1e309,1"),
            ("partition", "--f", "z^2", "--grid", "nan,0,1,1"),
        ],
    )
    def test_non_finite_grid_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--samples", "64")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --grid numbers must be finite")

    def test_pixel_counts_in_grid_exit_2(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("verify_partition ran")

        monkeypatch.setattr("bungee_lab.cli.verify_partition", no_work)
        code, out, err = run(
            capsys, "verify", "partition", "--f", "z^2", "--grid", "0,0,4,4,9,9", "--samples", "64"
        )
        assert code == 2 and out == ""
        assert err == "error: --grid wants cx,cy,w,h here, got '0,0,4,4,9,9'\n"

    def test_verify_without_relation_exits_2(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--samples", "64", "commute", "--f", "z", "--g", "z"],
            ["--seed", "3", "partition", "--f", "z^2"],
            ["--out", "top.json", "partition", "--f", "z^2"],
            ["commute", "--strict", "--f", "z", "--g", "z"],
            ["--preset", "sec4-power"],
        ],
    )
    def test_removed_flags_exit_2(self, capsys, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert not (tmp_path / "top.json").exists()

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "commute", "--f", "z^2", "--g", "1/z^2",
            "--samples", "200", "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["detail"]["commutes"] is True


class TestPresets:
    def test_sec4_power_passes(self, capsys):
        code, out, err = run(capsys, "preset", "sec4-power", "--samples", "500")
        assert code == 0
        checks = json.loads(out)
        assert isinstance(checks, list) and checks
        assert all(c["passed"] for c in checks)
        assert {"name", "passed", "expectation", "report"} <= set(checks[0])
        assert "PASS" in err

    def test_scaled_family_expects_failure_and_passes(self, capsys):
        # the preset asserts non-commutation, so the run passes overall
        code, out, _ = run(capsys, "preset", "scaled-family", "--samples", "400")
        assert code == 0
        checks = json.loads(out)
        assert all(c["passed"] for c in checks)
        commute = [c for c in checks if "commute" in c["name"]]
        assert commute and commute[0]["report"]["violations"] > 0

    def test_unknown_preset_exits_2(self, capsys):
        code, _, err = run(capsys, "preset", "no-such-thing")
        assert code == 2
        assert "no-such-thing" in err

    def test_preset_with_relation_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "preset", "sec4-power", "commute",
                         "--f", "z^2", "--g", "z^2")
        assert code == 2

    def test_list_presets(self, capsys):
        code, out, _ = run(capsys, "preset")
        assert code == 0
        names = {d["name"] for d in json.loads(out)}
        assert {"sec4-power", "sec4-expfamily", "all-paper"} <= names

    def test_list_presets_to_out(self, capsys, tmp_path):
        out_file = tmp_path / "list.json"
        code, out, _ = run(capsys, "preset", "--out", str(out_file))
        assert code == 0
        assert json.loads(out_file.read_text()) == json.loads(out)

    def test_list_presets_unwritable_out_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "preset", "--out", str(tmp_path / "no-such-dir" / "x.json"))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--samples", "0", "sample count must be at least 1"),
         ("--seed", "-1", "sample seed must be non-negative")],
    )
    def test_list_presets_checks_sampling_before_out(self, capsys, tmp_path, flag, value, message):
        out_file = tmp_path / "list.json"
        code, out, err = run(capsys, "preset", flag, value, "--out", str(out_file))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"
        assert not out_file.exists()

    def test_top_level_preset_alias(self, capsys):
        code, out, _ = run(capsys, "preset", "indifferent-fixed-point")
        assert code == 0
        assert all(c["passed"] for c in json.loads(out))

    def test_list_flag_is_gone(self, capsys):
        code, out, _ = run(capsys, "preset", "--list")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_exit_2(self, capsys, samples):
        code, out, err = run(capsys, "preset", "sec4-power", "--samples", samples)
        assert code == 2 and out == ""
        assert err == "error: sample count must be at least 1\n"

    @pytest.mark.parametrize(
        "argv", [["preset", "sec4-power"], ["verify", "partition", "--f", "z"]]
    )
    def test_samples_beyond_the_pixel_limit_exit_2_before_opening_out(
        self, capsys, tmp_path, argv
    ):
        # a count numpy cannot allocate is refused before any work
        out_file = tmp_path / "x.json"
        code, out, err = run(
            capsys, *argv, "--samples", str(2**62), "--out", str(out_file)
        )
        assert code == 2 and out == ""
        assert err == "error: sample count must be at most 67108864\n"
        assert not out_file.exists()

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "preset", "sec4-power", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: sample seed must be non-negative\n"


class TestDefaults:
    def test_flags_default_to_the_library_values(self, capsys):
        code, out, _ = run(capsys, "classify", "--f", "z^2", "--z0", "0.5")
        assert code == 0
        assert json.loads(out)["params"] == OrbitParams().to_dict()

        code, out, _ = run(capsys, "verify", "translate", "--f", "sin(z)", "--C", "2*pi")
        assert code == 0
        doc = json.loads(out)
        assert {k: doc["params"][k] for k in OrbitParams().to_dict()} == (
            OrbitParams().to_dict()
        )
        assert (doc["seed"], doc["samples_total"]) == (42, 4096)
        assert (doc["detail"]["tol"], doc["detail"]["n_max"]) == (1e-9, 20)


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


class TestSetUp:
    @staticmethod
    def loaded_after_import(modules) -> str:
        """Which of modules a fresh `import bungee_lab, bungee_lab.cli` loads."""
        code = (
            "import sys, bungee_lab, bungee_lab.cli; "
            f"print(sorted({set(modules)!r} & set(sys.modules)))"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout

    def test_import_leaves_process_pool_unloaded(self):
        # all-paper imports its process pool only when it forks workers
        assert self.loaded_after_import({"multiprocessing", "concurrent.futures.process"}) == "[]\n"

    def test_import_leaves_fractions_unloaded(self):
        # exact Taylor coefficients are built only for a map with a petal
        assert self.loaded_after_import({"fractions", "decimal"}) == "[]\n"


class TestParser:
    ARGVS = [
        ["preset", "sec4-power", "--samples", "64"],
        ["verify", "containment", "--f", "z^2", "--g", "1/z^2", "--samples", "64", "--strict"],
        ["classify", "--f", "z^2", "--z0", "0.5", "--max-iter", "50"],
        ["classify", "--f", "z^2", "--z0", "0.5"],
    ]

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_cached_parser_keeps_no_state_between_calls(self, capsys, monkeypatch):
        seen = []
        for name, handler in list(cli._HANDLERS.items()):
            def record(args, handler=handler):
                seen.append(args)
                return handler(args)

            monkeypatch.setitem(cli._HANDLERS, name, record)
        for argv in self.ARGVS:
            assert main(argv) in (0, 1)
            assert seen[-1] == build_parser.__wrapped__().parse_args(argv)
        assert seen[-1].max_iter == 1000

    def test_help_and_usage_error_exit_codes(self, capsys):
        for _ in range(2):
            code, out, _ = run(capsys, "classify", "--help")
            assert code == 0 and out.startswith("usage: bungee-lab classify")
            code, _, err = run(capsys, "classify", "--f", "z^2")
            assert code == 2 and "--z0" in err
            code, out, _ = run(capsys, "classify", "--f", "z^2", "--z0", "0.5")
            assert code == 0 and json.loads(out)["params"]["max_iter"] == 1000
