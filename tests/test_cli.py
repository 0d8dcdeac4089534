"""End-to-end tests for the command-line interface.

Every test drives ``chaoslab.cli.main`` in-process with an explicit argv and
an isolated output directory, then inspects exit codes, the canonical
``report.json`` document, and the ``samples.csv`` table.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import chaoslab.cli
import chaoslab.report
from chaoslab.cli import main
from chaoslab.fbm import FbmGrid, sample_paths
from chaoslab.report import canonical_json

from determinism import without_meta


def _read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


def _read_csv_lines(out_dir):
    return (out_dir / "samples.csv").read_text(encoding="utf-8").strip().splitlines()


def test_version_flag_reports_package_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("chaoslab-")


def test_constants_subcommand_pins_known_values(tmp_path):
    rc = main(["constants", "--q", "2", "--H", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    payload = _read_report(tmp_path)
    constants = payload["constants"]
    assert constants["sigma_sq"] == pytest.approx(2.0, abs=1e-12)
    assert constants["rho"]["0"] == pytest.approx(1.0)
    assert constants["rho"]["1"] == pytest.approx(0.0, abs=1e-15)
    assert constants["correction_constant_monic"] == pytest.approx(0.25)
    assert constants["correction_constant_scaled"] == pytest.approx(0.125)
    assert constants["regime"] == "mixed_clt"
    assert constants["critical_points"] == {"lower": 0.25, "upper": 0.75}
    assert payload["passed"] is True
    assert payload["reports"] == []


def test_identities_subcommand_passes_and_tabulates(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"instances": 40}), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(
        [
            "identities",
            "--seed",
            "7",
            "--config",
            str(config_path),
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    payload = _read_report(out_dir)
    assert payload["passed"] is True
    (report,) = payload["reports"]
    assert report["name"] == "malliavin-identity-suite"
    assert report["verdict"] == "pass"
    assert payload["config"]["seed"] == 7
    assert payload["config"]["instances"] == 40
    lines = _read_csv_lines(out_dir)
    assert lines[0] == "identity,instances,max_gap,failures"
    assert len(lines) == 1 + 6  # one row per identity
    assert all(line.endswith(",0") for line in lines[1:])  # zero failures


def test_variation_decompose_components_sum_to_statistic(tmp_path):
    rc = main(
        [
            "variation",
            "--q",
            "2",
            "--H",
            "0.3",
            "--n",
            "64",
            "--m",
            "3",
            "--seed",
            "1",
            "--decompose",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    payload = _read_report(tmp_path)
    (report,) = payload["reports"]
    assert report["name"] == "decomposition-residual"
    assert report["statistic"] <= 1e-8
    assert report["extras"]["regime"] == "mixed_clt" and report["extras"]["m"] == 3
    lines = _read_csv_lines(tmp_path)
    header = lines[0].split(",")
    assert header == [
        "path",
        "gn",
        "correction",
        "renormalized",
        "main",
        "middle_1",
        "remainder",
    ]
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)
        row = dict(zip(header, line.split(",")))
        total = float(row["main"]) + float(row["middle_1"]) + float(row["remainder"])
        assert abs(float(row["gn"]) - total) <= 1e-8


def test_config_file_layering_flags_win(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"H": 0.4, "m": 7}), encoding="utf-8")
    rc = main(
        [
            "constants",
            "--config",
            str(config_path),
            "--H",
            "0.25",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    payload = _read_report(tmp_path)
    assert payload["config"]["H"] == 0.25  # explicit flag beats the file
    assert payload["config"]["m"] == 7  # file beats the default
    assert payload["config"]["seed"] == 0  # untouched default
    assert payload["config"]["command"] == "constants"


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    rc = main(["constants", "--config", str(config_path)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_malformed_config_file_is_rejected(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text("{not json", encoding="utf-8")
    rc = main(["constants", "--config", str(config_path)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["constants", "--weight", "sin:1,2"], "weight"),
        (["constants", "--H", "1.5"], "H must lie"),
        (["constants", "--q", "0"], "q must be >= 1"),
        (["fbm", "--n", "abc"], "invalid --n"),
        (["fbm", "--n", "0"], "invalid --n"),
        (["variation", "--m", "0"], "m >= 1"),
        (["limit-test", "--q", "2", "--H", "0.8"], "hermite"),
        (["limit-test", "--q", "2", "--H", "0.3", "--n", "16,32"], "single --n"),
        # one replica has no ddof=1 variance, so m = 1 is rejected before sampling
        (
            ["limit-test", "--q", "2", "--H", "0.3", "--n", "16", "--m", "1", "--weight", "cos:1,1"],
            "got m = 1",
        ),
        (["example-brownian", "--n", "1", "--m", "1"], "got m = 1"),
        # the exact fourth moment runs first, so nothing is sampled
        (["berry-esseen", "--H", "0.5", "--n", "70000"], "n = 70000 exceeds CHAOS2_MAX_N = 65536"),
    ],
)
def test_invalid_configurations_exit_2(tmp_path, capsys, argv, fragment):
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    assert not (tmp_path / "report.json").exists()


def test_a_numerical_failure_on_a_valid_configuration_exits_3(tmp_path, capsys):
    # sigma_hq's tail bound cannot reach tol = 1e-10 this close to H < 3/4, though
    # H = 0.6 is central; the CLI has no tol, so the message names the functions that take one
    assert main(["limit-test", "--q", "2", "--H", "0.6", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: sum of rho^q at q = 2, H = 0.6: tolerance 1e-10 needs more than 2147483648 lag "
        "terms this close to the bound H < 1 - 1/(2q) = 0.75; pass a larger tol to sigma_hq"
    )
    assert not (tmp_path / "report.json").exists()
    # the constants table reports the same failure as a note and still exits 0
    assert main(["constants", "--q", "2", "--H", "0.6", "--out", str(tmp_path)]) == 0
    constants = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["constants"]
    assert constants["sigma"] is None and "2147483648 lag terms" in constants["sigma_note"]


def test_the_parser_and_the_version_are_built_once_per_process(tmp_path, monkeypatch):
    chaoslab.cli._build_parser.cache_clear()
    chaoslab.report.version_string.cache_clear()
    calls = []
    run = chaoslab.report.subprocess.run

    def counting(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(chaoslab.report.subprocess, "run", counting)
    for out in ("a", "b"):
        assert main(["constants", "--out", str(tmp_path / out)]) == 0
    assert len(calls) == 1
    assert chaoslab.cli._build_parser() is chaoslab.cli._build_parser()


def test_fbm_export_paths_roundtrip(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"export_paths": True}), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(
        [
            "fbm",
            "--H",
            "0.5",
            "--n",
            "16",
            "--m",
            "4",
            "--seed",
            "0",
            "--config",
            str(config_path),
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    payload = _read_report(out_dir)
    assert payload["passed"] is True
    assert len(payload["reports"]) == 35  # full covariance-bound grid
    assert all(report["name"].startswith("fbm-") for report in payload["reports"])
    loaded = np.load(out_dir / "paths.npy", allow_pickle=False)
    expected = sample_paths(FbmGrid(hurst=0.5, n=16), 4, 0).paths
    assert loaded.dtype == np.dtype("<f8") and loaded.shape == (4, 16 + 1)
    assert loaded.tobytes() == expected.tobytes()
    lines = _read_csv_lines(out_dir)
    assert lines[0] == "path,terminal_level,increment_mean,increment_std"
    assert len(lines) == 1 + 4


def test_berry_esseen_accepts_size_list(tmp_path):
    rc = main(
        [
            "berry-esseen",
            "--H",
            "0.5",
            "--n",
            "64,128",
            "--m",
            "4000",
            "--seed",
            "11",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    payload = _read_report(tmp_path)
    assert len(payload["reports"]) == 2
    for report in payload["reports"]:
        assert report["verdict"] == "pass"
        assert report["statistic"] <= report["extras"]["bound"]
    lines = _read_csv_lines(tmp_path)
    assert lines[0] == "n,observed_sup_distance,bound,mc_error,normalized_m4"
    assert len(lines) == 1 + 2


def test_example_brownian_writes_samples_and_is_deterministic(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"resolution": 1024}), encoding="utf-8")
    argv = [
        "example-brownian",
        "--n",
        "8",
        "--m",
        "500",
        "--seed",
        "2",
        "--config",
        str(config_path),
    ]
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    rc_a = main(argv + ["--out", str(dir_a)])
    rc_b = main(argv + ["--out", str(dir_b)])
    # At n=8 the functional is still visibly skewed, so the distributional
    # comparison against the symmetric mixture limit must fail.
    assert rc_a == rc_b == 1
    payload_a = _read_report(dir_a)
    payload_b = _read_report(dir_b)
    assert payload_a["passed"] is False
    lines = _read_csv_lines(dir_a)
    assert lines[0] == "index,f,inner,s2,reference"
    assert len(lines) == 1 + 500
    # Byte determinism outside meta: only the output directory may differ.
    for payload in (payload_a, payload_b):
        payload["config"].pop("out")
    assert canonical_json(without_meta(payload_a)) == canonical_json(
        without_meta(payload_b)
    )
    assert (dir_a / "samples.csv").read_bytes() == (dir_b / "samples.csv").read_bytes()


def _run_with_config(tmp_path, argv, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return main(argv + ["--config", str(config_path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["constants"], {"q": "2"}, "q"),
        (["constants"], {"alpha": "x"}, "alpha"),
        (["constants"], {"m": 2.5}, "m"),
        (["constants"], {"seed": True}, "seed"),
        (["constants"], {"H": False}, "H"),
        (["constants"], {"weight": 1}, "weight"),
        (["constants"], {"decompose": 1}, "decompose"),
        (["constants"], {"n": [64, 1.5]}, "n"),
        (["constants"], {"n": "64"}, "n"),
        (["constants"], {"variance_tolerance": "0.1"}, "variance_tolerance"),
        # the wrong type of value is caught before anything runs
        (["limit-test", "--m", "8"], {"variance_tolerance": [0.1]}, "variance_tolerance"),
        # in range only by value: rejected by the library before any sampling
        (["limit-test", "--m", "8", "--n", "64"], {"variance_tolerance": 0}, "variance_tolerance"),
        (["limit-test", "--m", "8", "--n", "64"], {"variance_tolerance": -0.1}, "variance_tolerance"),
        (["identities"], {"instances": 0}, "instances"),
        (["identities"], {"instances": -5}, "instances"),
        (["example-brownian", "--n", "4", "--m", "8"], {"resolution": 1}, "resolution"),
        (["example-brownian", "--n", "4", "--m", "8"], {"resolution": 0}, "resolution"),
        (["identities"], {"tolerance": -1}, "tolerance"),
        (["identities"], {"tolerance": 0}, "tolerance"),
        # the --n flag rejects an empty list too; neither runs zero sizes
        (["berry-esseen"], {"n": []}, "n must list at least one positive integer"),
        # no paths to export: nothing would be written
        (["fbm", "--m", "0"], {"export_paths": True}, "export_paths"),
    ],
)
def test_bad_config_values_exit_2_naming_the_key(tmp_path, capsys, argv, config, key):
    rc = _run_with_config(tmp_path, argv, config)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert key in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_method_config_accepts_only_auto(tmp_path, capsys):
    # the plan follows from H and n; the key stays, with its one value, in
    # every report's config block
    argv = ["fbm", "--n", "8", "--m", "2"]
    assert main(argv + ["--out", str(tmp_path / "default")]) == 0
    assert _run_with_config(tmp_path, argv, {"method": "auto"}) == 0
    default, config = (_read_report(tmp_path / name) for name in ("default", "out"))
    assert default["config"]["method"] == config["config"]["method"] == "auto"
    assert default["reports"] == config["reports"]
    for method in ("cholesky", "circulant"):
        assert _run_with_config(tmp_path, argv, {"method": method}) == 2
        assert "method must be 'auto'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--method", "auto"])  # the flag is gone
    assert exited.value.code == 2


def test_config_values_of_the_default_type_are_accepted(tmp_path):
    config = {"tolerance": 1, "n": 64, "variance_tolerance": None, "decompose": False, "q": 3}
    assert _run_with_config(tmp_path, ["constants"], config) == 0
    payload = _read_report(tmp_path / "out")
    assert payload["config"]["n"] == [64]
    assert payload["config"]["tolerance"] == 1
