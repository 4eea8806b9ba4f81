"""Config schema, canonical rendering, the command-line workflow, and the
package surface the README documents."""

import argparse
import ast
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duallink
from duallink.cli import _thread_count, main
from duallink.atmosphere import greenwood_and_coherence
from duallink.config import _SCHEMA, config_hash, load_config, parse_config, render_config
from duallink.ensemble import (
    ChannelEnsemble,
    fading_stats,
    load_ensemble,
    run_ensembles,
    save_ensemble,
)
from duallink.errors import UsageError
from duallink.optics import vacuum_beam_radius
from duallink.protocol import SqueezingParams, classical_ber, verify_predictions

from oracles import per_eta_link_budget_rows
from test_protocol import extraction_second_moment

BASE_CONFIG = """\
[scenario]
name = smoke

[geometry]
wavelength = 1.064e-6
beam_waist = 0.15
zenith_angle = 0.0
satellite_altitude = 500e3
aperture_radius = 0.5

[atmosphere]
ground_cn2 = 9.6e-14
ground_wind = 3.0
outer_scale = 5.0
inner_scale = 0.01

[grid]
size = 64

[ensemble]
realizations = 6
master_seed = 7

[squeezing]
squeezing_db = 10.0

[classical]
displacement = 10.0
carrier_amplitude = 100.0

[detector]
efficiency = 0.61
electronic_noise = 0.12

[finite_size]
block_size = 1e10
kept_fraction = 0.5
recon_efficiency = 0.98
discretisation = 5
total_epsilon = 1e-9

[output]
directory = {out}
"""


def write_config(tmp_path, **edits) -> str:
    text = BASE_CONFIG.format(out=tmp_path / "out")
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ config


def source_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    return dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )


def test_cli_import_and_config_load_leave_scipy_unloaded(tmp_path):
    # numpy is the only runtime dependency: importing and loading a config
    # must not pull scipy in, and every command must run with it blocked
    path = write_config(tmp_path)
    ensemble = str(tmp_path / "out" / "smoke.ensemble")
    probe = (
        "import sys, duallink.cli\n"
        "from duallink.config import load_config\n"
        f"load_config({path!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.modules['scipy'] = None\n"
        "from duallink.cli import main\n"
        f"print(main(['simulate-channel', '--config', {path!r}]))\n"
        f"print(main(['key-rate', '--config', {path!r}, '--ensemble', {ensemble!r}]))\n"
        f"print(main(['link-budget', '--config', {path!r}, '--ensemble', {ensemble!r}]))\n"
        f"print(main(['protocol-verify', '--config', {path!r}]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=source_env(), capture_output=True, text=True, check=True,
    )
    lines = result.stdout.splitlines()
    assert lines[0] == "[]"
    assert [line for line in lines if line in ("0", "1", "2", "3")] == ["0", "0", "0", "0"]


def test_parse_applies_defaults(tmp_path):
    config = parse_config(BASE_CONFIG.format(out=tmp_path))
    assert config.scenario == "smoke"
    assert config.geometry.ground_altitude == 0.0
    assert config.profile.cn2_scale == 1.0
    assert config.grid_size == 64
    assert config.aep_interior_eps == "composed"
    assert config.histogram_bin_db == 0.5


def test_parse_render_round_trip(tmp_path):
    config = parse_config(BASE_CONFIG.format(out=tmp_path))
    rendered = render_config(config)
    assert parse_config(rendered) == config
    # Canonical form is a fixed point.
    assert render_config(parse_config(rendered)) == rendered


PINNED_RENDERING = """\
[scenario]
name = smoke

[geometry]
wavelength = 1.064e-06
beam_waist = 0.15
zenith_angle = 0.0
satellite_altitude = 500000.0
ground_altitude = 0.0
aperture_radius = 0.5

[atmosphere]
ground_cn2 = 9.6e-14
ground_wind = 3.0
outer_scale = 5.0
inner_scale = 0.01
cn2_scale = 1.0

[grid]
size = 64

[ensemble]
realizations = 6
master_seed = 7

[squeezing]
squeezing_db = 10.0

[classical]
displacement = 10.0
carrier_amplitude = 100.0

[detector]
efficiency = 0.61
electronic_noise = 0.12

[finite_size]
block_size = 10000000000.0
kept_fraction = 0.5
recon_efficiency = 0.98
discretisation = 5
total_epsilon = 1e-09
aep_interior_eps = composed

[output]
directory = results/pinned
histogram_bin_db = 0.5

"""


def test_render_and_hash_are_pinned():
    # the hash stamps every product, so the canonical text may not drift
    config = parse_config(BASE_CONFIG.format(out="results/pinned"))
    assert render_config(config) == PINNED_RENDERING
    assert config_hash(config) == (
        "a67eaeeb121df857e80be9c264c43df267b4d68b8f68d73bdb50d920f9df2c17"
    )


def test_config_hash_tracks_content(tmp_path):
    config = parse_config(BASE_CONFIG.format(out=tmp_path))
    same = parse_config(render_config(config))
    assert config_hash(config) == config_hash(same)
    other = parse_config(
        BASE_CONFIG.format(out=tmp_path).replace("zenith_angle = 0.0", "zenith_angle = 30.0")
    )
    assert config_hash(other) != config_hash(config)


def test_unknown_section_rejected(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path) + "\n[plotting]\nstyle = fancy\n"
    with pytest.raises(UsageError, match="unknown config sections"):
        parse_config(text)


def test_unknown_key_rejected(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path).replace(
        "zenith_angle = 0.0", "zenit_angle = 0.0"
    )
    with pytest.raises(UsageError, match="zenit_angle"):
        parse_config(text)


def test_missing_required_key_rejected(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path).replace("squeezing_db = 10.0\n", "")
    with pytest.raises(UsageError, match="squeezing_db"):
        parse_config(text)


def test_unparseable_value_rejected(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path).replace(
        "beam_waist = 0.15", "beam_waist = wide"
    )
    with pytest.raises(UsageError, match="beam_waist"):
        parse_config(text)


FLOAT_KEYS = [
    (section, key)
    for section, keys in _SCHEMA.items()
    for key, (convert, _, _) in keys.items()
    if convert is float
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_non_finite_float_rejected(tmp_path, section, key, value):
    # the canonical rendering lists every key, defaulted ones included
    text = render_config(parse_config(BASE_CONFIG.format(out=tmp_path)))
    text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    assert count == 1
    with pytest.raises(UsageError, match=re.escape(f"[{section}] {key}: '{value}' is not finite")):
        parse_config(text)


def test_duplicate_key_rejected(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path).replace(
        "ground_wind = 3.0", "ground_wind = 3.0\nground_wind = 4.0"
    )
    with pytest.raises(UsageError, match="malformed config"):
        parse_config(text)


def test_physics_validation_happens_at_parse(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path).replace(
        "zenith_angle = 0.0", "zenith_angle = 95.0"
    )
    with pytest.raises(UsageError, match="zenith"):
        parse_config(text)


def test_grid_size_must_be_power_of_two(tmp_path):
    text = BASE_CONFIG.format(out=tmp_path).replace("size = 64", "size = 100")
    with pytest.raises(UsageError, match="power of two"):
        parse_config(text)


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("name = smoke", "name = smoke test", "scenario name must be nonempty without whitespace"),
        ("realizations = 6", "realizations = 0", "realizations must be at least 1, got 0"),
        ("kept_fraction = 0.5", "kept_fraction = 0.0", r"kept fraction must be in \(0, 1\]"),
        ("kept_fraction = 0.5", "kept_fraction = 1.5", r"kept fraction must be in \(0, 1\]"),
        (
            "[output]\n",
            "[output]\nhistogram_bin_db = 0.0\n",
            "histogram bin must be positive, got 0.0",
        ),
    ],
)
def test_run_config_refuses_unusable_values(tmp_path, old, new, match):
    text = BASE_CONFIG.format(out=tmp_path)
    assert old in text
    with pytest.raises(UsageError, match=match):
        parse_config(text.replace(old, new))


# --------------------------------------------------------------------- cli


def run_cli(*argv) -> int:
    return main(list(argv))


def test_simulate_channel_writes_products(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run_cli("simulate-channel", "--config", config) == 0
    out = tmp_path / "out"
    ensemble_path = out / "smoke.ensemble"
    assert ensemble_path.exists()
    assert (out / "smoke_stats.txt").exists()
    assert (out / "smoke_histogram.csv").exists()
    assert (out / "smoke_steps.csv").exists()

    ens = load_ensemble(ensemble_path)
    assert len(ens) == 6
    assert ens.master_seed == 7
    stats_text = (out / "smoke_stats.txt").read_text()
    assert stats_text.startswith("# duallink 0.1.0 config ")
    assert "mean_loss_db" in stats_text
    assert "simulated 6 realizations" in capsys.readouterr().out


def test_steps_csv_has_one_row_per_realization(tmp_path):
    config = write_config(tmp_path)
    assert run_cli("simulate-channel", "--config", config, "--realizations", "3") == 0
    out = tmp_path / "out"
    lines = (out / "smoke_steps.csv").read_text().splitlines()
    assert lines[0].startswith("# duallink ")
    assert lines[1] == "t_start_s,eta"
    rows = [line.split(",") for line in lines[2:]]
    ens = load_ensemble(out / "smoke.ensemble")
    assert len(rows) == 3
    assert float(rows[-1][1]) == ens.etas[-1]
    assert float(rows[-1][0]) == 2 * ens.coherence_time


def test_simulate_channel_is_deterministic_across_threads(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("simulate-channel", "--config", config, "--threads", "1") == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli("simulate-channel", "--config", config, "--threads", "2") == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_simulate_channel_zero_turbulence_matches_diffraction(tmp_path):
    # cn2_scale defaults to 1.0; switch the turbulence off explicitly.
    text = BASE_CONFIG.format(out=tmp_path / "out")
    text = text.replace("inner_scale = 0.01", "inner_scale = 0.01\ncn2_scale = 0.0")
    text = text.replace("realizations = 6", "realizations = 1")
    path = tmp_path / "vacuum.ini"
    path.write_text(text)

    assert run_cli("simulate-channel", "--config", str(path)) == 0
    out = tmp_path / "out"
    ens = load_ensemble(out / "smoke.ensemble")
    stats = fading_stats(ens.etas)
    assert stats.var_sqrt <= 1e-15
    assert math.isinf(ens.coherence_time)
    # No coherence stepping without a finite coherence time.
    assert not (out / "smoke_steps.csv").exists()

    w = vacuum_beam_radius(ens.geometry, ens.geometry.path_length)
    expected = 1.0 - math.exp(-2.0 * 0.5**2 / w**2)
    assert stats.mean_eta == pytest.approx(expected, rel=0.02)


def test_cli_overrides(tmp_path):
    config = write_config(tmp_path)
    override_out = tmp_path / "elsewhere"
    assert (
        run_cli(
            "simulate-channel",
            "--config",
            config,
            "--seed",
            "99",
            "--realizations",
            "2",
            "--out",
            str(override_out),
        )
        == 0
    )
    ens = load_ensemble(override_out / "smoke.ensemble")
    assert len(ens) == 2
    assert ens.master_seed == 99


def test_key_rate_command(tmp_path):
    config = write_config(tmp_path)
    assert run_cli("simulate-channel", "--config", config) == 0
    ensemble_path = tmp_path / "out" / "smoke.ensemble"
    assert run_cli("key-rate", "--config", config, "--ensemble", str(ensemble_path)) == 0

    report = (tmp_path / "out" / "smoke_keyrate.txt").read_text()
    assert "finite_size_rate" in report
    csv_lines = (tmp_path / "out" / "smoke_keyrate.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# duallink")
    header = csv_lines[1].split(",")
    row = dict(zip(header, csv_lines[2].split(",")))
    k_fin = float(row["finite_size_rate"])
    k_asym = float(row["asymptotic_rate"])
    k_ideal = float(row["ideal_rate"])
    k_plob = float(row["plob_bound"])
    assert k_fin <= k_asym <= k_ideal <= k_plob
    assert float(row["zenith_angle_deg"]) == 0.0


def test_key_rate_rejects_mismatched_ensemble(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run_cli("simulate-channel", "--config", config) == 0
    ensemble_path = tmp_path / "out" / "smoke.ensemble"

    skewed = write_config(tmp_path, **{"zenith_angle = 0.0": "zenith_angle = 30.0"})
    assert run_cli("key-rate", "--config", skewed, "--ensemble", str(ensemble_path)) == 1
    assert "does not match config" in capsys.readouterr().err


def test_link_budget_command(tmp_path):
    config = write_config(tmp_path)
    assert run_cli("simulate-channel", "--config", config) == 0
    ensemble_path = tmp_path / "out" / "smoke.ensemble"
    assert run_cli("link-budget", "--config", config, "--ensemble", str(ensemble_path)) == 0

    lines = (tmp_path / "out" / "smoke_linkbudget.csv").read_text().splitlines()
    assert lines[1] == "realization,eta,snr,ber"
    rows = [line.split(",") for line in lines[2:-1]]
    assert len(rows) == 6
    ens = load_ensemble(ensemble_path)
    for row, eta in zip(rows, ens.etas):
        assert float(row[1]) == pytest.approx(eta, rel=1e-15)
        assert float(row[2]) == pytest.approx(4.0 * eta * 10.0**2, rel=1e-12)
    assert lines[-1].startswith("# ensemble_mean_ber = ")

    # Doubling the displacement quadruples every SNR entry.
    doubled = write_config(tmp_path, **{"displacement = 10.0": "displacement = 20.0"})
    assert run_cli("link-budget", "--config", doubled, "--ensemble", str(ensemble_path)) == 0
    lines2 = (tmp_path / "out" / "smoke_linkbudget.csv").read_text().splitlines()
    for row, row2 in zip(lines[2:-1], lines2[2:-1]):
        assert float(row2.split(",")[2]) == pytest.approx(
            4.0 * float(row.split(",")[2]), rel=1e-12
        )


@pytest.mark.parametrize("displacement", ["2.0", "30.0"])
def test_link_budget_csv_equals_per_eta_reference(tmp_path, displacement):
    # repr's exponent forms (5e-324, 1e-300 and the subnormal SNRs they
    # give) and, at displacement 30, BERs that underflow to 0.0 from eta
    # of about 0.4 upward
    config_path = write_config(
        tmp_path, **{"displacement = 10.0": f"displacement = {displacement}"}
    )
    config = load_config(config_path)
    etas = (0.0, 1.0, 5e-324, 1e-300, 1e-17, 0.01, 0.3, 0.5, 0.97, 0.999999999, 0.7071)
    ensemble_path = tmp_path / "synthetic.ensemble"
    save_ensemble(
        ChannelEnsemble(etas, config.geometry, config.profile, config.grid_size, 1, math.inf),
        ensemble_path,
    )
    assert run_cli("link-budget", "--config", config_path, "--ensemble", str(ensemble_path)) == 0
    text = (tmp_path / "out" / "smoke_linkbudget.csv").read_text(encoding="utf-8")
    stamp, header, rows = text.split("\n", 2)
    assert stamp.startswith("# duallink ")
    assert header == "realization,eta,snr,ber"
    assert rows == per_eta_link_budget_rows(float(displacement), etas)
    assert ",5e-324," in rows
    if displacement == "30.0":
        assert rows.count(",0.0\n") == 5


def test_protocol_verify_passes_and_is_deterministic(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run_cli("protocol-verify", "--config", config) == 0
    report_path = tmp_path / "out" / "smoke_verify.txt"
    first = report_path.read_bytes()
    assert b"verdict PASS" in first
    assert "-> PASS" in capsys.readouterr().out
    assert run_cli("protocol-verify", "--config", config) == 0
    assert report_path.read_bytes() == first
    # a small displacement makes bit errors common (BER about 1%); Bob's
    # decided-symbol subtraction must be in the predictions
    close = write_config(tmp_path, **{"displacement = 10.0": "displacement = 2.0"})
    assert run_cli("protocol-verify", "--config", close) == 0
    assert b"verdict PASS" in report_path.read_bytes()


def test_protocol_verify_sabotage_is_detected(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run_cli("protocol-verify", "--config", config, "--sabotage") == 3
    report = (tmp_path / "out" / "smoke_verify_sabotage.txt").read_text()
    assert "verdict FAIL" in report
    assert "zero_leakage no" in report
    assert "deviates from closed forms" in capsys.readouterr().err


def test_sabotaged_verify_leaves_the_passing_report(tmp_path):
    config = write_config(tmp_path)
    assert run_cli("protocol-verify", "--config", config) == 0
    passing = tmp_path / "out" / "smoke_verify.txt"
    before = passing.read_bytes()
    assert b"\nverdict PASS " in before
    assert run_cli("protocol-verify", "--config", config, "--sabotage") == 3
    assert passing.read_bytes() == before
    assert b"\nverdict FAIL " in (tmp_path / "out" / "smoke_verify_sabotage.txt").read_bytes()


def test_protocol_verify_without_classical_layer(tmp_path):
    config = write_config(tmp_path, **{"displacement = 10.0": "displacement = 0.0"})
    assert run_cli("protocol-verify", "--config", config) == 0
    report = (tmp_path / "out" / "smoke_verify.txt").read_text()
    ber_line = next(line for line in report.splitlines() if line.startswith("ber"))
    assert float(ber_line.split()[1]) == pytest.approx(0.5, abs=0.01)


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert run_cli("simulate-channel", "--config", str(tmp_path / "nope.ini")) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate-channel", "--threads", "0"], "thread count must be at least 1, got 0"),
        (["simulate-channel", "--threads", "-2"], "thread count must be at least 1, got -2"),
        # an OSError from a file the config does not name
        (["key-rate", "--ensemble", "missing.ensemble"], "No such file or directory"),
        (["link-budget", "--ensemble", "missing.ensemble"], "No such file or directory"),
    ],
)
def test_unusable_command_line_values_exit_one(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--config", write_config(tmp_path)) == 1
    assert_one_error_line(capsys, message)
    assert not (tmp_path / "out" / "smoke.ensemble").exists()


def test_bad_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG.format(out=tmp_path).replace("size = 64", "size = 63"))
    assert run_cli("simulate-channel", "--config", str(path)) == 1
    assert "power of two" in capsys.readouterr().err


def assert_one_error_line(capsys, message: str) -> None:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert message in err[0]


def test_grid_below_the_floor_exits_one(tmp_path, capsys):
    # a 1 m aperture spans 8 receiver cells at grid 32: only the grid floor refuses it
    edits = {"size = 64": "size = 32", "aperture_radius = 0.5": "aperture_radius = 1.0"}
    assert run_cli("simulate-channel", "--config", write_config(tmp_path, **edits)) == 1
    assert_one_error_line(capsys, "grid size must be a power of two of at least 64, got 32")


def test_non_finite_config_value_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, **{"aperture_radius = 0.5": "aperture_radius = nan"})
    assert run_cli("simulate-channel", "--config", config) == 1
    assert_one_error_line(capsys, "[geometry] aperture_radius: 'nan' is not finite")


@pytest.mark.parametrize("command", ["simulate-channel", "protocol-verify"])
def test_negative_master_seed_is_refused(tmp_path, capsys, command):
    # refused before any stream or generator is seeded, from the flag, the key or the library
    message = "master seed must be nonnegative, got -1"
    config = write_config(tmp_path)
    parsed = load_config(config)
    assert run_cli(command, "--config", config, "--seed", "-1") == 1
    assert_one_error_line(capsys, message)
    keyed = write_config(tmp_path, **{"master_seed = 7": "master_seed = -1"})
    assert run_cli(command, "--config", keyed) == 1
    assert_one_error_line(capsys, message)
    assert not (tmp_path / "out").exists()
    with pytest.raises(UsageError, match=message):
        run_ensembles(parsed.geometry, parsed.profile, 2, -1, (0.5,), grid_size=64)


@pytest.mark.parametrize("total_epsilon", ["1e-105", "1e-150", "1e-323"])
def test_budget_with_non_finite_penalty_exits_one(tmp_path, capsys, total_epsilon):
    config = write_config(tmp_path)
    assert run_cli("simulate-channel", "--config", config) == 0
    ensemble_path = tmp_path / "out" / "smoke.ensemble"
    tiny = write_config(tmp_path, **{"total_epsilon = 1e-9": f"total_epsilon = {total_epsilon}"})
    capsys.readouterr()
    assert run_cli("key-rate", "--config", tiny, "--ensemble", str(ensemble_path)) == 1
    assert_one_error_line(capsys, f"total_epsilon {float(total_epsilon)!r} is too small")


def test_undecodable_config_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    text = BASE_CONFIG.format(out=tmp_path).replace("smoke", "sm\xf6ke")
    path.write_bytes(text.encode("latin-1"))
    assert run_cli("simulate-channel", "--config", str(path)) == 1
    assert_one_error_line(capsys, "cannot read config")


def test_undecodable_ensemble_exits_one(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run_cli("simulate-channel", "--config", config) == 0
    ensemble_path = tmp_path / "out" / "smoke.ensemble"
    ensemble_path.write_bytes(ensemble_path.read_bytes().replace(b"data:", b"d\xe4ta:"))
    capsys.readouterr()
    assert run_cli("key-rate", "--config", config, "--ensemble", str(ensemble_path)) == 1
    assert_one_error_line(capsys, "not an ASCII text file")


def test_faint_turbulence_plans_and_runs(tmp_path):
    # the channel's scintillation index rounds to zero, which left the old
    # share-of-the-total cap at zero and refused the run; both bounds of
    # the planner are absolute, so a faint channel plans and runs
    config = write_config(
        tmp_path, **{"inner_scale = 0.01": "inner_scale = 0.01\ncn2_scale = 1e-17"}
    )
    assert run_cli("simulate-channel", "--config", config) == 0
    ens = load_ensemble(tmp_path / "out" / "smoke.ensemble")
    assert math.isfinite(ens.coherence_time)
    assert all(0.0 < eta <= 1.0 for eta in ens.etas)


def test_turbulence_free_grazing_path_runs_as_vacuum(tmp_path):
    # at 89.9 deg the faint channel's scintillation index is positive, so
    # it plans, but every slab and the whole path have r0 = inf
    config = write_config(
        tmp_path,
        **{
            "zenith_angle = 0.0": "zenith_angle = 89.9",
            "aperture_radius = 0.5": "aperture_radius = 500.0",
            "inner_scale = 0.01": "inner_scale = 0.01\ncn2_scale = 5e-20",
            "realizations = 6": "realizations = 2",
        },
    )
    assert run_cli("simulate-channel", "--config", config, "--threads", "1") == 0
    out = tmp_path / "out"
    assert math.isinf(load_ensemble(out / "smoke.ensemble").coherence_time)
    assert not (out / "smoke_steps.csv").exists()


def test_faint_grazing_path_is_simulated_with_its_screen(tmp_path):
    # at 1e-19 the whole path has a finite r0 and tau0; the planner cuts it
    # into one band, not into slabs that each fall under the turbulence
    # floor, so the channel runs with a screen and steps at that tau0
    config = write_config(
        tmp_path,
        **{
            "zenith_angle = 0.0": "zenith_angle = 89.9",
            "aperture_radius = 0.5": "aperture_radius = 500.0",
            "inner_scale = 0.01": "inner_scale = 0.01\ncn2_scale = 1e-19",
            "realizations = 6": "realizations = 2",
        },
    )
    assert run_cli("simulate-channel", "--config", config, "--threads", "1") == 0
    out = tmp_path / "out"
    ens = load_ensemble(out / "smoke.ensemble")
    assert ens.coherence_time == greenwood_and_coherence(ens.geometry, ens.profile)[1]
    assert math.isfinite(ens.coherence_time)
    assert (out / "smoke_steps.csv").exists()


def reference_verify_predictions(params: SqueezingParams, etas, displacement: float):
    """The verify gate's closed forms written out by hand, as the reference
    for the predictions that ``protocol.verify_predictions`` builds from
    ``covariance_matrix``."""
    eps = params.tap_transmissivity
    va = params.modulation_variance
    vs = params.squeezed_variance
    cross = math.sqrt(eps * (1.0 - eps))
    v_q = params.transmitted_q_variance
    v_p = params.transmitted_p_variance
    a_q = (1.0 - eps) * va + eps * vs
    a_p = (1.0 - eps) / va + eps / vs

    per_eta = {name: [] for name in (
        "xa_xa", "xb_xb", "xe_xe", "xa_xb", "xe_xb",
        "pa_pa", "pb_pb", "pe_pe", "pa_pb", "pe_pb",
    )}
    ber = []
    for eta in etas:
        gauss_q = 1.0 + eta * (v_q - 1.0)
        b_p = 1.0 + eta * (v_p - 1.0)
        e_q = 1.0 + (1.0 - eta) * (v_q - 1.0)
        e_p = 1.0 + (1.0 - eta) * (v_p - 1.0)
        # Bob subtracts his decided symbol: E[(X - s sign X)^2] in units
        # of the Gaussian variance, and Stein's lemma for the correlations
        separation = math.sqrt(4.0 * eta * displacement**2 / gauss_q)
        density = math.exp(-separation * separation / 2.0) / math.sqrt(2.0 * math.pi)
        b_q = gauss_q * extraction_second_moment(separation)
        shrink = 1.0 - 2.0 * separation * density
        c_q = math.sqrt(eta) * cross * (va - vs) * shrink
        c_p = math.sqrt(eta) * cross * (1.0 / va - 1.0 / vs)
        eb_q = shrink * math.sqrt(eta * (1.0 - eta)) * (v_q - 1.0)
        eb_p = math.sqrt(eta * (1.0 - eta)) * (v_p - 1.0)
        per_eta["xa_xa"].append((a_q, 2.0 * a_q**2))
        per_eta["xb_xb"].append((b_q, 2.0 * b_q**2))
        per_eta["xe_xe"].append((e_q, 2.0 * e_q**2))
        per_eta["xa_xb"].append((c_q, a_q * b_q + c_q**2))
        per_eta["xe_xb"].append((eb_q, e_q * b_q + eb_q**2))
        per_eta["pa_pa"].append((a_p, 2.0 * a_p**2))
        per_eta["pb_pb"].append((b_p, 2.0 * b_p**2))
        per_eta["pe_pe"].append((e_p, 2.0 * e_p**2))
        per_eta["pa_pb"].append((c_p, a_p * b_p + c_p**2))
        per_eta["pe_pb"].append((eb_p, e_p * b_p + eb_p**2))
        ber.append(classical_ber(4.0 * eta * displacement**2 / gauss_q))

    predictions = {
        name: (
            sum(v for v, _ in rows) / len(rows),
            sum(var for _, var in rows) / len(rows),
        )
        for name, rows in per_eta.items()
    }
    return predictions, sum(ber) / len(ber), ber


@pytest.mark.parametrize("squeezing_db", [3.0, 7.5, 10.0, 15.0])
def test_verify_predictions_equal_hand_written_reference(squeezing_db):
    # exact equality: the report prints these numbers, so the library
    # path must reproduce the hand-written arithmetic bit for bit
    # (displacement 2 makes the bit-error terms percent-level)
    params = SqueezingParams.from_squeezing_db(squeezing_db)
    for seed, displacement in itertools.product(range(1, 11), (10.0, 2.0)):
        etas = np.sort(np.random.default_rng(seed).uniform(0.15, 0.85, 25))
        predictions, ber_mean, ber_rows = verify_predictions(params, etas, displacement)
        expected, expected_mean, expected_rows = reference_verify_predictions(
            params, etas, displacement
        )
        assert predictions == expected
        assert ber_mean == expected_mean
        assert ber_rows == expected_rows


def test_parser_reused_after_a_usage_error(tmp_path, capsys):
    # main builds its parser once per process: every subcommand, then a
    # usage error, then a good call that must match a fresh process
    config = write_config(tmp_path)
    ensemble = str(tmp_path / "out" / "smoke.ensemble")
    budget = ["link-budget", "--config", config, "--ensemble", ensemble]
    assert run_cli("simulate-channel", "--config", config) == 0
    assert run_cli("key-rate", "--config", config, "--ensemble", ensemble) == 0
    assert run_cli(*budget) == 0
    assert run_cli("protocol-verify", "--config", config) == 0
    with pytest.raises(SystemExit) as usage:
        run_cli("key-rate", "--config", config)
    assert usage.value.code == 2
    assert "--ensemble" in capsys.readouterr().err

    assert run_cli(*budget) == 0
    printed = capsys.readouterr()
    product = (tmp_path / "out" / "smoke_linkbudget.csv").read_bytes()
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; from duallink.cli import main; sys.exit(main())",
         *budget],
        env=source_env(), capture_output=True, text=True,
    )
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, printed.out, printed.err)
    assert (tmp_path / "out" / "smoke_linkbudget.csv").read_bytes() == product


def test_default_threads_are_the_cpus_the_process_may_use(monkeypatch):
    default = argparse.Namespace(threads=None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _thread_count(default) == 1
    assert _thread_count(argparse.Namespace(threads=3)) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _thread_count(default) == 8


# ------------------------------------------------------------------ package


def test_readme_library_imports_resolve():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n+```python\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    names = [
        alias.name
        for node in ast.walk(ast.parse(block.group(1)))
        if isinstance(node, ast.ImportFrom) and node.module == "duallink"
        for alias in node.names
    ]
    assert names
    missing = [name for name in names if not hasattr(duallink, name)]
    assert missing == []
