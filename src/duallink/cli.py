"""Command-line interface: configuration-driven simulation runs,
key-rate evaluation, protocol verification, and link budgets.

Every output file is stamped with the tool version and the config hash,
and all products are deterministic for a given config and seed
regardless of thread count, so reruns are byte-identical and safe to
diff in CI.

Exit statuses: 0 success, 1 usage or configuration problems, 2
numerical or physicality failures, 3 verification failures.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, _render_value, config_hash, load_config
from .ensemble import (
    ChannelEnsemble,
    coherence_step_series,
    fading_stats,
    load_ensemble,
    loss_histogram,
    run_ensemble,
    save_ensemble,
)
from .errors import DuallinkError, UsageError, VerificationError
from .keyrate import RATE_NAMES, key_rate_summary, render_key_rate_report
from .protocol import (
    SqueezingParams,
    classical_ber,
    classical_snr,
    covariance_matrix,
    mc_quadrature_sim,
)

# protocol-verify sampling plan: enough shots that 5 sigma separates
# real defects from noise, small enough to stay interactive.
_VERIFY_REALIZATIONS = 25
_VERIFY_SHOTS_PER_ETA = 20_000
_VERIFY_THRESHOLD_SIGMA = 5.0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parse_args leaves it as it was)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the run config file")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--realizations", type=int, help="override the ensemble size")
    common.add_argument(
        "--threads",
        type=int,
        help="worker threads for propagation (default: the CPUs this process may use)",
    )
    common.add_argument("--out", help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="duallink",
        description="Dual classical/quantum optical downlink simulator",
    )
    parser.add_argument("--version", action="version", version=f"duallink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "simulate-channel",
        parents=[common],
        help="propagate a transmissivity ensemble and write statistics",
    )
    key_rate = sub.add_parser(
        "key-rate",
        parents=[common],
        help="evaluate key rates for a simulated ensemble",
    )
    key_rate.add_argument("--ensemble", required=True, help="ensemble file to evaluate")
    verify = sub.add_parser(
        "protocol-verify",
        parents=[common],
        help="check Monte Carlo statistics against closed forms",
    )
    verify.add_argument(
        "--sabotage",
        action="store_true",
        help="deliberately detune the tap ratio (negative control; must fail)",
    )
    budget = sub.add_parser(
        "link-budget",
        parents=[common],
        help="per-realization SNR and BER of the classical layer",
    )
    budget.add_argument("--ensemble", required=True, help="ensemble file to evaluate")
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.realizations is not None:
        updates["realizations"] = args.realizations
    if args.out is not None:
        updates["output_dir"] = args.out
    return replace(config, **updates) if updates else config


def _thread_count(args: argparse.Namespace) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise UsageError(f"thread count must be at least 1, got {args.threads}")
        return args.threads
    if hasattr(os, "sched_getaffinity"):
        # os.cpu_count() also counts CPUs outside the process's affinity mask
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stamp(config: RunConfig) -> str:
    return f"# duallink {__version__} config {config_hash(config)[:12]}\n"


def _out_dir(config: RunConfig) -> Path:
    path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, stamp: str, header: str, rows) -> None:
    """One line per tuple of ints and floats; %r is _render_value for both."""
    line = ",".join(["%r"] * (header.count(",") + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(stamp)
        handle.write(header + "\n")
        handle.writelines(line % row for row in rows)


def _check_ensemble_matches_config(ens: ChannelEnsemble, config: RunConfig) -> None:
    problems = [
        f"{what} differs (ensemble {theirs}, config {ours})"
        for what, theirs, ours in (
            ("geometry", ens.geometry, config.geometry),
            ("atmosphere", ens.profile, config.profile),
            ("grid size", ens.grid_size, config.grid_size),
        )
        if theirs != ours
    ]
    if problems:
        raise UsageError("ensemble file does not match config: " + "; ".join(problems))


def cmd_simulate_channel(config: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    stamp = _stamp(config)
    ens = run_ensemble(
        config.geometry,
        config.profile,
        config.realizations,
        config.master_seed,
        grid_size=config.grid_size,
        threads=_thread_count(args),
    )
    stats = fading_stats(ens.etas)

    ensemble_path = out / f"{config.scenario}.ensemble"
    save_ensemble(ens, ensemble_path)

    stats_path = out / f"{config.scenario}_stats.txt"
    lines = [
        stamp.rstrip("\n"),
        "channel statistics report",
        f"scenario {config.scenario}",
        f"realizations {len(ens)}",
        f"master_seed {ens.master_seed}",
        f"grid_size {ens.grid_size}",
        f"zenith_angle_deg {_render_value(config.geometry.zenith_angle)}",
        f"aperture_radius_m {_render_value(config.geometry.aperture_radius)}",
        f"coherence_time_s {_render_value(ens.coherence_time)}",
        f"mean_eta {_render_value(stats.mean_eta)}",
        f"eta_f {_render_value(stats.eta_f)}",
        f"var_sqrt {_render_value(stats.var_sqrt)}",
        f"mean_loss_db {_render_value(stats.mean_loss_db)}",
        f"std_loss_db {_render_value(stats.std_loss_db)}",
    ]
    stats_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    histogram_path = out / f"{config.scenario}_histogram.csv"
    _write_csv(
        histogram_path,
        stamp,
        "bin_center_db,density",
        loss_histogram(ens.etas, config.histogram_bin_db),
    )

    written = [ensemble_path, stats_path, histogram_path]
    if math.isfinite(ens.coherence_time):
        steps_path = out / f"{config.scenario}_steps.csv"
        _write_csv(steps_path, stamp, "t_start_s,eta", coherence_step_series(ens))
        written.append(steps_path)

    print(
        f"simulated {len(ens)} realizations: mean loss "
        f"{stats.mean_loss_db:.3f} dB, std {stats.std_loss_db:.3f} dB"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_key_rate(config: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    stamp = _stamp(config)
    ens = load_ensemble(args.ensemble)
    _check_ensemble_matches_config(ens, config)

    stats = fading_stats(ens.etas)
    params = config.squeezing_params()
    fin = config.finite_size_params()
    rates = key_rate_summary(params, stats, config.detector, fin)

    report_path = out / f"{config.scenario}_keyrate.txt"
    report = render_key_rate_report(params, stats, config.detector, fin, rates)
    report_path.write_text(
        stamp + f"scenario {config.scenario}\n" + report, encoding="utf-8", newline="\n"
    )

    csv_path = out / f"{config.scenario}_keyrate.csv"
    geom = config.geometry
    row = (geom.zenith_angle, geom.aperture_radius, config.squeezing_db)
    header = "zenith_angle_deg,aperture_radius_m,squeezing_db," + ",".join(RATE_NAMES)
    _write_csv(csv_path, stamp, header, [row + tuple(rates[name] for name in RATE_NAMES)])

    print(
        f"finite-size rate {rates['finite_size_rate']:.6g} bits/use "
        f"(raw {rates['finite_size_rate_raw']:.6g}) at mean loss "
        f"{stats.mean_loss_db:.3f} dB"
    )
    print(f"wrote {report_path}")
    print(f"wrote {csv_path}")
    return 0


def _verify_predictions(params: SqueezingParams, etas, displacement: float):
    """Pooled closed-form moments and their per-shot sampling variances.

    Alice's and Bob's moments at each eta are the library's covariance
    matrix of a channel frozen at that eta; Eve holds the lost light, so
    her variances are Bob's at 1 - eta.  Bob subtracts his decided
    symbol, so at separation s = 2 alpha sqrt(eta / b_q) a wrong
    decision leaves twice the signal in his q: his variance becomes
    b_q (1 - 4 s phi(s) + 4 s^2 Q(s)), and by Stein's lemma his q
    correlations shrink by 1 - 2 s phi(s).
    """
    excess_q = params.transmitted_q_variance - 1.0
    excess_p = params.transmitted_p_variance - 1.0
    per_eta = {name: [] for name in (
        "xa_xa", "xb_xb", "xe_xe", "xa_xb", "xe_xb",
        "pa_pa", "pb_pb", "pe_pe", "pa_pb", "pe_pb",
    )}
    bob = [covariance_matrix(params, eta, eta) for eta in etas]
    snrs = classical_snr(displacement, etas) / np.array([cm.b_q for cm in bob])
    ber = classical_ber(snrs).tolist()
    for eta, cm, snr, tail in zip(etas, bob, snrs.tolist(), ber):
        eve = covariance_matrix(params, 1.0 - eta, 1.0 - eta)
        s = math.sqrt(snr)
        phi = math.exp(-s * s / 2.0) / math.sqrt(2.0 * math.pi)
        b_q = cm.b_q * (1.0 - 4.0 * s * phi + 4.0 * s * s * tail)
        shrink = 1.0 - 2.0 * s * phi
        c_q = shrink * cm.c_q
        # Not forced to an exact 0.0 under zero leakage: the report prints
        # the rounding residue of the excess variance (e.g. -0.000000 at
        # 7.5 dB).
        mix = math.sqrt(eta * (1.0 - eta))
        eb_q = shrink * mix * excess_q
        eb_p = mix * excess_p
        per_eta["xa_xa"].append((cm.a_q, 2.0 * cm.a_q**2))
        per_eta["xb_xb"].append((b_q, 2.0 * b_q**2))
        per_eta["xe_xe"].append((eve.b_q, 2.0 * eve.b_q**2))
        per_eta["xa_xb"].append((c_q, cm.a_q * b_q + c_q**2))
        per_eta["xe_xb"].append((eb_q, eve.b_q * b_q + eb_q**2))
        per_eta["pa_pa"].append((cm.a_p, 2.0 * cm.a_p**2))
        per_eta["pb_pb"].append((cm.b_p, 2.0 * cm.b_p**2))
        per_eta["pe_pe"].append((eve.b_p, 2.0 * eve.b_p**2))
        per_eta["pa_pb"].append((cm.c_p, cm.a_p * cm.b_p + cm.c_p**2))
        per_eta["pe_pb"].append((eb_p, eve.b_p * cm.b_p + eb_p**2))

    predictions = {
        name: (
            sum(v for v, _ in rows) / len(rows),
            sum(var for _, var in rows) / len(rows),
        )
        for name, rows in per_eta.items()
    }
    return predictions, sum(ber) / len(ber), ber


def cmd_protocol_verify(config: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    stamp = _stamp(config)
    params = config.squeezing_params()
    if args.sabotage:
        # Detune the tap away from the zero-leakage point; the
        # eavesdropper correlation must light up and fail the check.
        detuned = min(0.9, params.tap_transmissivity * 1.3)
        params = SqueezingParams(
            params.squeezed_variance, params.modulation_variance, detuned
        )

    rng = np.random.default_rng(config.master_seed)
    etas = np.sort(rng.uniform(0.15, 0.85, _VERIFY_REALIZATIONS))
    moments = mc_quadrature_sim(
        params, config.classical, etas, _VERIFY_SHOTS_PER_ETA, rng
    )
    n = moments.n_shots

    # Predictions assume the zero-leakage tap (the protocol under
    # verification); under sabotage the simulation departs from them.
    reference = SqueezingParams.from_squeezing_db(config.squeezing_db)
    predictions, ber_pred, ber_rows = _verify_predictions(
        reference, etas, config.classical.displacement
    )

    lines = [
        stamp.rstrip("\n"),
        "protocol verification report",
        f"scenario {config.scenario}",
        f"tap_transmissivity {_render_value(params.tap_transmissivity)}",
        f"zero_leakage {'yes' if params.is_zero_leakage else 'no'}",
        f"realizations {_VERIFY_REALIZATIONS}",
        f"shots_per_realization {_VERIFY_SHOTS_PER_ETA}",
        "",
        f"{'quantity':<10} {'empirical':>14} {'predicted':>14} {'z':>10}",
    ]
    max_z = 0.0
    for name, (predicted, var_per_shot) in predictions.items():
        empirical = getattr(moments, name)
        sigma = math.sqrt(var_per_shot / n)
        z = (empirical - predicted) / sigma
        max_z = max(max_z, abs(z))
        lines.append(f"{name:<10} {empirical:>14.6f} {predicted:>14.6f} {z:>10.2f}")

    ber_var = sum(p * (1.0 - p) for p in ber_rows) / len(ber_rows)
    if ber_var / n < 1e-18:
        # Separation so large that no errors are statistically possible;
        # any observed error is a real defect.
        z_ber = 0.0 if moments.bit_errors == 0 else float(moments.bit_errors)
    else:
        z_ber = (moments.bit_error_rate - ber_pred) / math.sqrt(ber_var / n)
    max_z = max(max_z, abs(z_ber))
    lines.append(
        f"{'ber':<10} {moments.bit_error_rate:>14.6f} {ber_pred:>14.6f} {z_ber:>10.2f}"
    )
    verdict = "PASS" if max_z <= _VERIFY_THRESHOLD_SIGMA else "FAIL"
    lines += [
        "",
        f"max_abs_z {max_z:.2f}",
        f"verdict {verdict} (threshold {_VERIFY_THRESHOLD_SIGMA:g} sigma)",
    ]

    report_path = out / f"{config.scenario}_verify.txt"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print(f"max deviation {max_z:.2f} sigma -> {verdict}")
    print(f"wrote {report_path}")
    if verdict == "FAIL":
        raise VerificationError(
            f"simulation deviates from closed forms by {max_z:.2f} sigma "
            f"(threshold {_VERIFY_THRESHOLD_SIGMA:g}); see {report_path}"
        )
    return 0


def cmd_link_budget(config: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    stamp = _stamp(config)
    ens = load_ensemble(args.ensemble)
    _check_ensemble_matches_config(ens, config)

    snrs = classical_snr(config.classical.displacement, ens.etas)
    bers = classical_ber(snrs).tolist()
    mean_ber = sum(bers) / len(bers)

    csv_path = out / f"{config.scenario}_linkbudget.csv"
    rows = zip(range(len(bers)), ens.etas.tolist(), snrs.tolist(), bers)
    _write_csv(csv_path, stamp, "realization,eta,snr,ber", rows)
    with open(csv_path, "a", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# ensemble_mean_ber = {_render_value(mean_ber)}\n")

    print(f"ensemble mean BER {mean_ber:.6g} over {len(bers)} realizations")
    print(f"wrote {csv_path}")
    return 0


_DISPATCH = {
    "simulate-channel": cmd_simulate_channel,
    "key-rate": cmd_key_rate,
    "protocol-verify": cmd_protocol_verify,
    "link-budget": cmd_link_budget,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        return _DISPATCH[args.command](config, args)
    except DuallinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
