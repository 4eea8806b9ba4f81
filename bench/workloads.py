"""The benchmark's workloads: generated configs and inputs, timed operations, output checks.

Each workload turns the benchmark seed into config files (and, for the
post-processing sweep, ensemble files) under a work directory; the program
sees only those files.  One *operation* is the unit that is timed:

* channel workloads: one ``simulate-channel`` command of a fixed number of
  realizations, through ``duallink.cli.main``;
* ``postprocess-sweep``: one whole campaign of ``key-rate``, ``link-budget``
  and ``protocol-verify`` commands plus a ``keyrate.max_tolerable_loss`` table.

Every command's products are checked after the timer stops.  Checks test
invariants, never fixed digests, so a declared change of the random-stream
layout stays measurable.
"""

from __future__ import annotations

import csv
import io
import math
import shutil
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from duallink import cli, keyrate
from duallink.atmosphere import AtmosphereProfile, LinkGeometry
from duallink.ensemble import ChannelEnsemble, load_ensemble, save_ensemble

# The baseline downlink of the test suite and the paper: 500 km orbit,
# 1064 nm, 15 cm waist, Hufnagel-Valley profile with A = 9.6e-14.
_CONFIG = """\
[scenario]
name = {name}

[geometry]
wavelength = 1.064e-6
beam_waist = 0.15
zenith_angle = {zenith!r}
satellite_altitude = 500e3
aperture_radius = {aperture!r}

[atmosphere]
ground_cn2 = 9.6e-14
ground_wind = 3.0
outer_scale = 5.0
inner_scale = 0.01

[grid]
size = {grid}

[ensemble]
realizations = {realizations}
master_seed = {master_seed}

[squeezing]
squeezing_db = {squeezing_db!r}

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

_DETECTOR = keyrate.DetectorModel(efficiency=0.61, electronic_noise=0.12)


def _geometry(zenith: float, aperture: float) -> LinkGeometry:
    return LinkGeometry(
        ground_altitude=0.0,
        satellite_altitude=500e3,
        zenith_angle=zenith,
        wavelength=1.064e-6,
        beam_waist=0.15,
        aperture_radius=aperture,
    )


_PROFILE = AtmosphereProfile(
    ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01
)


def write_config(path: Path, **fields) -> Path:
    values = dict(
        zenith=0.0, aperture=0.5, grid=64, realizations=1, master_seed=1, squeezing_db=10.0
    )
    values.update(fields)
    path.write_text(_CONFIG.format(**values), encoding="utf-8")
    return path


def run_cli(argv: list[str], tracer=None) -> tuple[int, str]:
    """One command through the real entry point; returns status and its output.

    An exception escaping ``main`` is what a user sees as a traceback and
    exit status 1, so it is reported the same way.
    """
    captured = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else nullcontext()
    with span, redirect_stdout(captured), redirect_stderr(captured):
        try:
            status = cli.main(argv)
        except Exception:
            traceback.print_exc()
            status = 1
    return status, captured.getvalue()


@dataclass
class Outcome:
    """One timed operation: its wall time and how many commands it ran and failed."""

    seconds: float
    attempted: int
    problems: list[str]


def _guard(check):
    """Run a product check; any exception it raises is a failed check."""
    try:
        return check()
    except Exception:  # a malformed product must count as a failure, not end the run
        return [traceback.format_exc(limit=2)]


@dataclass(frozen=True)
class ChannelWorkload:
    name: str
    why: str
    grid: int
    zenith: float
    threads: int
    realizations_per_op: int
    aperture: float = 0.5

    def prepare(self, seed: int, work: Path, smoke: bool) -> "ChannelRun":
        return ChannelRun(self, seed, work, smoke)


class ChannelRun:
    """simulate-channel commands, each with its own master seed drawn from the run seed."""

    def __init__(self, workload: ChannelWorkload, seed: int, work: Path, smoke: bool):
        self.workload = workload
        self.out = work / "out"
        self.count = 2 if smoke else workload.realizations_per_op
        self.grid = 64 if smoke else workload.grid
        self.config = write_config(
            work / "channel.ini",
            name="channel",
            # grid 64 resolves the 0.5 m aperture only at zenith
            zenith=0.0 if smoke else workload.zenith,
            aperture=workload.aperture,
            grid=self.grid,
            realizations=self.count,
            master_seed=seed,
            out=self.out,
        )
        self._seeds = np.random.default_rng(seed)

    def op(self, tracer=None) -> Outcome:
        shutil.rmtree(self.out, ignore_errors=True)  # no product of an earlier op can pass a check
        master_seed = int(self._seeds.integers(1, 2**31))
        argv = [
            "simulate-channel",
            "--config", str(self.config),
            "--threads", str(self.workload.threads),
            "--seed", str(master_seed),
        ]
        start = time.perf_counter()
        status, output = run_cli(argv, tracer)
        seconds = time.perf_counter() - start
        if status != 0:
            return Outcome(seconds, 1, [f"simulate-channel exited {status}: {output}"])
        return Outcome(seconds, 1, _guard(lambda: self._check(master_seed)))

    def headline(self, op_s: float) -> tuple[str, float, str]:
        return "realizations_per_s", self.count / op_s, "1/s"

    def _check(self, master_seed: int) -> list[str]:
        # load_ensemble verifies the header and the data checksum.
        ens = load_ensemble(self.out / "channel.ensemble")
        problems = []
        if len(ens) != self.count or ens.master_seed != master_seed:
            problems.append(
                f"ensemble holds {len(ens)} realizations of seed {ens.master_seed}, "
                f"asked for {self.count} of seed {master_seed}"
            )
        if not all(0.0 < eta <= 1.0 for eta in ens.etas):
            problems.append(f"transmissivity outside (0, 1]: {ens.etas}")
        return problems


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    why: str
    zeniths: tuple[float, ...] = (0.0, 30.0, 60.0)
    apertures: tuple[float, ...] = (0.25, 0.5)
    squeezing_db: tuple[float, ...] = (6.0, 8.0, 10.0, 12.0)
    block_sizes: tuple[float, ...] = (1e10, 1e11, 1e12, 1e13, 1e14)
    realizations: int = 10_000

    threads = 1

    def prepare(self, seed: int, work: Path, smoke: bool) -> "SweepRun":
        if smoke:
            small = replace(
                self,
                zeniths=(30.0,),
                squeezing_db=(8.0, 10.0),
                block_sizes=(1e10, 1e14),
                realizations=500,
            )
            return SweepRun(small, seed, work)
        return SweepRun(self, seed, work)


def _synthetic_etas(rng: np.random.Generator, zenith: float, aperture: float, n: int):
    """Gamma-distributed loss in dB, so every eta lies in (0, 1].

    The mean loss grows with the air mass and shrinks with the aperture,
    which keeps each file plausible for the (zenith, aperture) it is paired
    with; no propagation is run.
    """
    sec = 1.0 / math.cos(math.radians(zenith))
    mean_db = 4.0 + 3.0 * (sec - 1.0) + 2.0 * math.log2(0.5 / aperture)
    loss_db = rng.gamma(6.0, mean_db / 6.0, n)
    return tuple(float(eta) for eta in 10.0 ** (-loss_db / 10.0))


class SweepRun:
    """Post-processing campaign over seeded synthetic ensemble files."""

    grid = 0  # nothing is propagated

    def __init__(self, workload: SweepWorkload, seed: int, work: Path):
        self.workload = workload
        self.out = work / "out"
        rng = np.random.default_rng(seed)
        self.pairs = []  # (key-rate configs by squeezing level, ensemble file)
        for zenith in workload.zeniths:
            for aperture in workload.apertures:
                tag = f"z{zenith:g}_a{aperture:g}"
                ensemble = work / f"{tag}.ensemble"
                save_ensemble(
                    ChannelEnsemble(
                        etas=_synthetic_etas(rng, zenith, aperture, workload.realizations),
                        geometry=_geometry(zenith, aperture),
                        profile=_PROFILE,
                        grid_size=1024,
                        master_seed=seed,
                        coherence_time=1e-3,
                    ),
                    ensemble,
                )
                configs = {
                    sq: write_config(
                        work / f"{tag}_s{sq:g}.ini",
                        name=f"{tag}_s{sq:g}",
                        zenith=zenith,
                        aperture=aperture,
                        grid=1024,
                        master_seed=seed,
                        squeezing_db=sq,
                        out=self.out,
                    )
                    for sq in workload.squeezing_db
                }
                self.pairs.append((configs, ensemble))
        # protocol-verify draws its own channel; one config per squeezing level.
        verify_seeds = rng.integers(1, 2**31, len(workload.squeezing_db))
        self.verify = [
            write_config(
                work / f"verify_s{sq:g}.ini",
                name=f"verify_s{sq:g}",
                master_seed=int(s),
                squeezing_db=sq,
                out=self.out,
            )
            for sq, s in zip(workload.squeezing_db, verify_seeds)
        ]
        self.config = self.verify[0]
        self.finite = [
            keyrate.FiniteSizeParams.from_total_epsilon(
                block_size=size,
                kept_length=size / 2.0,
                recon_efficiency=0.98,
                discretisation=5,
                total_epsilon=1e-9,
            )
            for size in workload.block_sizes
        ]

    def op(self, tracer=None) -> Outcome:
        shutil.rmtree(self.out, ignore_errors=True)  # no product of an earlier op can pass a check
        commands = []
        for configs, ensemble in self.pairs:
            for config in configs.values():
                commands.append(["key-rate", "--config", str(config), "--ensemble", str(ensemble)])
            first = next(iter(configs.values()))
            commands.append(["link-budget", "--config", str(first), "--ensemble", str(ensemble)])
        commands += [["protocol-verify", "--config", str(c)] for c in self.verify]

        problems = []
        start = time.perf_counter()
        statuses = [run_cli(argv, tracer) for argv in commands]
        table = {}
        for sq in self.workload.squeezing_db:
            for fin in self.finite:
                # Called through the module so a tracer's wrapper sees it.
                try:
                    table[sq, fin.block_size] = keyrate.max_tolerable_loss(fin, _DETECTOR, sq)
                except Exception as exc:  # a failed table entry is a failed operation
                    problems.append(f"max_tolerable_loss({fin.block_size:g}, {sq:g} dB): {exc!r}")
        seconds = time.perf_counter() - start

        for argv, (status, output) in zip(commands, statuses):
            if status != 0:
                problems.append(f"{argv[0]} {argv[2]} exited {status}: {output}")
        if not problems:
            problems += _guard(lambda: self._check_products(table))
        attempted = len(commands) + len(self.workload.squeezing_db) * len(self.finite)
        return Outcome(seconds, attempted, problems)

    def headline(self, op_s: float) -> tuple[str, float, str]:
        return "sweep_s", op_s, "s"

    def _check_products(self, table) -> list[str]:
        problems = []
        for configs, _ in self.pairs:
            for sq, config in configs.items():
                row = _last_csv_row(self.out / f"{config.stem}_keyrate.csv")
                values = {k: float(v) for k, v in row.items()}
                if not (
                    values["finite_size_rate"]
                    <= values["asymptotic_rate"]
                    <= values["mutual_information"]
                    and values["ideal_rate"] <= values["plob_bound"]
                ):
                    problems.append(f"key-rate ordering violated for {config.stem}: {row}")
            first = next(iter(configs.values()))
            text = (self.out / f"{first.stem}_linkbudget.csv").read_text(encoding="utf-8")
            mean_ber = float(text.rsplit("# ensemble_mean_ber = ", 1)[1])
            if not 0.0 <= mean_ber <= 0.5:
                problems.append(f"mean BER {mean_ber} outside [0, 0.5] for {first.stem}")
        for config in self.verify:
            report = (self.out / f"{config.stem}_verify.txt").read_text(encoding="utf-8")
            if "\nverdict PASS " not in report:
                problems.append(f"protocol-verify did not pass for {config.stem}")
        for sq in self.workload.squeezing_db:
            losses = [table[sq, size] for size in self.workload.block_sizes]
            # A larger block pays a smaller finite-size penalty, so it
            # tolerates at least as much loss (to the 0.01 dB bisection step).
            if not all(0.0 < x < 100.0 for x in losses) or any(
                b < a - 0.02 for a, b in zip(losses, losses[1:])
            ):
                problems.append(f"max tolerable loss not increasing with block size: {losses}")
        return problems


def _last_csv_row(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))[-1]


WORKLOADS = {
    w.name: w
    for w in (
        ChannelWorkload(
            "channel-512",
            "plain single-threaded simulate-channel at grid 512, zenith 60 deg (12 screens): "
            "RNG, FFT and Python overhead set the time",
            grid=512,
            zenith=60.0,
            threads=1,
            realizations_per_op=4,
        ),
        ChannelWorkload(
            "channel-1024-t2",
            "simulate-channel at grid 1024 on two worker threads: memory traffic, worker "
            "contention and kernel-cache footprint dominate",
            grid=1024,
            zenith=0.0,
            threads=2,
            realizations_per_op=2,
        ),
        SweepWorkload(
            "postprocess-sweep",
            "key-rate, link-budget, protocol-verify and a max-tolerable-loss table over "
            "synthetic 10,000-eta ensembles: no propagation runs",
        ),
    )
}
