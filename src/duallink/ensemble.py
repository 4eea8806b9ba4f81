"""Monte Carlo channel ensembles: orchestration, fading statistics, persistence.

An ensemble is an ordered list of transmissivities, one per channel
realization, plus everything needed to regenerate it bit for bit: link
geometry, atmosphere, grid size, and the master seed.  Realizations come in
antithetic pairs: of n, the first h = ceil(n / 2) are the walks of streams
(master_seed, i), i < h, and realization h + k is the mirror of stream k,
the same walk with every screen negated (for an odd n the last stream has
no mirror).  A pair's two etas are dependent, distinct pairs independent,
and each eta has the channel's marginal law.  The layout follows from n
alone and does not depend on how many worker threads run, so the list is a
pure function of its metadata.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .atmosphere import AtmosphereProfile, LinkGeometry, greenwood_and_coherence
from .errors import DataIntegrityError, DuallinkError, UsageError
from .optics import aperture_transmissivity, build_channel, choose_receiver_window, split_step
from .screens import ScreenStreams, plan_slabs

_FORMAT_NAME = "duallink-ensemble"
# 2: each spectral draw serves a pair of screens (real and imaginary halves)
# 3: altitude integrals by a fixed Gauss-Legendre rule, which moves every r0
# 4: float32 cos and sin in the screen imprint, and the Fresnel hop's shifts
#    folded into its chirps, which move every eta at rounding level
# 5: paraxial, separable hop factors (1-D axis vectors instead of N x N
#    kernels), which move every eta at rounding level
# 6: SFC64 screen streams, and each spectral amplitude a Rayleigh modulus
#    times a uniform phase, which draws new turbulence
# 7: fewer screens, each where the grid's weak-theory kernel keeps its band
# 8: fixed-grid hops as two row passes around an in-place transpose, which
#    move every eta at rounding level
# 9: the entry field in closed form, which moves every eta by about 3e-7
# 10: antithetic pairs; the first ceil(n/2) etas are format 9's, bit for bit,
#     and the rest their mirrors, walked with every screen negated
_FORMAT_VERSION = 10

# fields serialized into the ensemble header, in writing order
_GEOMETRY_FIELDS = (
    "ground_altitude",
    "satellite_altitude",
    "zenith_angle",
    "wavelength",
    "beam_waist",
    "aperture_radius",
)
_PROFILE_FIELDS = ("ground_cn2", "ground_wind", "outer_scale", "inner_scale", "cn2_scale")


@dataclass(frozen=True, eq=False)
class ChannelEnsemble:
    """Transmissivity samples in realization order, with their provenance.

    ``etas`` may be given as any sequence or array; the ensemble keeps its
    own read-only float64 copy, validated once at construction.
    """

    etas: np.ndarray
    geometry: LinkGeometry
    profile: AtmosphereProfile
    grid_size: int
    master_seed: int
    coherence_time: float  # seconds; +inf when the channel never decorrelates

    def __post_init__(self) -> None:
        values = _require_valid_etas(np.array(self.etas, dtype=float))
        values.setflags(write=False)
        object.__setattr__(self, "etas", values)

    def __len__(self) -> int:
        return len(self.etas)


@dataclass(frozen=True)
class FadingStats:
    """Sample fading moments of a transmissivity ensemble."""

    mean_eta: float
    eta_f: float  # <sqrt(eta)>^2, the coherent fraction surviving fading
    var_sqrt: float  # Var(sqrt(eta)) = <eta> - eta_f
    mean_loss_db: float
    std_loss_db: float

    def __post_init__(self) -> None:
        # what covariance_matrix takes; a NaN fails every comparison
        if not 0.0 <= self.eta_f <= self.mean_eta <= 1.0:
            raise DataIntegrityError(
                f"need 0 <= eta_f <= mean_eta <= 1, got eta_f {self.eta_f}, "
                f"mean_eta {self.mean_eta}; moments are inconsistent"
            )
        if not self.var_sqrt >= 0.0:
            raise DataIntegrityError("negative Var(sqrt(eta))")


def _require_valid_etas(etas) -> np.ndarray:
    values = np.asarray(etas, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise UsageError("transmissivities must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(values)) or np.any(values < 0.0) or np.any(values > 1.0):
        raise DataIntegrityError("transmissivities must be finite and within [0, 1]")
    return values


def run_ensembles(
    geom: LinkGeometry,
    profile: AtmosphereProfile,
    n: int,
    master_seed: int,
    aperture_radii,
    grid_size: int = 1024,
    threads: int = 1,
) -> tuple[ChannelEnsemble, ...]:
    """Propagate n realizations once and meter every aperture radius.

    The receiver window follows the largest requested aperture, so all
    returned ensembles share identical optical fields; they differ only in
    how much of each arriving field the telescope collects.  With more
    realizations than threads, a worker walks a stream and its mirror in
    lockstep (one spectral draw and one imprint phasor serve both);
    otherwise every realization walks alone on its own worker.  Either
    schedule gives the same bits.
    """
    if n < 1:
        raise UsageError("ensemble size must be at least 1")
    radii = tuple(float(r) for r in aperture_radii)
    if not radii:
        raise UsageError("at least one aperture radius is required")
    _, coherence_time = greenwood_and_coherence(geom, profile)
    plan = plan_slabs(geom, profile, choose_receiver_window(geom, radii) / grid_size)
    if not any(slab.has_screen for slab in plan.slabs):
        # simulated as vacuum, so no realization ever decorrelates from the last
        coherence_time = math.inf
    channel = build_channel(geom, profile, plan, grid_size, radii)

    # (stream, member signs, realization index of each member)
    half = (n + 1) // 2
    if n > threads:
        walks = [
            (k, (1, -1), (k, half + k)) if half + k < n else (k, (1,), (k,))
            for k in range(half)
        ]
    else:
        walks = [(i, (1,), (i,)) for i in range(half)]
        walks += [(k, (-1,), (half + k,)) for k in range(n - half)]

    def realize(walk) -> list[tuple[float, ...]]:
        stream, signs, indices = walk
        try:
            fields = split_step(channel, ScreenStreams(master_seed, stream), signs)
            return [
                tuple(aperture_transmissivity(field, ap) for ap in channel.apertures)
                for field in fields
            ]
        except DuallinkError as exc:
            names = " and ".join(map(str, indices))
            label = "realizations" if len(indices) > 1 else "realization"
            raise type(exc)(f"{label} {names}: {exc}") from exc

    rows: list[tuple[float, ...]] = [()] * n
    # no pool for one thread: a pool thread's own malloc arena adds ~2 MB of peak RSS
    if threads <= 1:
        results = [realize(walk) for walk in walks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(realize, walks))
    for (_, _, indices), members in zip(walks, results):
        for index, row in zip(indices, members):
            rows[index] = row

    return tuple(
        ChannelEnsemble(
            etas=[row[j] for row in rows],
            geometry=replace(geom, aperture_radius=radius),
            profile=profile,
            grid_size=grid_size,
            master_seed=master_seed,
            coherence_time=coherence_time,
        )
        for j, radius in enumerate(radii)
    )


def run_ensemble(
    geom: LinkGeometry,
    profile: AtmosphereProfile,
    n: int,
    master_seed: int,
    grid_size: int = 1024,
    threads: int = 1,
) -> ChannelEnsemble:
    """Single-aperture ensemble at the geometry's own telescope radius."""
    (ens,) = run_ensembles(
        geom, profile, n, master_seed, (geom.aperture_radius,), grid_size, threads
    )
    return ens


def fading_stats(etas) -> FadingStats:
    """Exact sample moments of transmissivities given as any sequence or array."""
    etas = _require_valid_etas(etas)
    mean_eta = float(etas.mean())
    eta_f = float(np.sqrt(etas).mean()) ** 2
    # mathematically nonnegative; shave the last-ulp rounding
    var_sqrt = max(0.0, mean_eta - eta_f)
    eta_f = mean_eta - var_sqrt
    if np.any(etas == 0.0):
        # a fully blocked realization has unbounded loss
        mean_loss_db = math.inf
        std_loss_db = math.inf if etas.size > 1 else 0.0
    else:
        loss_db = -10.0 * np.log10(etas)
        mean_loss_db = float(loss_db.mean())
        std_loss_db = float(loss_db.std(ddof=1)) if etas.size > 1 else 0.0
    return FadingStats(mean_eta, eta_f, var_sqrt, mean_loss_db, std_loss_db)


def loss_histogram(etas, bin_width_db: float):
    """Normalized histogram of per-realization loss in dB.

    ``etas`` is any sequence or array of transmissivities.  Bin edges sit
    on integer multiples of the bin width, so histograms of different
    ensembles share a common grid.  Densities integrate to one.
    """
    if bin_width_db <= 0.0:
        raise UsageError("bin width must be positive")
    etas = _require_valid_etas(etas)
    if np.any(etas == 0.0):
        raise UsageError("zero transmissivity has unbounded loss; cannot histogram")
    loss_db = -10.0 * np.log10(etas)
    first = math.floor(loss_db.min() / bin_width_db)
    last = math.floor(loss_db.max() / bin_width_db) + 1
    edges = np.arange(first, last + 1) * bin_width_db
    counts, _ = np.histogram(loss_db, bins=edges)
    density = counts / (loss_db.size * bin_width_db)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return list(zip(centers.tolist(), density.tolist()))


def coherence_step_series(ens: ChannelEnsemble):
    """Step-function loss trace: one (start time, eta) per realization.

    Successive realizations stand in for successive frozen-channel windows
    of length tau0, reproducing the staircase picture of a fading link.  The
    first half of the trace holds the streams' own walks and the second
    half their antithetic mirrors, so neighbouring steps are never a pair.
    """
    tau0 = ens.coherence_time
    if not math.isfinite(tau0) or tau0 <= 0.0:
        raise UsageError("the ensemble has no finite coherence time to step with")
    return [(i * tau0, eta) for i, eta in enumerate(ens.etas.tolist())]


# ---------------------------------------------------------------------------
# persistence


def _format_float(value: float) -> str:
    return f"{value:.17g}"


def save_ensemble(ens: ChannelEnsemble, path) -> None:
    """Write the text format: versioned header, checksum, one eta per line."""
    data_lines = "".join(_format_float(eta) + "\n" for eta in ens.etas.tolist())
    checksum = hashlib.sha256(data_lines.encode("ascii")).hexdigest()
    header = [f"{_FORMAT_NAME} {_FORMAT_VERSION}"]
    for name in _GEOMETRY_FIELDS:
        header.append(f"geometry.{name} = {_format_float(getattr(ens.geometry, name))}")
    for name in _PROFILE_FIELDS:
        header.append(f"profile.{name} = {_format_float(getattr(ens.profile, name))}")
    header.append(f"grid_size = {ens.grid_size}")
    header.append(f"master_seed = {ens.master_seed}")
    header.append(f"coherence_time = {_format_float(ens.coherence_time)}")
    header.append(f"count = {len(ens.etas)}")
    header.append(f"checksum = {checksum}")
    header.append("data:")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(header) + "\n")
        fh.write(data_lines)


def load_ensemble(path) -> ChannelEnsemble:
    """Parse and verify a saved ensemble; any corruption refuses the whole file."""
    try:
        with open(path, "r", encoding="ascii", newline="\n") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataIntegrityError(f"{path}: not an ASCII text file ({exc})") from exc
    head, sep, data = text.partition("\ndata:\n")
    if not sep:
        raise DataIntegrityError(f"{path}: missing data section")
    lines = head.split("\n")
    first = lines[0].split()
    if len(first) != 2 or first[0] != _FORMAT_NAME:
        raise DataIntegrityError(f"{path}: not a {_FORMAT_NAME} file")
    if first[1] != str(_FORMAT_VERSION):
        raise DataIntegrityError(
            f"{path}: format version {first[1]} is not supported (expected "
            f"{_FORMAT_VERSION})"
        )
    fields: dict[str, str] = {}
    for line in lines[1:]:
        key, eq, value = line.partition(" = ")
        if not eq or not key or key in fields:
            raise DataIntegrityError(f"{path}: malformed header line {line!r}")
        fields[key] = value

    def take(name: str) -> str:
        try:
            return fields.pop(name)
        except KeyError:
            raise DataIntegrityError(f"{path}: missing header field {name!r}") from None

    try:
        geometry = LinkGeometry(
            **{name: float(take(f"geometry.{name}")) for name in _GEOMETRY_FIELDS}
        )
        profile = AtmosphereProfile(
            **{name: float(take(f"profile.{name}")) for name in _PROFILE_FIELDS}
        )
        grid_size = int(take("grid_size"))
        master_seed = int(take("master_seed"))
        coherence_time = float(take("coherence_time"))
        count = int(take("count"))
        checksum = take("checksum")
    except ValueError as exc:
        raise DataIntegrityError(f"{path}: unparsable header value ({exc})") from exc
    if fields:
        raise DataIntegrityError(
            f"{path}: unknown header fields {sorted(fields)}"
        )
    if hashlib.sha256(data.encode("ascii")).hexdigest() != checksum:
        raise DataIntegrityError(f"{path}: checksum mismatch; file is corrupt")
    values = data.split("\n")
    if values and values[-1] == "":
        values.pop()
    if len(values) != count:
        raise DataIntegrityError(
            f"{path}: header promises {count} realizations, found {len(values)}"
        )
    try:
        etas = list(map(float, values))
    except ValueError as exc:
        raise DataIntegrityError(f"{path}: unparsable transmissivity ({exc})") from exc
    return ChannelEnsemble(etas, geometry, profile, grid_size, master_seed, coherence_time)
