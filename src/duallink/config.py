"""Run configuration: strict INI-style parsing, canonical rendering,
and content hashing for reproducible reports.

The schema is closed: unknown sections or keys are errors, so a typo
like ``zenit_angle`` cannot silently fall back to a default and waste a
simulation run.  Rendering is canonical (fixed section and key order,
shortest round-trip float form), which makes the config hash stable and
lets ``parse(render(config))`` reproduce the config exactly.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from operator import attrgetter

from .atmosphere import AtmosphereProfile, LinkGeometry
from .errors import UsageError
from .keyrate import DetectorModel, FiniteSizeParams
from .protocol import ClassicalLayer, SqueezingParams

_REQUIRED = object()

# section -> key -> (converter, default, RunConfig attribute path);
# _REQUIRED means the key must be present.  Order here is the canonical
# rendering order.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "scenario": {"name": (str, _REQUIRED, "scenario")},
    "geometry": {
        "wavelength": (float, _REQUIRED, "geometry.wavelength"),
        "beam_waist": (float, _REQUIRED, "geometry.beam_waist"),
        "zenith_angle": (float, _REQUIRED, "geometry.zenith_angle"),
        "satellite_altitude": (float, _REQUIRED, "geometry.satellite_altitude"),
        "ground_altitude": (float, 0.0, "geometry.ground_altitude"),
        "aperture_radius": (float, _REQUIRED, "geometry.aperture_radius"),
    },
    "atmosphere": {
        "ground_cn2": (float, _REQUIRED, "profile.ground_cn2"),
        "ground_wind": (float, _REQUIRED, "profile.ground_wind"),
        "outer_scale": (float, _REQUIRED, "profile.outer_scale"),
        "inner_scale": (float, _REQUIRED, "profile.inner_scale"),
        "cn2_scale": (float, 1.0, "profile.cn2_scale"),
    },
    "grid": {"size": (int, 1024, "grid_size")},
    "ensemble": {
        "realizations": (int, 10000, "realizations"),
        "master_seed": (int, 1, "master_seed"),
    },
    "squeezing": {"squeezing_db": (float, _REQUIRED, "squeezing_db")},
    "classical": {
        "displacement": (float, _REQUIRED, "classical.displacement"),
        "carrier_amplitude": (float, _REQUIRED, "classical.carrier_amplitude"),
    },
    "detector": {
        "efficiency": (float, _REQUIRED, "detector.efficiency"),
        "electronic_noise": (float, _REQUIRED, "detector.electronic_noise"),
    },
    "finite_size": {
        "block_size": (float, _REQUIRED, "block_size"),
        "kept_fraction": (float, _REQUIRED, "kept_fraction"),
        "recon_efficiency": (float, _REQUIRED, "recon_efficiency"),
        "discretisation": (int, _REQUIRED, "discretisation"),
        "total_epsilon": (float, _REQUIRED, "total_epsilon"),
        "aep_interior_eps": (str, "composed", "aep_interior_eps"),
    },
    "output": {
        "directory": (str, _REQUIRED, "output_dir"),
        "histogram_bin_db": (float, 0.5, "histogram_bin_db"),
    },
}

# RunConfig attributes that hold a parameter object, built in this order.
_PARTS = {
    "geometry": LinkGeometry,
    "profile": AtmosphereProfile,
    "classical": ClassicalLayer,
    "detector": DetectorModel,
}


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved run: scene, physics, protocol, and outputs."""

    scenario: str
    geometry: LinkGeometry
    profile: AtmosphereProfile
    grid_size: int
    realizations: int
    master_seed: int
    squeezing_db: float
    classical: ClassicalLayer
    detector: DetectorModel
    block_size: float
    kept_fraction: float
    recon_efficiency: float
    discretisation: int
    total_epsilon: float
    aep_interior_eps: str
    output_dir: str
    histogram_bin_db: float

    def __post_init__(self) -> None:
        if not self.scenario or any(c.isspace() for c in self.scenario):
            raise UsageError(
                f"scenario name must be nonempty without whitespace, got {self.scenario!r}"
            )
        if self.grid_size < 2 or self.grid_size & (self.grid_size - 1):
            raise UsageError(f"grid size must be a power of two, got {self.grid_size}")
        if self.realizations < 1:
            raise UsageError(f"realizations must be at least 1, got {self.realizations}")
        if not (0.0 < self.kept_fraction <= 1.0):
            raise UsageError(f"kept fraction must be in (0, 1], got {self.kept_fraction}")
        if self.histogram_bin_db <= 0.0:
            raise UsageError(f"histogram bin must be positive, got {self.histogram_bin_db}")
        # Build the derived parameter objects once so an invalid
        # combination fails at parse time, not mid-run.
        self.squeezing_params()
        self.finite_size_params()

    def squeezing_params(self) -> SqueezingParams:
        return SqueezingParams.from_squeezing_db(self.squeezing_db)

    def finite_size_params(self) -> FiniteSizeParams:
        return FiniteSizeParams(
            block_size=self.block_size,
            kept_length=self.block_size * self.kept_fraction,
            recon_efficiency=self.recon_efficiency,
            discretisation=self.discretisation,
            total_epsilon=self.total_epsilon,
            aep_interior_eps=self.aep_interior_eps,
        )


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive; typos must not alias
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise UsageError(f"malformed config: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text against the closed schema."""
    sections = _read_sections(text)

    unknown_sections = set(sections) - set(_SCHEMA)
    if unknown_sections:
        raise UsageError(f"unknown config sections: {sorted(unknown_sections)}")

    fields: dict[str, object] = {}
    parts: dict[str, dict[str, object]] = {name: {} for name in _PARTS}
    for section, keys in _SCHEMA.items():
        present = sections.get(section, {})
        unknown_keys = set(present) - set(keys)
        if unknown_keys:
            raise UsageError(
                f"unknown keys in [{section}]: {sorted(unknown_keys)}"
            )
        for key, (convert, default, path) in keys.items():
            if key in present:
                raw = present[key]
                try:
                    value = convert(raw)
                except ValueError as exc:
                    raise UsageError(
                        f"[{section}] {key}: cannot parse {raw!r} as {convert.__name__}"
                    ) from exc
                if convert is float and not math.isfinite(value):
                    raise UsageError(f"[{section}] {key}: {raw!r} is not finite")
            elif default is _REQUIRED:
                raise UsageError(f"missing required key [{section}] {key}")
            else:
                value = default
            part, _, attr = path.rpartition(".")
            (parts[part] if part else fields)[attr] = value

    for name, cls in _PARTS.items():
        fields[name] = cls(**parts[name])
    return RunConfig(**fields)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _render_value(value) -> str:
    # repr of a float is its shortest round-trip form, so a rendered
    # config parses back to bit-identical numbers.
    return repr(value) if isinstance(value, float) else str(value)


def render_config(config: RunConfig) -> str:
    """Canonical text form; parse_config inverts it exactly."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (_, _, path) in keys.items():
            out.write(f"{key} = {_render_value(attrgetter(path)(config))}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(config: RunConfig) -> str:
    """SHA-256 of the canonical rendering; stamps every output file."""
    return hashlib.sha256(render_config(config).encode("utf-8")).hexdigest()
