"""Synthetic domain-shift benchmark and on-disk dataset formats.

The generator builds one source domain (sum-of-sinusoid class prototypes
plus Gaussian noise) and shifted target domains along two axes: amplitude
(scale/offset/noise change) and time (smooth random admissible warps
applied by integer index remapping).  Datasets round-trip through a
versioned manifest plus one CSV per series.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .signal import TimeSeries, integer_warp_oracle
from .tensor import Tensor
from .training import Dataset
from .warp import make_path

__all__ = ["Component", "DomainShift", "SynthSpec", "default_spec",
           "synth_generate", "save_dataset", "load_manifest",
           "MANIFEST_HEADER"]

MANIFEST_HEADER = "WARPADA-MANIFEST v1"
CSV_FORMAT = "%.12g"


@dataclass(frozen=True)
class Component:
    """One sinusoid of a class prototype."""

    amplitude: float
    frequency: float  # cycles across the whole series
    phase: float = 0.0


@dataclass(frozen=True)
class DomainShift:
    """How one target domain differs from the source.

    kind "amplitude": x -> scale * x + offset, drawn with noise_sigma
    (defaults to the source sigma).  kind "warp": remap indices along a
    smooth random path with displacements up to warp_d samples.  kind
    "both": amplitude transform, then warp.
    """

    kind: str
    tag: str
    scale: float = 1.0
    offset: float = 0.0
    noise_sigma: float | None = None
    warp_d: float = 0.0

    def __post_init__(self):
        if self.kind not in ("amplitude", "warp", "both"):
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if not self.tag:
            raise ValueError("target domain needs a tag")
        if self.kind in ("warp", "both") and self.warp_d < 0:
            raise ValueError(f"warp_d must be nonnegative, got {self.warp_d}")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one source domain plus its shifted targets."""

    classes: tuple[tuple[Component, ...], ...]
    length: int = 128
    channels: int = 1
    noise_sigma: float = 0.3
    n_per_class: int = 200
    targets: tuple[DomainShift, ...] = ()
    m_window: int = 10  # analysis half-width the warps must respect
    seed: int = 0

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ValueError("need at least 2 classes")
        if self.length < 2 * self.m_window + 1:
            raise ValueError(f"length {self.length} too short for window "
                             f"half-width {self.m_window}")
        if self.noise_sigma < 0 or self.n_per_class < 1 or self.channels < 1:
            raise ValueError("noise_sigma must be >= 0, n_per_class and channels >= 1")
        for proto in self.classes:
            for comp in proto:
                if not comp.frequency < self.length / 4:
                    raise ValueError(f"component frequency {comp.frequency} is not "
                                     f"band-limited (< length/4 = {self.length / 4})")
        for t in self.targets:
            if t.kind in ("warp", "both") and t.warp_d > self.m_window - 1:
                raise ValueError(f"target {t.tag!r}: warp_d {t.warp_d} exceeds "
                                 f"m_window-1 = {self.m_window - 1}")


def default_spec(seed: int = 0) -> SynthSpec:
    """3-class benchmark: one domain per shift axis plus their combination.

    Shift magnitudes were tuned so each axis hurts an ERM model noticeably
    while staying physically mild (amplitude x1.5 + 0.6 offset; warps up to
    8 samples on a 128-sample series).
    """
    classes = (
        (Component(1.0, 3.0), Component(0.5, 7.0, 1.3)),
        (Component(1.0, 5.0, 0.7), Component(0.5, 11.0)),
        (Component(0.8, 4.0, 2.1), Component(0.7, 9.0, 0.4)),
    )
    targets = (
        DomainShift(kind="amplitude", tag="amp", scale=1.5, offset=0.6),
        DomainShift(kind="warp", tag="warp", warp_d=8.0),
        DomainShift(kind="both", tag="both", scale=1.5, offset=0.6, warp_d=8.0),
    )
    return SynthSpec(classes=classes, targets=targets, seed=seed)


def _prototype(proto: tuple[Component, ...], length: int) -> np.ndarray:
    t = np.arange(length)
    wave = np.zeros(length)
    for comp in proto:
        wave += comp.amplitude * np.sin(2.0 * np.pi * comp.frequency * t / length + comp.phase)
    return wave


def _draw(spec: SynthSpec, label: int, sigma: float, rng: np.random.Generator,
          tag: str) -> TimeSeries:
    base = _prototype(spec.classes[label], spec.length)
    values = np.tile(base, (spec.channels, 1)) + sigma * rng.normal(
        size=(spec.channels, spec.length))
    return TimeSeries(Tensor(values), label=label, domain_tag=tag)


def _smooth_integer_path(n: int, max_d: float, rng: np.random.Generator) -> np.ndarray:
    """Random admissible integer path: white noise through the same
    constraint chain the method optimizes over, then rounded (rounding
    preserves monotonicity, boundary zeros, and the bound)."""
    if max_d < 0.5:
        return np.zeros(n)
    path = make_path(Tensor(rng.normal(size=n)), float(max_d)).displacements.data
    return np.round(path)


def _shifted(x: TimeSeries, shift: DomainShift, rng: np.random.Generator) -> TimeSeries:
    out = x
    if shift.kind in ("amplitude", "both"):
        out = TimeSeries(Tensor(shift.scale * out.values.data + shift.offset),
                         label=out.label, domain_tag=shift.tag)
    if shift.kind in ("warp", "both"):
        path = _smooth_integer_path(out.length, shift.warp_d, rng)
        out = integer_warp_oracle(out, path)
    return TimeSeries(Tensor(out.values.data), label=x.label, domain_tag=shift.tag)


def synth_generate(spec: SynthSpec) -> tuple[Dataset, list[Dataset]]:
    """Source dataset plus one shifted dataset per target, deterministically
    from spec.seed."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed & 0xFFFFFFFF, 0xDA7A]))
    source = [
        _draw(spec, label, spec.noise_sigma, rng, "source")
        for label in range(len(spec.classes))
        for _ in range(spec.n_per_class)
    ]
    targets = []
    for shift in spec.targets:
        sigma = spec.noise_sigma if shift.noise_sigma is None else shift.noise_sigma
        samples = [
            _shifted(_draw(spec, label, sigma, rng, shift.tag), shift, rng)
            for label in range(len(spec.classes))
            for _ in range(spec.n_per_class)
        ]
        targets.append(Dataset(samples, n_classes=len(spec.classes)))
    return Dataset(source, n_classes=len(spec.classes)), targets


def _write_series_csv(path: str, values: np.ndarray) -> None:
    # rows = timesteps, columns = channels
    np.savetxt(path, values.T, fmt=CSV_FORMAT, delimiter=",")


def save_dataset(dataset: Dataset, out_dir: str, name: str,
                 class_names: list[str] | None = None) -> str:
    """Write one CSV per series plus a manifest; returns the manifest path.

    Series go to <out_dir>/<name>/NNNN.csv; the manifest is
    <out_dir>/<name>.manifest and references them relatively.
    """
    if class_names is None:
        class_names = [f"class{c}" for c in range(dataset.n_classes)]
    if len(class_names) != dataset.n_classes:
        raise ValueError(f"{len(class_names)} class names for "
                         f"{dataset.n_classes} classes")
    series_dir = os.path.join(out_dir, name)
    os.makedirs(series_dir, exist_ok=True)
    entries = []
    for i, sample in enumerate(dataset.samples):
        rel = os.path.join(name, f"{i:05d}.csv")
        _write_series_csv(os.path.join(out_dir, rel), sample.values.data)
        entries.append(f"{rel},{class_names[sample.label]},{sample.domain_tag}")
    manifest_path = os.path.join(out_dir, f"{name}.manifest")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(MANIFEST_HEADER + "\n")
        fh.write(f"channels: {dataset.channels}\n")
        fh.write(f"length: {dataset.length}\n")
        fh.write(f"classes: {' '.join(class_names)}\n")
        fh.write("\n".join(entries) + "\n")
    return manifest_path


def _manifest_error(path: str, line_no: int, message: str) -> ValueError:
    return ValueError(f"{path}:{line_no}: {message}")


def _load_series_csv(path: str, channels: int, length: int) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    rows: list[list[float]] = []
    line_nos: list[int] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            if line_no == 1:
                continue  # optional header
            raise _manifest_error(path, line_no, f"non-numeric row: {line!r}") from None
        if rows and len(row) != len(rows[0]):
            raise _manifest_error(path, line_no,
                                  f"ragged row: {len(row)} columns, "
                                  f"expected {len(rows[0])}")
        rows.append(row)
        line_nos.append(line_no)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise _manifest_error(path, line_nos[int(np.argmin(finite))], "non-finite value")
    arr = arr.T  # back to (channels, length)
    if arr.shape != (channels, length):
        raise ValueError(f"{path}: series shape {arr.shape}, manifest says "
                         f"({channels},{length})")
    return arr


def load_manifest(path: str) -> Dataset:
    """Read a manifest plus every series it references."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != MANIFEST_HEADER:
        raise ValueError(f"{path}:1: expected header {MANIFEST_HEADER!r}")
    meta: dict[str, str] = {}
    entries: list[tuple[int, str]] = []
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line and "," not in line:
            key, _, value = line.partition(":")
            meta[key.strip()] = value.strip()
        else:
            entries.append((line_no, line))
    for key in ("channels", "length", "classes"):
        if key not in meta:
            raise ValueError(f"{path}: manifest is missing the {key!r} field")
    channels, length = int(meta["channels"]), int(meta["length"])
    class_names = meta["classes"].split()
    label_of = {name: i for i, name in enumerate(class_names)}
    if not entries:
        raise ValueError(f"{path}: manifest lists no series")

    base = os.path.dirname(os.path.abspath(path))
    samples = []
    for line_no, entry in entries:
        parts = entry.split(",")
        if len(parts) != 3:
            raise _manifest_error(path, line_no,
                                  f"expected 'file,label,domain_tag', got {entry!r}")
        rel, label_name, tag = (p.strip() for p in parts)
        if label_name not in label_of:
            raise _manifest_error(path, line_no,
                                  f"unknown label {label_name!r}; "
                                  f"declared classes: {class_names}")
        series_path = os.path.join(base, rel)
        if not os.path.exists(series_path):
            raise _manifest_error(path, line_no, f"series file not found: {series_path}")
        values = _load_series_csv(series_path, channels, length)
        samples.append(TimeSeries(Tensor(values), label=label_of[label_name],
                                  domain_tag=tag))
    return Dataset(samples, n_classes=len(class_names))
