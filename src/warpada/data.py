"""Synthetic domain-shift benchmark and on-disk dataset formats.

The generator builds one source domain (sum-of-sinusoid class prototypes
plus Gaussian noise) and shifted target domains along two axes: amplitude
(scale/offset/noise change) and time (smooth random admissible warps
applied by integer index remapping).  The random draws are taken per
sample, in a fixed order; the arithmetic, the paths and the remap run on
batches of SYNTH_CHUNK samples.

Datasets round-trip through a versioned manifest plus one CSV per dataset:
the series one after another, each as `length` rows of one column per
channel.  A series is written by one ``%`` over a whole-series template,
with the bytes ``np.savetxt(fmt=CSV_FORMAT, delimiter=",")`` gives, and
each distinct file a manifest names is read by one ``np.loadtxt`` call: all
of it, or for some of the entries (load_manifest's ``entries``) only their
rows.  Only a file holding a carriage return or an ASCII separator, or one
that call cannot read, is read whole and walked line by line, to read it or
name the first line it cannot.
The reader accepts what ``float()`` reads cell by cell, except digit-group
underscores (``1_0``) and non-ASCII digits, which numpy's parser does not
read.
"""

from __future__ import annotations

import io
import os
import re
from dataclasses import dataclass

import numpy as np

from .signal import TimeSeries
from .tensor import Tensor
from .training import Dataset
from .warp import make_path

__all__ = ["Component", "DomainShift", "SynthSpec", "default_spec",
           "synth_generate", "save_dataset", "Manifest", "read_manifest",
           "load_manifest", "MANIFEST_HEADER"]

MANIFEST_HEADER = "WARPADA-MANIFEST v2"
# v1 named one file per series; v2 names one file per dataset.  Both are
# read by the same rule: the k-th entry that names a file is its k-th block
# of `length` data rows, so v1 is the case of one entry per file.
_READ_HEADERS = (MANIFEST_HEADER, "WARPADA-MANIFEST v1")
CSV_FORMAT = "%.12g"
# Samples per batch in synth_generate.  make_path holds about ten temporaries
# of its batch's size at once: a whole 600-sample domain raised the peak
# memory of synth_generate(default_spec()) by 4 MB, chunks of 64 by 0.6 MB.
SYNTH_CHUNK = 64


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
        problem = _cell_problem(self.tag)
        if problem:
            raise ValueError(f"tag {self.tag!r} {problem}")
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
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for name in ("n_per_class", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
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


def _domain(spec: SynthSpec, protos: np.ndarray, rng: np.random.Generator,
            shift: DomainShift | None = None) -> Dataset:
    """One domain's series (the source when ``shift`` is None), classes in
    order, n_per_class each.

    Each sample draws its noise and then, for a warp of at least half a
    sample, the white noise of its path.  Chunks of SYNTH_CHUNK samples go
    through make_path together and are rounded, which keeps the paths'
    monotonicity, boundary zeros and bound, then remapped by clamped index
    shifting, x'[i] = x[clamp(i + path_i, 0, N-1)] (the integer-path oracle
    of tests/oracles.py).  An amplitude shift comes before the warp.
    """
    sigma = spec.noise_sigma if shift is None or shift.noise_sigma is None else shift.noise_sigma
    tag = "source" if shift is None else shift.tag
    warps = shift is not None and shift.kind in ("warp", "both") and shift.warp_d >= 0.5
    n = spec.length
    labels = np.repeat(np.arange(len(protos)), spec.n_per_class)
    samples = []
    for lo in range(0, len(labels), SYNTH_CHUNK):
        chunk = labels[lo:lo + SYNTH_CHUNK]
        noise = np.empty((len(chunk), spec.channels, n))
        phi = np.empty((len(chunk), n))
        for i in range(len(chunk)):
            noise[i] = rng.normal(size=(spec.channels, n))
            if warps:
                phi[i] = rng.normal(size=n)
        values = protos[chunk][:, None, :] + sigma * noise
        if shift is not None and shift.kind in ("amplitude", "both"):
            values = shift.scale * values + shift.offset
        if warps:
            paths = np.round(make_path(Tensor(phi), float(shift.warp_d)).data)
            index = np.clip(np.arange(n) + paths.astype(np.int64), 0, n - 1)
            values = np.take_along_axis(values, index[:, None, :], axis=2)
        samples += [TimeSeries(Tensor(v), label=c, domain_tag=tag)
                    for v, c in zip(values, chunk)]
    return Dataset(samples, n_classes=len(protos))


def synth_generate(spec: SynthSpec) -> tuple[Dataset, list[Dataset]]:
    """Source dataset plus one shifted dataset per target, deterministically
    from spec.seed."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    protos = np.stack([_prototype(proto, spec.length) for proto in spec.classes])
    source = _domain(spec, protos, rng)
    return source, [_domain(spec, protos, rng, shift) for shift in spec.targets]


def _cell_problem(value: str) -> str | None:
    """Why ``value`` would not come back from a manifest cell unchanged,
    or None.  The loader splits rows at commas and line breaks and strips
    each cell."""
    if "," in value or "".join(value.splitlines()) != value:
        return "holds a comma or a line break"
    if value != value.strip():
        return "begins or ends with whitespace"
    return None


def _write_series_csv(path: str, series: list[np.ndarray]) -> None:
    """Write each (channels, length) array of ``series`` in turn: rows =
    timesteps, columns = channels."""
    with open(path, "w", encoding="utf-8") as fh:
        for values in series:
            channels, length = values.shape
            row = ",".join([CSV_FORMAT] * channels) + "\n"
            fh.write((row * length) % tuple(values.T.ravel().tolist()))


def save_dataset(dataset: Dataset, out_dir: str, name: str) -> str:
    """Write every series to one CSV plus a manifest; returns the manifest
    path.

    The series go, in order, to <out_dir>/<name>.csv; the manifest is
    <out_dir>/<name>.manifest, one row per series naming that file
    relatively.  Class c is named class<c>.  A name that is not one plain
    path component, a name or domain tag that a manifest could not hold
    unchanged, or a series holding nan or inf raises ValueError naming it
    before any file is made.
    """
    if name in ("", ".", "..") or "/" in name or os.sep in name:
        raise ValueError(f"dataset name {name!r} is not a single plain path component")
    problem = _cell_problem(name)
    if problem:
        raise ValueError(f"dataset name {name!r} {problem}")
    for i, sample in enumerate(dataset.samples):
        problem = _cell_problem(sample.domain_tag)
        if problem:
            raise ValueError(f"sample {i}: domain_tag {sample.domain_tag!r} {problem}")
        if not np.isfinite(sample.values.data).all():
            raise ValueError(f"dataset {name!r} not written: sample {i} holds non-finite values")
    class_names = [f"class{c}" for c in range(dataset.n_classes)]
    os.makedirs(out_dir or os.curdir, exist_ok=True)
    series_file = f"{name}.csv"
    _write_series_csv(os.path.join(out_dir, series_file),
                      [sample.values.data for sample in dataset.samples])
    entries = [f"{series_file},{class_names[sample.label]},{sample.domain_tag}"
               for sample in dataset.samples]
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


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


# float() does not strip the ASCII separators \x1c-\x1f, which str.strip()
# and numpy's parser strip from a line's or a cell's ends.  ("\r" never
# reaches the parser: text is read with universal newlines.)
_SEPARATORS = "\x1c\x1d\x1e\x1f"
_UNPARSABLE = str.maketrans(dict.fromkeys(_SEPARATORS, "?"))


def _floats(cells: list[str]) -> bool:
    """True when float() reads every cell."""
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        return False
    return True


def _data_lines(text: str) -> list[tuple[int, str]]:
    """The (line number, line) pairs of a CSV text's data rows: every
    non-blank line, except an optional header, a line 1 whose cells float()
    cannot read."""
    lines = text.split("\n")
    header = not _floats(lines[0].strip().split(","))
    return [(no, line) for no, line in enumerate(lines, start=1)
            if line.strip() and not (no == 1 and header)]


def _locate(path: str, numbered: list[tuple[int, str]]) -> ValueError | None:
    """The error for the first data row (_data_lines) np.loadtxt cannot
    read: one that float() cannot read, or one with an underscore or a
    non-ASCII digit, is non-numeric; a row whose width differs from the
    first row's is ragged."""
    width = None
    for line_no, line in numbered:
        line = line.strip()
        cells = line.split(",")
        if not _floats(cells) or "_" in line or not all(c.strip().isascii() for c in cells):
            return _manifest_error(path, line_no, f"non-numeric row: {line!r}")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            return _manifest_error(path, line_no,
                                   f"ragged row: {len(cells)} columns, expected {width}")
    return None


def _read_rows_by_line(path: str) -> np.ndarray:
    """The data rows of any text, through the list of its lines."""
    text = _read_text(path)
    numbered = _data_lines(text)
    rows = [line for _, line in numbered]
    if any(ch in text for ch in _SEPARATORS):  # float() fails on those left inside a line
        rows = [line.strip().translate(_UNPARSABLE) for line in rows]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise _locate(path, numbered) or ValueError(f"{path}: {exc}") from None


# Bytes that send a file to _read_rows_by_line: a "\r" (universal newlines
# end a line there, numpy's parser does not) and the separators.
_BY_LINE = (b"\r",) + tuple(ch.encode() for ch in _SEPARATORS)
_NON_BLANK = re.compile(rb"\S")
# A file is scanned for _BY_LINE in blocks of this many bytes, so no more
# than one block of it is held at a time.
_SCAN_BYTES = 1 << 16


def _plain(data: bytes) -> bool:
    return not any(byte in data for byte in _BY_LINE)


def _read_rows(path: str, skip: int = 0, rows: int | None = None) -> np.ndarray:
    """Data rows skip to skip + rows - 1 of a series CSV (to its end when
    ``rows`` is None, so all of them by default) as a (rows, columns) array.

    A file without the bytes in _BY_LINE is parsed by one np.loadtxt call
    on the open file, past an optional header line, once a scan block by
    block has found none, so no more than a block of the file is held
    beside the rows (holding a 600-series file's bytes through the parse
    raised the eval command's peak RSS by ~0.8 MB).  A range is found by
    counting lines, so the lines before it, and a range's own lines where it
    stops short of the end (max_rows warns at a blank line), must each be a
    line that every reading path counts as one data row: bytes 0x21 to 0x7E
    only, so no blank, no whitespace, nothing that is not ASCII.  The scan
    of such a range ends at its last line.  Other files, and rows that call
    cannot read (a whitespace-only line, a bad cell, bytes that are not
    UTF-8), go through _read_rows_by_line, which reads the whole file, the
    range then sliced from it, or names the line it cannot read.
    """
    counted = skip + (rows or (skip > 0))  # the lines that must each be one data row
    with open(path, "rb") as fh:
        head = fh.read(_SCAN_BYTES)
        text = io.BytesIO(head)
        try:
            line = text.readline()
            header = not _floats(line.decode("utf-8").strip().split(","))
            start = text.tell() if header else 0
            plain = _plain(line) and (counted or _NON_BLANK.search(head, start) is not None)
            seen, offset, pos, fresh, block = 0, start, start, True, head[start:]
            while plain and block and (seen < counted or rows is None):
                plain = rows is not None or _plain(block)
                if seen < counted:
                    codes = np.frombuffer(block, np.uint8)
                    ends = codes == 10
                    lines = int(np.count_nonzero(ends))
                    if seen < skip <= seen + lines or seen + lines >= counted:
                        at = np.flatnonzero(ends)
                        if seen < skip <= seen + lines:
                            offset = pos + int(at[skip - seen - 1]) + 1
                        if seen + lines >= counted:
                            lines = counted - seen
                            codes, ends = codes[:at[lines - 1] + 1], ends[:at[lines - 1] + 1]
                    # in uint8, a byte below 0x21 wraps past 0x7E - 0x21
                    plain = (plain and not (((codes - 0x21) > 0x7E - 0x21) & ~ends).any()
                             and not (ends[1:] & ends[:-1]).any() and not (fresh and ends[0]))
                    seen, fresh = seen + lines, bool(ends[-1])
                pos += len(block)
                block = fh.read(_SCAN_BYTES)
            if plain and seen >= counted:
                fh.seek(offset)
                with io.TextIOWrapper(fh, encoding="utf-8") as text:  # closes fh
                    return np.loadtxt(text, delimiter=",", comments=None, ndmin=2,
                                      max_rows=rows)
        except ValueError:  # not UTF-8, or a row np.loadtxt cannot read
            pass
    return _read_rows_by_line(path)[skip:None if rows is None else skip + rows]


def _load_series_blocks(path: str, count: int, channels: int, length: int,
                        first: int = 0, stop: int | None = None) -> list[np.ndarray]:
    """Series first to stop - 1 of the ``count`` of one CSV, each a
    (channels, length) array: series k is data rows k*length to
    (k+1)*length - 1.

    Only the range's rows are read, and a range that reaches the file's end
    checks the row count.  When they do not have the range's shape or are
    not finite, the whole file is read and checked, raising its error.

    Each series is a copy, so the file's array is freed after the load.  As
    views they kept it alive, and in a process that keeps freed memory
    (procs._keep_freed_memory) later loads grew the heap past it: the
    eval command's peak RSS crept up over repeated calls.
    """
    stop = count if stop is None else stop
    arr = _read_rows(path, first * length, None if stop == count else (stop - first) * length)
    if arr.shape == ((stop - first) * length, channels) and np.isfinite(arr).all():
        return [block.T.copy() for block in arr.reshape(stop - first, length, channels)]
    arr = _read_rows(path)
    if not np.isfinite(arr).all():
        line_nos = [no for no, _ in _data_lines(_read_text(path))]
        finite = np.isfinite(arr).all(axis=1)
        raise _manifest_error(path, line_nos[int(np.argmin(finite))], "non-finite value")
    if arr.shape != (count * length, channels):
        blocks = f" for {count} series of length {length}" if count > 1 else ""
        raise ValueError(f"{path}: series shape {arr.T.shape}, manifest says "
                         f"({channels},{count * length}){blocks}")
    return [block.T.copy() for block in arr.reshape(count, length, channels)[first:stop]]


@dataclass(frozen=True)
class Manifest:
    """A checked manifest (read_manifest): what load_manifest needs to read
    the series of any of its entries."""

    channels: int
    length: int
    n_classes: int
    files: dict[str, list]  # file cell -> [its path, entries naming it]
    entries: list[tuple[str, int, int, str]]  # (file cell, its block, label, domain tag)


def read_manifest(path: str) -> Manifest:
    """Check a manifest, and that every series file it names exists; read
    no series.  A malformed manifest raises ValueError naming it, and its
    line where there is one."""
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() not in _READ_HEADERS:
        raise ValueError(f"{path}:1: expected header {MANIFEST_HEADER!r} "
                         f"(or {_READ_HEADERS[1]!r})")
    meta: dict[str, tuple[int, str]] = {}
    entries: list[tuple[int, str]] = []
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line and "," not in line:
            key, _, value = line.partition(":")
            key = key.strip()
            if key in meta:
                raise _manifest_error(path, line_no, f"field {key!r} given twice, on lines "
                                                     f"{meta[key][0]} and {line_no}")
            meta[key] = (line_no, value.strip())
        else:
            entries.append((line_no, line))
    for key in ("channels", "length", "classes"):
        if key not in meta:
            raise ValueError(f"{path}: manifest is missing the {key!r} field")

    def positive_int(key: str) -> int:
        line_no, value = meta[key]
        try:
            if int(value) >= 1:
                return int(value)
        except ValueError:
            pass
        raise _manifest_error(path, line_no, f"{key} must be a positive integer, got {value!r}")

    channels, length = positive_int("channels"), positive_int("length")
    classes_line, classes = meta["classes"]
    class_names = classes.split()
    if len(set(class_names)) != len(class_names) or len(class_names) < 2:
        raise _manifest_error(path, classes_line,
                              f"classes must be two or more distinct names, got {class_names}")
    label_of = {name: i for i, name in enumerate(class_names)}
    if not entries:
        raise ValueError(f"{path}: manifest lists no series")

    base = os.path.dirname(os.path.abspath(path))
    files: dict[str, list] = {}  # file cell -> [path, entries naming it so far]
    refs = []
    for line_no, entry in entries:
        parts = entry.split(",")
        if len(parts) != 3:
            raise _manifest_error(path, line_no,
                                  f"expected 'file,label,domain_tag', got {entry!r}")
        rel, label_name, tag = map(str.strip, parts)
        if label_name not in label_of:
            raise _manifest_error(path, line_no,
                                  f"unknown label {label_name!r}; "
                                  f"declared classes: {class_names}")
        named = files.get(rel)
        if named is None:
            series_path = os.path.join(base, rel)
            if not os.path.isfile(series_path):
                raise _manifest_error(path, line_no, f"series file not found: {series_path}")
            named = files[rel] = [series_path, 0]
        refs.append((rel, named[1], label_of[label_name], tag))
        named[1] += 1
    return Manifest(channels, length, len(class_names), files, refs)


def load_manifest(manifest: str | Manifest, entries: slice = slice(None)) -> Dataset:
    """Read a manifest (a path, or read_manifest's result) plus the series
    of its ``entries``, all by default.  The k-th entry that names a file
    (by the same text) reads its k-th block of `length` data rows, so a file
    named by m entries holds m * length rows; each file is parsed once, all
    of it or only the given entries' rows (_load_series_blocks).  A
    malformed file raises ValueError naming it, and its line where there is
    one: a slice of the entries raises a file's whole-load error when it
    meets a bad, non-finite or missing row among its rows, or the wrong row
    count in rows that end the file.  (Of a manifest of several files a
    whole load may report another file's error first.)"""
    if not isinstance(manifest, Manifest):
        manifest = read_manifest(manifest)
    chosen = manifest.entries[entries]
    wanted: dict[str, list[int]] = {}  # file cell -> [first block, stop] of the entries
    for rel, block, _, _ in chosen:
        wanted.setdefault(rel, [block, block])[1] = block + 1
    blocks = {rel: _load_series_blocks(*manifest.files[rel], manifest.channels,
                                       manifest.length, first, stop)
              for rel, (first, stop) in wanted.items()}
    samples = [TimeSeries(Tensor(blocks[rel][block - wanted[rel][0]]), label=label,
                          domain_tag=tag)
               for rel, block, label, tag in chosen]
    return Dataset(samples, n_classes=manifest.n_classes)
