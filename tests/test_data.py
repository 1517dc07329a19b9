import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpada import data
from warpada.data import (
    CSV_FORMAT,
    MANIFEST_HEADER,
    Component,
    DomainShift,
    _load_series_blocks,
    _prototype,
    _write_series_csv,
    SynthSpec,
    default_spec,
    load_manifest,
    read_manifest,
    save_dataset,
    synth_generate,
)
from warpada.signal import TimeSeries
from warpada.tensor import Tensor
from warpada.training import Dataset
from warpada.warp import make_path

from oracles import integer_warp_oracle


def tiny_spec(**kw):
    defaults = dict(
        classes=(
            (Component(1.0, 3.0),),
            (Component(1.0, 6.0, 1.0),),
        ),
        length=64,
        noise_sigma=0.2,
        n_per_class=10,
        seed=5,
    )
    defaults.update(kw)
    return SynthSpec(**defaults)


class TestSpecValidation:
    def test_default_spec_is_valid(self):
        spec = default_spec()
        assert len(spec.classes) == 3
        assert [t.tag for t in spec.targets] == ["amp", "warp", "both"]

    def test_frequency_band_limit(self):
        with pytest.raises(ValueError, match="band-limited"):
            tiny_spec(classes=((Component(1.0, 40.0),), (Component(1.0, 3.0),)))

    def test_warp_d_headroom(self):
        with pytest.raises(ValueError, match="warp_d"):
            tiny_spec(targets=(DomainShift(kind="warp", tag="w", warp_d=10.0),))

    def test_unknown_shift_kind(self):
        with pytest.raises(ValueError, match="kind"):
            DomainShift(kind="rotate", tag="r")


class TestGenerate:
    def test_counts_and_tags(self):
        spec = tiny_spec(targets=(DomainShift(kind="warp", tag="w", warp_d=4.0),))
        source, targets = synth_generate(spec)
        assert len(source) == 20 and source.n_classes == 2
        assert len(targets) == 1 and len(targets[0]) == 20
        assert all(s.domain_tag == "source" for s in source.samples)
        assert all(s.domain_tag == "w" for s in targets[0].samples)

    def test_deterministic(self):
        spec = tiny_spec(targets=(DomainShift(kind="both", tag="b", scale=2.0, warp_d=3.0),))
        a_src, a_tgt = synth_generate(spec)
        b_src, b_tgt = synth_generate(spec)
        for sa, sb in zip(a_src.samples, b_src.samples):
            np.testing.assert_array_equal(sa.values.data, sb.values.data)
        for sa, sb in zip(a_tgt[0].samples, b_tgt[0].samples):
            np.testing.assert_array_equal(sa.values.data, sb.values.data)

    def test_seeds_apart_by_2_to_the_32_give_different_data(self):
        # the seed enters the stream whole, not its low 32 bits
        first, second = (synth_generate(tiny_spec(seed=seed))[0] for seed in (0, 2**32))
        assert not any(np.array_equal(a.values.data, b.values.data)
                       for a, b in zip(first.samples, second.samples))

    def test_identity_amplitude_shift_matches_source_statistics(self):
        spec = tiny_spec(
            n_per_class=100,
            targets=(DomainShift(kind="amplitude", tag="same", scale=1.0, offset=0.0),),
        )
        source, (target,) = synth_generate(spec)
        for label in (0, 1):
            src = np.stack([s.values.data for s in source.samples if s.label == label])
            tgt = np.stack([s.values.data for s in target.samples if s.label == label])
            diff = abs(src.mean() - tgt.mean())
            stderr = np.sqrt(src.var() / src.size + tgt.var() / tgt.size)
            assert diff < 3.0 * stderr

    def test_zero_warp_equals_plain_draws(self):
        spec = tiny_spec(targets=(DomainShift(kind="warp", tag="w0", warp_d=0.0),))
        _, (target,) = synth_generate(spec)
        spec_amp = tiny_spec(targets=(DomainShift(kind="amplitude", tag="w0",
                                                  scale=1.0, offset=0.0),))
        _, (plain,) = synth_generate(spec_amp)
        for a, b in zip(target.samples, plain.samples):
            np.testing.assert_array_equal(a.values.data, b.values.data)

    def test_warp_preserves_value_multiset_modulo_edges(self):
        spec = tiny_spec(noise_sigma=0.0,
                         targets=(DomainShift(kind="warp", tag="w", warp_d=4.0),))
        source, (target,) = synth_generate(spec)
        # noise-free: warped values must be a subset of prototype values
        for src, tgt in zip(source.samples, target.samples):
            assert np.all(np.isin(np.round(tgt.values.data, 9),
                                  np.round(src.values.data, 9)))

    def test_amplitude_shift_preserves_landmarks(self):
        spec = tiny_spec(noise_sigma=0.0,
                         targets=(DomainShift(kind="amplitude", tag="a",
                                              scale=1.7, offset=0.4),))
        source, (target,) = synth_generate(spec)
        src, tgt = source.samples[0].values.data[0], target.samples[0].values.data[0]
        corr = np.correlate(tgt - tgt.mean(), src - src.mean(), mode="full")
        assert int(np.argmax(corr)) - (len(src) - 1) == 0  # peak at zero lag


def per_sample_synth(spec):
    """Oracle: the generator one sample at a time, each sample drawing its
    noise and then its path's noise, each path through make_path alone and
    each warp through integer_warp_oracle."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed & 0xFFFFFFFF, 0xDA7A]))

    def draw(label, sigma, tag):
        base = _prototype(spec.classes[label], spec.length)
        values = np.tile(base, (spec.channels, 1)) + sigma * rng.normal(
            size=(spec.channels, spec.length))
        return TimeSeries(Tensor(values), label=label, domain_tag=tag)

    def shifted(x, shift):
        values = x.values.data
        if shift.kind in ("amplitude", "both"):
            values = shift.scale * values + shift.offset
        out = TimeSeries(Tensor(values), label=x.label, domain_tag=shift.tag)
        if shift.kind in ("warp", "both") and shift.warp_d >= 0.5:
            path = make_path(Tensor(rng.normal(size=(1, spec.length))), float(shift.warp_d))
            out = integer_warp_oracle(out, np.round(path.data[0]))
        return out

    labels = [c for c in range(len(spec.classes)) for _ in range(spec.n_per_class)]
    domains = [[draw(c, spec.noise_sigma, "source") for c in labels]]
    for shift in spec.targets:
        sigma = spec.noise_sigma if shift.noise_sigma is None else shift.noise_sigma
        domains.append([shifted(draw(c, sigma, shift.tag), shift) for c in labels])
    return domains


class TestBatchedGenerate:
    @pytest.mark.parametrize("spec", [
        default_spec(0),
        tiny_spec(channels=3, m_window=8, targets=(
            DomainShift(kind="warp", tag="w", warp_d=0.3),
            DomainShift(kind="both", tag="b", scale=2.0, offset=-1.0, warp_d=5.0,
                        noise_sigma=0.1),
            DomainShift(kind="amplitude", tag="a", scale=0.5))),
    ], ids=["default", "three-channels"])
    def test_bitwise_equal_to_per_sample_generation(self, spec):
        source, targets = synth_generate(spec)
        for got, want in zip([source] + targets, per_sample_synth(spec)):
            assert len(got) == len(want)
            for a, b in zip(got.samples, want):
                assert (a.label, a.domain_tag) == (b.label, b.domain_tag)
                assert a.values.data.tobytes() == b.values.data.tobytes()


class TestDomainTags:
    @pytest.mark.parametrize("tag", ["a,b", "a\nb", "a\rb", "amp\n", " amp", "amp ", "a\x0bb"])
    def test_shift_rejects_tag_a_manifest_cannot_hold(self, tag):
        with pytest.raises(ValueError, match=re.escape(f"tag {tag!r}")):
            DomainShift(kind="amplitude", tag=tag)

    @pytest.mark.parametrize("tag", ["a,b", "a\nb", "a\rb", " amp"])
    def test_save_rejects_bad_domain_tag_before_writing(self, tmp_path, tag):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0, domain_tag="ok"),
                      TimeSeries(Tensor(np.arange(8.0)), label=1, domain_tag=tag)],
                     n_classes=2)
        with pytest.raises(ValueError, match=re.escape(f"sample 1: domain_tag {tag!r}")):
            save_dataset(ds, str(tmp_path / "out"), "d")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["a,b", "a\nb", " d", "d\r"])
    def test_save_rejects_bad_name_before_writing(self, tmp_path, name):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        with pytest.raises(ValueError, match=re.escape(f"dataset name {name!r}")):
            save_dataset(ds, str(tmp_path / "out"), name)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["../x", "a/b", f"a{os.sep}b", ".", "..", ""])
    def test_save_rejects_name_that_is_not_one_path_component(self, tmp_path, name):
        # "../x" would write beside out_dir, "a/b" into a directory never made
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        with pytest.raises(ValueError, match=re.escape(
                f"dataset name {name!r} is not a single plain path component")):
            save_dataset(ds, str(tmp_path / "out"), name)
        assert sorted(os.listdir(tmp_path)) == []

    @pytest.mark.parametrize("tag", ["amp", "a b", "a\tb", "a:b", "#a", ""])
    def test_accepted_tags_round_trip(self, tmp_path, tag):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0, domain_tag=tag)],
                     n_classes=2)
        loaded = load_manifest(save_dataset(ds, str(tmp_path), "d"))
        assert loaded.samples[0].domain_tag == tag


class TestSeriesWriter:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_bytes_equal_savetxt(self, tmp_path, channels, dtype):
        special = [-0.0, 5e-324, 1e308, -1e308, 3.0, -7.0, 123456789012345.0,
                   0.1, 1.0 / 3.0, 2.5e-11, 1e16, 99999999999.95]
        rng = np.random.default_rng(channels)
        flat = np.concatenate([special, rng.normal(size=60) * 10.0 ** rng.integers(-8, 9, 60)])
        if dtype is np.int64:
            flat = np.concatenate([[0, -1, 7, 2 ** 53 + 1, -(2 ** 62)],
                                   rng.integers(-10 ** 6, 10 ** 6, 67)])
        values = np.asarray(flat[:channels * (len(flat) // channels)], dtype=dtype)
        values = values.reshape(channels, -1)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        _write_series_csv(str(ours), [values])
        np.savetxt(str(ref), values.T, fmt=CSV_FORMAT, delimiter=",")
        assert ours.read_bytes() == ref.read_bytes()


def _load_series_csv(path, channels, length):
    """One series file through the manifest's reader."""
    return _load_series_blocks(path, 1, channels, length)[0]


def reference_load(path, channels, length):
    """Oracle: float() on every cell of every line split at "\n" and
    stripped; a line 1 that float() cannot read is a header.  A cell with a
    digit-group underscore or a non-ASCII digit is non-numeric, as numpy's
    parser reads neither."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    rows, line_nos = [], []
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            if line_no == 1:
                continue
            raise ValueError(f"{path}:{line_no}: non-numeric row: {line!r}") from None
        if any("_" in c or not c.strip().isascii() for c in cells):
            raise ValueError(f"{path}:{line_no}: non-numeric row: {line!r}")
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{path}:{line_no}: ragged row: {len(row)} columns, "
                             f"expected {len(rows[0])}")
        rows.append(row)
        line_nos.append(line_no)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{line_nos[int(np.argmin(finite))]}: non-finite value")
    arr = arr.T
    if arr.shape != (channels, length):
        raise ValueError(f"{path}: series shape {arr.shape}, manifest says "
                         f"({channels},{length})")
    return arr


def load_outcome(load, path, shape):
    try:
        arr = load(path, *shape)
    except ValueError as exc:
        return str(exc)
    return arr.shape, arr.tobytes()


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from([repr(v), "%.12g" % v, "%.17g" % v, "%.3e" % v])),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["-0.0", "5e-324", "1e308", "1e999", "1e-400", "nan", "-inf",
                     "Infinity", ".5", "5.", "+1", "0x10", "1_0", "\u0661", "1\u0662",
                     "", "x", "1 2", "\x00", "\ufeff1"]))
_PADS = st.sampled_from(["", "", "", " ", "  ", "\t", "\r", "\xa0", "\x0b", "\x0c",
                         "\x1c", "\x1f", "\x85", "\u3000"])
_CELLS = st.tuples(_PADS, _NUMBERS, _PADS).map("".join)
_LINES = st.one_of(
    st.lists(_CELLS, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", "", " ", "\t", "\r", "ch0", "ch0,ch1", "a,b,c", ",", "\x1c"]))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_LINES, max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_loader_parity_with_float_per_cell(tmp_path, lines, newline, final_newline):
    # the np.loadtxt loader gives the float()-per-cell reference's array bit
    # for bit, or its error text; CRLF, blank lines, padded cells, headers
    series = tmp_path / "parity.csv"
    series.write_bytes((newline.join(lines) + (newline if final_newline else ""))
                       .encode("utf-8"))
    shapes = [(1, 1)]
    try:
        shapes.append(reference_load(str(series), 1, 1).shape)
    except ValueError as exc:
        found = re.search(r"series shape \((\d+), (\d+)\)", str(exc))
        if found:
            shapes.append((int(found.group(1)), int(found.group(2))))
    for shape in shapes:
        assert (load_outcome(_load_series_csv, str(series), shape)
                == load_outcome(reference_load, str(series), shape))


class TestLoaderGrammar:
    @pytest.mark.parametrize("cell", ["1_0", "1_000.5", "\u0661", "\u0663.5", "1e\u0662"])
    @pytest.mark.parametrize("line_no", [1, 3])
    def test_underscore_and_non_ascii_digits_are_non_numeric(self, tmp_path, cell, line_no):
        # float() reads these cells, numpy's parser does not; even on line 1
        # such a row is rejected, not taken for a header
        float(cell)
        rows = ["1.0", "2.0", "3.0"]
        rows[line_no - 1] = cell
        series = tmp_path / "s.csv"
        series.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{series}:{line_no}: non-numeric row: {cell!r}")):
            _load_series_csv(str(series), 1, 3)

    def test_crlf_padding_blank_lines_and_header(self, tmp_path):
        series = tmp_path / "s.csv"
        series.write_bytes(b"ch0,ch1\r\n 1.5 ,\t-2\r\n\r\n   \n3e0,4\x0b\r\n\n")
        arr = _load_series_csv(str(series), 2, 2)
        assert arr.tolist() == [[1.5, 3.0], [-2.0, 4.0]]

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        # series are read with universal newlines, as they always were
        series = tmp_path / "s.csv"
        series.write_bytes(b"1\r,2\n")
        with pytest.raises(ValueError, match=re.escape(f"{series}:2: non-numeric row: ',2'")):
            _load_series_csv(str(series), 1, 1)
        series.write_bytes(b"1,2\r3,4\r")
        assert _load_series_csv(str(series), 2, 2).tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_separator_inside_a_row_is_non_numeric(self, tmp_path):
        # str.strip() removes \x1c at a line's ends, float() not inside it
        series = tmp_path / "s.csv"
        series.write_bytes(b"1,2\x1c\n\x1c3,4\n")
        assert _load_series_csv(str(series), 2, 2).tolist() == [[1.0, 3.0], [2.0, 4.0]]
        series.write_bytes(b"1,2\n3\x1c,4\n")
        with pytest.raises(ValueError, match=re.escape(f"{series}:2: non-numeric row:")):
            _load_series_csv(str(series), 2, 2)


_LONG_ROWS = 6_000  # about 150 kB: past data._SCAN_BYTES, so scanned in blocks


def _long_series(edit):
    values = np.random.default_rng(7).normal(size=(_LONG_ROWS, 2))
    return edit([b"%.12g,%.12g" % tuple(row) for row in values])


class TestLongFile:
    # a file longer than one scan block is parsed from the open file; each
    # case gives the float()-per-cell reference's array or its error text
    @pytest.mark.parametrize("edit", [
        lambda rows: b"\n".join(rows) + b"\n",
        lambda rows: b"\n".join([b"ch0,ch1"] + rows) + b"\n",
        lambda rows: b"\n".join(rows[:5000] + [b""] + rows[5000:]) + b"\n\n",
        lambda rows: b"\n".join(rows[:5000] + [b"  "] + rows[5000:]),
        lambda rows: b"\r\n".join(rows) + b"\r\n",
        lambda rows: b"\n".join(rows[:5000]) + b"\r" + b"\n".join(rows[5000:]),
        lambda rows: b"\n".join(rows[:5000] + [rows[5000].replace(b",", b"\x1c,")] + rows[5001:]),
        lambda rows: b"\n".join(rows[:5000] + [b"nan,1"] + rows[5001:]),
        lambda rows: b"\n".join(rows[:5000] + [b"x,1"] + rows[5001:]),
        lambda rows: b"\n".join(rows[:5000] + [b"\xff1,1"] + rows[5001:]),
        lambda rows: b"\n".join(rows + [b"1.5,1.5"]) + b"\n",
        lambda rows: b"\n".join(rows + [b"1.5,1.5", b"x"]) + b"\n",
        lambda rows: b"\n".join(rows[:-1]) + b"\n",
        lambda rows: b"\n".join([b"ch\r0,ch1"] + rows) + b"\n",
    ], ids=["plain", "header", "blank-lines", "whitespace-line", "crlf", "lone-cr",
            "separator", "nan", "non-numeric", "not-utf8", "one-row-more",
            "bad-row-past-the-count", "one-row-less", "cr-in-header"])
    def test_matches_reference(self, tmp_path, edit):
        series = tmp_path / "long.csv"
        series.write_bytes(_long_series(edit))
        shape = (2, _LONG_ROWS)
        assert (load_outcome(_load_series_csv, str(series), shape)
                == load_outcome(reference_load, str(series), shape))


class TestRoundTrip:
    def test_save_load_values(self, tmp_path):
        spec = tiny_spec()
        source, _ = synth_generate(spec)
        manifest = save_dataset(source, str(tmp_path), "src")
        loaded = load_manifest(manifest)
        assert len(loaded) == len(source) and loaded.n_classes == 2
        for a, b in zip(source.samples, loaded.samples):
            np.testing.assert_allclose(b.values.data, a.values.data, atol=1e-9)
            assert b.label == a.label and b.domain_tag == a.domain_tag

    def test_two_small_files(self, tmp_path):
        ds = Dataset([
            TimeSeries(Tensor(np.arange(8.0)), label=0, domain_tag="d"),
            TimeSeries(Tensor(np.arange(8.0) * 2), label=1, domain_tag="d"),
        ], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "mini")
        loaded = load_manifest(manifest)
        assert len(loaded) == 2 and loaded.length == 8

    def test_missing_file_diagnostic(self, tmp_path):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "gone")
        (tmp_path / "gone.csv").unlink()
        with pytest.raises(ValueError, match="not found"):
            load_manifest(manifest)

    def test_ragged_row_names_line(self, tmp_path):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "rag")
        series = tmp_path / "rag.csv"
        series.write_text("1.0\n2.0,3.0\n")
        with pytest.raises(ValueError, match=":2"):
            load_manifest(manifest)

    def test_unknown_label_diagnostic(self, tmp_path):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "lab")
        text = (tmp_path / "lab.manifest").read_text().replace(",class0,", ",classX,")
        (tmp_path / "lab.manifest").write_text(text)
        with pytest.raises(ValueError, match="classX"):
            load_manifest(manifest)

    def test_length_mismatch_diagnostic(self, tmp_path):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "len")
        series = tmp_path / "len.csv"
        series.write_text("\n".join(str(float(v)) for v in range(5)) + "\n")
        with pytest.raises(ValueError, match="shape"):
            load_manifest(manifest)

    def test_header_row_tolerated(self, tmp_path):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "hdr")
        series = tmp_path / "hdr.csv"
        series.write_text("ch0\n" + series.read_text())
        loaded = load_manifest(manifest)
        np.testing.assert_allclose(loaded.samples[0].values.data[0], np.arange(8.0))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, cell):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "nf")
        series = tmp_path / "nf.csv"
        rows = series.read_text().splitlines()
        rows[5] = cell
        series.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"{series}:6: non-finite value"):
            load_manifest(manifest)

    def test_undecodable_bytes_name_file(self, tmp_path):
        series = tmp_path / "bad.csv"
        series.write_bytes(b"1.0\n\xff\xfe2.0\n")
        with pytest.raises(ValueError, match=f"{series}: not valid UTF-8"):
            _load_series_csv(str(series), 1, 2)

    @pytest.mark.parametrize("line,field,value", [(2, "channels", "abc"), (3, "length", "0"),
                                                  (3, "length", "-4"), (2, "channels", "1.5")])
    def test_bad_int_field_names_file_and_line(self, tmp_path, line, field, value):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "num")
        lines = (tmp_path / "num.manifest").read_text().splitlines()
        lines[line - 1] = f"{field}: {value}"
        (tmp_path / "num.manifest").write_text("\n".join(lines) + "\n")
        want = f"{manifest}:{line}: {field} must be a positive integer, got '{value}'"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_manifest(manifest)

    @pytest.mark.parametrize("classes", ["a a b", "a"], ids=["duplicate", "one"])
    def test_bad_classes_name_file_and_line(self, tmp_path, classes):
        # a repeated name would shift every later label and leave a phantom
        # class; one class cannot train a classifier
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "cls")
        text = (tmp_path / "cls.manifest").read_text()
        (tmp_path / "cls.manifest").write_text(text.replace("classes: class0 class1",
                                                            f"classes: {classes}")
                                               .replace(",class0,", ",a,"))
        want = f"{manifest}:4: classes must be two or more distinct names"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_manifest(manifest)

    @pytest.mark.parametrize("again, first", [("channels: 1", 2), ("length: 8", 3),
                                               ("classes: class1 class0", 4)],
                             ids=["channels", "length", "classes"])
    def test_field_given_twice_names_both_lines(self, tmp_path, again, first):
        # a second classes line with the names reordered would relabel every
        # series if the last line won
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "twice")
        lines = (tmp_path / "twice.manifest").read_text().splitlines()
        lines.insert(4, again)
        (tmp_path / "twice.manifest").write_text("\n".join(lines) + "\n")
        field = again.split(":")[0]
        want = f"{manifest}:5: field '{field}' given twice, on lines {first} and 5"
        with pytest.raises(ValueError, match=re.escape(want)):
            read_manifest(manifest)

    @pytest.mark.parametrize("line_no, line", [(3, "length: 1,024"),
                                                (4, "classes: class0, class1")],
                             ids=["length", "classes"])
    def test_field_holding_a_comma_names_its_line(self, tmp_path, line_no, line):
        # a comma sends the line to the entries, so its field is not found
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "comma")
        lines = (tmp_path / "comma.manifest").read_text().splitlines()
        lines[line_no - 1] = line
        (tmp_path / "comma.manifest").write_text("\n".join(lines) + "\n")
        field = line.split(":")[0]
        want = f"{manifest}:{line_no}: field '{field}' holds a comma"
        with pytest.raises(ValueError, match=re.escape(want)):
            read_manifest(manifest)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_series_not_written(self, tmp_path, value):
        bad = np.arange(8.0)
        bad[3] = value
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0),
                      TimeSeries(Tensor(bad), label=1)], n_classes=2)
        with pytest.raises(ValueError, match=re.escape(
                "dataset 'nf' not written: sample 1 holds non-finite values")):
            save_dataset(ds, str(tmp_path / "out"), "nf")
        assert not (tmp_path / "out").exists()

    def test_undecodable_manifest_names_file(self, tmp_path):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "utf")
        text = (tmp_path / "utf.manifest").read_bytes()
        (tmp_path / "utf.manifest").write_bytes(text.replace(b"class1", b"class\xff"))
        with pytest.raises(ValueError, match=re.escape(f"{manifest}: not valid UTF-8")):
            load_manifest(manifest)

    def test_bad_header_rejected(self, tmp_path):
        bad = tmp_path / "x.manifest"
        bad.write_text("NOT-A-MANIFEST\n")
        with pytest.raises(ValueError, match="header"):
            load_manifest(str(bad))


def save_v1(dataset, out_dir, name):
    """The v1 layout by hand: one _write_series_csv file per series under
    <name>/, a v1 manifest naming each."""
    os.makedirs(os.path.join(out_dir, name))
    entries = []
    for i, sample in enumerate(dataset.samples):
        rel = f"{name}/{i:05d}.csv"
        _write_series_csv(os.path.join(out_dir, rel), [sample.values.data])
        entries.append(f"{rel},class{sample.label},{sample.domain_tag}")
    return write_manifest(os.path.join(out_dir, f"{name}.manifest"), dataset, entries,
                          header="WARPADA-MANIFEST v1")


def write_manifest(path, dataset, entries, header=MANIFEST_HEADER):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\nchannels: {dataset.channels}\nlength: {dataset.length}\n"
                 f"classes: {' '.join(f'class{c}' for c in range(dataset.n_classes))}\n")
        fh.write("\n".join(entries) + "\n")
    return str(path)


def assert_same_dataset(got, want):
    assert got.n_classes == want.n_classes and len(got) == len(want)
    for a, b in zip(got.samples, want.samples):
        assert (a.label, a.domain_tag) == (b.label, b.domain_tag)
        assert a.values.data.shape == b.values.data.shape
        assert a.values.data.tobytes() == b.values.data.tobytes()


class TestLegacyLayout:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_v1_and_v2_load_bitwise_equal(self, tmp_path, channels):
        source, _ = synth_generate(tiny_spec(channels=channels))
        v1 = load_manifest(save_v1(source, str(tmp_path), "old"))
        v2 = load_manifest(save_dataset(source, str(tmp_path), "new"))
        assert [(s.label, s.domain_tag) for s in v1.samples] \
            == [(s.label, s.domain_tag) for s in source.samples]
        assert_same_dataset(v2, v1)
        # the v2 file is the v1 files joined end to end, in manifest order
        joined = b"".join((tmp_path / "old" / f"{i:05d}.csv").read_bytes()
                          for i in range(len(source)))
        assert (tmp_path / "new.csv").read_bytes() == joined
        assert (tmp_path / "new.manifest").read_text().startswith("WARPADA-MANIFEST v2\n")

    def test_mixed_manifest(self, tmp_path):
        # series 3 has its own file; the rest share one, in entry order
        source, _ = synth_generate(tiny_spec(n_per_class=3))
        series = [s.values.data for s in source.samples]
        _write_series_csv(str(tmp_path / "shared.csv"), series[:3] + series[4:])
        _write_series_csv(str(tmp_path / "own.csv"), [series[3]])
        entries = [f"{'own' if i == 3 else 'shared'}.csv,class{s.label},{s.domain_tag}"
                   for i, s in enumerate(source.samples)]
        loaded = load_manifest(write_manifest(tmp_path / "mixed.manifest", source, entries))
        assert_same_dataset(loaded, load_manifest(save_dataset(source, str(tmp_path), "all")))


class TestSharedFile:
    @pytest.fixture
    def shared(self, tmp_path):
        """Three 8-sample series in one file: values 0-7, 10-17, 20-27."""
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0) + 10 * i), label=i % 2)
                      for i in range(3)], n_classes=2)
        return ds, save_dataset(ds, str(tmp_path), "sh"), tmp_path / "sh.csv"

    @pytest.mark.parametrize("rows", [23, 25])
    def test_row_count_names_file_and_both_counts(self, shared, rows):
        _, manifest, csv = shared
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join((lines + lines)[:rows]) + "\n")
        want = f"{csv}: series shape (1, {rows}), manifest says (1,24) for 3 series of length 8"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_manifest(manifest)

    @pytest.mark.parametrize("header", [False, True])
    def test_non_finite_names_line_in_shared_file(self, shared, header):
        # the third row of the third series is line 2 * 8 + 3 = 19 (20 under a header)
        _, manifest, csv = shared
        lines = csv.read_text().splitlines()
        lines[2 * 8 + 2] = "inf"
        csv.write_text("\n".join(["ch0"] * header + lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{csv}:{19 + header}: non-finite value")):
            load_manifest(manifest)

    def test_missing_file_reported_at_first_line_naming_it(self, shared, monkeypatch):
        _, manifest, csv = shared
        checked = []
        isfile = os.path.isfile
        monkeypatch.setattr(os.path, "isfile", lambda p: checked.append(p) or isfile(p))
        load_manifest(manifest)
        assert checked == [str(csv)]  # one check for three entries
        csv.unlink()
        with pytest.raises(ValueError, match=re.escape(
                f"{manifest}:5: series file not found: {csv}")) as err:
            load_manifest(manifest)
        assert str(err.value).count("not found") == 1

    def test_header_tolerated_once_at_top(self, shared):
        ds, manifest, csv = shared
        text = csv.read_text()
        csv.write_text("ch0\n" + text)
        assert_same_dataset(load_manifest(manifest), ds)
        lines = text.splitlines()
        csv.write_text("\n".join(lines[:8] + ["ch0"] + lines[8:]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{csv}:9: non-numeric row: 'ch0'")):
            load_manifest(manifest)

    @pytest.mark.parametrize("layout", ["v2", "v1"])
    def test_one_parse_per_file(self, tmp_path, monkeypatch, layout):
        source, _ = synth_generate(tiny_spec(n_per_class=300))
        save = save_dataset if layout == "v2" else save_v1
        manifest = save(source, str(tmp_path), "d")
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
        loaded = load_manifest(manifest)
        assert len(calls) == (1 if layout == "v2" else 600)
        assert len(loaded) == 600


def part_outcomes(manifest, parts):
    """Each part's load of ``manifest``, entries n*p//parts to
    n*(p+1)//parts - 1: (its first entry, its samples), or its error text."""
    checked = read_manifest(manifest)
    n, outcomes = len(checked.entries), []
    for p in range(parts):
        lo, hi = n * p // parts, n * (p + 1) // parts
        try:
            samples = load_manifest(checked, slice(lo, hi)).samples if hi > lo else []
        except ValueError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((lo, samples))
    return outcomes


def assert_parts_load_as_whole(manifest, parts):
    """The parts' samples, in order, are the whole load's; or the whole load
    fails and so does a part, which, when the manifest names one file,
    raises the whole load's error."""
    outcomes = part_outcomes(manifest, parts)
    try:
        whole = load_manifest(manifest)
    except ValueError as exc:
        failed = [o for o in outcomes if isinstance(o, str)]
        assert failed
        if len(read_manifest(manifest).files) == 1:
            assert failed[0] == str(exc)
        return
    assert_same_dataset(Dataset([s for _, share in outcomes for s in share], whole.n_classes),
                        whole)


_PART_SERIES, _PART_LENGTH = 45, 128  # two-channel rows, about 200 kB in all


def _edit_at(row, line):
    return lambda rows: b"\n".join(rows[:row] + [line] + rows[row + 1:]) + b"\n"


def _insert_at(row, line):
    return lambda rows: b"\n".join(rows[:row] + [line] + rows[row:]) + b"\n"


class TestManifestParts:
    # 45 series in one file: halves of 22 and 23 series, thirds of 15; row
    # 22 * 128 = 2816 opens the second half
    @pytest.fixture
    def shared(self, tmp_path):
        """The manifest and its series file."""
        values = np.random.default_rng(3).normal(size=(_PART_SERIES, 2, _PART_LENGTH))
        ds = Dataset([TimeSeries(Tensor(v), label=i % 2, domain_tag="s")
                      for i, v in enumerate(values)], n_classes=2)
        return save_dataset(ds, str(tmp_path), "sh"), tmp_path / "sh.csv"

    @pytest.mark.parametrize("scan", [64, None], ids=["small-blocks", "default-blocks"])
    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("edit", [
        lambda rows: b"\n".join(rows) + b"\n",
        lambda rows: b"\n".join([b"ch0,ch1"] + rows) + b"\n",
        lambda rows: b"\n".join([b"ch\r0,ch1"] + rows) + b"\n",
        lambda rows: b"\n".join([b"1," * 40 + b"x"] + rows) + b"\n",
        lambda rows: b"\n".join(rows) + b"\n\n\n",
        lambda rows: b"\n".join(rows),
        _insert_at(100, b""),
        _insert_at(2816, b""),
        _insert_at(4000, b""),
        _insert_at(100, b"  "),
        lambda rows: b"\r\n".join(rows) + b"\r\n",
        _edit_at(4000, b"1,2\r3,4"),
        _edit_at(100, b"1\x1c,2"),
        _edit_at(4000, b"1\x1c,2"),
        _edit_at(4000, b" 1.5 ,\t2"),
        _edit_at(100, b"nan,1"),
        _edit_at(2815, b"nan,1"),
        _edit_at(2816, b"1,inf"),
        _edit_at(4000, b"x,1"),
        _edit_at(4000, b"1,2,3"),
        _edit_at(4000, b"\xff1,1"),
        _edit_at(0, b"1_0,1"),
        lambda rows: b"\n".join(rows + [b"1.5,1.5"]) + b"\n",
        lambda rows: b"\n".join(rows + [b"1.5,1.5", b"x"]) + b"\n",
        lambda rows: b"\n".join(rows[:-1]) + b"\n",
        lambda rows: b"\n".join(rows[:2000]) + b"\n",
        lambda rows: b"\n".join(row.split(b",")[0] for row in rows) + b"\n",
    ], ids=["plain", "header", "cr-in-header", "header-past-a-scan-block",
            "trailing-blank-lines", "no-final-newline", "blank-line-first",
            "blank-line-at-the-half", "blank-line-second", "whitespace-line", "crlf",
            "lone-cr-second", "separator-first", "separator-second", "padded-cells-second",
            "nan-first",
            "nan-last-row-of-first", "inf-first-row-of-second", "non-numeric-second",
            "ragged-second", "not-utf8-second", "underscore-line-1", "one-row-more",
            "bad-row-past-the-count", "one-row-less", "far-too-short", "one-channel"])
    def test_parts_load_as_whole(self, shared, monkeypatch, edit, parts, scan):
        manifest, csv = shared
        csv.write_bytes(edit(csv.read_bytes().splitlines()))
        if scan:
            monkeypatch.setattr(data, "_SCAN_BYTES", scan)
        assert_parts_load_as_whole(manifest, parts)

    def test_part_parses_only_its_rows(self, shared, monkeypatch):
        manifest, _ = shared
        whole = load_manifest(manifest)
        shapes, loadtxt = [], np.loadtxt

        def logged(*args, **kwargs):
            arr = loadtxt(*args, **kwargs)
            shapes.append(arr.shape)
            return arr

        monkeypatch.setattr(np, "loadtxt", logged)
        first = load_manifest(manifest, slice(22))
        second = load_manifest(manifest, slice(22, None))
        assert shapes == [(22 * _PART_LENGTH, 2), (23 * _PART_LENGTH, 2)]
        assert_same_dataset(Dataset(first.samples + second.samples, 2), whole)

    @pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
    def test_loads_take_the_c_reader(self, shared, monkeypatch, header):
        # np.loadtxt parses a str path in chunks in C, but iterates any other
        # object line by line in Python: a whole load and each half hand it
        # the series file's path, the lines before the rows as skiprows
        manifest, csv = shared
        if header:
            csv.write_bytes(b"ch0,ch1\n" + csv.read_bytes())
        calls, loadtxt = [], np.loadtxt

        def logged(fname, **kwargs):
            calls.append((fname, kwargs["skiprows"], kwargs["max_rows"]))
            return loadtxt(fname, **kwargs)

        monkeypatch.setattr(np, "loadtxt", logged)
        for entries in (slice(None), slice(22), slice(22, None)):
            load_manifest(manifest, entries)
        rows, skip = 22 * _PART_LENGTH, int(header)
        assert calls == [(str(csv), skip, None), (str(csv), skip, rows),
                         (str(csv), skip + rows, None)]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_text(self, shared, suffix):
        # np.loadtxt would open such a path through a decompressor, so a
        # plain series file named so is read line by line instead
        manifest, csv = shared
        whole = load_manifest(manifest)
        csv.rename(csv.with_name("sh" + suffix))
        text = open(manifest, encoding="utf-8").read()
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(text.replace("sh.csv,", f"sh{suffix},"))
        assert_same_dataset(load_manifest(manifest), whole)
        assert_parts_load_as_whole(manifest, 2)

    @pytest.mark.parametrize("parts", [2, 3])
    def test_blank_line_opening_a_scan_block(self, tmp_path, monkeypatch, parts):
        # rows of 8 bytes fill the 64-byte scan blocks exactly, and the blank
        # line after row 7 opens the second block; 9 series of 10 rows
        rows = [b"%d.5,2.5" % (i % 10) for i in range(90)]
        (tmp_path / "f.csv").write_bytes(b"\n".join(rows[:8] + [b""] + rows[8:]) + b"\n")
        ds = Dataset([TimeSeries(Tensor(np.zeros((2, 10))), label=i % 2) for i in range(9)], 2)
        manifest = write_manifest(tmp_path / "f.manifest", ds,
                                  [f"f.csv,class{i % 2}," for i in range(9)])
        monkeypatch.setattr(data, "_SCAN_BYTES", 64)
        assert_parts_load_as_whole(manifest, parts)

    @pytest.mark.parametrize("scan", [64, None], ids=["small-blocks", "default-blocks"])
    def test_first_half_scan_ends_at_its_last_line(self, shared, monkeypatch, scan):
        # a carriage return past the first half's rows, which sends a whole
        # read line by line, leaves the first half's one np.loadtxt call
        manifest, csv = shared
        rows = csv.read_bytes().splitlines()
        csv.write_bytes(_edit_at(4000, rows[4000] + b"\r")(rows))
        if scan:
            monkeypatch.setattr(data, "_SCAN_BYTES", scan)
        calls, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(kw) or loadtxt(*a, **kw))
        first = load_manifest(manifest, slice(22))
        assert [kw["max_rows"] for kw in calls] == [22 * _PART_LENGTH]
        assert_same_dataset(first, Dataset(load_manifest(manifest).samples[:22], 2))

    @pytest.mark.parametrize("bad", [0, 1])
    def test_bad_row_fails_only_the_part_that_reads_it(self, shared, bad):
        # a bad row in one half: the other half loads, this one raises the
        # whole load's error
        manifest, csv = shared
        rows = csv.read_bytes().splitlines()
        rows[[100, 4000][bad]] = b"nan,1"
        csv.write_bytes(b"\n".join(rows) + b"\n")
        problem = f"{csv}:{[101, 4001][bad]}: non-finite value"
        outcomes = part_outcomes(manifest, 2)
        assert outcomes[bad] == problem
        assert outcomes[1 - bad][0] == [0, 22][1 - bad]
        with pytest.raises(ValueError, match=re.escape(problem)):
            load_manifest(manifest)

    def test_each_part_reports_the_file_it_fails_in(self, tmp_path):
        # entries alternate between a.csv and b.csv; a.csv's bad row is in
        # the second half, b.csv's in the first: each half raises its own
        # file's error, and the whole load the first-named file's
        values = np.arange(8 * 4.0).reshape(8, 1, 4)
        ds = Dataset([TimeSeries(Tensor(v), label=i % 2) for i, v in enumerate(values)], 2)
        for name, blocks in (("a", values[0::2]), ("b", values[1::2])):
            rows = [b"%d" % v for block in blocks for v in block.ravel()]
            rows[{"a": 3 * 4, "b": 0}[name]] = b"nan"
            (tmp_path / f"{name}.csv").write_bytes(b"\n".join(rows) + b"\n")
        manifest = write_manifest(tmp_path / "ab.manifest", ds,
                                  [f"{'ab'[i % 2]}.csv,class{i % 2}," for i in range(8)])
        assert part_outcomes(manifest, 2) == [f"{tmp_path / name}:{line}: non-finite value"
                                              for name, line in (("b.csv", 1), ("a.csv", 13))]
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'a.csv'}:13:")):
            load_manifest(manifest)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("layout", ["v2", "v1", "mixed"])
    def test_layouts_and_counts(self, tmp_path, layout, n):
        source, _ = synth_generate(tiny_spec(n_per_class=3))
        ds = Dataset(source.samples[:n], source.n_classes)
        if layout == "v2":
            manifest = save_dataset(ds, str(tmp_path), "d")
        elif layout == "v1":
            manifest = save_v1(ds, str(tmp_path), "d")
        else:  # the last series has its own file
            series = [s.values.data for s in ds.samples]
            _write_series_csv(str(tmp_path / "shared.csv"), series[:-1])
            _write_series_csv(str(tmp_path / "own.csv"), series[-1:])
            manifest = write_manifest(tmp_path / "m.manifest", ds, [
                f"{'own' if i == n - 1 else 'shared'}.csv,class{s.label},{s.domain_tag}"
                for i, s in enumerate(ds.samples)])
        for parts in (2, 3):
            assert_parts_load_as_whole(manifest, parts)
        with pytest.raises(ValueError, match="dataset has no samples"):
            load_manifest(manifest, slice(n, None))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(st.sampled_from(["1", "-2.5", "3e1"]), _LINES), min_size=1,
                max_size=10),
       st.sampled_from(["\n", "\r\n"]), st.booleans(), st.sampled_from([2, 3]))
def test_fuzz_parts_load_as_whole(tmp_path, monkeypatch, lines, newline, final_newline,
                                  parts):
    # three one-channel series of length 2 in one file of any text, read in
    # scan blocks of 8 bytes
    (tmp_path / "f.csv").write_bytes(
        (newline.join(lines) + (newline if final_newline else "")).encode("utf-8"))
    ds = Dataset([TimeSeries(Tensor(np.zeros(2)), label=i % 2) for i in range(3)], 2)
    manifest = write_manifest(tmp_path / "f.manifest", ds,
                              [f"f.csv,class{i % 2}," for i in range(3)])
    monkeypatch.setattr(data, "_SCAN_BYTES", 8)
    assert_parts_load_as_whole(manifest, parts)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=200),
                 st.lists(st.sampled_from(["1.5", "-2", "nan", "inf", "1e999", "x", "",
                                           ",", " ", "\n", "\r", "\ufeff", "\x00", "\xff"]),
                          max_size=30).map(lambda parts: "".join(parts).encode("utf-8"))))
def test_fuzz_series_csv_is_valid_or_names_its_file(tmp_path, raw):
    # arbitrary bytes give a finite (channels, length) array, or a
    # ValueError that names the file; never another exception type
    series = tmp_path / "fuzz.csv"
    series.write_bytes(raw)
    for channels, length in ((1, 1), (1, 2), (2, 1)):
        try:
            arr = _load_series_csv(str(series), channels, length)
        except ValueError as exc:
            assert str(series) in str(exc)
        else:
            assert arr.shape == (channels, length) and np.isfinite(arr).all()


_MANIFEST_LINES = [MANIFEST_HEADER, "channels: 1", "channels: abc", "channels: 0", "length: 2",
                   "length: 1e3", "classes: a b", "classes:", "# note", "", "fuzz.manifest,a,d",
                   "x.csv,a,d", ".,a,d", ",b,d", "\x00,a,d", "a,b", "x.csv,c,d", ":", ","]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.binary(max_size=200),
    st.tuples(st.lists(st.one_of(st.sampled_from(_MANIFEST_LINES), st.text(max_size=12)),
                       max_size=8),
              st.binary(max_size=8)).map(
        lambda parts: "\n".join([MANIFEST_HEADER] + parts[0]).encode("utf-8") + parts[1])))
def test_fuzz_manifest_names_its_file(tmp_path, raw):
    # no input here is a loadable dataset (the only file beside it is the
    # manifest itself), so each raises a ValueError naming the manifest
    manifest = tmp_path / "fuzz.manifest"
    manifest.write_bytes(raw)
    with pytest.raises(ValueError) as err:
        load_manifest(str(manifest))
    assert str(manifest) in str(err.value)
