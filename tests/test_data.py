import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpada.data import (
    Component,
    DomainShift,
    _load_series_csv,
    SynthSpec,
    default_spec,
    load_manifest,
    save_dataset,
    synth_generate,
)
from warpada.signal import TimeSeries
from warpada.tensor import Tensor
from warpada.training import Dataset
from warpada.warp import WarpPath


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
        (tmp_path / "gone" / "00000.csv").unlink()
        with pytest.raises(ValueError, match="not found"):
            load_manifest(manifest)

    def test_ragged_row_names_line(self, tmp_path):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "rag")
        series = tmp_path / "rag" / "00000.csv"
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
        series = tmp_path / "len" / "00000.csv"
        series.write_text("\n".join(str(float(v)) for v in range(5)) + "\n")
        with pytest.raises(ValueError, match="shape"):
            load_manifest(manifest)

    def test_header_row_tolerated(self, tmp_path):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "hdr")
        series = tmp_path / "hdr" / "00000.csv"
        series.write_text("ch0\n" + series.read_text())
        loaded = load_manifest(manifest)
        np.testing.assert_allclose(loaded.samples[0].values.data[0], np.arange(8.0))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, cell):
        ds = Dataset([TimeSeries(Tensor(np.arange(8.0)), label=0)], n_classes=2)
        manifest = save_dataset(ds, str(tmp_path), "nf")
        series = tmp_path / "nf" / "00000.csv"
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

    def test_bad_header_rejected(self, tmp_path):
        bad = tmp_path / "x.manifest"
        bad.write_text("NOT-A-MANIFEST\n")
        with pytest.raises(ValueError, match="header"):
            load_manifest(str(bad))


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
