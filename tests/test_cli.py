import dataclasses
import os
import shutil
import struct

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpada import cli, signal, training
from warpada.adversarial import AdvConfig
from warpada.cli import ConfigError, RunConfig, load_config, main
from warpada.data import default_spec, load_manifest
from warpada.model import Classifier, load_checkpoint, save_checkpoint
from warpada.training import maximize_phase

from test_warp import path_violations

SMALL = {
    "synth_n_per_class": 6,
    "synth_length": 64,
    "t_max": 2,
    "t_min": 2,
    "k_rounds": 1,
    "t_final": 1,
    "batch": 8,
}


def write_config(path, extra=None):
    body = dict(SMALL)
    body.update(extra or {})
    path.write_text(yaml.safe_dump(body))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + train pass shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "small.yaml")
    assert main(["synth", "--config", cfg, "--out", str(root / "data")]) == 0
    assert main(["train", "--config", cfg, "--out", str(root / "run"),
                 "--manifest", str(root / "data" / "source.manifest")]) == 0
    return {
        "root": root,
        "config": cfg,
        "source": str(root / "data" / "source.manifest"),
        "amp": str(root / "data" / "amp.manifest"),
        "checkpoint": str(root / "run" / "checkpoint.bin"),
    }


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg == RunConfig()

    def test_every_adv_field_is_a_key_with_its_default(self):
        keys = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        for f in dataclasses.fields(AdvConfig):
            assert f.name in keys
            assert keys[f.name] == f.default and type(keys[f.name]) is type(f.default)
        assert RunConfig().adv_config() == AdvConfig()

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("bogus: 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(p))

    def test_type_mismatch_rejected(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("batch: not-a-number\n")
        with pytest.raises(ConfigError, match="batch"):
            load_config(str(p))

    def test_non_mapping_rejected(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.yaml")

    def test_env_seed_overrides_file(self, tmp_path, monkeypatch):
        p = tmp_path / "c.yaml"
        p.write_text("seed: 3\n")
        monkeypatch.setenv("WARPADA_SEED", "99")
        assert load_config(str(p)).seed == 99

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        p = tmp_path / "c.yaml"
        p.write_text("seed: 3\n")
        monkeypatch.setenv("WARPADA_SEED", "99")
        assert load_config(str(p), {"seed": 7}).seed == 7

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("WARPADA_SEED", "abc")
        with pytest.raises(ConfigError, match="WARPADA_SEED"):
            load_config(None)

    def test_manifest_list_and_scalar(self, tmp_path):
        # eval takes its manifests as arguments; the old eval_manifests key,
        # as a list or a scalar, is an unknown key
        p = tmp_path / "c.yaml"
        for body in ("eval_manifests:\n  - a\n  - b\n", "eval_manifests: solo\n"):
            p.write_text(body)
            with pytest.raises(ConfigError, match="unknown config key 'eval_manifests'"):
                load_config(str(p))

    def test_int_field_rejects_bool(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("batch: true\n")
        with pytest.raises(ConfigError, match="batch"):
            load_config(str(p))

    @pytest.mark.parametrize("line", ["lr: .nan", "gamma: .inf", "eta: -.inf",
                                      "synth_warp_d: 1.0e+400", "lr: 1" + "0" * 400],
                             ids=["nan", "inf", "minus_inf", "float_overflow", "int_overflow"])
    def test_non_finite_float_names_its_key(self, tmp_path, capsys, line):
        key = line.split(":")[0]
        p = tmp_path / "c.yaml"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"config key '{key}' must be finite"):
            load_config(str(p))
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}' must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("raw,problem", [(b"lr: 0.1\nmode: \xff\n", "not valid UTF-8"),
                                             (b"batch: " + b"9" * 5000, "not valid YAML")],
                             ids=["undecodable", "int_too_long"])
    def test_unreadable_config_names_file(self, tmp_path, raw, problem):
        p = tmp_path / "c.yaml"
        p.write_bytes(raw)
        with pytest.raises(ConfigError, match=f"{p}: {problem}"):
            load_config(str(p))

    @pytest.mark.parametrize("argv", [["synth"], ["gradcheck"], ["train"],
                                      ["augment", "--checkpoint", "c.bin", "--manifest", "m"],
                                      ["eval", "--checkpoint", "c.bin", "m"],
                                      ["export-features", "--checkpoint", "c.bin",
                                       "--manifest", "m"]],
                             ids=lambda argv: argv[0])
    def test_invalid_values_rejected_on_load(self, tmp_path, capsys, argv):
        p = tmp_path / "c.yaml"
        p.write_text("t_max: 0\nlr: -1.0\n")
        out = tmp_path / "o"
        assert main(argv + ["--config", str(p), "--out", str(out)]) == 2
        assert f"error: {p}: t_max must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_synth_keys_rejected_on_load(self, tmp_path):
        p = tmp_path / "c.yaml"
        # each message names the config key, not the spec field it sets
        for body, problem in (("synth_length: 12\n", "synth_length 12 too short"),
                              ("synth_n_per_class: 0\n", "synth_n_per_class must be >= 1"),
                              ("synth_noise_sigma: -0.5\n", "synth_noise_sigma must be >= 0"),
                              ("synth_warp_d: 12.0\n", "synth_warp_d 12.0 exceeds"),
                              ("synth_warp_d: 9.5\n", "synth_warp_d 9.5 exceeds"),
                              ("synth_warp_d: -1\n", "synth_warp_d must be nonnegative")):
            p.write_text(body)
            with pytest.raises(ConfigError, match=f"{p}: .*{problem}"):
                load_config(str(p))

    def test_synth_defaults_are_default_spec(self):
        assert RunConfig().synth_spec() == default_spec(0)
        spec = RunConfig(seed=4, synth_amp_scale=2.0, synth_warp_d=3.0).synth_spec()
        assert spec.seed == 4
        assert [(t.kind, t.scale, t.offset, t.warp_d) for t in spec.targets] == [
            ("amplitude", 2.0, 0.6, 0.0), ("warp", 1.0, 0.0, 3.0), ("both", 2.0, 0.6, 3.0)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.binary(max_size=120),
    st.lists(st.sampled_from(["lr: ", "gamma: ", "batch: ", "mode: ", "t_max: ",
                              "bogus: ", ".nan", ".inf", "1e999", "1.0e+999", "9" * 400,
                              "9" * 4400, "0.5", "-1",
                              "3", "true", "[a, 1]", "{x: 1}", "- ", "'s'", "&a ", "*a",
                              "\n", "  ", ":", "\t", "\xff", "\x00"]),
             max_size=20).map(lambda parts: "".join(parts).encode("utf-8"))))
def test_fuzz_config_is_valid_or_a_config_error(tmp_path, raw):
    # arbitrary bytes load, or raise a ConfigError naming the file or the
    # key; never another exception type
    p = tmp_path / "fuzz.yaml"
    p.write_bytes(raw)
    try:
        load_config(str(p))
    except ConfigError as exc:
        assert str(p) in str(exc) or "config key" in str(exc)


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck", "eval"])
def test_unusable_path_exits_2_naming_it(tmp_path, capsys, monkeypatch, command):
    # a regular file where a directory must go, or a directory to be read as
    # a file, is an input error, not a check failure (exit 1); an unusable
    # --out fails before any training or gradient audit
    def no_work(*args, **kwargs):
        pytest.fail("the command did its work before checking --out")

    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setattr(cli, "run_checks", no_work)
    regular = tmp_path / "F"
    regular.write_text("")
    argv, named = {
        "synth": (["synth", "--out", str(regular)], regular),
        "train": (["train", "--out", str(regular)], regular),
        "gradcheck": (["gradcheck", "--out", str(regular / "x")], regular / "x"),
        "eval": (["eval", "--checkpoint", str(tmp_path), "--out", str(tmp_path / "ev"),
                  str(tmp_path)], tmp_path),
    }[command]
    assert main(argv + ["--config", write_config(tmp_path / "c.yaml")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err


class TestSynth:
    def test_writes_four_manifests_and_echo(self, workspace):
        data = workspace["root"] / "data"
        names = {p.name for p in data.iterdir() if p.suffix == ".manifest"}
        assert names == {"source.manifest", "amp.manifest",
                         "warp.manifest", "both.manifest"}
        assert (data / "config_echo.yaml").exists()
        echo = yaml.safe_load((data / "config_echo.yaml").read_text())
        assert echo["t_max"] == 2 and echo["mode"] == "tada"

    def test_same_seed_identical_files(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        for d in ("one", "two"):
            assert main(["synth", "--config", cfg,
                         "--out", str(tmp_path / d)]) == 0
        a = (tmp_path / "one" / "source.csv").read_bytes()
        b = (tmp_path / "two" / "source.csv").read_bytes()
        assert a == b

    def test_bad_key_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("bogus_key: 3\n")
        assert main(["synth", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "bogus_key" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_clean_build_exits_0(self, tmp_path):
        assert main(["gradcheck", "--out", str(tmp_path / "gc")]) == 0
        report = (tmp_path / "gc" / "gradcheck_report.txt").read_text()
        assert "worst:" in report
        assert report.count("\n") >= 13  # at least 12 items plus header

    def test_sign_flipped_backward_exits_1(self, tmp_path, monkeypatch):
        # the warp kernel's slope negated: exactly the rows that differentiate
        # the warp in its path fail
        real_rows = signal._dirichlet_rows

        def flipped_rows(delta, length):
            value, slope = real_rows(delta, length)
            return value, lambda: -slope()

        monkeypatch.setattr(signal, "_dirichlet_rows", flipped_rows)
        assert main(["gradcheck", "--out", str(tmp_path / "gc")]) == 1
        report = (tmp_path / "gc" / "gradcheck_report.txt").read_text()
        assert [line.split()[0] for line in report.splitlines() if line.endswith("FAIL")] \
            == ["dirichlet", "loss_grad_phi", "loss_grad_phi_batched"]


class TestAugmentCommand:
    def test_tada_one_per_input(self, workspace, tmp_path):
        out = tmp_path / "aug"
        assert main(["augment", "--config", workspace["config"],
                     "--out", str(out),
                     "--checkpoint", workspace["checkpoint"],
                     "--manifest", workspace["source"]]) == 0
        objectives = (out / "objectives.csv").read_text().strip().split("\n")
        assert len(objectives) == 1 + 18  # header + one row per input sample
        series = [line for line in (out / "augmented.manifest").read_text().splitlines()
                  if line.startswith("augmented.csv,")]
        assert len(series) == 18
        rows = (out / "augmented.csv").read_text().splitlines()
        assert len(rows) == 18 * SMALL["synth_length"]

    def test_tada_plus_doubles(self, workspace, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {"mode": "tada_plus"})
        out = tmp_path / "aug"
        assert main(["augment", "--config", cfg, "--out", str(out),
                     "--checkpoint", workspace["checkpoint"],
                     "--manifest", workspace["source"]]) == 0
        rows = (out / "objectives.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 36
        assert {r.split(",")[1] for r in rows} == {"ada", "tada"}

    def test_logs_bytes_equal_per_value_format(self, workspace, tmp_path):
        # a tada_plus union run: its ada rows carry no path
        cfg = load_config(write_config(tmp_path / "c.yaml", {"mode": "tada_plus"}))
        model = load_checkpoint(workspace["checkpoint"])
        adv = maximize_phase(model, load_manifest(workspace["source"]), cfg.adv_config())
        assert {s.path is None for s in adv} == {True, False}
        cli._write_generation_logs(adv, str(tmp_path))
        objectives = ["origin_id,mode,objective\n"]
        paths = []
        for s in adv:
            objectives.append(f"{s.origin_id},{s.mode},{s.objective:.12g}\n")
            if s.path is not None:
                row = ",".join(f"{v:.17g}" for v in s.path)
                paths.append(f"{s.origin_id},{s.mode},{row}\n")
        assert (tmp_path / "objectives.csv").read_text() == "".join(objectives)
        assert (tmp_path / "paths.csv").read_text() == "".join(paths)

    def test_logged_paths_satisfy_invariants(self, workspace, tmp_path):
        out = tmp_path / "aug"
        main(["augment", "--config", workspace["config"], "--out", str(out),
              "--checkpoint", workspace["checkpoint"],
              "--manifest", workspace["source"]])
        for line in (out / "paths.csv").read_text().strip().split("\n"):
            values = np.array([float(v) for v in line.split(",")[2:]])
            worst = max(path_violations(values, 8.0).values())
            assert worst < 1e-9

    def test_erm_mode_rejected(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", {"mode": "erm"})
        code = main(["augment", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--checkpoint", workspace["checkpoint"],
                     "--manifest", workspace["source"]])
        assert code == 2
        assert "erm" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()  # a usage error writes nothing


class TestTrainCommand:
    def test_outputs_and_loadable_checkpoint(self, workspace):
        run_dir = workspace["root"] / "run"
        assert (run_dir / "report.txt").exists()
        assert (run_dir / "config_echo.yaml").exists()
        model = load_checkpoint(workspace["checkpoint"])
        assert model.n_classes == 3

    def test_report_echoes_config(self, workspace):
        report = (workspace["root"] / "run" / "report.txt").read_text()
        assert "config.mode: tada" in report
        assert "config.k_rounds: 1" in report

    def test_erm_skips_rounds(self, workspace, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {"mode": "erm", "k_rounds": 3})
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out),
                     "--manifest", workspace["source"]]) == 0
        report = (out / "report.txt").read_text()
        assert "sizes: 18" in report

    def test_same_seed_identical_report(self, workspace, tmp_path):
        reports = []
        for d in ("r1", "r2"):
            out = tmp_path / d
            assert main(["train", "--config", workspace["config"],
                         "--out", str(out),
                         "--manifest", workspace["source"]]) == 0
            lines = (out / "report.txt").read_text().split("\n")
            reports.append([l for l in lines if not l.startswith("wall_clock")])
        assert reports[0] == reports[1]


class TestEvalCommand:
    def test_table_and_embeddings(self, workspace, tmp_path):
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", workspace["checkpoint"],
                     "--out", str(out),
                     workspace["source"], workspace["amp"]]) == 0
        table = (out / "f1.txt").read_text()
        assert "source" in table and "amp" in table and "average" in table
        lines = (out / "embeddings.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert len(header) == 3 + 64
        assert len(lines) == 1 + 18 + 18

    def test_embeddings_are_the_domains_features_in_order(self, workspace, tmp_path):
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out", str(out),
                     workspace["source"], workspace["amp"]]) == 0
        parts = []
        for name in ("source", "amp"):
            assert main(["export-features", "--checkpoint", workspace["checkpoint"],
                         "--manifest", workspace[name], "--out", str(tmp_path / name)]) == 0
            lines = (tmp_path / name / "features.csv").read_text().splitlines(keepends=True)
            parts.extend(lines if not parts else lines[1:])
        assert (out / "embeddings.csv").read_text() == "".join(parts)
        assert not [p for p in os.listdir(out) if p.endswith(".tmp")]

    def test_one_forward_per_domain(self, workspace, tmp_path, monkeypatch):
        calls, inference = [], training._inference

        def counted(model, samples):
            calls.append(len(samples))
            return inference(model, samples)

        monkeypatch.setattr(training, "_inference", counted)
        monkeypatch.setattr(cli, "_inference", counted)
        assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                     str(tmp_path / "ev"), workspace["source"], workspace["amp"]]) == 0
        assert calls == [18, 18]

    def test_non_finite_series_exit_2(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(os.path.dirname(workspace["amp"]), data)
        series = data / "amp.csv"
        rows = series.read_text().splitlines()
        line_no = 4 * SMALL["synth_length"] + 3  # line 3 of the fifth series
        rows[line_no - 1] = "nan"
        series.write_text("\n".join(rows) + "\n")
        code = main(["eval", "--checkpoint", workspace["checkpoint"],
                     "--out", str(tmp_path / "ev"), str(data / "amp.manifest")])
        assert code == 2
        assert f"{series}:{line_no}: non-finite value" in capsys.readouterr().err

    def test_missing_checkpoint_exit_2(self, workspace, tmp_path, capsys):
        code = main(["eval", "--checkpoint", "/nope/ck.bin",
                     "--out", str(tmp_path / "ev"), workspace["source"]])
        assert code == 2
        assert "/nope/ck.bin" in capsys.readouterr().err

    def test_non_finite_checkpoint_exit_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "nan.bin"
        with open(workspace["checkpoint"], "rb") as fh:
            blob = fh.read()  # head.b, the last layer, ends the file
        bad.write_bytes(blob[:-8] + struct.pack("<d", np.nan))
        for argv in (["eval", "--checkpoint", str(bad), workspace["source"]],
                     ["augment", "--config", workspace["config"], "--checkpoint", str(bad),
                      "--manifest", workspace["source"]]):
            assert main(argv + ["--out", str(tmp_path / argv[0])]) == 2
            assert f"{bad}: layer head.b holds non-finite values" in capsys.readouterr().err

    def test_truncated_checkpoint_exit_2(self, workspace, tmp_path, capsys):
        cut = tmp_path / "cut.bin"
        with open(workspace["checkpoint"], "rb") as fh:
            cut.write_bytes(fh.read()[:10])  # ends inside the header
        code = main(["eval", "--checkpoint", str(cut),
                     "--out", str(tmp_path / "ev"), workspace["source"]])
        assert code == 2
        assert str(cut) in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(2, 3), (1, 4)], ids=["channels", "classes"])
@pytest.mark.parametrize("command", ["eval", "augment", "export-features"])
def test_checkpoint_not_fitting_manifest_exits_2_naming_both(workspace, tmp_path, capsys,
                                                             command, shape):
    # the manifest holds 1-channel series of 3 classes
    ckpt = tmp_path / "other.bin"
    save_checkpoint(Classifier(*shape), str(ckpt))
    argv = {"eval": ["eval", workspace["source"]],
            "augment": ["augment", "--manifest", workspace["source"]],
            "export-features": ["export-features", "--manifest", workspace["source"]]}[command]
    assert main(argv + ["--config", workspace["config"], "--checkpoint", str(ckpt),
                        "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err and workspace["source"] in err
    assert "1-channel series of 3 classes" in err


def test_train_on_one_class_manifest_exits_2_naming_line(tmp_path, capsys):
    # written by hand: Dataset (and so save_dataset) refuses one class
    os.makedirs(tmp_path / "one")
    np.savetxt(tmp_path / "one" / "00000.csv", np.arange(16.0)[:, None], delimiter=",")
    manifest = str(tmp_path / "one.manifest")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("WARPADA-MANIFEST v1\nchannels: 1\nlength: 16\nclasses: class0\n"
                 "one/00000.csv,class0,\n")
    assert main(["train", "--config", write_config(tmp_path / "c.yaml"), "--manifest", manifest,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{manifest}:4: classes must be two or more distinct names" in capsys.readouterr().err


class TestExportFeaturesCommand:
    def test_writes_schema(self, workspace, tmp_path):
        out = tmp_path / "feats"
        assert main(["export-features", "--checkpoint", workspace["checkpoint"],
                     "--manifest", workspace["amp"], "--out", str(out)]) == 0
        lines = (out / "features.csv").read_text().strip().split("\n")
        assert lines[0].split(",")[:3] == ["origin_id", "domain_tag", "label"]
        assert len(lines[0].split(",")) == 67
        assert len(lines) == 19

    def test_explicit_output_path(self, workspace, tmp_path):
        target = tmp_path / "deep" / "f.csv"
        os.makedirs(target.parent)
        assert main(["export-features", "--checkpoint", workspace["checkpoint"],
                     "--manifest", workspace["amp"],
                     "--out", str(tmp_path / "deep"),
                     "--output", str(target)]) == 0
        assert target.exists()
