import dataclasses
import os
import shutil

import numpy as np
import pytest
import yaml

from warpada import tensor
from warpada.adversarial import AdvConfig
from warpada.cli import ConfigError, RunConfig, load_config, main
from warpada.model import load_checkpoint
from warpada.tensor import Tensor
from warpada.warp import WarpPath

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
        p = tmp_path / "c.yaml"
        p.write_text("eval_manifests:\n  - a\n  - b\n")
        assert load_config(str(p)).eval_manifests == ("a", "b")
        p.write_text("eval_manifests: solo\n")
        assert load_config(str(p)).eval_manifests == ("solo",)

    def test_int_field_rejects_bool(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("batch: true\n")
        with pytest.raises(ConfigError, match="batch"):
            load_config(str(p))


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
        a = (tmp_path / "one" / "source" / "00003.csv").read_bytes()
        b = (tmp_path / "two" / "source" / "00003.csv").read_bytes()
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
        real_dirichlet = tensor.op_dirichlet

        def flipped_dirichlet(t, length):
            d = real_dirichlet(t, length)
            return tensor.op_sub(Tensor(2.0 * d.data), d)  # same values, -D'

        monkeypatch.setattr(tensor, "op_dirichlet", flipped_dirichlet)
        assert main(["gradcheck", "--out", str(tmp_path / "gc")]) == 1
        report = (tmp_path / "gc" / "gradcheck_report.txt").read_text()
        assert [line.split()[-1] for line in report.splitlines()
                if line.startswith("dirichlet ")] == ["FAIL"]


class TestAugmentCommand:
    def test_tada_one_per_input(self, workspace, tmp_path):
        out = tmp_path / "aug"
        assert main(["augment", "--config", workspace["config"],
                     "--out", str(out),
                     "--checkpoint", workspace["checkpoint"],
                     "--manifest", workspace["source"]]) == 0
        objectives = (out / "objectives.csv").read_text().strip().split("\n")
        assert len(objectives) == 1 + 18  # header + one row per input sample
        series = list((out / "augmented").iterdir())
        assert len(series) == 18

    def test_tada_plus_doubles(self, workspace, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {"mode": "tada_plus"})
        out = tmp_path / "aug"
        assert main(["augment", "--config", cfg, "--out", str(out),
                     "--checkpoint", workspace["checkpoint"],
                     "--manifest", workspace["source"]]) == 0
        rows = (out / "objectives.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 36
        assert {r.split(",")[1] for r in rows} == {"ada", "tada"}

    def test_logged_paths_satisfy_invariants(self, workspace, tmp_path):
        out = tmp_path / "aug"
        main(["augment", "--config", workspace["config"], "--out", str(out),
              "--checkpoint", workspace["checkpoint"],
              "--manifest", workspace["source"]])
        for line in (out / "paths.csv").read_text().strip().split("\n"):
            values = np.array([float(v) for v in line.split(",")[2:]])
            path = WarpPath(Tensor(values))
            worst = max(path.violations(8.0).values())
            assert worst < 1e-9

    def test_erm_mode_rejected(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", {"mode": "erm"})
        code = main(["augment", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--checkpoint", workspace["checkpoint"],
                     "--manifest", workspace["source"]])
        assert code == 2
        assert "erm" in capsys.readouterr().err


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

    def test_non_finite_series_exit_2(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(os.path.dirname(workspace["amp"]), data)
        series = data / "amp" / "00004.csv"
        rows = series.read_text().splitlines()
        rows[2] = "nan"
        series.write_text("\n".join(rows) + "\n")
        code = main(["eval", "--checkpoint", workspace["checkpoint"],
                     "--out", str(tmp_path / "ev"), str(data / "amp.manifest")])
        assert code == 2
        assert f"{series}:3: non-finite value" in capsys.readouterr().err

    def test_missing_checkpoint_exit_2(self, workspace, tmp_path, capsys):
        code = main(["eval", "--checkpoint", "/nope/ck.bin",
                     "--out", str(tmp_path / "ev"), workspace["source"]])
        assert code == 2
        assert "/nope/ck.bin" in capsys.readouterr().err

    def test_truncated_checkpoint_exit_2(self, workspace, tmp_path, capsys):
        cut = tmp_path / "cut.bin"
        with open(workspace["checkpoint"], "rb") as fh:
            cut.write_bytes(fh.read()[:10])  # ends inside the header
        code = main(["eval", "--checkpoint", str(cut),
                     "--out", str(tmp_path / "ev"), workspace["source"]])
        assert code == 2
        assert str(cut) in capsys.readouterr().err


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
