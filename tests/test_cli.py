import dataclasses
import hashlib
import os
import pickle
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import warpada
from warpada import cli, procs, signal, training
from warpada.adversarial import AdvConfig
from warpada.cli import ConfigError, RunConfig, load_config, main
from warpada.data import _write_series_csv, default_spec, load_manifest, save_dataset
from warpada.model import Classifier, load_checkpoint, save_checkpoint
from warpada.training import Dataset, evaluate, maximize_phase

from test_adversarial import (_traced_peak, assert_no_children, deadline, measured_numpy,
                              no_process, processes_of)
from test_data import save_v1, write_manifest
from test_training import forced_inference
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


def forced_eval(monkeypatch, on: bool):
    """forced_inference, which forces the inference worker on or off for
    the eval commands too; returns the process counts they shared their
    targets' parts between."""
    forced_inference(monkeypatch, on)
    return processes_of(monkeypatch, "inference worker")


@pytest.fixture
def fork_count(tmp_path, monkeypatch):
    """os.fork logs every call, made in this process or in any child, to one
    file; the fixture is the function that counts them."""
    log = tmp_path / "forks.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    real = os.fork

    def fork():
        os.write(fd, b"f")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    yield lambda: log.stat().st_size
    os.close(fd)


def copy_manifest(src: str, out_dir, edit=lambda line: line) -> str:
    """Copy the directory of manifest ``src`` to ``out_dir``, pass each line
    of the copied manifest through ``edit``, and return its path."""
    shutil.copytree(os.path.dirname(src), out_dir)
    path = os.path.join(out_dir, os.path.basename(src))
    lines = open(path, encoding="utf-8").read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(edit(line) + "\n" for line in lines))
    return path


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
                                      ["eval", "--checkpoint", "c.bin", "m"]],
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

    def test_synth_refuses_non_finite_series(self, tmp_path, capsys):
        # amplitude 1e308 overflows the amp target's values to inf, with no
        # RuntimeWarning; the command exits 2 before writing any dataset,
        # the source included, and its one error line is all a terminal sees
        out = tmp_path / "o"
        p = write_config(tmp_path / "c.yaml", {"synth_amp_scale": 1.0e308})
        assert main(["synth", "--config", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset 'amp' not written: sample ")
        assert "holds non-finite values" in err
        assert sorted(f.name for f in out.iterdir()) == ["config_echo.yaml"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(warpada.__file__)))
        run = subprocess.run([sys.executable, "-m", "warpada", "synth", "--config", p,
                              "--out", str(tmp_path / "fresh")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout, run.stderr) == (2, "", err)
        # an overflowed noise times a zero scale is nan, also without a warning
        p = write_config(tmp_path / "z.yaml", {"synth_amp_scale": 0.0,
                                               "synth_noise_sigma": 1.0e308})
        assert main(["synth", "--config", p, "--out", str(tmp_path / "z")]) == 2
        assert capsys.readouterr().err.startswith("error: dataset 'source' not written: ")

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


@pytest.mark.parametrize("argv, env_seed, seed",
                         [(["train", "--seed", "-3"], None, -3), (["train"], "-2", -2),
                          (["gradcheck", "--seed", "-1"], None, -1),
                          (["synth", "--seed", "-1"], None, -1),
                          (["train", "--seed", str(2**63)], None, 2**63)],
                         ids=["train-flag", "train-env", "gradcheck", "synth", "train-2**63"])
def test_seed_out_of_range_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, env_seed,
                                             seed):
    # numpy takes no negative seed and the checkpoint stores a signed 64-bit
    # one: both are rejected on load, before config_echo.yaml is written
    if env_seed is not None:
        monkeypatch.setenv("WARPADA_SEED", env_seed)
    out = tmp_path / "o"
    assert main(argv + ["--config", write_config(tmp_path / "c.yaml"), "--out", str(out)]) == 2
    assert f"seed must be in [0, 2**63), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_trains_and_saves(tmp_path):
    seed, out = 2**63 - 1, tmp_path / "run"
    assert main(["train", "--seed", str(seed), "--config", write_config(tmp_path / "c.yaml"),
                 "--out", str(out)]) == 0
    assert load_checkpoint(str(out / "checkpoint.bin")).seed == seed
    assert f"seed: {seed}\n" in (out / "report.txt").read_text(encoding="utf-8")


def test_cli_import_leaves_out_multiprocessing():
    # processes are started by os.fork alone; a fresh interpreter shows what
    # importing the command line pulls in
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(warpada.__file__)))
    found = subprocess.run([sys.executable, "-c", "import sys, warpada.cli; "
                            "print('multiprocessing' in sys.modules)"],
                           env=env, capture_output=True, text=True, timeout=120, check=True)
    assert found.stdout == "False\n"


@pytest.mark.parametrize("dumper", ["CSafeDumper", "SafeDumper"])
@pytest.mark.parametrize("out_dir", ["echo", "a\x85b\u2028c\nd'e\"f: #g"], ids=["plain", "exotic"])
def test_config_echo_loads_back_to_the_settings(tmp_path, monkeypatch, dumper, out_dir):
    # libyaml's bytes may differ from SafeDumper's for such strings; both
    # must load back to the resolved settings
    if not hasattr(yaml, dumper):
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(cli, "_ECHO_DUMPER", getattr(yaml, dumper))
    cfg = load_config(None, {"out_dir": str(tmp_path / out_dir)})
    cli._write_echo(cfg)
    echo = (tmp_path / out_dir / "config_echo.yaml").read_text(encoding="utf-8")
    assert yaml.safe_load(echo) == dataclasses.asdict(cfg)


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

        def flipped_rows(delta, length, slopes=False):
            if not slopes:
                return real_rows(delta, length)
            value, slope = real_rows(delta, length, slopes=True)
            return value, -slope

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
            reports.append([l for l in lines
                            if not l.startswith(("wall_clock_s:", "phase_wall_s:"))])
        assert reports[0] == reports[1]


@pytest.fixture(scope="module")
def default_targets(workspace):
    """The default benchmark's three targets (600 series of 128 each), which
    the workspace's checkpoint fits."""
    out = workspace["root"] / "default"
    assert main(["synth", "--seed", "0", "--out", str(out)]) == 0
    return [str(out / f"{tag}.manifest") for tag in ("amp", "warp", "both")]


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
        model, parts = load_checkpoint(workspace["checkpoint"]), []
        for name in ("source", "amp"):
            domain = load_manifest(workspace[name])
            training.export_features(domain, tmp_path / f"{name}.csv",
                                     training._inference(model, domain.samples)[0])
            lines = (tmp_path / f"{name}.csv").read_text().splitlines(keepends=True)
            parts.extend(lines if not parts else lines[1:])
        assert (out / "embeddings.csv").read_text() == "".join(parts)
        assert not [p for p in os.listdir(out) if p.endswith(".tmp")]

    def test_export_features_writes_the_eval_embeddings(self, workspace, default_targets,
                                                        tmp_path):
        # one writer of feature rows: for one target, the function's file of
        # _inference's features is the command's embeddings.csv, byte for byte
        out, features = tmp_path / "ev", tmp_path / "features.csv"
        assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out", str(out),
                     default_targets[0]]) == 0
        domain = load_manifest(default_targets[0])
        z, _ = training._inference(load_checkpoint(workspace["checkpoint"]), domain.samples)
        training.export_features(domain, features, z)
        assert features.read_bytes() == (out / "embeddings.csv").read_bytes()

    def test_one_forward_per_domain(self, workspace, tmp_path, monkeypatch):
        # with the inference worker forced on, every series is forwarded
        # exactly once, in whichever process, in the serial run's chunks,
        # which never span two domains; each chunk logs its series' tags and
        # value digests to one file
        real = training._stack

        def digest(series):
            return hashlib.sha256(series.values.data.tobytes()).hexdigest()

        def chunks(on):
            log = tmp_path / f"forwards-{on}.log"
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

            def logged(samples):
                os.write(fd, (" ".join(f"{s.domain_tag}:{digest(s)}" for s in samples)
                              + "\n").encode())
                return real(samples)

            with monkeypatch.context() as ctx:
                ctx.setattr(training, "_stack", logged)
                forced_eval(ctx, on)
                try:
                    with deadline(60):
                        assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                                     str(tmp_path / f"ev{on}"), workspace["source"],
                                     workspace["amp"]]) == 0
                finally:
                    os.close(fd)
            return [line.split() for line in log.read_text().splitlines()]

        # 18 series per domain: halves of 12 and 6, chunks of 4, 4, 4 and 4, 2
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)
        forked = chunks(True)
        forwarded = [entry for chunk in forked for entry in chunk]
        series = [f"{s.domain_tag}:{digest(s)}" for name in ("source", "amp")
                  for s in load_manifest(workspace[name]).samples]
        assert sorted(forwarded) == sorted(series) and len(set(series)) == 18 + 18
        assert all(len({entry.split(":")[0] for entry in chunk}) == 1 for chunk in forked)
        assert sorted(forked) == sorted(chunks(False))

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    def test_inference_worker_writes_the_serial_bytes(self, workspace, tmp_path, monkeypatch,
                                                      on):
        # two domains of different series lengths, 18 and 18 series in
        # chunks of 4 (neither a multiple): the outputs are the bytes of the
        # serial run, and no worker is left
        longer = tmp_path / "longer.yaml"
        write_config(longer, {"synth_length": 80})
        assert main(["synth", "--config", str(longer), "--out", str(tmp_path / "long")]) == 0
        argv = ["eval", "--checkpoint", workspace["checkpoint"], workspace["amp"],
                str(tmp_path / "long" / "warp.manifest")]
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)
        with monkeypatch.context() as serial:
            forced_eval(serial, False)
            assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
        workers = forced_eval(monkeypatch, on)
        with deadline(60):
            assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        assert workers == [2 if on else 1]
        assert_no_children()
        for name in ("f1.txt", "embeddings.csv"):
            assert ((tmp_path / "run" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    @pytest.fixture
    def targets(self, workspace, tmp_path):
        """amp twice (keys amp and amp#1), amp without its tag (key
        domain2) and a warp target of longer series (key warp)."""
        untagged = copy_manifest(workspace["amp"], tmp_path / "untagged",
                                 lambda line: line[:-len("amp")] if line.endswith(",amp")
                                 else line)
        assert main(["synth", "--config", write_config(tmp_path / "long.yaml",
                                                       {"synth_length": 80}),
                     "--out", str(tmp_path / "long")]) == 0
        return [workspace["amp"], workspace["amp"], untagged,
                str(tmp_path / "long" / "warp.manifest")]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_eval_worker_writes_the_serial_bytes(self, workspace, tmp_path, monkeypatch,
                                                 targets, n):
        # the first n targets: the serial run's f1.txt is evaluate()'s table
        # (its keys too), and the forked run writes the serial bytes; each
        # target of 18 series is 5 forwards, so even one target forks
        argv = ["eval", "--checkpoint", workspace["checkpoint"], *targets[:n]]
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)
        with monkeypatch.context() as serial:
            forced_eval(serial, False)
            assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
        scores, average = evaluate(load_checkpoint(workspace["checkpoint"]),
                                   [load_manifest(m) for m in targets[:n]])
        assert list(scores) == ["amp", "amp#1", "domain2", "warp"][:n]
        width = max(len(key) for key in scores)
        table = "".join(f"{key.ljust(width)}  {f1:.4f}\n"
                        for key, f1 in list(scores.items()) + [("average", average)])
        assert (tmp_path / "serial" / "f1.txt").read_text() == table
        workers = forced_eval(monkeypatch, True)
        with deadline(60):
            assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        assert workers == [2]
        assert_no_children()
        for name in ("f1.txt", "embeddings.csv"):
            assert ((tmp_path / "run" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    @pytest.mark.parametrize("manifests, forks, bad",
                             [(3, 1, False), (1, 1, False), (1, 0, False), (1, 1, True)],
                             ids=["three-targets", "one-target", "one-target-few-forwards",
                                  "bad-row-in-worker-half"])
    def test_one_fork_per_eval_command(self, workspace, tmp_path, monkeypatch, capsys,
                                       fork_count, manifests, forks, bad):
        # with every inference call of two forwards or more shared, one eval
        # command forks once, its inference worker, whatever its target
        # count; a part's inference runs in its own process.  Targets of
        # fewer than INFERENCE_MIN_CHUNKS forwards fork none.  A bad row in
        # the worker's half (series 13 of 18: halves of 12 and 6) fails the
        # command after that one fork: the checks it replays start no process
        targets = [workspace["source"], workspace["amp"], workspace["amp"]][:manifests]
        if bad:
            targets[0], problem = self.bad_csv(workspace, tmp_path, 13)
        argv = ["eval", "--checkpoint", workspace["checkpoint"], "--out", str(tmp_path / "ev"),
                *targets]
        forced_eval(monkeypatch, True)
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)  # 5 forwards per target
        if not forks:
            monkeypatch.setattr(training, "INFERENCE_MIN_CHUNKS", 6)
        with deadline(60):
            assert main(argv) == (2 if bad else 0)
        assert fork_count() == forks
        assert_no_children()
        if bad:
            assert capsys.readouterr().err == f"error: {problem}\n"

    def test_default_environment_starts_no_process(self, workspace, tmp_path, monkeypatch):
        # no BLAS variable: OpenBLAS runs its thread pool, and the eval
        # command stays in this process whatever the CPU and chunk counts
        for name in procs.BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(procs, "fork_cpus", lambda: 2)
        monkeypatch.setattr(training, "EVAL_CHUNK", 1)
        monkeypatch.setattr(training, "INFERENCE_MIN_CHUNKS", 1)
        monkeypatch.setattr(os, "fork", no_process)
        assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                     str(tmp_path / "ev"), workspace["source"], workspace["amp"]]) == 0

    def bad_csv(self, workspace, tmp_path, series=4, edit=lambda line: line):
        """A copy of the amp target, its manifest lines passed through
        ``edit``, whose series ``series`` (of 18: the fifth by default, in
        the first half) reads nan on its line 3; returns its manifest and the
        'path:line:' text of the error."""
        manifest = copy_manifest(workspace["amp"], tmp_path / "bad", edit)
        line_no = series * SMALL["synth_length"] + 3
        series = tmp_path / "bad" / "amp.csv"
        rows = series.read_text().splitlines()
        rows[line_no - 1] = "nan"
        series.write_text("\n".join(rows) + "\n")
        return manifest, f"{series}:{line_no}: non-finite value"

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    def test_bad_csv_line_in_worker_share_exits_2_naming_it(self, workspace, tmp_path,
                                                            monkeypatch, capsys, on):
        # the second target (18 series: one whole part) is the worker's
        bad, problem = self.bad_csv(workspace, tmp_path)
        workers = forced_eval(monkeypatch, on)
        with deadline(60):
            assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                         str(tmp_path / "ev"), workspace["source"], bad]) == 2
        assert workers == [2 if on else 1]
        assert_no_children()
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert os.listdir(tmp_path / "ev") == ["config_echo.yaml"]  # no part file is left

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    def test_unwritable_part_reports_its_own_error(self, workspace, tmp_path, monkeypatch,
                                                   capsys, on):
        # the second target's part (18 series: one whole part, the worker's)
        # cannot write its rows file; every manifest loads and fits when the
        # command replays the serial checks, so the part's error is raised
        real = cli.export_features

        def full(dataset, path, *args, **kwargs):
            if os.path.basename(path).startswith("1-"):
                raise OSError("disk full")
            return real(dataset, path, *args, **kwargs)

        monkeypatch.setattr(cli, "export_features", full)
        workers = forced_eval(monkeypatch, on)
        with deadline(60):
            assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                         str(tmp_path / "ev"), workspace["source"], workspace["amp"]]) == 2
        assert workers == [2 if on else 1]
        assert_no_children()
        assert capsys.readouterr().err == "error: disk full\n"
        assert os.listdir(tmp_path / "ev") == ["config_echo.yaml"]

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("bad", [False, True], ids=["ok", "bad-in-parent-share"])
    def test_out_holds_only_the_outputs(self, workspace, tmp_path, monkeypatch, capsys, on,
                                        bad):
        # each target (18 series) is one whole part, the first the parent's
        # and the second the worker's: whether the command succeeds or the
        # parent's part fails, the parts' files are gone after it, and its
        # exit code and messages are those of a serial run
        targets = [workspace["amp"], workspace["source"]]
        if bad:
            targets[0], problem = self.bad_csv(workspace, tmp_path)
        workers = forced_eval(monkeypatch, on)
        with deadline(60):
            code = main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                         str(tmp_path / "ev"), *targets])
        assert workers == [2 if on else 1]
        assert_no_children()
        out, err = capsys.readouterr()
        if bad:
            assert (code, out, err) == (2, "", f"error: {problem}\n")
            assert os.listdir(tmp_path / "ev") == ["config_echo.yaml"]
        else:
            assert (code, err) == (0, "")
            assert out == (tmp_path / "ev" / "f1.txt").read_text()
            assert sorted(os.listdir(tmp_path / "ev")) == ["config_echo.yaml", "embeddings.csv",
                                                           "f1.txt"]

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("lead", [0, 1], ids=["first", "after-a-good-one"])
    @pytest.mark.parametrize("first", ["unloadable", "unfit"])
    def test_first_bad_manifest_in_command_line_order_reported(
            self, workspace, tmp_path, monkeypatch, capsys, on, lead, first):
        # one target fails to load, another does not fit the checkpoint (4
        # classes declared for its 3): the earlier of the two on the command
        # line is reported, whichever process read it
        unloadable, problem = self.bad_csv(workspace, tmp_path)
        unfit = copy_manifest(workspace["amp"], tmp_path / "four",
                              lambda line: line + " class3" if line.startswith("classes:")
                              else line)
        bad = [unloadable, unfit] if first == "unloadable" else [unfit, unloadable]
        forced_eval(monkeypatch, on)
        with deadline(60):
            assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                         str(tmp_path / "ev"), *[workspace["source"]] * lead, *bad]) == 2
        assert_no_children()
        err = capsys.readouterr().err
        if first == "unloadable":
            assert err == f"error: {problem}\n"
        else:
            assert err.startswith(f"error: {unfit} holds 1-channel series of 4 classes")

    @staticmethod
    def four_classes(line):
        """A manifest edit that declares 4 classes, so the checkpoint's 3 do
        not fit it."""
        return line + " class3" if line.startswith("classes:") else line

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("series", [4, 13], ids=["first-half", "second-half"])
    @pytest.mark.parametrize("unfit", ["next-target", "same-target"])
    def test_bad_line_in_either_half_reported_before_an_unfit_target(
            self, workspace, tmp_path, monkeypatch, capsys, on, series, unfit):
        # the first target's bad line, in the half the parent reads or in the
        # worker's, comes before the next target's misfit and before its own
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)  # halves of 12 and 6 series
        bad, problem = self.bad_csv(workspace, tmp_path, series,
                                    self.four_classes if unfit == "same-target" else str)
        targets = [bad] + [copy_manifest(workspace["amp"], tmp_path / "four",
                                         self.four_classes)] * (unfit == "next-target")
        workers = forced_eval(monkeypatch, on)
        with deadline(60):
            assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                         str(tmp_path / "ev"), *targets, workspace["source"]]) == 2
        assert workers == [2 if on else 1]
        assert_no_children()
        assert capsys.readouterr().err == f"error: {problem}\n"

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("unreadable_first", [False, True])
    @pytest.mark.parametrize("kind", ["bad-length", "missing"])
    def test_unreadable_manifest_reported_in_command_line_order(
            self, workspace, tmp_path, monkeypatch, capsys, on, unreadable_first, kind):
        # the command checks every manifest before it starts; an unreadable
        # one is still reported only where a serial run meets it
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)  # halves of 12 and 6 series
        bad, problem = self.bad_csv(workspace, tmp_path, 13)
        unreadable = (copy_manifest(workspace["amp"], tmp_path / "unreadable",
                                    lambda line: "length: 0" if line.startswith("length:")
                                    else line)
                      if kind == "bad-length" else str(tmp_path / "missing.manifest"))
        targets = [unreadable, bad] if unreadable_first else [bad, unreadable]
        forced_eval(monkeypatch, on)
        with deadline(60):
            assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                         str(tmp_path / "ev"), *targets]) == 2
        assert_no_children()
        err = capsys.readouterr().err
        if unreadable_first:
            assert f"{unreadable}" in err and ("length must be" in err
                                               or "No such file" in err)
        else:
            assert err == f"error: {problem}\n"

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("rows", [-1, 1], ids=["one-row-short", "one-row-long"])
    def test_row_count_reported_for_the_whole_file(self, workspace, tmp_path, monkeypatch,
                                                   capsys, on, rows):
        manifest = copy_manifest(workspace["amp"], tmp_path / "bad")
        series = tmp_path / "bad" / "amp.csv"
        lines = series.read_text().splitlines()
        series.write_text("\n".join(lines[:rows] if rows < 0 else lines + lines[:rows]) + "\n")
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)  # halves of 12 and 6 series
        forced_eval(monkeypatch, on)
        with deadline(60):
            assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                         str(tmp_path / "ev"), workspace["source"], manifest]) == 2
        assert_no_children()
        assert capsys.readouterr().err == (
            f"error: {series}: series shape (1, {len(lines) + rows}), manifest says "
            f"(1,{len(lines)}) for 18 series of length {SMALL['synth_length']}\n")

    @pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
    def test_first_named_file_reported_when_a_half_fails_in_another(
            self, workspace, tmp_path, monkeypatch, capsys, on):
        # 8 entries alternate between a.csv and b.csv, halves of 4 entries;
        # a.csv's bad row is in the second half, b.csv's in the first, which
        # fails on b.csv and then reports a.csv's, as a serial run does
        samples = load_manifest(workspace["amp"]).samples[:8]
        length = SMALL["synth_length"]
        for name, bad_row in (("a", 3 * length + 2), ("b", 0)):
            _write_series_csv(str(tmp_path / f"{name}.csv"),
                              [s.values.data for s in samples["ab".index(name)::2]])
            rows = (tmp_path / f"{name}.csv").read_text().splitlines()
            rows[bad_row] = "nan"
            (tmp_path / f"{name}.csv").write_text("\n".join(rows) + "\n")
        manifest = write_manifest(tmp_path / "ab.manifest", Dataset(samples, 3),
                                  [f"{'ab'[i % 2]}.csv,class{s.label},{s.domain_tag}"
                                   for i, s in enumerate(samples)])
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)
        forced_eval(monkeypatch, on)
        with deadline(60):
            assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                         str(tmp_path / "ev"), manifest, workspace["source"]]) == 2
        assert_no_children()
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'a.csv'}:{3 * length + 3}: non-finite value\n")

    @pytest.fixture
    def layouts(self, workspace, tmp_path):
        """The amp target cut to 17 series (halves of 12 and 5 in chunks of
        4), cut to one (a whole part), and in the v1 layout (one file per
        series)."""
        amp = load_manifest(workspace["amp"])
        return {"odd": save_dataset(Dataset(amp.samples[:17], 3), str(tmp_path / "odd"), "amp"),
                "one-series": save_dataset(Dataset(amp.samples[:1], 3), str(tmp_path / "one"),
                                           "amp"),
                "v1": save_v1(amp, str(tmp_path / "v1"), "amp")}

    @pytest.mark.parametrize("lead", [0, 1], ids=["first", "after-a-good-one"])
    @pytest.mark.parametrize("layout", ["odd", "one-series", "v1"])
    def test_halves_write_the_serial_bytes(self, workspace, tmp_path, monkeypatch, layouts,
                                           layout, lead):
        argv = ["eval", "--checkpoint", workspace["checkpoint"],
                *[workspace["source"]] * lead, layouts[layout], workspace["amp"]]
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)
        with monkeypatch.context() as serial:
            forced_eval(serial, False)
            assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
        workers = forced_eval(monkeypatch, True)
        with deadline(60):
            assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        assert workers == [2]
        assert_no_children()
        for name in ("f1.txt", "embeddings.csv"):
            assert ((tmp_path / "run" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    def test_every_target_keyed_once(self, workspace, tmp_path, monkeypatch):
        # tags amp, amp#2 and amp: keys amp, amp#2 and amp#3, all three in
        # the average, forked or not
        renamed = copy_manifest(workspace["amp"], tmp_path / "renamed",
                                lambda line: line + "#2" if line.endswith(",amp") else line)
        targets = [workspace["amp"], renamed, workspace["amp"]]
        monkeypatch.setattr(training, "EVAL_CHUNK", 4)  # halves of 12 and 6 series
        scores, average = evaluate(load_checkpoint(workspace["checkpoint"]),
                                   [load_manifest(m) for m in targets])
        assert list(scores) == ["amp", "amp#2", "amp#3"]
        table = "".join(f"{key.ljust(5)}  {f1:.4f}\n"
                        for key, f1 in list(scores.items()) + [("average", average)])
        for on in (False, True):
            with monkeypatch.context() as ctx:
                forced_eval(ctx, on)
                with deadline(60):
                    assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                                 str(tmp_path / f"ev{on}"), *targets]) == 0
            assert (tmp_path / f"ev{on}" / "f1.txt").read_text() == table

    def test_dead_eval_worker_raises_naming_exit_code(self, workspace, tmp_path, monkeypatch):
        parent, real = os.getpid(), cli.load_manifest

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(cli, "load_manifest", dying)
        forced_eval(monkeypatch, True)
        with deadline(60), pytest.raises(RuntimeError, match=r"^inference worker \d+ exited "
                                         r"with code 3 before sending its rows$"):
            main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                  str(tmp_path / "ev"), workspace["source"], workspace["amp"]])
        assert_no_children()
        assert os.listdir(tmp_path / "ev") == ["config_echo.yaml"]

    def test_non_finite_series_exit_2(self, workspace, tmp_path, capsys):
        bad, problem = self.bad_csv(workspace, tmp_path)
        code = main(["eval", "--checkpoint", workspace["checkpoint"],
                     "--out", str(tmp_path / "ev"), bad])
        assert code == 2
        assert problem in capsys.readouterr().err

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


class TestEvalWorkingSet:
    # The eval command over the default benchmark's three targets, forked
    # and serial.  A part writes its embedding rows to a file of its own, so
    # neither process holds them as text and the worker pickles only its
    # parts' file paths, labels and logits.

    def test_worker_share_fits_a_pipe(self, workspace, default_targets, tmp_path,
                                      monkeypatch):
        # under a pipe's 64 KiB the worker's pickle.dump never waits for the
        # parent to read it; its 1.5 targets' row text alone is about 790 KB
        parent, real, log = os.getpid(), pickle.dump, tmp_path / "share.bytes"

        def measured(obj, file, *args, **kwargs):
            if os.getpid() != parent:
                log.write_text(str(len(pickle.dumps(obj, *args, **kwargs))))
            return real(obj, file, *args, **kwargs)

        monkeypatch.setattr(pickle, "dump", measured)
        workers = forced_eval(monkeypatch, True)
        with deadline(60):
            assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                         str(tmp_path / "ev"), *default_targets]) == 0
        assert workers == [2]
        assert_no_children()
        assert int(log.read_text()) < 64 * 1024

    # Bounds measured with numpy 2.4.6, a few percent above the peaks of one
    # command after a warm one when inference forwarded in float64: 2.69 MiB
    # serial and 2.18 forked (this process's peak only), against 3.74 and
    # 2.73 when each part returned its rows as text.  With float32 forwards
    # the peaks are 2.11 and 1.60 MiB.
    @measured_numpy
    @pytest.mark.parametrize("on, bound", [(False, 2.8), (True, 2.3)], ids=["serial", "forked"])
    def test_command_peak(self, workspace, default_targets, tmp_path, monkeypatch, on, bound):
        workers = forced_eval(monkeypatch, on)

        def command():
            assert main(["eval", "--checkpoint", workspace["checkpoint"], "--out",
                         str(tmp_path / "ev"), *default_targets]) == 0

        with deadline(120):
            peak = _traced_peak(command)
        assert workers == [2 if on else 1] * 2
        assert_no_children()
        assert peak < bound * 2 ** 20


@pytest.mark.parametrize("shape", [(2, 3), (1, 4)], ids=["channels", "classes"])
@pytest.mark.parametrize("command", ["eval", "augment"])
def test_checkpoint_not_fitting_manifest_exits_2_naming_both(workspace, tmp_path, capsys,
                                                             command, shape):
    # the manifest holds 1-channel series of 3 classes
    ckpt = tmp_path / "other.bin"
    save_checkpoint(Classifier(*shape), str(ckpt))
    argv = {"eval": ["eval", workspace["source"]],
            "augment": ["augment", "--manifest", workspace["source"]]}[command]
    assert main(argv + ["--config", workspace["config"], "--checkpoint", str(ckpt),
                        "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err and workspace["source"] in err
    assert "1-channel series of 3 classes" in err


@pytest.mark.parametrize("command", ["train", "augment"])
def test_window_longer_than_the_series_names_m_window(workspace, tmp_path, capsys, command):
    # m_window 100 needs 201 samples, and the series hold 64
    argv = {"train": ["train"],
            "augment": ["augment", "--checkpoint", workspace["checkpoint"],
                        "--manifest", workspace["source"]]}[command]
    config = write_config(tmp_path / "wide.yaml", {"m_window": 100, "phi_max": 5.0})
    assert main(argv + ["--config", config, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error: m_window 100 needs series of at least 201 "
                                       "samples (2 * m_window + 1), but the series have 64\n")


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
