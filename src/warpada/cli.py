"""Command-line front-end: config files in, datasets/checkpoints/reports out.

Hyperparameters live in a YAML config file; flags cover only paths, seed
and mode.  Once the config loads, every command first writes a
``config_echo.yaml`` with the fully resolved settings to its output
directory, so an unusable ``--out`` fails before any work.  Exit codes: 0
success, 1 check failure, 2 usage or config error, a malformed input file,
a checkpoint that does not fit a manifest, or a path that cannot be read or
written.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import yaml

from .adversarial import MODES, AdvConfig, AdvSample
from .data import (check_savable, default_spec, load_manifest, read_manifest, save_dataset,
                   synth_generate)
from .gradcheck import format_table, run_checks
from .model import Classifier, load_checkpoint, save_checkpoint
from .training import (Dataset, _inference, _share_domains, evaluate, export_features,
                       maximize_phase, run)

__all__ = ["RunConfig", "ConfigError", "load_config", "main"]


class ConfigError(ValueError):
    """Bad or missing config file, or a bad flag combination."""


_SYNTH = default_spec()  # default_spec holds the one copy of each benchmark default
_SHIFT = {t.kind: t for t in _SYNTH.targets}


@dataclass(frozen=True)
class RunConfig(AdvConfig):
    """Resolved settings for one command invocation: every AdvConfig field,
    with AdvConfig's default and validation, plus paths and the synthetic
    benchmark's keys.

    Every field has a working default, so an empty config file is valid.
    Seed precedence: --seed flag, then WARPADA_SEED, then the config file,
    then the default.
    """

    out_dir: str = "runs/out"
    train_manifest: str = ""  # empty: train on the synthetic source domain
    synth_length: int = _SYNTH.length
    synth_n_per_class: int = _SYNTH.n_per_class
    synth_noise_sigma: float = _SYNTH.noise_sigma
    synth_amp_scale: float = _SHIFT["amplitude"].scale
    synth_amp_offset: float = _SHIFT["amplitude"].offset
    synth_warp_d: float = _SHIFT["warp"].warp_d

    def adv_config(self) -> AdvConfig:
        return AdvConfig(**{f.name: getattr(self, f.name) for f in fields(AdvConfig)})

    def synth_spec(self):
        """default_spec with the synth_* keys applied to it and its targets.
        A value the spec rejects raises ValueError naming its config key."""
        def retarget(shift):
            changes = {}
            if shift.kind in ("amplitude", "both"):
                changes.update(scale=self.synth_amp_scale, offset=self.synth_amp_offset)
            if shift.kind in ("warp", "both"):
                changes.update(warp_d=self.synth_warp_d)
            return replace(shift, **changes)

        base = default_spec(seed=self.seed)
        try:
            return replace(base, length=self.synth_length,
                           n_per_class=self.synth_n_per_class,
                           noise_sigma=self.synth_noise_sigma,
                           targets=tuple(retarget(t) for t in base.targets))
        except ValueError as exc:  # the spec names its fields; say which key set each
            keys = {"length": "synth_length", "n_per_class": "synth_n_per_class",
                    "noise_sigma": "synth_noise_sigma", "warp_d": "synth_warp_d"}
            raise ValueError(re.sub(r"\b(" + "|".join(keys) + r")\b",
                                    lambda m: keys[m.group()], str(exc))) from None


def _coerce(name: str, value, default):
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {name!r} must be an integer, got {value!r}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {name!r} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # nan, inf, or an int beyond float range
            raise ConfigError(f"config key {name!r} must be finite, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key {name!r} must be a string, got {value!r}")
        return value
    raise ConfigError(f"config key {name!r} has unsupported type")


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Read a YAML mapping, reject unknown keys, apply the WARPADA_SEED
    environment variable and then any non-None flag overrides, and check the
    result as AdvConfig and as a synthetic benchmark spec."""
    raw: dict = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})")
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int too long to parse
            raise ConfigError(f"{path}: not valid YAML ({exc})")
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a key-value mapping")
        raw.update(loaded)

    defaults = {f.name: f.default for f in fields(RunConfig)}
    for key in raw:
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
    resolved = {k: _coerce(k, v, defaults[k]) for k, v in raw.items()}

    env_seed = os.environ.get("WARPADA_SEED")
    if env_seed is not None:
        try:
            resolved["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"WARPADA_SEED must be an integer, got {env_seed!r}")

    for key, value in (overrides or {}).items():
        if value is not None:
            resolved[key] = _coerce(key, value, defaults[key])

    try:
        cfg = RunConfig(**resolved)
        cfg.synth_spec()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None
    return cfg


# libyaml's dumper where PyYAML has it (0.32 against 0.70 ms per default echo,
# 2-core x86): its bytes may differ from SafeDumper's, but both load back.
_ECHO_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _write_echo(cfg: RunConfig) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config_echo.yaml"), "w",
              encoding="utf-8") as fh:
        yaml.dump(asdict(cfg), fh, Dumper=_ECHO_DUMPER, sort_keys=True,
                  default_flow_style=False)


def _check_fits(model: Classifier, checkpoint: str, dataset: Dataset, manifest: str) -> None:
    if (dataset.channels, dataset.n_classes) != (model.in_channels, model.n_classes):
        raise ValueError(f"{manifest} holds {dataset.channels}-channel series of "
                         f"{dataset.n_classes} classes, but {checkpoint} is a model for "
                         f"{model.in_channels} channels and {model.n_classes} classes")


def cmd_synth(cfg: RunConfig) -> int:
    spec = cfg.synth_spec()
    source, targets = synth_generate(spec)
    named = [("source", source)] + [(s.tag, d) for s, d in zip(spec.targets, targets)]
    for name, domain in named:  # a refused dataset leaves none written
        check_savable(domain, name)
    for name, domain in named:
        print(save_dataset(domain, cfg.out_dir, name))
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    results = run_checks(seed=cfg.seed)
    table = format_table(results)
    print(table)
    with open(os.path.join(cfg.out_dir, "gradcheck_report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(table + "\n")
    return 0 if all(r.ok for r in results) else 1


def cmd_augment(cfg: RunConfig, checkpoint: str, manifest: str) -> int:
    model = load_checkpoint(checkpoint)
    dataset = load_manifest(manifest)
    _check_fits(model, checkpoint, dataset, manifest)
    adv = maximize_phase(model, dataset, cfg.adv_config())
    augmented = Dataset([s.series for s in adv], dataset.n_classes)
    manifest_out = save_dataset(augmented, cfg.out_dir, "augmented")
    _write_generation_logs(adv, cfg.out_dir)
    print(manifest_out)
    return 0


def _write_generation_logs(adv: list[AdvSample], out_dir: str) -> None:
    """``objectives.csv``: one origin_id,mode,objective row per sample, the
    objective as %.12g.  ``paths.csv``: one origin_id,mode,displacements row
    per warped sample, each displacement as %.17g (exact round trip).  Each
    row is written as it is formatted, so neither file is held whole."""
    with open(os.path.join(out_dir, "objectives.csv"), "w", encoding="utf-8") as fh:
        fh.write("origin_id,mode,objective\n")
        fh.writelines("%d,%s,%.12g\n" % (s.origin_id, s.mode, s.objective) for s in adv)
    warped = [s for s in adv if s.path is not None]
    with open(os.path.join(out_dir, "paths.csv"), "w", encoding="utf-8") as fh:
        if warped:
            row = "%d,%s," + ",".join(["%.17g"] * len(warped[0].path)) + "\n"
            fh.writelines(row % (s.origin_id, s.mode, *s.path.tolist()) for s in warped)


def cmd_train(cfg: RunConfig) -> int:
    if cfg.train_manifest:
        d0 = load_manifest(cfg.train_manifest)
    else:
        d0, _ = synth_generate(cfg.synth_spec())
    model, report = run(d0, cfg.adv_config())
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.bin")
    save_checkpoint(model, ckpt_path)
    report_path = os.path.join(cfg.out_dir, "report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_text() + "\n")
    print(ckpt_path)
    print(report_path)
    return 0


def cmd_eval(cfg: RunConfig, checkpoint: str, manifests: list[str]) -> int:
    """f1.txt and embeddings.csv of the target datasets, in command-line
    order.  Every manifest is read first (read_manifest, which reads no
    series).  _share_domains then runs the parts, whole manifests or halves
    of them, in one process or two: a part loads its entries, checks their
    fit, runs them through the model and writes their rows to a file of
    its own in a temporary directory inside the output directory, returning
    the file's path and the logits.  This process joins the part files into
    embeddings.csv and scores each manifest over its parts' logits; leaving
    the directory removes it.  A ValueError or OSError on the way replays a
    serial run's checks here (each manifest loaded whole, then fitted, in
    command-line order) and raises the first that fails, else the error
    itself.  The files are the bytes of a serial run."""
    model = load_checkpoint(checkpoint)
    try:
        sources = [read_manifest(path) for path in manifests]
        with tempfile.TemporaryDirectory(dir=cfg.out_dir) as parts_dir:
            def part(m, entries):
                """Manifest m's entries: the path of the file holding their
                embedding rows (after the header, for the first part) and
                their logits."""
                domain = load_manifest(sources[m], entries)
                _check_fits(model, checkpoint, domain, manifests[m])
                z, logits = _inference(model, domain.samples)
                first = entries.start or 0
                part_file = os.path.join(parts_dir, f"{m}-{first}.csv")
                export_features(domain, part_file, z, header=m == first == 0, first=first)
                return part_file, logits

            done = _share_domains(part, [len(s.entries) for s in sources], "rows")
            with open(os.path.join(cfg.out_dir, "embeddings.csv"), "wb") as fh:
                for parts in done:
                    for part_file, _ in parts:
                        with open(part_file, "rb") as rows:
                            shutil.copyfileobj(rows, fh)
    except (ValueError, OSError):  # reported as a serial run meets it
        for path in manifests:
            _check_fits(model, checkpoint, load_manifest(path), path)
        raise
    domains = [(source.entries[0][3], [label for _, _, label, _ in source.entries])
               for source in sources]
    logits = [np.concatenate([part_logits for _, part_logits in parts]) for parts in done]
    scores, average = evaluate(model, domains, logits)
    width = max(len(k) for k in scores)
    lines = [f"{tag.ljust(width)}  {f1:.4f}" for tag, f1 in scores.items()]
    lines.append(f"{'average'.ljust(width)}  {average:.4f}")
    table = "\n".join(lines)
    print(table)
    with open(os.path.join(cfg.out_dir, "f1.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpada",
        description="Adversarial time-warp augmentation: synthesize "
                    "benchmarks, audit gradients, train, and evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="YAML config file (defaults apply when omitted)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="override the output directory")

    sp = sub.add_parser("synth", help="generate the synthetic benchmark")
    common(sp)
    sp.set_defaults(run=lambda cfg, args: cmd_synth(cfg))

    sp = sub.add_parser("gradcheck",
                        help="audit every gradient path against finite differences")
    common(sp)
    sp.set_defaults(run=lambda cfg, args: cmd_gradcheck(cfg))

    sp = sub.add_parser("augment",
                        help="generate adversarial samples for a dataset")
    common(sp)
    sp.add_argument("--checkpoint", required=True, metavar="FILE")
    sp.add_argument("--manifest", required=True, metavar="FILE")
    sp.add_argument("--mode", default=None, choices=[m for m in MODES if m != "erm"])
    sp.set_defaults(run=lambda cfg, args: cmd_augment(cfg, args.checkpoint, args.manifest))

    sp = sub.add_parser("train", help="run the alternating training loop")
    common(sp)
    sp.add_argument("--mode", default=None, choices=MODES)
    sp.add_argument("--manifest", default=None, metavar="FILE", dest="train_manifest",
                    help="train on this dataset instead of the synthetic source")
    sp.set_defaults(run=lambda cfg, args: cmd_train(cfg))

    sp = sub.add_parser("eval", help="macro-F1 per domain plus embeddings")
    common(sp)
    sp.add_argument("--checkpoint", required=True, metavar="FILE")
    sp.add_argument("manifests", nargs="+", metavar="MANIFEST")
    sp.set_defaults(run=lambda cfg, args: cmd_eval(cfg, args.checkpoint, args.manifests))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "mode": getattr(args, "mode", None),
        "train_manifest": getattr(args, "train_manifest", None) or None,  # "" keeps the config's
    }
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "augment" and cfg.mode == "erm":
            raise ConfigError("mode 'erm' generates no adversarial samples; "
                              "pick ada, tada, or tada_plus")
        _write_echo(cfg)
        return args.run(cfg, args)
    except (ValueError, OSError) as exc:  # ConfigError included; both name the path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
