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
import io
import os
import re
import sys
from dataclasses import asdict, dataclass, fields, replace

import yaml

from .adversarial import AdvConfig, AdvSample, map_chunks
from .data import default_spec, load_manifest, save_dataset, synth_generate
from .gradcheck import format_table, run_checks
from .model import Classifier, load_checkpoint, save_checkpoint
from .training import (Dataset, _inference, _keyed_scores, _second_cpu, evaluate,
                       export_features, maximize_phase, run)

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


def _write_echo(cfg: RunConfig) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config_echo.yaml"), "w",
              encoding="utf-8") as fh:
        yaml.safe_dump(asdict(cfg), fh, sort_keys=True, default_flow_style=False)


def _check_fits(model: Classifier, checkpoint: str, dataset: Dataset, manifest: str) -> None:
    if (dataset.channels, dataset.n_classes) != (model.in_channels, model.n_classes):
        raise ValueError(f"{manifest} holds {dataset.channels}-channel series of "
                         f"{dataset.n_classes} classes, but {checkpoint} is a model for "
                         f"{model.in_channels} channels and {model.n_classes} classes")


def cmd_synth(cfg: RunConfig) -> int:
    spec = cfg.synth_spec()
    source, targets = synth_generate(spec)
    written = [save_dataset(source, cfg.out_dir, "source")]
    for shift, domain in zip(spec.targets, targets):
        written.append(save_dataset(domain, cfg.out_dir, shift.tag))
    for path in written:
        print(path)
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
    per warped sample, each displacement as %.17g (exact round trip)."""
    with open(os.path.join(out_dir, "objectives.csv"), "w", encoding="utf-8") as fh:
        fh.write("origin_id,mode,objective\n")
        fh.write("".join("%d,%s,%.12g\n" % (s.origin_id, s.mode, s.objective)
                         for s in adv))
    warped = [s for s in adv if s.path is not None]
    with open(os.path.join(out_dir, "paths.csv"), "w", encoding="utf-8") as fh:
        if warped:
            row = "%d,%s," + ",".join(["%.17g"] * len(warped[0].path)) + "\n"
            fh.write("".join(row % (s.origin_id, s.mode, *s.path.tolist())
                             for s in warped))


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
    order.  Each manifest is loaded, checked against the checkpoint, run
    through the model, formatted and scored as one unit; with two or more,
    and under _second_cpu's rule, one forked eval worker takes every second
    unit (adversarial.map_chunks), so an error is the first manifest's in
    command-line order.  The files are the bytes of a serial run."""
    model = load_checkpoint(checkpoint)

    def score(k: int) -> tuple[str, str, float]:
        """Manifest k's embedding rows (after the header, for the first),
        its domain tag and its macro-F1."""
        domain = load_manifest(manifests[k])
        _check_fits(model, checkpoint, domain, manifests[k])
        z, logits = _inference(model, domain.samples)
        rows = io.StringIO()
        export_features(model, domain, rows, header=k == 0, features=z)
        [f1] = evaluate(model, [domain], [logits])[0].values()
        return rows.getvalue(), domain.samples[0].domain_tag, f1

    workers = 2 if len(manifests) > 1 and _second_cpu() else 1
    done = map_chunks(score, list(range(len(manifests))), workers, "eval worker", "rows")
    with open(os.path.join(cfg.out_dir, "embeddings.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(rows for rows, _, _ in done)
    scores, average = _keyed_scores([tag for _, tag, _ in done], [f1 for _, _, f1 in done])
    width = max(len(k) for k in scores)
    lines = [f"{tag.ljust(width)}  {f1:.4f}" for tag, f1 in scores.items()]
    lines.append(f"{'average'.ljust(width)}  {average:.4f}")
    table = "\n".join(lines)
    print(table)
    with open(os.path.join(cfg.out_dir, "f1.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    return 0


def cmd_export_features(cfg: RunConfig, checkpoint: str, manifest: str,
                        output: str | None) -> int:
    model = load_checkpoint(checkpoint)
    dataset = load_manifest(manifest)
    _check_fits(model, checkpoint, dataset, manifest)
    out_path = output or os.path.join(cfg.out_dir, "features.csv")
    export_features(model, dataset, out_path)
    print(out_path)
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

    sp = sub.add_parser("gradcheck",
                        help="audit every gradient path against finite differences")
    common(sp)

    sp = sub.add_parser("augment",
                        help="generate adversarial samples for a dataset")
    common(sp)
    sp.add_argument("--checkpoint", required=True, metavar="FILE")
    sp.add_argument("--manifest", required=True, metavar="FILE")
    sp.add_argument("--mode", default=None,
                    choices=["ada", "tada", "tada_plus"])

    sp = sub.add_parser("train", help="run the alternating training loop")
    common(sp)
    sp.add_argument("--mode", default=None,
                    choices=["erm", "ada", "tada", "tada_plus"])
    sp.add_argument("--manifest", default=None, metavar="FILE",
                    help="train on this dataset instead of the synthetic source")

    sp = sub.add_parser("eval", help="macro-F1 per domain plus embeddings")
    common(sp)
    sp.add_argument("--checkpoint", required=True, metavar="FILE")
    sp.add_argument("manifests", nargs="+", metavar="MANIFEST")

    sp = sub.add_parser("export-features",
                        help="write pooled features for every sample")
    common(sp)
    sp.add_argument("--checkpoint", required=True, metavar="FILE")
    sp.add_argument("--manifest", required=True, metavar="FILE")
    sp.add_argument("--output", default=None, metavar="FILE")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "mode": getattr(args, "mode", None),
    }
    if args.command == "train" and getattr(args, "manifest", None):
        overrides["train_manifest"] = args.manifest
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "augment" and cfg.mode == "erm":
            raise ConfigError("mode 'erm' generates no adversarial samples; "
                              "pick ada, tada, or tada_plus")
        _write_echo(cfg)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        if args.command == "augment":
            return cmd_augment(cfg, args.checkpoint, args.manifest)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.manifests)
        if args.command == "export-features":
            return cmd_export_features(cfg, args.checkpoint, args.manifest,
                                       args.output)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:  # ConfigError included; both name the path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
