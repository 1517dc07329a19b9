"""Command-line front-end: config files in, datasets/checkpoints/reports out.

Hyperparameters live in a YAML config file; flags cover only paths, seed
and mode.  Every command writes a ``config_echo.yaml`` with
the fully resolved settings next to its outputs.  Exit codes: 0 success,
1 check failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import yaml

from .adversarial import AdvConfig
from .data import DomainShift, default_spec, load_manifest, save_dataset, synth_generate
from .gradcheck import format_table, run_checks
from .model import load_checkpoint, save_checkpoint
from .training import Dataset, evaluate, export_features, maximize_phase, run

__all__ = ["RunConfig", "ConfigError", "load_config", "main"]


class ConfigError(ValueError):
    """Bad config file, bad flag combination, or missing input path."""


_ADV = AdvConfig()  # AdvConfig holds the one copy of each hyperparameter default


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation.

    Every field has a working default, so an empty config file is valid.
    Each AdvConfig field is a key here, with AdvConfig's default.
    Seed precedence: --seed flag, then WARPADA_SEED, then the config file,
    then the default.
    """

    seed: int = _ADV.seed
    out_dir: str = "runs/out"
    train_manifest: str = ""  # empty: train on the synthetic source domain
    eval_manifests: tuple[str, ...] = ()
    mode: str = _ADV.mode
    combine: str = _ADV.combine
    gamma: float = _ADV.gamma
    eta: float = _ADV.eta
    eta_ada: float = _ADV.eta_ada
    t_max: int = _ADV.t_max
    t_min: int = _ADV.t_min
    k_rounds: int = _ADV.k_rounds
    t_final: int = _ADV.t_final
    m_window: int = _ADV.m_window
    phi_max: float = _ADV.phi_max
    me_beta: float = _ADV.me_beta
    lr: float = _ADV.lr
    batch: int = _ADV.batch
    synth_length: int = 128
    synth_n_per_class: int = 200
    synth_noise_sigma: float = 0.3
    synth_amp_scale: float = 1.5
    synth_amp_offset: float = 0.6
    synth_warp_d: float = 8.0

    def adv_config(self) -> AdvConfig:
        return AdvConfig(**{f.name: getattr(self, f.name) for f in fields(AdvConfig)})

    def synth_spec(self):
        base = default_spec(seed=self.seed)
        targets = (
            DomainShift(kind="amplitude", tag="amp",
                        scale=self.synth_amp_scale, offset=self.synth_amp_offset),
            DomainShift(kind="warp", tag="warp", warp_d=self.synth_warp_d),
            DomainShift(kind="both", tag="both",
                        scale=self.synth_amp_scale, offset=self.synth_amp_offset,
                        warp_d=self.synth_warp_d),
        )
        return replace(base, length=self.synth_length,
                       n_per_class=self.synth_n_per_class,
                       noise_sigma=self.synth_noise_sigma,
                       targets=targets, seed=self.seed)


def _coerce(name: str, value, default):
    if isinstance(default, bool):  # no bool fields today; guard anyway
        if not isinstance(value, bool):
            raise ConfigError(f"config key {name!r} must be a boolean, got {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {name!r} must be an integer, got {value!r}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {name!r} must be a number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key {name!r} must be a string, got {value!r}")
        return value
    if isinstance(default, tuple):
        if isinstance(value, str):
            return (value,)
        if not isinstance(value, (list, tuple)) or not all(
                isinstance(v, str) for v in value):
            raise ConfigError(f"config key {name!r} must be a list of paths")
        return tuple(value)
    raise ConfigError(f"config key {name!r} has unsupported type")


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Read a YAML mapping, reject unknown keys, apply the WARPADA_SEED
    environment variable and then any non-None flag overrides."""
    raw: dict = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML ({exc})")
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a key-value mapping")
        raw.update(loaded)

    defaults = {f.name: f.default for f in fields(RunConfig)}
    # the tuple default comes through as a field default, not default_factory
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

    return RunConfig(**resolved)


def _write_echo(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    data = asdict(cfg)
    data["eval_manifests"] = list(cfg.eval_manifests)
    with open(os.path.join(out_dir, "config_echo.yaml"), "w",
              encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=True, default_flow_style=False)


def _load_ckpt(path: str):
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


def _load_mani(path: str) -> Dataset:
    if not os.path.exists(path):
        raise ConfigError(f"manifest not found: {path}")
    return load_manifest(path)


def cmd_synth(cfg: RunConfig) -> int:
    spec = cfg.synth_spec()
    source, targets = synth_generate(spec)
    written = [save_dataset(source, cfg.out_dir, "source")]
    for shift, domain in zip(spec.targets, targets):
        written.append(save_dataset(domain, cfg.out_dir, shift.tag))
    _write_echo(cfg, cfg.out_dir)
    for path in written:
        print(path)
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    results = run_checks(seed=cfg.seed)
    table = format_table(results)
    print(table)
    _write_echo(cfg, cfg.out_dir)
    with open(os.path.join(cfg.out_dir, "gradcheck_report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(table + "\n")
    return 0 if all(r.ok for r in results) else 1


def cmd_augment(cfg: RunConfig, checkpoint: str, manifest: str) -> int:
    if cfg.mode == "erm":
        raise ConfigError("mode 'erm' generates no adversarial samples; "
                          "pick ada, tada, or tada_plus")
    model = _load_ckpt(checkpoint)
    dataset = _load_mani(manifest)
    adv = maximize_phase(model, dataset, cfg.adv_config())
    augmented = Dataset([s.series for s in adv], dataset.n_classes)
    manifest_out = save_dataset(augmented, cfg.out_dir, "augmented")
    with open(os.path.join(cfg.out_dir, "objectives.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("origin_id,mode,objective\n")
        for s in adv:
            fh.write(f"{s.origin_id},{s.mode},{s.objective:.12g}\n")
    with open(os.path.join(cfg.out_dir, "paths.csv"), "w",
              encoding="utf-8") as fh:
        for s in adv:
            if s.path is None:
                continue
            row = ",".join(f"{v:.17g}" for v in s.path)
            fh.write(f"{s.origin_id},{s.mode},{row}\n")
    _write_echo(cfg, cfg.out_dir)
    print(manifest_out)
    return 0


def cmd_train(cfg: RunConfig) -> int:
    if cfg.train_manifest:
        d0 = _load_mani(cfg.train_manifest)
    else:
        d0, _ = synth_generate(cfg.synth_spec())
    model, report = run(d0, cfg.adv_config())
    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.bin")
    save_checkpoint(model, ckpt_path)
    report_path = os.path.join(cfg.out_dir, "report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_text() + "\n")
    _write_echo(cfg, cfg.out_dir)
    print(ckpt_path)
    print(report_path)
    return 0


def cmd_eval(cfg: RunConfig, checkpoint: str, manifests: list[str]) -> int:
    model = _load_ckpt(checkpoint)
    domains = [_load_mani(m) for m in manifests]
    scores, average = evaluate(model, domains)
    width = max(len(k) for k in scores)
    lines = [f"{tag.ljust(width)}  {f1:.4f}" for tag, f1 in scores.items()]
    lines.append(f"{'average'.ljust(width)}  {average:.4f}")
    table = "\n".join(lines)
    print(table)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "f1.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    with open(os.path.join(cfg.out_dir, "embeddings.csv"), "w", encoding="utf-8") as fh:
        for i, domain in enumerate(domains):
            export_features(model, domain, fh, header=i == 0)
    _write_echo(cfg, cfg.out_dir)
    return 0


def cmd_export_features(cfg: RunConfig, checkpoint: str, manifest: str,
                        output: str | None) -> int:
    model = _load_ckpt(checkpoint)
    dataset = _load_mani(manifest)
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = output or os.path.join(cfg.out_dir, "features.csv")
    export_features(model, dataset, out_path)
    _write_echo(cfg, cfg.out_dir)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
