"""A recorded fingerprint: the sha256 of every output of a short recipe,
against the record in fingerprint.json, so an output that is no longer the
bytes of the commit that wrote the record fails here.

The recipe runs the commands in this process: synth, train in each mode
(erm, ada, tada, tada_plus union and composed) on the synthesized source,
augment with the tada and composed checkpoints, and eval of the tada
checkpoint on the three targets.  A report is hashed without its
``wall_clock_s`` and ``phase_wall_s`` lines; config_echo.yaml, which names
the output directory, is not hashed.

Bytes depend on numpy's version and on the BLAS kernels the CPU selects, so
the test runs only where the record was made.  A change that moves outputs
on purpose rewrites the record with

    PYTHONPATH=src python tests/test_fingerprint.py
"""

import hashlib
import json
import os
import platform

import numpy as np
import pytest

from warpada.cli import main

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprint.json")
RECIPE = {"synth_n_per_class": 40, "k_rounds": 1, "t_min": 8, "t_max": 2, "t_final": 2}
MODES = {"erm": "erm", "ada": "ada", "tada": "tada", "union": "tada_plus",
         "composed": "tada_plus"}
TIMING = (b"wall_clock_s:", b"phase_wall_s:")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "report.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(TIMING))
    return hashlib.sha256(data).hexdigest()


def fingerprint(root: str) -> dict[str, str]:
    """Run the recipe under ``root``; returns {output path under root: sha256}."""
    def run(command: str, out: str, *args: str, combine: str = "union") -> None:
        config = os.path.join(root, f"{combine}.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key}: {value}\n" for key, value in {**RECIPE, "combine": combine}.items())
        code = main([command, "--config", config, "--seed", "0", "--out", os.path.join(root, out),
                     *args])
        assert code == 0, f"{command} {out} exited {code}"

    data = os.path.join(root, "synth")
    run("synth", "synth")
    for name, mode in MODES.items():
        run("train", name, "--mode", mode, "--manifest", os.path.join(data, "source.manifest"),
            combine="composed" if name == "composed" else "union")
    for name in ("tada", "composed"):
        run("augment", f"augment-{name}", "--mode", MODES[name],
            "--checkpoint", os.path.join(root, name, "checkpoint.bin"),
            "--manifest", os.path.join(data, "source.manifest"),
            combine="composed" if name == "composed" else "union")
    run("eval", "eval", "--checkpoint", os.path.join(root, "tada", "checkpoint.bin"),
        *(os.path.join(data, f"{tag}.manifest") for tag in ("amp", "warp", "both")))
    digests = {}
    for out in sorted(os.listdir(root)):
        if os.path.isdir(os.path.join(root, out)):
            for name in sorted(os.listdir(os.path.join(root, out))):
                if name != "config_echo.yaml":
                    digests[f"{out}/{name}"] = _sha256(os.path.join(root, out, name))
    return digests


@pytest.mark.skipif(np.__version__ != "2.4.6" or platform.machine() not in ("x86_64", "AMD64"),
                    reason="fingerprint recorded with numpy 2.4.6 on x86-64")
def test_outputs_match_the_record(tmp_path, monkeypatch):
    monkeypatch.delenv("WARPADA_SEED", raising=False)
    with open(RECORD, encoding="utf-8") as fh:
        want = json.load(fh)
    got = fingerprint(str(tmp_path))
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"outputs not the recorded bytes: {moved}"


if __name__ == "__main__":
    import tempfile

    os.environ.pop("WARPADA_SEED", None)
    with tempfile.TemporaryDirectory() as root:
        record = fingerprint(root)
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
