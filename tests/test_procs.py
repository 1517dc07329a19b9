import collections
import os

import pytest

from warpada import procs
from warpada.adversarial import AdvConfig
from warpada.cli import main
from warpada.data import save_dataset
from warpada.model import save_checkpoint
from warpada.training import INFERENCE_MIN_CHUNKS, evaluate, run

from test_adversarial import assert_no_children, deadline
from test_training import toy_dataset


@pytest.mark.parametrize("units, least, most, one_blas_thread, held, inside, want", [
    (10, 2, 8, True, True, False, 4),    # one per CPU
    (10, 2, 2, True, True, False, 2),    # at most ``most``
    (3, 2, 8, True, True, False, 3),     # at most one per unit
    (1, 2, 8, True, True, False, 1),     # fewer than ``least`` units
    (10, 2, 8, True, False, False, 1),   # BLAS may run a pool
    (10, 2, 8, False, False, False, 4),  # ... which the ascent does not mind
    (10, 2, 8, False, True, True, 1),    # a call made inside a share
], ids=["per-cpu", "most", "per-unit", "least", "blas-pool", "blas-pool-ascent", "in-share"])
def test_workers_rule(monkeypatch, units, least, most, one_blas_thread, held, inside, want):
    monkeypatch.setattr(procs, "fork_cpus", lambda: 4)
    monkeypatch.setattr(procs, "_one_blas_thread", lambda: held)
    monkeypatch.setattr(procs, "_in_share", inside)
    assert procs.workers(units, least, most, one_blas_thread=one_blas_thread) == want


def census_work(root, k: int) -> None:
    """A tiny tada run(), and an evaluate and an eval command of
    INFERENCE_MIN_CHUNKS forwards or more, writing under ``root``/k."""
    out = root / str(k)
    ds = toy_dataset(n_per_class=20)  # 40 origins: two ascent chunks
    # a round's fit of 8 SGD steps and a final epoch of 10: two partners
    cfg = AdvConfig(mode="tada", t_max=1, t_min=8, k_rounds=1, t_final=1, m_window=6,
                    phi_max=4.0, batch=8, seed=0)
    model, _ = run(ds, cfg)
    evaluate(model, [ds] * INFERENCE_MIN_CHUNKS)
    manifest = save_dataset(ds, str(out / "data"), "target")
    save_checkpoint(model, str(out / "checkpoint.bin"))
    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--out",
                 str(out / "eval"), *[manifest] * INFERENCE_MIN_CHUNKS]) == 0


EVERY_SITE = {"ascent worker": 1, "SGD partner": 2, "inference worker": 2}
CENSUS = {  # usable CPUs, BLAS variables set, run inside a share, forks per site
    "two-cpus-one-blas-thread": ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, False, EVERY_SITE),
    "two-cpus-no-blas-variable": ({0, 1}, {}, False, {"ascent worker": 1}),
    "one-cpu": ({0}, {"OPENBLAS_NUM_THREADS": "1"}, False, {}),
    # the share's own fork; its two processes start none
    "inside-a-share": ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, True, {"census share": 1}),
}


@pytest.mark.parametrize("environment", list(CENSUS))
def test_fork_census(tmp_path, monkeypatch, environment):
    # every fork, in any process, appends its site's name to one file
    cpus, blas, inside, want = CENSUS[environment]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    for name in procs.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in blas.items():
        monkeypatch.setenv(name, value)
    log, real = tmp_path / "forks.log", procs.Child.__enter__

    def logged(child):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(child._name + "\n")
        return real(child)

    monkeypatch.setattr(procs.Child, "__enter__", logged)
    with deadline(120):
        if inside:
            procs.map_chunks(lambda k: census_work(tmp_path, k), [0, 1], 2, "census share",
                             "nothing")
        else:
            census_work(tmp_path, 0)
    assert_no_children()
    forks = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
    assert collections.Counter(forks) == want
