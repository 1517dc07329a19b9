"""Acceptance gate: eight end-to-end checks with pinned tolerances.

Each test prints one PASS/FAIL line with the measured figure (visible
under ``pytest -s``); the assert carries the same detail.  Tolerances and
runtime bounds are stated inline next to each check.
"""

import dataclasses
import time

import numpy as np

from warpada.adversarial import AdvConfig, maximize_one
from warpada.data import default_spec, synth_generate
from warpada.gradcheck import run_checks
from warpada.model import Classifier, entropy, forward
from warpada.signal import TimeSeries, warp_apply
from warpada.tensor import Tensor
from warpada.training import Dataset, evaluate, macro_f1, minimize_phase, run
from warpada.warp import make_path

from oracles import integer_warp_oracle
from test_warp import path_violations


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _toy_dataset(n_per_class=50, length=64, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / length
    samples = []
    for label, freq in ((0, 3.0), (1, 9.0)):
        for _ in range(n_per_class):
            row = np.sin(2 * np.pi * freq * t) + 0.05 * rng.normal(size=length)
            samples.append(TimeSeries(Tensor(row), label=label, domain_tag="source"))
    return Dataset(samples, n_classes=2)


def test_1_integer_warp_oracle_equivalence():
    # 100 random series (C=1, N=256) x random admissible integer paths
    # (|d| <= M=10): frequency-domain warp matches index remapping < 1e-9,
    # under 30 s.  Half the paths are drawn heavy-tailed so the +-10 cap
    # is exercised, not just small shifts.
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        x = TimeSeries(Tensor(rng.normal(size=256)))
        phi = (rng.normal(size=256) if trial % 2 == 0
               else rng.lognormal(0.0, 2.0, size=256))
        delta = np.round(make_path(Tensor(phi), 10.0).data)
        warped = warp_apply(x, Tensor(delta), 10)
        oracle = integer_warp_oracle(x, delta).values.data
        worst = max(worst, float(np.max(np.abs(warped.values.data - oracle))))
    elapsed = time.perf_counter() - start
    _report("criterion 1 (integer-path oracle equivalence)",
            worst < 1e-9 and elapsed < 30.0,
            f"max abs err {worst:.2e} < 1e-9, {elapsed:.1f}s < 30s")


def test_2_gradient_fidelity():
    # every op, the path-construction chain, and the end-to-end loss
    # gradients wrt phi and x match central differences (h=1e-5) at 20
    # sampled coordinates each, rel. err < 1e-4, under 2 min
    start = time.perf_counter()
    results = run_checks(seed=0, h=1e-5, points=20, threshold=1e-4)
    elapsed = time.perf_counter() - start
    worst = max(results, key=lambda r: r.rel_err)
    _report("criterion 2 (gradient fidelity)",
            all(r.ok for r in results) and len(results) >= 12 and elapsed < 120.0,
            f"{len(results)} items, worst {worst.name} at {worst.rel_err:.2e} "
            f"< 1e-4, {elapsed:.1f}s < 120s")


def test_3_path_conditions():
    # 1000 random phi (N=128, phi_max=5): every produced path is monotone,
    # boundary-pinned below 1e-9, and sup-norm bounded by 5 + 1e-9
    rng = np.random.default_rng(3)
    draws = ([lambda: rng.normal(size=128)] * 500
             + [lambda: rng.lognormal(0.0, 2.0, size=128)] * 250
             + [lambda: rng.uniform(-1.0, 1.0, size=128)] * 250)
    bad = 0
    worst = {"monotone": 0.0, "boundary": 0.0, "bound": 0.0}
    for draw in draws:
        path = make_path(Tensor(draw()), 5.0)
        v = path_violations(path, 5.0)
        for key in worst:
            worst[key] = max(worst[key], v[key])
        if max(v.values()) > 1e-9:
            bad += 1
    _report("criterion 3 (warping-path conditions)",
            bad == 0,
            f"{bad} of 1000 paths in breach, need 0; worst "
            f"monotone {worst['monotone']:.1e}, boundary {worst['boundary']:.1e}, "
            f"bound {worst['bound']:.1e}, all <= 1e-9")


def test_4_unshifted_reconstruction():
    # zero-displacement analysis/synthesis reproduces the series < 1e-10
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        x = TimeSeries(Tensor(rng.normal(size=128)))
        rec = warp_apply(x, Tensor(np.zeros(128)), 10)
        worst = max(worst, float(np.max(np.abs(rec.values.data - x.values.data))))
    _report("criterion 4 (unshifted reconstruction)",
            worst < 1e-10, f"max abs err {worst:.2e} < 1e-10")


def test_5_training_bookkeeping():
    # n=100, K=2: dataset grows 100->200->300 (tada) and 100->300->500
    # (tada_plus union); originals bitwise unchanged; same seed gives an
    # identical report apart from wall clock
    ds = _toy_dataset()
    before = [s.values.data.copy() for s in ds.samples]
    cfg = AdvConfig(mode="tada", k_rounds=2, t_max=1, t_min=1, t_final=1,
                    batch=32, seed=0)
    _, first = run(ds, cfg)
    _, again = run(ds, cfg)
    _, plus = run(ds, dataclasses.replace(cfg, mode="tada_plus"))
    unchanged = all(np.array_equal(s.values.data, b)
                    for s, b in zip(ds.samples, before))
    ok = (first.dataset_sizes == [100, 200, 300]
          and plus.dataset_sizes == [100, 300, 500]
          and unchanged
          and first.identity() == again.identity())
    _report("criterion 5 (growth and determinism)", ok,
            f"tada sizes {first.dataset_sizes}, tada_plus sizes "
            f"{plus.dataset_sizes}, originals unchanged: {unchanged}, "
            f"repeat-run reports identical: {first.identity() == again.identity()}")


def test_6_directional_domain_generalization():
    # default benchmark (3 classes, N=128, 200/class; amp, warp, both
    # targets), 5 seeds, library-default hyperparameters:
    #   (a) tada beats erm on the warp target by > 0.05 mean macro-F1
    #   (b) ada beats erm on the amp target by > 0.05
    #   (c) tada_plus 3-target average >= max(ada, tada) - 0.02
    # total runtime < 1 hour
    start = time.perf_counter()
    modes = ["erm", "ada", "tada", "tada_plus"]
    scores: dict[str, list[dict]] = {m: [] for m in modes}
    for seed in range(5):
        source, targets = synth_generate(default_spec(seed=seed))
        for mode in modes:
            model, _ = run(source, AdvConfig(mode=mode, seed=seed))
            per_domain, _ = evaluate(model, list(targets))
            scores[mode].append(per_domain)
    elapsed = time.perf_counter() - start
    mean = {m: {k: float(np.mean([s[k] for s in scores[m]]))
                for k in ("amp", "warp", "both")} for m in modes}
    avg = {m: sum(mean[m].values()) / 3 for m in modes}
    gap_warp = mean["tada"]["warp"] - mean["erm"]["warp"]
    gap_amp = mean["ada"]["amp"] - mean["erm"]["amp"]
    gap_plus = avg["tada_plus"] - max(avg["ada"], avg["tada"])
    ok = (gap_warp >= 0.05 and gap_amp >= 0.05 and gap_plus >= -0.02
          and elapsed < 3600.0)
    _report("criterion 6 (directional domain generalization)", ok,
            f"tada-erm on warp {gap_warp:+.3f} >= 0.05, "
            f"ada-erm on amp {gap_amp:+.3f} >= 0.05, "
            f"tada_plus avg {avg['tada_plus']:.3f} vs max(ada,tada) "
            f"{max(avg['ada'], avg['tada']):.3f} (gap {gap_plus:+.3f} >= -0.02), "
            f"{elapsed:.0f}s < 3600s")


def test_7_entropy_term_effect():
    # me_beta=0.1 vs 0.0, paired over 100 shared-seed samples on a fitted
    # model: mean predictive entropy of the generated samples is strictly
    # higher with the entropy bonus on
    spec = dataclasses.replace(default_spec(seed=0), n_per_class=40)
    source, _ = synth_generate(spec)
    model = Classifier(1, 3, seed=0)
    model, _ = minimize_phase(model, source, t_min=30, lr=0.05, batch=32,
                              rng=np.random.default_rng(0))
    means = {}
    for beta in (0.0, 0.1):
        cfg = AdvConfig(mode="tada", me_beta=beta, seed=0)
        vals = []
        for i in range(100):
            [out] = maximize_one(model, source.samples[i], cfg, origin_id=i)
            _, logits = forward(model, out.series)
            vals.append(float(entropy(logits).data))
        means[beta] = float(np.mean(vals))
    _report("criterion 7 (max-entropy term)",
            means[0.1] > means[0.0],
            f"mean predictive entropy {means[0.1]:.4f} (beta=0.1) > "
            f"{means[0.0]:.4f} (beta=0)")


def test_8_macro_f1_exact():
    # 1000 random (preds, truth) pairs, C in {2..7}: macro_f1 equals a
    # confusion-matrix computation exactly
    rng = np.random.default_rng(8)
    mismatches = 0
    for _ in range(1000):
        c = int(rng.integers(2, 8))
        n = int(rng.integers(1, 60))
        truth = rng.integers(0, c, size=n)
        preds = rng.integers(0, c, size=n)
        matrix = np.zeros((c, c), dtype=np.int64)
        for p, t in zip(preds, truth):
            matrix[t, p] += 1
        scores = []
        for k in range(c):
            tp = int(matrix[k, k])
            fp = int(matrix[:, k].sum()) - tp
            fn = int(matrix[k, :].sum()) - tp
            if tp + fp + fn == 0:
                continue
            scores.append(2.0 * tp / (2.0 * tp + fp + fn))
        expected = float(np.mean(scores)) if scores else 0.0
        if macro_f1(preds, truth, c) != expected:
            mismatches += 1
    _report("criterion 8 (macro-F1 exactness)",
            mismatches == 0, f"{mismatches} of 1000 pairs disagree, need 0")
