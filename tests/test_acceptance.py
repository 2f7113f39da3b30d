"""Acceptance gate: the committed end-to-end criteria at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion. The desk-scale replication (criterion 8) trains a standard and an
adversarial classifier on the seed-42 corpus; the adversarial run warm
starts from the standard weights. To save time its training attack is
FGSM-RS (Wong et al. 2020, arXiv:2001.03994): one step of 5/255 from a
random start inside the 4/255 ball. The committed reference recipe, in the
README and the CLI, trains against PGD-5 (eps 4/255, step 2/255). Expect
the full module to take a few minutes, dominated by the two training runs.
"""

import numpy as np
import pytest

from fracmap.attack import AttackConfig, adv_accuracy, delta_acc, pgd_batch, rank_models
from fracmap.attack import RobustnessReport
from fracmap.attribution import (
    OcclusionConfig,
    PathConfig,
    deeplift_contributions,
    ig_attributions,
    occlusion,
    saliency,
)
from fracmap.autodiff import forward_values, grad_input
from fracmap.coverage import coverage_table, point_coverage, threshold_mask
from fracmap.model import tiny_cnn
from fracmap.synth import SynthConfig, generate_dataset
from fracmap.tensor import Tensor
from fracmap.train import TrainConfig, adv_train, evaluate, train

from conftest import linear_model, rand_image, random_cnn
from oracles import kink_margin, numeric_gradient, occlusion_linearized

EVAL_ATTACK = AttackConfig(epsilon=4 / 255, step_size=1 / 255, iters=10)
TRAIN_ATTACK = AttackConfig(epsilon=4 / 255, step_size=5 / 255, iters=1, random_start=True)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return generate_dataset(42, 800)


@pytest.fixture(scope="module")
def standard_model(corpus):
    return train(tiny_cnn(seed=42), corpus, TrainConfig(seed=42)).model


@pytest.fixture(scope="module")
def adversarial_model(corpus, standard_model):
    return adv_train(standard_model, corpus, TRAIN_ATTACK, TrainConfig(seed=43)).model


def test_criterion_1_gradient_oracle_suite():
    """grad_input vs central differences on >= 100 random (model, input) pairs."""
    shapes = [(1, 8, 8), (2, 8, 8), (1, 12, 12)]
    worst = 0.0
    checked = 0
    attempt = 0
    while checked < 100:
        attempt += 1
        arch = attempt % 4
        m = random_cnn(
            seed=1000 + attempt,
            input_shape=shapes[attempt % 3],
            channels=(3,) if arch < 2 else (2, 3),
            pool=arch % 2 == 0,
            padding="same" if arch < 3 else "valid",
            head="flatten" if arch % 2 == 0 else "gap",
        )
        x = rand_image(2000 + attempt, m.input_shape)
        if kink_margin(m, x) <= 1e-4:  # stated kink exclusion
            continue
        c = attempt % m.num_classes
        g = grad_input(m, x, c).array
        fd = numeric_gradient(m, x, c, h=1e-5).array
        rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-6, f"pair {attempt}: relative error {rel:.3e}"
        checked += 1
    report(1, worst < 1e-6, f"{checked} pairs, worst relative error {worst:.3e} < 1e-6")


def test_criterion_2_accuracy_drop_arithmetic_and_ranking():
    ok_rows = f"{delta_acc(99.21, 86.96):.2f}" == "12.25" and delta_acc(93.48, 0.0) == 93.48
    rows = [
        RobustnessReport("MeanSparse", 99.21, 86.96, 12.25),
        RobustnessReport("Swin", 97.63, 82.21, 15.42),
        RobustnessReport("NIG", 97.63, 79.45, 18.18),
        RobustnessReport("Revisiting", 99.01, 78.85, 20.16),
        RobustnessReport("Light", 98.62, 69.37, 29.25),
        RobustnessReport("Standard", 93.48, 0.0, 93.48),
    ]
    shuffled = [rows[i] for i in (4, 0, 5, 2, 1, 3)]
    order = [r.model_id for r in rank_models(shuffled)]
    ok_rank = order == ["MeanSparse", "Swin", "NIG", "Revisiting", "Light", "Standard"]
    report(2, ok_rows and ok_rank, f"drop rows exact at two decimals; rank order {order}")


def test_criterion_3_pgd_invariants(standard_model):
    split_cfg = SynthConfig(train_frac=0.0, val_frac=0.0)
    ds = generate_dataset(7, 160, split_cfg)
    idx = ds.split_indices("test")
    assert len(idx) == 160
    eps_bound = 4 / 255 + 1e-12
    worst_inf = 0.0
    for start in range(0, 160, 32):
        chunk = idx[start : start + 32]
        xb = np.stack([ds.images[i].array for i in chunk])
        yb = np.array([ds.labels[i] for i in chunk])
        adv = pgd_batch(standard_model, xb, yb, EVAL_ATTACK)
        worst_inf = max(worst_inf, float(np.max(np.abs(adv - xb))))
        assert np.max(np.abs(adv - xb)) <= eps_bound
        assert adv.min() >= 0.0 and adv.max() <= 1.0
    x0 = ds.images[idx[0]]
    zero_eps = pgd_batch(standard_model, x0.array[None], [0], AttackConfig(epsilon=0.0))
    zero_it = pgd_batch(
        standard_model, x0.array[None], [0], AttackConfig(iters=0, random_start=False)
    )
    identical = np.array_equal(zero_eps[0], x0.array) and np.array_equal(zero_it[0], x0.array)
    report(
        3,
        worst_inf <= eps_bound and identical,
        f"160 images: max perturbation {worst_inf:.6f} <= 4/255, box respected, "
        "zero-budget attacks bit-identical",
    )


def test_criterion_4_integrated_gradients_completeness(corpus, standard_model):
    """Relative completeness residual < 2% at 256 steps for >= 50 test images.

    The absolute residual is uniformly small (quadrature error of the
    midpoint rule over the piecewise-constant path derivative), but the
    relative form is fragile for the occasional image whose target logit
    barely moves from the zero baseline; the criterion counts images below
    the bound over the whole test split, and the outliers are reported.
    """
    zero = Tensor(np.zeros(standard_model.input_shape))
    cfg = PathConfig(baseline=zero, n_steps=256)
    f_zero = forward_values(standard_model, zero.array)
    rels = []
    worst_abs = 0.0
    outliers = []
    for i in corpus.split_indices("test"):
        x = corpus.images[i]
        c = corpus.labels[i]
        delta = forward_values(standard_model, x.array)[c] - f_zero[c]
        residual = abs(ig_attributions(standard_model, x, c, cfg).sum() - delta)
        worst_abs = max(worst_abs, residual)
        rel = residual / abs(delta)
        rels.append(rel)
        if rel >= 0.02:
            outliers.append(f"{corpus.ids[i]} rel={rel:.4f} |delta|={abs(delta):.3f}")
    passing = sum(1 for r in rels if r < 0.02)

    rng = np.random.default_rng(3)
    w = rng.normal(size=(2, 64))
    lin = linear_model(w, (1, 8, 8))
    x = rand_image(4, (1, 8, 8))
    exact = ig_attributions(lin, x, 0, PathConfig(baseline=Tensor(np.zeros((1, 8, 8))), n_steps=1))
    lin_ok = np.array_equal(exact, w[0].reshape(1, 8, 8) * x.array)
    report(
        4,
        passing >= 50 and lin_ok,
        f"{passing}/{len(rels)} test images below 2% at 256 steps (criterion needs >= 50); "
        f"worst absolute residual {worst_abs:.4f} (measured C ~ {256 * worst_abs:.1f}); "
        + (f"outliers: {'; '.join(outliers)}; " if outliers else "")
        + "linear identity exact at 1 step",
    )


def test_criterion_5_deeplift_summation_to_delta(corpus, standard_model, adversarial_model):
    cases = []
    test_idx = corpus.split_indices("test")
    for model in (standard_model, adversarial_model):
        zero = Tensor(np.zeros(model.input_shape))
        for i in test_idx[:5]:
            cases.append((model, corpus.images[i], zero))
        cases.append((model, corpus.images[test_idx[5]], corpus.images[test_idx[6]]))
    for k in range(4):
        m = random_cnn(
            seed=70 + k,
            input_shape=(3, 8, 8) if k == 3 else (1, 8, 8),
            channels=(2, 3) if k == 1 else (3,),
            pool=True,
            head="gap" if k == 2 else "flatten",
        )
        cases.append((m, rand_image(80 + k, m.input_shape), Tensor(np.zeros(m.input_shape))))

    worst = 0.0
    for model, x, ref in cases:
        for c in range(model.num_classes):
            contrib = deeplift_contributions(model, x, c, ref)
            delta = forward_values(model, x.array)[c] - forward_values(model, ref.array)[c]
            residual = abs(contrib.sum() - delta)
            worst = max(worst, residual)
            assert residual < 1e-8
    report(5, worst < 1e-8, f"{2 * len(cases)} (model, input, class) cases, worst residual {worst:.2e} < 1e-8")


def test_criterion_6_occlusion_oracles():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(2, 36))
    lin = linear_model(w, (1, 6, 6))
    x = rand_image(6, (1, 6, 6))
    cfg = OcclusionConfig(patch_h=2, patch_w=2, stride_h=2, stride_w=2, baseline_value=0.25)
    gap_lin = float(
        np.max(np.abs(occlusion(lin, x, 0, cfg).values - occlusion_linearized(lin, x, 0, cfg).values))
    )

    conv = random_cnn(seed=66, input_shape=(1, 4, 4), channels=(2,), pool=False)
    x4 = rand_image(66, (1, 4, 4))
    cfg4 = OcclusionConfig(patch_h=2, patch_w=2, stride_h=2, stride_w=2, baseline_value=0.0)
    amap = occlusion(conv, x4, 1, cfg4)
    base = forward_values(conv, x4.array)[1]
    gap_brute = 0.0
    for i in (0, 2):
        for j in (0, 2):
            occ = x4.array.copy()
            occ[:, i : i + 2, j : j + 2] = 0.0
            score = base - forward_values(conv, occ)[1]
            gap_brute = max(gap_brute, float(np.max(np.abs(amap.values[i : i + 2, j : j + 2] - score))))
    report(
        6,
        gap_lin < 1e-12 and gap_brute < 1e-12,
        f"linear two-route gap {gap_lin:.2e}; brute-force enumeration gap {gap_brute:.2e} (both < 1e-12)",
    )


def test_criterion_7_coverage_metric_properties(corpus, standard_model, adversarial_model):
    percentiles = (15, 75, 85, 95)
    annotated = [i for i in corpus.split_indices("test") if corpus.ids[i] in corpus.annotations]
    checked = 0
    for model in (standard_model, adversarial_model):
        for i in annotated:
            amap = saliency(model, corpus.images[i], 0)
            entry = corpus.annotations.get(corpus.ids[i])
            masks = [threshold_mask(amap, nu) for nu in percentiles]
            for tighter, looser in zip(masks[1:], masks[:-1]):
                assert not np.any(tighter.values & ~looser.values)
            ratios = [point_coverage(m, entry) for m in masks]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))
            assert point_coverage(threshold_mask(amap, 0), entry) == 1.0
            checked += 1

    rng = np.random.default_rng(7)
    oracle_checked = 0
    for trial in range(200):
        n = int(rng.integers(1, 65))
        values = rng.choice([0.0, 1.0, rng.uniform(-5, 5), rng.uniform(-5, 5)], size=n)
        amap_vals = values.reshape(1, n)
        nu = float(rng.integers(0, 101))
        from fracmap.attribution import AttributionMap

        amap = AttributionMap(values=amap_vals, method="saliency", target_class=0, config_digest="o")
        flat = sorted(values)
        thr = next(v for v in flat if 100.0 * sum(1 for u in flat if u <= v) / n >= nu)
        assert np.array_equal(threshold_mask(amap, nu).values, amap_vals >= thr)
        oracle_checked += 1
    report(
        7,
        True,
        f"nesting+monotonicity on {checked} real maps at {percentiles}; "
        f"{oracle_checked} sort-and-cut oracle maps <= 64 px; zero-percentile coverage exactly 1.0",
    )


def test_criterion_8_desk_scale_replication(corpus, standard_model, adversarial_model):
    splits = tuple(len(corpus.split_indices(s)) for s in ("train", "val", "test"))
    assert splits == (640, 80, 80)
    assert evaluate(standard_model, corpus, "train") > 0.95

    clean_std = evaluate(standard_model, corpus, "test")
    clean_adv = evaluate(adversarial_model, corpus, "test")
    pgd_std = adv_accuracy(standard_model, corpus, "test", EVAL_ATTACK)
    pgd_adv = adv_accuracy(adversarial_model, corpus, "test", EVAL_ATTACK)
    gap = 100.0 * (pgd_adv - pgd_std)

    ranked = rank_models(
        [
            RobustnessReport("standard", 100 * clean_std, 100 * pgd_std, delta_acc(100 * clean_std, 100 * pgd_std)),
            RobustnessReport("adversarial", 100 * clean_adv, 100 * pgd_adv, delta_acc(100 * clean_adv, 100 * pgd_adv)),
        ]
    )
    assert ranked[0].model_id == "adversarial"  # robust row ranks first

    table = coverage_table(
        {"adversarial": adversarial_model, "standard": standard_model},
        ["saliency"],
        [85],
        corpus,
    )
    cov = {row.model_id: row.coverage for row in table.rows}

    ok_a = clean_std >= 0.90 and clean_adv >= 0.90
    ok_b = gap >= 30.0
    ok_c = cov["adversarial"] >= cov["standard"]
    report(
        8,
        ok_a and ok_b and ok_c,
        f"clean std {100 * clean_std:.2f}% / adv {100 * clean_adv:.2f}% (both >= 90); "
        f"PGD(4/255) std {100 * pgd_std:.2f}% vs adv {100 * pgd_adv:.2f}% (gap {gap:.2f} >= 30); "
        f"saliency coverage at 85th percentile: adv {cov['adversarial']:.2f} >= std {cov['standard']:.2f}",
    )
