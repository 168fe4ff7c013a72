"""Paper claims asserted over paired seeds, at a scale where they can fail.

Each claim reruns an experiment over several seeds; within a seed every
method starts from the same initialisation and data order, so each seed
gives one paired comparison.  Deselected from tier-1 (``slow``); run
with ``pytest -m slow``.

A training method is a (loss, quantizer) pair
(:data:`repro.baselines.spnets.METHODS`), so a claim says which of the
two it compares:

* the Table I claim compares the paper's pairings: CDT on SBM against SP
  and AdaBits on DoReFa, loss and quantiser together;
* the Eq. 1 comparison holds the quantiser fixed (SBM) and sets cascade
  distillation against vanilla distillation from the highest width.

Eq. 1 alone does not separate.  CDT's 4-bit margin over vanilla
distillation, both on SBM, on the wide bit set, in points for seeds 0-7
(one-sided sign test p):

* claims scale, 128 test images: -10.16, +4.69, +0.78, -1.56, +5.47,
  -2.34, -3.12, -1.56; 3 of 8 wins, median -1.56, p = 0.86;
* the same with 512 test images: -10.35, +4.88, +1.17, +18.95, +11.72,
  -5.86, +1.17, +5.08; 6 of 8 wins, median +3.03, p = 0.14.

So no test asserts Eq. 1; :func:`test_eq1_margins_match_the_record`
pins the first list, so the record is re-measured whenever training
changes.  On a copy where ``cdt``'s loss is swapped for vanilla
distillation and SBM is kept, the Table I claim still passes: it
measures the quantiser.
"""

import dataclasses
import math
from statistics import median

import pytest

from repro import rng as rng_mod
from repro.baselines import METHODS, train_method
from repro.core import TrainConfig
from repro.data import cifar100_like
from repro.experiments import table1
from repro.experiments.common import SCALES
from repro.nn.models import mobilenet_v2

# Smoke sizes trained for 4 epochs instead of 2.  At 2 epochs the 5-class
# models sit near chance and CDT's 4-bit margin on the wide bit set
# straddles zero over seeds 0-9 (5 wins of 10); at 4 epochs it wins all
# of seeds 0-7 by at least 5 points.
TABLE1_SCALE = dataclasses.replace(SCALES["smoke"], name="claims", epochs=4)
TABLE1_SEEDS = range(8)


def sign_test_pvalue(wins, n):
    """One-sided exact sign test: P(at least ``wins`` of ``n`` fair coin
    flips land heads), the p-value of a binomial test at p = 0.5 with the
    alternative "greater"."""
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2 ** n


@pytest.mark.slow
def test_table1_cdt_beats_sp_and_adabits_at_4bit():
    """Table I: CDT beats SP-Nets and AdaBits at the lowest bit-width.

    This asserts the paper's (loss, quantizer) pairings, not Eq. 1 alone:
    CDT trains on SBM and the baselines on DoReFa, and the quantiser
    carries most of the margin (see :func:`eq1_margins`).
    """
    margins = {}  # bit set -> CDT's 4-bit margin per seed, in points
    for seed in TABLE1_SEEDS:
        for row in table1.run(scale=TABLE1_SCALE, seed=seed).rows:
            if row["bits"] == "4":
                margins.setdefault(row["bit_set"], []).append(round(
                    row["acc_cdt"] - max(row["acc_sp"], row["acc_adabits"]), 2))
    wide, narrow = margins.values()  # in table1.BIT_SETS order
    # The wide set [4..32] separates per seed (ties count against CDT);
    # the narrow set [4, 5, 6, 8] does not at this scale, so it enters
    # only through the pooled median.
    assert sign_test_pvalue(sum(m > 0 for m in wide), len(wide)) < 0.05, \
        margins
    assert median(wide + narrow) > 0, margins


def eq1_margins(scale, seeds=TABLE1_SEEDS):
    """Per seed, CDT's 4-bit margin in points over vanilla distillation
    (``sp``'s loss), both on CDT's SBM quantiser, on Table I's wide set.

    Each seed mirrors Table I's setup: the same data, MobileNetV2 and
    training schedule, with both methods starting from one seed.
    """
    bit_set = table1.BIT_SETS[0]
    low = bit_set[0]
    quantizer = METHODS["cdt"].quantizer

    def builder(factory):
        return mobilenet_v2(num_classes=scale.num_classes, factory=factory,
                            width_mult=scale.width_mult, setting="tiny")

    margins = []
    for seed in seeds:
        rng_mod.set_seed(seed)
        config = TrainConfig(epochs=scale.epochs, batch_size=scale.batch_size)
        train_set, test_set = cifar100_like(
            num_train=scale.train_samples, num_test=scale.test_samples,
            image_size=scale.image_size, num_classes=scale.num_classes,
            difficulty=scale.difficulty,
        )
        accuracy = {}
        for method in ("cdt", "sp"):
            rng_mod.set_seed(seed)
            accuracy[method] = train_method(
                method, builder, bit_set, train_set, test_set, config,
                quantizer=quantizer,
            ).accuracies[low]
        margins.append(round(100 * (accuracy["cdt"] - accuracy["sp"]), 2))
    return margins


# CDT - vanilla 4-bit margins at TABLE1_SCALE, seeds 0-7 (module docstring).
EQ1_MARGINS = [-10.16, 4.69, 0.78, -1.56, 5.47, -2.34, -3.12, -1.56]


@pytest.mark.slow
def test_eq1_margins_match_the_record():
    """Eq. 1 at a fixed quantiser does not separate (3 of 8 seeds), so
    this asserts no ordering: it checks that the recorded margins still
    describe the code."""
    assert eq1_margins(TABLE1_SCALE) == EQ1_MARGINS
