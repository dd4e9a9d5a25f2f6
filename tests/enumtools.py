"""Exact enumeration of single-shot estimators against the dense simulator.

Shared by the estimator tests and the acceptance suite: every (basis,
outcome) pair a plan can produce is listed with its probability, so
estimator means and variances come out exact instead of sampled.
"""

import itertools

import numpy as np

from paulimeter.estimators import ShotBatch, per_shot_estimates
from paulimeter.paulis import PauliString
from paulimeter.states import born_distribution, sample_outcomes


def weighted_shots(plan, rho):
    """Every (basis, outcome) row one shot can produce under a randomized
    plan, as a ShotBatch, and the probability of each row."""
    n = plan.n
    dist = plan.distribution
    if dist.kind == "explicit":
        basis_probs = list(dist.explicit)
    else:
        q = dist.product
        basis_probs = []
        for codes in itertools.product((1, 2, 3), repeat=n):
            prob = 1.0
            for i, c in enumerate(codes):
                prob *= float(q[i, c - 1])
            if prob > 0.0:
                basis_probs.append((PauliString.from_codes(codes), prob))
    letters = []
    bits = []
    weights = []
    for basis, bp in basis_probs:
        outcome_probs = born_distribution(rho, basis)
        for idx, op in enumerate(outcome_probs):
            if op <= 0.0:
                continue
            letters.append(basis.codes())
            bits.append([(idx >> (n - 1 - i)) & 1 for i in range(n)])
            weights.append(bp * float(op))
    return ShotBatch(letters, bits), np.array(weights)


def enumerate_moments(plan, o, rho):
    """Exact (mean, variance) of the single-shot estimator under the plan."""
    records, weights = weighted_shots(plan, rho)
    values = per_shot_estimates(records, plan, o)
    mean = float(np.dot(weights, values))
    second = float(np.dot(weights, values * values))
    return mean, second - mean * mean


def sample_records(plan, rho, ns, seed, nr=1):
    """Simulate ns settings drawn from the plan, nr unit-shot rows each."""
    from paulimeter.schemes import draw_bases

    ss = np.random.SeedSequence(seed)
    basis_ss, outcome_ss = ss.spawn(2)
    letters = draw_bases(plan, ns, np.random.default_rng(basis_ss))
    outcomes = [sample_outcomes(rho, PauliString.from_codes(row),
                                np.random.default_rng(child).random(nr))
                for child, row in zip(outcome_ss.spawn(ns), letters)]
    return ShotBatch(np.repeat(letters, nr, axis=0), np.concatenate(outcomes))
