"""Estimator unbiasedness, variance formulas, and record-plan alignment."""

import itertools
import math

import numpy as np
import pytest

from enumtools import enumerate_moments, sample_records, weighted_shots
from paulimeter import estimators, experiments
from paulimeter.errors import (
    CoverageError,
    DimensionMismatch,
    EmptyInput,
    ForeignRecord,
    PlanMismatch,
)
from paulimeter.estimators import (
    ShotBatch,
    estimate,
    estimate_derandomized,
    per_shot_estimates,
    per_term_expectations,
    sample_size_linear,
    sample_size_nonlinear,
    variance_generic,
    variance_grouping,
    variance_l1,
    variance_product_scheme,
)
from paulimeter.paulis import PauliString, WeightedPauliSum
from paulimeter.schemes import (
    BasisDistribution,
    MeasurementPlan,
    plan_derandomized,
    plan_l1,
    plan_lbcs,
    plan_ldf,
    plan_uniform_cs,
)
from paulimeter.shadows import ShadowSet
from paulimeter.states import exact_expectation, ghz, random_mixed_state, sample_settings

P = PauliString.from_text

OBS_A = WeightedPauliSum(2, [(0.6, P("ZX")), (-0.4, P("XI")), (0.3, P("YY"))])
OBS_B = WeightedPauliSum(2, [(0.8, P("ZZ")), (-0.5, P("XX"))])
RHO_A = random_mixed_state(2, np.random.default_rng(42))
RHO_B = random_mixed_state(2, np.random.default_rng(43))


@pytest.mark.parametrize(
    "letters,bits,reps",
    [
        ([[3, 0]], [[0, 0]], [1]),
        ([[3, 3]], [[0, 2]], [1]),
        ([[3, 3]], [[0, 0]], [0]),
        ([[3, 3]], [[0]], [1]),
        ([[3, 3]], [[0, 0]], [1, 1]),
        ([[3, 3], [1, 3]], [[0, 0], [0, 1]], [2 ** 62, 2 ** 62]),
        ([[3, 3], [1, 3]], [[0, 0], [0, 1]], [2 ** 52, 2 ** 52]),
    ],
    ids=["identity", "bit2", "reps0", "bits-shape", "reps-shape", "shots-wrap-int64",
         "shots-2^53"],
)
def test_shot_batch_validation(letters, bits, reps):
    with pytest.raises(ValueError):
        ShotBatch(letters, bits, reps)


def test_shot_batch_rows():
    batch = ShotBatch([[3, 1], [2, 2], [1, 3]], [[0, 1], [1, 1], [0, 0]], [1, 4, 2])
    assert batch.n == 2 and len(batch) == 3 and batch.shots == 7
    assert batch.letters[1].tolist() == list(P("YY").codes())
    assert batch.bits[1].tolist() == [1, 1] and batch.reps[1] == 4
    # the largest total below 2^53 is counted exactly
    assert ShotBatch([[3], [1]], [[0], [1]], [2 ** 52, 2 ** 52 - 1]).shots == 2 ** 53 - 1
    assert batch == ShotBatch(batch.letters.copy(), batch.bits.copy(), batch.reps.copy())
    assert batch != ShotBatch(batch.letters, batch.bits)


def test_batches_the_package_builds_are_not_copied(monkeypatch):
    # the arrays handed over by a builder are the batch's arrays, frozen
    built = []

    def keep(*args):
        built.append(sample_settings(*args))
        return built[-1]

    monkeypatch.setattr(experiments, "sample_settings", keep)
    plan = plan_l1(OBS_A)
    batch = experiments._cell_records(ghz(2), plan, 6, 3, np.random.SeedSequence(1))
    assert np.shares_memory(batch.bits, built[0]) and not built[0].flags.writeable
    letters = np.array([[3, 1], [2, 2]], dtype=np.int8)
    bits = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    sh = ShadowSet._owned(letters, bits, np.ones(2, dtype=np.int64))
    assert np.shares_memory(sh.letters, letters) and np.shares_memory(sh.bits, bits)
    assert not letters.flags.writeable
    # the public constructors still copy what callers pass
    letters, signs = np.array([[3, 1]], dtype=np.int8), np.array([[1, -1]], dtype=np.int8)
    assert not np.shares_memory(ShadowSet(2, letters, signs).letters, letters)
    assert letters.flags.writeable


def test_shot_batch_is_a_read_only_copy():
    letters = np.array([[3, 1], [2, 2]], dtype=np.int8)
    bits = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    reps = np.array([1, 2], dtype=np.int64)
    batch = ShotBatch(letters, bits, reps)
    # an identity letter written into the caller's array after validation
    letters[0, 0] = 0
    bits[0, 0] = 2
    reps[0] = 0
    assert batch.letters[0, 0] == 3 and batch.bits[0, 0] == 0 and batch.reps[0] == 1
    for a in (batch.letters, batch.bits, batch.reps):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize(
    "plan_factory",
    [
        lambda o: plan_l1(o),
        lambda o: plan_ldf(o),
        lambda o: plan_uniform_cs(o.n),
        lambda o: plan_lbcs(o),
    ],
    ids=["l1", "ldf", "cs", "lbcs"],
)
def test_enumerated_mean_is_exact(plan_factory):
    plan = plan_factory(OBS_A)
    mean, _ = enumerate_moments(plan, OBS_A, RHO_A)
    assert mean == pytest.approx(exact_expectation(RHO_A, OBS_A), abs=1e-12)


def test_variance_l1_matches_enumeration():
    plan = plan_l1(OBS_A)
    _, var = enumerate_moments(plan, OBS_A, RHO_A)
    assert var == pytest.approx(variance_l1(OBS_A, RHO_A), abs=1e-10)
    # closed form: ||alpha||_1^2 - mean^2
    mean = exact_expectation(RHO_A, OBS_A)
    assert variance_l1(OBS_A, RHO_A) == pytest.approx(1.3 ** 2 - mean ** 2, abs=1e-12)


def test_variance_grouping_matches_enumeration():
    o = WeightedPauliSum(
        2, [(1.0, P("ZZ")), (0.5, P("ZI")), (0.25, P("IZ")), (0.25, P("XX"))]
    )
    plan = plan_ldf(o)
    _, var = enumerate_moments(plan, o, RHO_A)
    assert var == pytest.approx(variance_grouping(plan, o, RHO_A), abs=1e-10)


@pytest.mark.parametrize(
    "plan_factory", [lambda o: plan_uniform_cs(o.n), lambda o: plan_lbcs(o)], ids=["cs", "lbcs"]
)
def test_variance_product_matches_enumeration(plan_factory):
    plan = plan_factory(OBS_A)
    _, var = enumerate_moments(plan, OBS_A, RHO_A)
    exact, bound = variance_product_scheme(plan.distribution, OBS_A, RHO_A)
    assert var == pytest.approx(exact, abs=1e-10)
    assert bound >= exact - 1e-12
    max_supp = max(p.weight for p in OBS_A.paulis)
    assert bound == pytest.approx(3.0 ** max_supp * OBS_A.l1_norm ** 2)


def test_variance_generic_reproduces_l1():
    plan = plan_l1(OBS_A)
    assert variance_generic(plan, OBS_A, RHO_A) == pytest.approx(
        variance_l1(OBS_A, RHO_A), abs=1e-12
    )


def test_variance_generic_reproduces_grouping():
    plan = plan_ldf(OBS_B)
    assert variance_generic(plan, OBS_B, RHO_B) == pytest.approx(
        variance_grouping(plan, OBS_B, RHO_B), abs=1e-12
    )


def test_variance_generic_reproduces_product():
    entries = tuple(
        (P(a + b), 1.0 / 9.0) for a in "XYZ" for b in "XYZ"
    )
    synthetic = MeasurementPlan(
        scheme="cs",
        n=2,
        terms=OBS_A.paulis,
        distribution=BasisDistribution("explicit", explicit=entries),
    )
    exact, _ = variance_product_scheme(plan_uniform_cs(2).distribution, OBS_A, RHO_A)
    assert variance_generic(synthetic, OBS_A, RHO_A) == pytest.approx(exact, abs=1e-10)
    # a biased product law written out as its 9 bases: non-uniform K
    q = plan_lbcs(OBS_A).distribution.product
    biased = MeasurementPlan(
        scheme="lbcs",
        n=2,
        terms=OBS_A.paulis,
        distribution=BasisDistribution("explicit", explicit=tuple(
            (P(a + b), q[0, i] * q[1, j]) for i, a in enumerate("XYZ") for j, b in enumerate("XYZ")
        )),
    )
    exact, _ = variance_product_scheme(plan_lbcs(OBS_A).distribution, OBS_A, RHO_A)
    assert variance_generic(biased, OBS_A, RHO_A) == pytest.approx(exact, abs=1e-10)


def test_variance_error_paths():
    cs = plan_uniform_cs(2)
    with pytest.raises(PlanMismatch):
        variance_grouping(cs, OBS_A, RHO_A)
    with pytest.raises(PlanMismatch):
        variance_generic(cs, OBS_A, RHO_A)
    with pytest.raises(PlanMismatch):
        variance_product_scheme(plan_l1(OBS_A).distribution, OBS_A, RHO_A)
    small = plan_l1(WeightedPauliSum(2, [(0.8, P("ZZ"))]))
    with pytest.raises(CoverageError):
        variance_generic(small, OBS_B, RHO_B)
    with pytest.raises(CoverageError):
        variance_grouping(plan_ldf(WeightedPauliSum(2, [(0.8, P("ZZ"))])), OBS_B, RHO_B)
    with pytest.raises(DimensionMismatch):
        variance_l1(OBS_A, random_mixed_state(3, np.random.default_rng(1)))


def test_estimate_converges_and_reports():
    plan = plan_l1(OBS_A)
    records = sample_records(plan, RHO_A, 4000, seed=5)
    report = estimate(records, plan, OBS_A)
    exact = exact_expectation(RHO_A, OBS_A)
    sigma = math.sqrt(variance_l1(OBS_A, RHO_A) / 4000)
    assert abs(report.value - exact) < 5 * sigma
    assert report.n_samples == 4000
    assert len(report.s_l) == 3
    assert sum(report.s_l) == 4000
    assert report.epsilon0 == 0.0
    again = estimate(records, plan, OBS_A)
    assert again.value == report.value


def test_estimate_medianmeans():
    plan = plan_l1(OBS_A)
    records = sample_records(plan, RHO_A, 4000, seed=5)
    report = estimate(records, plan, OBS_A, aggregator="medianmeans", batches=10)
    exact = exact_expectation(RHO_A, OBS_A)
    assert abs(report.value - exact) < 0.25
    with pytest.raises(ValueError):
        estimate(records, plan, OBS_A, aggregator="medianmeans", batches=0)
    with pytest.raises(ValueError):
        estimate(records, plan, OBS_A, aggregator="mode")


def test_estimate_reports_unplanned_term_as_bias():
    subset = WeightedPauliSum(2, [(0.6, P("ZX")), (-0.4, P("XI"))])
    plan = plan_l1(subset)
    records = sample_records(plan, RHO_A, 200, seed=9)
    report = estimate(records, plan, OBS_A)
    assert report.s_l[2] == 0
    assert report.epsilon0 == pytest.approx(0.3)


def test_estimate_derandomized_ghz_exact():
    plan = plan_derandomized(OBS_B, 6)
    rho = ghz(2)
    records = sample_records_for_bases(rho, plan.fixed_bases, 25, seed=100)
    report = estimate_derandomized(records, plan, OBS_B)
    # both ZZ and XX stabilize the GHZ pair, so every outcome is +1
    assert report.value == pytest.approx(0.3, abs=1e-12)
    assert report.s_l == (75, 75)
    assert report.epsilon0 == 0.0
    assert report.n_samples == 150


def sample_records_for_bases(rho, bases, nr, seed):
    """nr unit shots in each basis in turn, the k-th basis seeded seed + k."""
    from paulimeter.states import sample_outcomes

    outcomes = [sample_outcomes(rho, basis, np.random.default_rng(seed + k).random(nr))
                for k, basis in enumerate(bases)]
    return ShotBatch(np.repeat([b.codes() for b in bases], nr, axis=0), np.concatenate(outcomes))


def test_estimate_derandomized_reports_unhit_weight():
    plan = plan_derandomized(OBS_B, 1)
    assert plan.unhit_terms == (0,)
    basis = plan.fixed_bases[0]
    records = sample_records_for_bases(ghz(2), [basis], 10, seed=3)
    report = estimate_derandomized(records, plan, OBS_B)
    assert report.value == pytest.approx(-0.5, abs=1e-12)
    assert report.epsilon0 == pytest.approx(0.8)
    assert report.s_l == (0, 10)


def test_alignment_and_kind_errors():
    plan = plan_derandomized(OBS_B, 4)
    rho = ghz(2)
    records = sample_records_for_bases(rho, plan.fixed_bases, 2, seed=0)
    estimate_derandomized(records, plan, OBS_B)  # aligned; should not raise
    with pytest.raises(PlanMismatch):
        estimate_derandomized(ShotBatch(records.letters[:-1], records.bits[:-1]), plan, OBS_B)
    order = np.r_[2:4, 0:2, 4:len(records)]
    shuffled = ShotBatch(records.letters[order], records.bits[order])
    if str(plan.fixed_bases[0]) != str(plan.fixed_bases[1]):
        with pytest.raises(ForeignRecord):
            estimate_derandomized(shuffled, plan, OBS_B)
    assert estimate(records, plan, OBS_B) == estimate_derandomized(records, plan, OBS_B)
    with pytest.raises(PlanMismatch):
        estimate(records, plan, OBS_B, aggregator="medianmeans")
    rand_plan = plan_l1(OBS_B)
    rand_records = sample_records(rand_plan, rho, 10, seed=1)
    with pytest.raises(PlanMismatch):
        estimate_derandomized(rand_records, rand_plan, OBS_B)
    # an explicit plan built in code without term membership
    no_members = MeasurementPlan(
        scheme="cs", n=2, terms=OBS_B.paulis,
        distribution=BasisDistribution("explicit", explicit=((P("ZZ"), 1.0),)),
    )
    with pytest.raises(PlanMismatch):
        estimate(ShotBatch([P("ZZ").codes()], [(0, 1)]), no_members, OBS_B)


def test_foreign_and_empty_records():
    plan = plan_l1(OBS_A)
    with pytest.raises(ForeignRecord):
        per_shot_estimates(ShotBatch([P("XY").codes()], [(0, 0)]), plan, OBS_A)
    with pytest.raises(EmptyInput):
        estimate(ShotBatch(np.empty((0, 2)), np.empty((0, 2))), plan, OBS_A)
    with pytest.raises(DimensionMismatch):
        per_shot_estimates(
            ShotBatch([P("ZZ").codes()], [(0, 0)]),
            plan,
            WeightedPauliSum(3, [(1.0, P("ZZZ"))]),
        )


def test_per_term_expectations_ghz_sharp():
    plan = plan_ldf(OBS_B)
    records = sample_records(plan, ghz(2), 600, seed=2)
    vals, s_l = per_term_expectations(records, plan, OBS_B)
    # stabilizer outcomes are +1 deterministically; inverse-probability
    # weighting makes each term's estimate exact on average over entries
    assert s_l.sum() == 600
    for val in vals:
        assert val == pytest.approx(1.0, abs=0.35)


def test_sample_size_formulas():
    want = math.ceil(2.0 * math.log(10) * math.log(20) * 4.0 / 0.1 ** 2)
    assert sample_size_linear(10, 0.05, 0.1, 4.0) == want
    assert sample_size_linear(2, 0.5, 10.0, 1e-9) == 1
    assert sample_size_nonlinear(2, 2, 0.05, 0.1, 2.0) == math.ceil(
        2.0 ** 4 * 2.0 / (0.05 * 0.1 ** 2)
    )
    with pytest.raises(ValueError):
        sample_size_linear(1, 0.05, 0.1, 1.0)
    with pytest.raises(ValueError):
        sample_size_linear(10, 1.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        sample_size_linear(10, 0.05, 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_size_nonlinear(0, 2, 0.05, 0.1, 1.0)
    with pytest.raises(ValueError):
        sample_size_nonlinear(2, 2, 0.05, 0.1, -1.0)


def test_weighted_shots_probabilities_sum_to_one():
    for plan in (plan_l1(OBS_A), plan_uniform_cs(2), plan_lbcs(OBS_A)):
        _, weights = weighted_shots(plan, RHO_A)
        assert weights.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("scheme", ["l1", "ldf", "cs", "lbcs", "derand"])
def test_estimates_over_row_blocks_equal_one_block(monkeypatch, scheme):
    # blocks of 1, 2, 7 and 64 rows, the last one partial, give the bytes of
    # one block: per-row values are the same, fsum rounds once, and the hit
    # and reps * mu sums are integers
    rng = np.random.default_rng(31)
    if scheme == "derand":
        plan = plan_derandomized(OBS_A, 9)
        records = sample_records_for_bases(RHO_A, plan.fixed_bases, 11, seed=4)
    else:
        plan = {"l1": plan_l1, "ldf": plan_ldf, "lbcs": plan_lbcs,
                "cs": lambda o: plan_uniform_cs(o.n)}[scheme](OBS_A)
        records = sample_records(plan, RHO_A, 150, seed=4, nr=2)
    batch = ShotBatch(records.letters, records.bits, rng.integers(1, 6, len(records)))

    def results():
        out = [estimate(batch, plan, OBS_A), per_term_expectations(batch, plan, OBS_A)]
        if scheme != "derand":
            out += [estimate(batch, plan, OBS_A, aggregator="medianmeans", batches=7),
                    per_shot_estimates(batch, plan, OBS_A)]
        return repr([(r.value.hex(), r.n_samples, r.s_l, r.epsilon0.hex()) if hasattr(r, "s_l")
                     else np.asarray(r).tobytes() for r in out])

    whole = results()
    assert len(batch) < estimators._BLOCK_ROWS
    for rows in (1, 2, 7, 64):
        monkeypatch.setattr(estimators, "_BLOCK_ROWS", rows)
        assert results() == whole
    if scheme in ("cs", "lbcs"):
        return
    # a foreign row in the last block is found there, with the same message
    letters = batch.letters.copy()
    letters[-1] = next(row for row in itertools.product((1, 2, 3), repeat=2)
                       if list(row) != letters[-1].tolist()
                       and (scheme == "derand" or row not in map(tuple, plan.letters.tolist())))
    messages = set()
    for rows in (7, estimators._BLOCK_ROWS):
        monkeypatch.setattr(estimators, "_BLOCK_ROWS", rows)
        with pytest.raises(ForeignRecord) as err:
            per_term_expectations(ShotBatch(letters, batch.bits), plan, OBS_A)
        messages.add(str(err.value))
    assert len(messages) == 1
