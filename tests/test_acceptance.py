"""End-to-end acceptance gates.

Each test exercises one gate at its stated tolerance, records a PASS/FAIL
line for the terminal summary, and then asserts.  Everything is seeded;
the heavier gates drive the experiment runners with worker processes.
"""

import collections
import itertools
import math
import statistics
import time

import numpy as np
import pytest

from conftest import record_criterion
from enumtools import enumerate_moments, permutation_moment_oracle, snapshot_matrix, weighted_shots
from paulimeter.estimators import (
    ShotBatch,
    per_shot_estimates,
    variance_generic,
    variance_grouping,
    variance_l1,
    variance_product_scheme,
)
from paulimeter.experiments import (
    ExperimentSpec,
    run_energy_experiment,
    run_entanglement_experiment,
    run_observables_experiment,
)
from paulimeter.formats import builtin_hamiltonian
from paulimeter.paulis import PauliString, WeightedPauliSum
from paulimeter.schemes import (
    BasisDistribution,
    MeasurementPlan,
    draw_bases,
    plan_l1,
    plan_lbcs,
    plan_ldf,
    plan_uniform_cs,
)
from paulimeter.states import (
    SubsystemMask,
    born_distribution,
    exact_expectation,
    exact_pt_moment,
    ghz,
    random_mixed_state,
)

P = PauliString.from_text
JOBS = 4


def random_observable(rng, n, min_terms=2, max_terms=4):
    count = min(int(rng.integers(min_terms, max_terms + 1)), 4 ** n - 1)
    seen = set()
    while len(seen) < count:
        codes = tuple(int(c) for c in rng.integers(0, 4, size=n))
        if any(codes):
            seen.add(codes)
    terms = []
    for codes in sorted(seen):
        coeff = 0.0
        while abs(coeff) < 0.05:
            coeff = float(rng.uniform(-1.0, 1.0))
        terms.append((coeff, PauliString.from_codes(codes)))
    return WeightedPauliSum(n, terms)


def csv_rows(text):
    import csv as _csv
    import io

    return list(_csv.DictReader(io.StringIO(text)))


def test_criterion_1_estimators_unbiased_under_enumeration():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    checks = 0
    for k in range(20):
        n = k % 3 + 1
        rho = random_mixed_state(n, rng)
        o = random_observable(rng, n)
        exact = exact_expectation(rho, o)
        for plan in (plan_l1(o), plan_ldf(o), plan_uniform_cs(n), plan_lbcs(o)):
            mean, _ = enumerate_moments(plan, o, rho)
            worst = max(worst, abs(mean - exact))
            checks += 1
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-10 and elapsed < 30.0
    record_criterion(
        1,
        "randomized schemes are exactly unbiased on enumerated shot spaces",
        passed,
        f"worst |mean-exact| {worst:.2e} over {checks} plans, {elapsed:.1f}s",
    )
    assert passed


def test_criterion_2_channel_inversion_exact():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for k in range(20):
        n = k % 3 + 1
        rho = random_mixed_state(n, rng)
        records, weights = weighted_shots(plan_uniform_cs(n), rho)
        mean = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for codes, bits, w in zip(records.letters, records.bits, weights):
            mean += w * snapshot_matrix(codes, bits)
        worst = max(worst, float(np.max(np.abs(mean - rho.mat))))
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-12 and elapsed < 1.0
    record_criterion(
        2,
        "snapshot channel inversion reproduces every state exactly",
        passed,
        f"worst entry deviation {worst:.2e} over 20 states, {elapsed:.2f}s",
    )
    assert passed


def test_criterion_3_permutation_oracle_matches_spectral_moments():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(50):
        n = k % 3 + 1
        rho = random_mixed_state(n, rng)
        members = frozenset(int(i) + 1 for i in range(n) if rng.integers(2))
        mask = SubsystemMask(n, members or frozenset({1}))
        for order in (2, 3):
            a = permutation_moment_oracle(rho, mask, order)
            b = exact_pt_moment(rho, mask, order)
            worst = max(worst, abs(a - b))
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-10 and elapsed < 60.0
    record_criterion(
        3,
        "permutation-sum oracle equals spectral PT moments at orders 2 and 3",
        passed,
        f"worst deviation {worst:.2e} over 50 states, {elapsed:.1f}s",
    )
    assert passed


def test_criterion_4_ghz_observable_pool_accuracy():
    t0 = time.monotonic()
    spec = ExperimentSpec(
        task="observables",
        schemes=("l1", "ldf", "cs", "lbcs", "derand"),
        ns_grid=(2000,),
        repetitions=20,
        seed=0,
    )
    rows = csv_rows(run_observables_experiment(spec, jobs=JOBS).csv)
    med = {
        s: statistics.median(
            float(r["max_abs_error"]) for r in rows if r["scheme"] == s
        )
        for s in spec.schemes
    }
    elapsed = time.monotonic() - t0
    passed = (
        all(med[s] <= 0.1 for s in ("cs", "lbcs", "ldf", "derand"))
        and med["l1"] > med["derand"]
        and elapsed < 300.0
    )
    detail = ", ".join(f"{s} {med[s]:.3f}" for s in spec.schemes)
    record_criterion(
        4,
        "GHZ pool: median worst-case error within 0.1 for grouped and shadow schemes",
        passed,
        f"{detail}; {elapsed:.0f}s",
    )
    assert passed, detail


def test_criterion_5_second_moment_scheme_ordering():
    t0 = time.monotonic()
    spec = ExperimentSpec(
        task="moment2",
        schemes=("l1", "ldf", "derand"),
        ns_grid=(600,),
        repetitions=20,
        seed=0,
        hamiltonian=builtin_hamiltonian("lattice4"),
    )
    rows = csv_rows(run_energy_experiment(spec, jobs=JOBS).csv)
    med = {
        s: statistics.median(float(r["abs_error"]) for r in rows if r["scheme"] == s)
        for s in spec.schemes
    }
    elapsed = time.monotonic() - t0
    passed = med["derand"] < med["l1"] and elapsed < 300.0
    detail = f"derand {med['derand']:.3f} <= ldf {med['ldf']:.3f} <= l1 {med['l1']:.3f}; {elapsed:.0f}s"
    record_criterion(
        5,
        "squared-Hamiltonian estimation: derandomized beats importance sampling",
        passed,
        detail,
    )
    assert passed, detail


def all_proper_masks_4():
    out = []
    for r in range(1, 4):
        for combo in itertools.combinations(range(1, 5), r):
            out.append(SubsystemMask(4, frozenset(combo)))
    return tuple(out)


def test_criterion_6_subsystem_purities_from_shadows():
    t0 = time.monotonic()
    masks = all_proper_masks_4() + (SubsystemMask.full(4),)
    spec = ExperimentSpec(
        task="purity", ns_grid=(1000,), repetitions=1, seed=0, masks=masks
    )
    rows = csv_rows(run_entanglement_experiment(spec, jobs=1).csv)
    purity = {r["mask"]: float(r["purity"]) for r in rows}
    proper_dev = max(
        abs(purity[str(m)] - 0.5) for m in all_proper_masks_4()
    )
    full = purity[str(SubsystemMask.full(4))]
    elapsed = time.monotonic() - t0
    passed = proper_dev <= 0.15 and 0.8 <= full <= 1.1 and elapsed < 120.0
    record_criterion(
        6,
        "GHZ subsystem purities land on 1/2 and the full state stays pure",
        passed,
        f"worst proper-mask deviation {proper_dev:.3f}, full purity {full:.3f}, {elapsed:.0f}s",
    )
    assert passed


def test_criterion_7_moment_certificate_margins():
    t0 = time.monotonic()
    masks = all_proper_masks_4()
    spec = ExperimentSpec(
        task="certify", ns_grid=(200,), repetitions=10, seed=2, masks=masks
    )
    rows = csv_rows(run_entanglement_experiment(spec, jobs=JOBS).csv)
    margins = collections.defaultdict(list)
    p2s = collections.defaultdict(list)
    p3s = collections.defaultdict(list)
    for r in rows:
        margins[r["mask"]].append(float(r["margin"]))
        p2s[r["mask"]].append(float(r["p2"]))
        p3s[r["mask"]].append(float(r["p3"]))
    worst_hits = min(sum(m > 0 for m in vals) for vals in margins.values())
    # Point value per bipartition: estimates pooled over repetitions first,
    # then combined, matching how a single quoted number is produced.
    points = {
        k: statistics.fmean(p2s[k]) ** 2 - statistics.fmean(p3s[k]) for k in p2s
    }
    point_dev = max(abs(v - 0.75) for v in points.values())
    elapsed = time.monotonic() - t0
    passed = worst_hits >= 8 and point_dev <= 0.2 and elapsed < 300.0
    record_criterion(
        7,
        "PT-moment margins certify GHZ entanglement across every bipartition",
        passed,
        f"weakest mask positive in {worst_hits}/10 runs, worst point offset {point_dev:.3f}, {elapsed:.0f}s",
    )
    assert passed


OBS_A = WeightedPauliSum(2, [(0.6, P("ZX")), (-0.4, P("XI")), (0.3, P("YY"))])
OBS_B = WeightedPauliSum(2, [(0.8, P("ZZ")), (-0.5, P("XX"))])
OBS_G = WeightedPauliSum(
    2, [(1.0, P("ZZ")), (0.5, P("ZI")), (0.25, P("IZ")), (0.25, P("XX"))]
)
RHO_A = random_mixed_state(2, np.random.default_rng(42))
RHO_B = random_mixed_state(2, np.random.default_rng(43))


def empirical_single_shot_variance(plan, o, rho, shots, seed):
    """Sample variance of the one-shot estimator, folded over the finite
    (basis, outcome) alphabet, plus its standard error."""
    rng = np.random.default_rng(seed)
    bases = [PauliString.from_codes(row) for row in draw_bases(plan, shots, rng)]
    counts = collections.Counter((b.x, b.z) for b in bases)
    lookup = {}
    letters = []
    bits = []
    reps = []
    for (bx, bz), c in sorted(counts.items()):
        basis = bases[next(i for i, b in enumerate(bases) if (b.x, b.z) == (bx, bz))]
        probs = born_distribution(rho, basis)
        outcome_counts = rng.multinomial(c, probs)
        n = plan.n
        for idx, m in enumerate(outcome_counts):
            if m == 0:
                continue
            letters.append(basis.codes())
            bits.append([(idx >> (n - 1 - i)) & 1 for i in range(n)])
            reps.append(int(m))
    batch = ShotBatch(letters, bits)
    values = per_shot_estimates(batch, plan, o)
    w = np.array(reps, dtype=float)
    total = w.sum()
    mean = float(np.dot(w, values)) / total
    centered = values - mean
    s2 = float(np.dot(w, centered ** 2)) / (total - 1)
    m4 = float(np.dot(w, centered ** 4)) / total
    se = math.sqrt(max(m4 - s2 * s2, 0.0) / total)
    return s2, se


def test_criterion_8_variance_calculators():
    shots = 100_000
    cases = [
        ("l1/importance", plan_l1(OBS_A), OBS_A, RHO_A, variance_l1(OBS_A, RHO_A)),
        (
            "ldf/grouped",
            plan_ldf(OBS_G),
            OBS_G,
            RHO_A,
            variance_grouping(plan_ldf(OBS_G), OBS_G, RHO_A),
        ),
        (
            "cs/uniform",
            plan_uniform_cs(2),
            OBS_A,
            RHO_A,
            variance_product_scheme(plan_uniform_cs(2).distribution, OBS_A, RHO_A)[0],
        ),
        (
            "lbcs/biased",
            plan_lbcs(OBS_A),
            OBS_A,
            RHO_A,
            variance_product_scheme(plan_lbcs(OBS_A).distribution, OBS_A, RHO_A)[0],
        ),
        (
            "ldf/two-group",
            plan_ldf(OBS_B),
            OBS_B,
            RHO_B,
            variance_grouping(plan_ldf(OBS_B), OBS_B, RHO_B),
        ),
    ]
    worst_z = 0.0
    for i, (label, plan, o, rho, analytic) in enumerate(cases):
        s2, se = empirical_single_shot_variance(plan, o, rho, shots, seed=60 + i)
        z = abs(s2 - analytic) / se
        worst_z = max(worst_z, z)

    # the generic hit-probability calculator against each specialized one
    dev_l1 = abs(
        variance_generic(plan_l1(OBS_A), OBS_A, RHO_A) - variance_l1(OBS_A, RHO_A)
    )
    ldf_plan = plan_ldf(OBS_B)
    dev_grp = abs(
        variance_generic(ldf_plan, OBS_B, RHO_B)
        - variance_grouping(ldf_plan, OBS_B, RHO_B)
    )
    entries = tuple((P(a + b), 1.0 / 9.0) for a in "XYZ" for b in "XYZ")
    synthetic = MeasurementPlan(
        scheme="cs",
        n=2,
        terms=OBS_A.paulis,
        distribution=BasisDistribution("explicit", explicit=entries),
    )
    dev_prod = abs(
        variance_generic(synthetic, OBS_A, RHO_A)
        - variance_product_scheme(plan_uniform_cs(2).distribution, OBS_A, RHO_A)[0]
    )
    worst_dev = max(dev_l1, dev_grp, dev_prod)
    passed = worst_z <= 3.0 and worst_dev <= 1e-10
    record_criterion(
        8,
        "variance calculators match sampled variances and the generic form",
        passed,
        f"worst empirical z {worst_z:.2f} at {shots} shots, worst generic deviation {worst_dev:.1e}",
    )
    assert passed


def test_criterion_9_purity_error_scaling():
    t0 = time.monotonic()
    spec = ExperimentSpec(
        task="purity",
        ns_grid=(30, 100, 300),
        repetitions=10,
        seed=0,
        masks=(SubsystemMask.of(4, 1),),
    )
    rows = csv_rows(run_entanglement_experiment(spec, jobs=JOBS).csv)
    errs = collections.defaultdict(list)
    for r in rows:
        errs[int(r["N_s"])].append(abs(float(r["purity"]) - 0.5))
    med = {ns: statistics.median(v) for ns, v in errs.items()}
    slope = math.log(med[300] / med[30]) / math.log(300 / 30)
    elapsed = time.monotonic() - t0
    passed = slope <= -0.7
    record_criterion(
        9,
        "purity error decays at least like one over the snapshot count^0.7",
        passed,
        f"median errors {med[30]:.4f} -> {med[100]:.4f} -> {med[300]:.4f}, slope {slope:.2f}, {elapsed:.0f}s",
    )
    assert passed


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    from click.testing import CliRunner

    from paulimeter.cli import main

    def run(args):
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result

    obs_args = [
        "bench", "observables", "--scheme", "cs,l1", "--ns", "40", "--reps", "2",
        "--seed", "5",
    ]
    cert_args = [
        "bench", "certify", "--ns", "50,80", "--reps", "2", "--seed", "3",
        "--mask", "1", "--mask", "1,2",
    ]
    blobs = {}
    for name, args in (("obs", obs_args), ("cert", cert_args)):
        outs = [tmp_path / f"{name}{i}.csv" for i in range(3)]
        for extra, path in zip(([], [], ["--jobs", "2"]), outs):
            run(args + extra + ["--out", str(path)])
        blobs[name] = [p.read_bytes() for p in outs]
    shadows = [tmp_path / f"s{i}.txt" for i in range(2)]
    for path in shadows:
        run(["shadows", "--ns", "150", "--seed", "9", "--qubits", "4", "--out", str(path)])
    same = (
        blobs["obs"][0] == blobs["obs"][1] == blobs["obs"][2]
        and blobs["cert"][0] == blobs["cert"][1] == blobs["cert"][2]
        and shadows[0].read_bytes() == shadows[1].read_bytes()
    )
    record_criterion(
        10,
        "identical seeds give byte-identical CLI output, serial or parallel",
        same,
        "bench observables, bench certify, shadows",
    )
    assert same
