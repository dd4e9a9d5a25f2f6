"""Snapshot algebra, channel inversion, and nonlinear U-statistics."""

import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paulimeter.shadows as shadows_module
from enumtools import snapshot_matrix, snapshot_sum_kron, weighted_shots
from paulimeter.errors import DimensionMismatch, EmptyInput, FeasibilityError
from paulimeter.estimators import ShotBatch, estimate
from paulimeter.paulis import PauliString, WeightedPauliSum
from paulimeter.schemes import plan_uniform_cs
from paulimeter.shadows import (
    ShadowSet,
    _build_snapshot_sum,
    _pair_kernel,
    _snapshot_sum,
    collect_shadows,
    p3_ppt_certificate,
    pt_moment_ustat,
    purity_certificate,
    purity_ustat,
    reconstruct_mean,
)
from paulimeter.states import (
    SubsystemMask,
    exact_expectation,
    exact_pt_moment,
    exact_subsystem_purity,
    ghz,
    random_mixed_state,
)

P = PauliString.from_text


def reduce_sites(mat: np.ndarray, n: int, keep) -> np.ndarray:
    """Trace a 2^n matrix down to the kept (0-based) sites."""
    t = mat.reshape((2,) * (2 * n))
    dropped = 0
    for site in range(n):
        if site in keep:
            continue
        ax = site - dropped
        t = np.trace(t, axis1=ax, axis2=ax + n - dropped)
        dropped += 1
    dim = 2 ** (n - dropped)
    return t.reshape(dim, dim)


def pt_sites(mat: np.ndarray, n: int, sites) -> np.ndarray:
    """Transpose the given (0-based) sites of a 2^n matrix."""
    t = mat.reshape((2,) * (2 * n))
    for s in sites:
        t = np.swapaxes(t, s, s + n)
    return t.reshape(2 ** n, 2 ** n)


def test_snapshot_single_site_factors():
    np.testing.assert_allclose(snapshot_matrix([3], [0]), np.diag([2.0, -1.0]))
    np.testing.assert_allclose(snapshot_matrix([3], [1]), np.diag([-1.0, 2.0]))
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    want = 3.0 * np.outer(minus, minus) - np.eye(2)
    np.testing.assert_allclose(snapshot_matrix([1], [1]), want, atol=1e-12)


def test_snapshot_tensor_structure_and_trace():
    s = snapshot_matrix(P("ZX").codes(), (0, 1))
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    x1 = 3.0 * np.outer(minus, minus) - np.eye(2)
    np.testing.assert_allclose(s, np.kron(np.diag([2.0, -1.0]), x1), atol=1e-12)
    assert np.trace(s) == pytest.approx(1.0, abs=1e-12)
    # a one-snapshot set reconstructs to the same matrix
    np.testing.assert_allclose(reconstruct_mean(ShadowSet(2, [[3, 1]], [[1, -1]])), s, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_channel_inversion_is_exact(n):
    rho = random_mixed_state(n, np.random.default_rng(17 + n))
    records, weights = weighted_shots(plan_uniform_cs(n), rho)
    mean = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for codes, bits, w in zip(records.letters, records.bits, weights):
        mean += w * snapshot_matrix(codes, bits)
    np.testing.assert_allclose(mean, rho.mat, atol=1e-12)


def test_mean_reduced_snapshot_is_unbiased():
    rho = random_mixed_state(2, np.random.default_rng(23))
    records, weights = weighted_shots(plan_uniform_cs(2), rho)
    mean = np.zeros((2, 2), dtype=complex)
    for codes, bits, w in zip(records.letters, records.bits, weights):
        mean += w * reduce_sites(snapshot_matrix(codes, bits), 2, (0,))
    np.testing.assert_allclose(mean, reduce_sites(rho.mat, 2, (0,)), atol=1e-12)


def test_collect_shadows_deterministic():
    rho = ghz(3)
    a = collect_shadows(rho, 50, 9)
    b = collect_shadows(rho, 50, 9)
    np.testing.assert_array_equal(a.letters, b.letters)
    np.testing.assert_array_equal(a.signs, b.signs)
    assert len(a) == 50
    with pytest.raises(ValueError):
        collect_shadows(rho, 0, 1)


def test_records_round_trip_and_validation():
    rho = random_mixed_state(2, np.random.default_rng(2))
    sh = collect_shadows(rho, 30, 4)
    back = ShadowSet.from_records(sh.records())
    np.testing.assert_array_equal(back.letters, sh.letters)
    np.testing.assert_array_equal(back.signs, sh.signs)
    reps = ShotBatch([P("XZ").codes()], [(0, 1)], [3])
    counted = ShadowSet.from_records(reps)
    assert counted.shots == 3 and len(counted) == 1
    # the set shares the batch's read-only arrays: nothing is copied
    for mine, theirs in ((counted.letters, reps.letters), (counted.bits, reps.bits),
                         (counted.reps, reps.reps)):
        assert mine is theirs and not mine.flags.writeable
    with pytest.raises(EmptyInput):
        ShadowSet.from_records(ShotBatch(np.empty((0, 2)), np.empty((0, 2))))
    with pytest.raises(ValueError):
        ShadowSet(1, np.array([[4]]), np.array([[1]]))
    with pytest.raises(ValueError):
        ShadowSet(1, np.array([[1]]), np.array([[2]]))


def test_a_row_of_many_reps_is_read_at_its_own_size():
    # 10^9 snapshots of one row: an expanded copy would take 4 GB.  mc:
    # draws its tuples 2^16 at a time, a chunk the seeded stream fixes, which
    # peaks at 2.6 MiB (pairs) and 4.1 MiB (triples) whatever the reps
    batch = ShotBatch([P("XZ").codes()], [(0, 1)], [10 ** 9])
    for call, limit_mib, want in (
            (lambda sh: purity_ustat(sh, SubsystemMask.full(2)), 1, 25.0),
            (lambda sh: pt_moment_ustat(sh, SubsystemMask.of(2, 1), 2, "mc:2000"), 3, 25.0),
            (lambda sh: pt_moment_ustat(sh, SubsystemMask.of(2, 1), 3, "mc:2000"), 5, 49.0)):
        tracemalloc.start()
        try:
            value = call(ShadowSet.from_records(batch))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2 ** 20
        assert value == want


def test_pickle_round_trip_keeps_arrays_read_only_and_drops_memo():
    batch = ShotBatch([P("XZ").codes(), P("YY").codes()], [(0, 1), (1, 1)], [3, 1])
    back = pickle.loads(pickle.dumps(batch))
    assert type(back) is ShotBatch and back == batch
    sh = collect_shadows(random_mixed_state(3, np.random.default_rng(5)), 20, 6)
    p3_ppt_certificate(sh, SubsystemMask.of(3, 1))
    assert sh._sums
    copy = pickle.loads(pickle.dumps(sh))
    assert type(copy) is ShadowSet and copy == sh
    assert copy._sums == {}
    for arr in (back.letters, back.bits, back.reps, copy.letters, copy.bits, copy.reps):
        assert not arr.flags.writeable
    assert p3_ppt_certificate(copy, SubsystemMask.of(3, 1)) == (
        p3_ppt_certificate(sh, SubsystemMask.of(3, 1)))


def random_set(n: int, count: int, seed: int) -> ShadowSet:
    rng = np.random.default_rng(seed)
    return ShadowSet(n, rng.integers(1, 4, size=(count, n)), rng.choice([-1, 1], size=(count, n)))


def test_snapshot_sum_across_chunks_matches_dense_snapshots():
    # 600 snapshots at n=6 are a 37.5 MiB stack of blocks, past the 32 MiB
    # budget: T1 is split on site 0 and each subtree is grouped on its own
    sh = random_set(6, 600, 9)
    want = sum(snapshot_matrix(sh.letters[k], sh.bits[k]) for k in range(len(sh)))
    np.testing.assert_allclose(_build_snapshot_sum(sh), want, rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), count=st.integers(1, 700),
       letters=st.sampled_from(((3,), (1,), (2, 3), (1, 2), (1, 2, 3))),
       signs=st.sampled_from(((1,), (-1, 1))),
       budget=st.sampled_from((0, 1 << 10, 1 << 16, shadows_module._KRON_BYTES)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=7, count=700, letters=(1, 2, 3), signs=(-1, 1), budget=1 << 16, seed=0)
@example(n=6, count=300, letters=(1, 2, 3), signs=(-1, 1), budget=shadows_module._KRON_BYTES,
         seed=1)
@example(n=1, count=1, letters=(3,), signs=(-1, 1), budget=0, seed=2)
def test_grouped_snapshot_sum_equals_the_kron_stack(n, count, letters, signs, budget, seed):
    # every partial sum is exact, so the grouped order gives the same bytes,
    # signed zeros included; budget 0 splits on the leading site at every depth
    rng = np.random.default_rng(seed)
    sh = ShadowSet(n, rng.choice(letters, (count, n)), rng.choice(signs, (count, n)))
    want = snapshot_sum_kron(sh)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shadows_module, "_KRON_BYTES", budget)
        got = _build_snapshot_sum(sh)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), rows=st.integers(1, 12), most=st.sampled_from((1, 2, 5, 40)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=3, rows=12, most=40, seed=0)
@example(n=5, rows=3, most=40, seed=1)
def test_weighted_rows_equal_their_expansion(n, rows, most, seed):
    # every weight is an integer and every partial sum of T1 and of the pair
    # table is exact at these sizes, so weighing a row by its reps gives the
    # bytes of copying it; the feature map rounds through 1/sqrt(2)
    rng = np.random.default_rng(seed)
    letters, bits = rng.integers(1, 4, (rows, n)), rng.integers(0, 2, (rows, n))
    reps = rng.integers(1, most + 1, rows)
    weighted = ShadowSet.from_records(ShotBatch(letters, bits, reps))
    expanded = ShadowSet.from_records(ShotBatch(np.repeat(letters, reps, 0), np.repeat(bits, reps, 0)))
    assert weighted.shots == expanded.shots == len(expanded)
    assert _build_snapshot_sum(weighted).tobytes() == _build_snapshot_sum(expanded).tobytes()
    for m in range(1, n + 1):
        for sites in itertools.combinations(range(n), m):
            # the cost rule: the feature map runs once 4^m <= rows * m
            on_table = [4 ** m > len(s) * m for s in (weighted, expanded)]
            for alpha in (0.5, 2.5):
                got, want = _pair_kernel(weighted, sites, alpha), _pair_kernel(expanded, sites, alpha)
                if all(on_table):
                    assert got == want
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    mask = SubsystemMask.of(n, 1)
    for order in range(2, min(3, weighted.shots) + 1):
        assert pt_moment_ustat(weighted, mask, order, "mc:300", seed) == (
            pt_moment_ustat(expanded, mask, order, "mc:300", seed))
    if weighted.shots >= 3:
        assert pt_moment_ustat(weighted, mask, 3) == pytest.approx(
            pt_moment_ustat(expanded, mask, 3), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n, limit_mib", [(6, 2), (10, 48)])
def test_snapshot_sum_memory_is_bounded(n, limit_mib):
    # a per-snapshot Kronecker stack peaks at 23.9 MiB (n=6) and over
    # 60 MiB (n=10); T1 itself is 64 KiB and 16 MiB
    sh = random_set(n, 300, 11)
    tracemalloc.start()
    try:
        _build_snapshot_sum(sh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2 ** 20


def test_feature_map_pair_sum_across_chunks_matches_pair_table():
    # 1100 snapshots put six sites on the feature map and span two
    # 1024-row chunks of its Kronecker sum
    sh = random_set(6, 1100, 10)
    letters, signs = sh.letters.astype(int), sh.signs.astype(float)
    for alpha in (0.5, 2.5):
        pair = np.ones((len(sh), len(sh)))
        for j in range(6):
            same = letters[:, j, None] == letters[:, j]
            pair *= alpha + 4.5 * np.outer(signs[:, j], signs[:, j]) * same
        assert _pair_kernel(sh, range(6), alpha) == pytest.approx(pair.sum(), rel=1e-12)


def test_feature_map_gathers_its_factors_a_chunk_at_a_time(monkeypatch):
    # with 1 MiB chunks, 200,000 snapshots at n=4 peak at 3.1 MiB, most of it
    # the (N, m) code array; gathering every row's factors first took 27 MiB
    monkeypatch.setattr(shadows_module, "_KRON_BYTES", 1 << 20)
    sh = random_set(4, 200_000, 14)
    for mask in (SubsystemMask.full(4), SubsystemMask.of(4, 1, 2)):
        tracemalloc.start()
        try:
            purity_ustat(sh, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20


def test_reconstruct_mean_matches_snapshot_average():
    rho = random_mixed_state(2, np.random.default_rng(31))
    sh = collect_shadows(rho, 40, 8)
    want = sum(snapshot_matrix(sh.letters[k], sh.bits[k]) for k in range(40)) / 40
    got = reconstruct_mean(sh)
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert np.trace(got).real == pytest.approx(1.0, abs=1e-12)
    big = collect_shadows(ghz(2), 3000, 12)
    dense = reconstruct_mean(big)
    assert np.max(np.abs(dense - ghz(2).mat)) < 0.4


def test_shadow_estimate_equals_uniform_kernel_estimate():
    rho = random_mixed_state(2, np.random.default_rng(6))
    o = WeightedPauliSum(2, [(0.7, P("ZX")), (-0.2, P("IY")), (0.4, P("XX"))])
    sh = collect_shadows(rho, 400, 7)
    plan = plan_uniform_cs(2)
    kernel = estimate(sh, plan, o)
    # the mean of Tr(rho_hat O) over the dense snapshot matrices
    dense = np.mean([np.trace(snapshot_matrix(codes, bits) @ o.to_matrix()).real
                     for codes, bits in zip(sh.letters, sh.bits)])
    assert kernel.value == pytest.approx(dense, abs=1e-10)
    assert abs(kernel.value - exact_expectation(rho, o)) < 5 * 3.0 / math.sqrt(400)


def test_estimate_observable_identity_term():
    sh = collect_shadows(ghz(2), 10, 1)
    o = WeightedPauliSum(2, [(0.5, P("II"))])
    assert estimate(sh, plan_uniform_cs(2), o).value == pytest.approx(0.5, abs=1e-12)


def test_purity_pair_values():
    assert purity_ustat(
        ShadowSet(1, [[3], [3]], [[1], [1]]), SubsystemMask.full(1)
    ) == pytest.approx(5.0)
    assert purity_ustat(
        ShadowSet(1, [[3], [3]], [[1], [-1]]), SubsystemMask.full(1)
    ) == pytest.approx(-4.0)
    assert purity_ustat(
        ShadowSet(1, [[3], [1]], [[1], [1]]), SubsystemMask.full(1)
    ) == pytest.approx(0.5)
    # per-site products for a two-qubit mask
    assert purity_ustat(
        ShadowSet(2, [[3, 1], [3, 1]], [[1, 1], [1, 1]]), SubsystemMask.full(2)
    ) == pytest.approx(25.0)
    assert purity_ustat(
        ShadowSet(2, [[3, 1], [3, 2]], [[1, 1], [1, 1]]), SubsystemMask.of(2, 1)
    ) == pytest.approx(5.0)


# At n=3, 6 snapshots put masks of 2 or more sites on the pair table of the
# pair-sum kernel, and 24 put every mask on its feature map.
BOTH_PAIR_SUM_PATHS = (6, 24)


def test_purity_ustat_matches_matrix_brute_force():
    rho = random_mixed_state(3, np.random.default_rng(13))
    for count in BOTH_PAIR_SUM_PATHS:
        sh = collect_shadows(rho, count, 3)
        mats = [snapshot_matrix(sh.letters[k], sh.bits[k]) for k in range(count)]
        for members in ({1}, {1, 3}, {1, 2, 3}):
            mask = SubsystemMask(3, frozenset(members))
            keep = mask.indices
            red = [reduce_sites(m, 3, keep) for m in mats]
            total = 0.0
            for a, b in itertools.permutations(range(count), 2):
                total += np.trace(red[a] @ red[b]).real
            want = total / (count * (count - 1))
            assert purity_ustat(sh, mask) == pytest.approx(want, abs=1e-10)


def test_pt_moment_matches_matrix_brute_force():
    rho = random_mixed_state(3, np.random.default_rng(19))
    for count in BOTH_PAIR_SUM_PATHS:
        sh = collect_shadows(rho, count, 21)
        idx = np.arange(count)
        distinct = (idx[:, None, None] != idx[None, :, None]) & (idx[:, None] != idx) & (
            idx[:, None, None] != idx
        )
        for mask in (SubsystemMask(3, frozenset(m)) for k in (1, 2, 3)
                     for m in itertools.combinations((1, 2, 3), k)):
            mats = np.array([pt_sites(snapshot_matrix(sh.letters[j], sh.bits[j]), 3, mask.indices)
                             for j in idx])
            pairs = np.einsum("aij,bji->ab", mats, mats).real
            total2 = pairs.sum() - np.trace(pairs)
            assert pt_moment_ustat(sh, mask, 2) == pytest.approx(
                total2 / (count * (count - 1)), abs=1e-10
            )
            triples = np.einsum("aij,bjk,cki->abc", mats, mats, mats).real
            total3 = triples[distinct].sum()
            p3 = pt_moment_ustat(sh, mask, 3)
            assert p3 == pytest.approx(total3 / (count * (count - 1) * (count - 2)), abs=1e-10)
            # rho^(T_complement) is the full transpose of rho^(T_A)
            rest = mask.complement()
            assert p3 == pytest.approx(pt_moment_ustat(sh, rest, 3), rel=1e-12, abs=1e-12)
            assert pt_moment_ustat(sh, mask, 3, strategy="mc:500", seed=4) == (
                pt_moment_ustat(sh, rest, 3, strategy="mc:500", seed=4)
            )


def test_wide_mask_purity_builds_no_pair_table():
    # one 2500 x 2500 float64 table is 47.7 MiB; the pair sum builds it in
    # row blocks instead, several of them at this size
    count, n = 2500, 12
    rng = np.random.default_rng(5)
    sh = ShadowSet(n, rng.integers(1, 4, (count, n)), 1 - 2 * rng.integers(0, 2, (count, n)))
    tracemalloc.start()
    try:
        value = purity_ustat(sh, SubsystemMask.full(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < count * count * 8
    # the pair trace summed one row at a time
    w, s = sh.letters, sh.signs.astype(float)
    total = sum(np.prod(np.where(w == w[k], 0.5 + 4.5 * s * s[k], 0.5), axis=1).sum()
                for k in range(count))
    assert value == pytest.approx((total - count * 5.0 ** n) / (count * (count - 1)), abs=1e-8)


def test_pt_second_moment_equals_full_purity_estimator():
    sh = collect_shadows(random_mixed_state(3, np.random.default_rng(3)), 40, 5)
    full = SubsystemMask.full(3)
    for members in ({1}, {2, 3}):
        mask = SubsystemMask(3, frozenset(members))
        assert pt_moment_ustat(sh, mask, 2) == pytest.approx(
            purity_ustat(sh, full), abs=1e-10
        )
    # order 2 builds no 2^n matrix, so it also runs beyond the dense bound
    wide = ShadowSet(11, np.ones((3, 11), dtype=np.int8), np.ones((3, 11), dtype=np.int8))
    assert pt_moment_ustat(wide, SubsystemMask.of(11, 1), 2) == pytest.approx(
        purity_ustat(wide, SubsystemMask.full(11)), abs=1e-10
    )


def test_pt_moment_mc_strategy():
    sh = collect_shadows(ghz(2), 60, 77)
    mask = SubsystemMask.of(2, 1)
    full = pt_moment_ustat(sh, mask, 3)
    one = pt_moment_ustat(sh, mask, 3, strategy="mc:2000", seed=5)
    two = pt_moment_ustat(sh, mask, 3, strategy="mc:2000", seed=5)
    assert one == two
    draws = np.array(
        [pt_moment_ustat(sh, mask, 3, strategy="mc:3000", seed=s) for s in range(30)]
    )
    se = draws.std(ddof=1) / math.sqrt(30) + 1e-12
    assert abs(draws.mean() - full) < 4 * se + 1e-9


def test_pt_moment_validation():
    sh = collect_shadows(ghz(2), 10, 1)
    mask = SubsystemMask.of(2, 1)
    with pytest.raises(ValueError):
        pt_moment_ustat(sh, mask, 4)
    with pytest.raises(ValueError):
        pt_moment_ustat(sh, mask, 3, strategy="mc:0")
    with pytest.raises(ValueError):
        pt_moment_ustat(sh, mask, 3, strategy="mc:x")
    with pytest.raises(ValueError):
        pt_moment_ustat(sh, mask, 3, strategy="sampled")
    tiny = ShadowSet(2, [[3, 3], [1, 1]], [[1, 1], [1, 1]])
    with pytest.raises(EmptyInput):
        pt_moment_ustat(tiny, mask, 3)
    with pytest.raises(EmptyInput):
        purity_ustat(ShadowSet(2, [[3, 3]], [[1, 1]]), mask)
    with pytest.raises(DimensionMismatch):
        purity_ustat(sh, SubsystemMask.of(3, 1))
    with pytest.raises(ValueError):
        purity_ustat(sh, SubsystemMask(2, frozenset()))


def test_dense_paths_refuse_wide_systems():
    n = 11
    letters = np.ones((3, n), dtype=np.int8)
    signs = np.ones((3, n), dtype=np.int8)
    sh = ShadowSet(n, letters, signs)
    with pytest.raises(FeasibilityError):
        pt_moment_ustat(sh, SubsystemMask.of(n, 1), 3)
    with pytest.raises(FeasibilityError):
        reconstruct_mean(sh)
    # the sampled strategy stays factorized and survives wide systems
    val = pt_moment_ustat(sh, SubsystemMask.of(n, 1), 3, strategy="mc:50", seed=1)
    assert np.isfinite(val)


def test_ghz4_statistics_and_certificates():
    rho = ghz(4)
    sh = collect_shadows(rho, 800, 42)
    cut = SubsystemMask.of(4, 1, 2)
    assert exact_subsystem_purity(rho, cut) == pytest.approx(0.5)
    assert purity_ustat(sh, cut) == pytest.approx(0.5, abs=0.2)
    assert purity_ustat(sh, SubsystemMask.full(4)) == pytest.approx(1.0, abs=0.25)
    cert = purity_certificate(sh, cut)
    assert set(cert) == {"purity_A", "purity_full", "flag"}
    assert cert["flag"] is True
    mom = p3_ppt_certificate(sh, cut)
    assert set(mom) == {"p2", "p3", "margin", "entangled"}
    assert exact_pt_moment(rho, cut, 2) ** 2 - exact_pt_moment(rho, cut, 3) == pytest.approx(0.75)
    assert mom["margin"] == pytest.approx(0.75, abs=0.65)
    assert mom["entangled"] is True


# every mask of 1-3 sites at n=6, the masks of the certify sweep
MASKS_N6 = tuple(SubsystemMask(6, frozenset(c)) for k in (1, 2, 3)
                 for c in itertools.combinations(range(1, 7), k))


def certificates(sh: ShadowSet, masks) -> dict:
    return {str(m): (p3_ppt_certificate(sh, m), purity_certificate(sh, m)) for m in masks}


def fresh_copy(sh: ShadowSet) -> ShadowSet:
    return ShadowSet(sh.n, sh.letters, sh.signs)


def counting(monkeypatch, name: str) -> list:
    calls = []
    build = getattr(shadows_module, name)

    def counted(*args):
        calls.append(args[1:])
        return build(*args)

    monkeypatch.setattr(shadows_module, name, counted)
    return calls


def test_mask_independent_sums_are_built_once_per_set(monkeypatch):
    assert len(MASKS_N6) == 41
    sh = collect_shadows(random_mixed_state(6, np.random.default_rng(2)), 40, 9)
    t1_builds = counting(monkeypatch, "_build_snapshot_sum")
    pair_sums = counting(monkeypatch, "_pair_kernel")
    certificates(sh, MASKS_N6)
    assert len(t1_builds) == 1
    # S_all(1/2) for p2 and S_all(5/2) for p3 once each, then one subsystem
    # purity per mask
    full = tuple(range(6))
    assert pair_sums[:2] == [(full, 0.5), (full, 2.5)]
    assert sorted(pair_sums[2:]) == sorted((m.indices, 0.5) for m in MASKS_N6)
    reconstruct_mean(sh)
    assert len(t1_builds) == 1 and len(pair_sums) == 2 + 41


def test_cached_snapshot_sum_is_exact_and_read_only():
    sh = collect_shadows(random_mixed_state(4, np.random.default_rng(4)), 30, 8)
    t1 = _snapshot_sum(sh)
    assert _snapshot_sum(sh) is t1
    fresh = _build_snapshot_sum(sh)
    assert t1.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        t1[0, 0] = 0.0
    p3_ppt_certificate(sh, SubsystemMask.of(4, 1, 3))
    assert t1.tobytes() == fresh.tobytes()


def test_certificates_do_not_depend_on_mask_order():
    sh = collect_shadows(random_mixed_state(6, np.random.default_rng(6)), 40, 12)
    given = certificates(sh, MASKS_N6)
    shuffled = list(MASKS_N6)
    np.random.default_rng(1).shuffle(shuffled)
    assert certificates(fresh_copy(sh), shuffled) == given
    assert {str(m): certificates(fresh_copy(sh), [m])[str(m)] for m in MASKS_N6} == given


def test_sets_with_different_data_share_no_memo():
    rho = random_mixed_state(4, np.random.default_rng(7))
    one, two = collect_shadows(rho, 30, 1), collect_shadows(rho, 30, 2)
    mask = SubsystemMask.of(4, 2)
    want_two = certificates(fresh_copy(two), [mask])
    got_one = certificates(one, [mask])
    assert certificates(two, [mask]) == want_two != got_one
    assert not np.array_equal(_snapshot_sum(one), _snapshot_sum(two))


def test_reconstruct_mean_unchanged_by_certificates():
    sh = collect_shadows(random_mixed_state(4, np.random.default_rng(8)), 30, 3)
    before = reconstruct_mean(fresh_copy(sh))
    certificates(sh, [SubsystemMask.of(4, 1), SubsystemMask.full(4)])
    after = reconstruct_mean(sh)
    assert after.tobytes() == before.tobytes()
    after[0, 0] = 7.0
    assert reconstruct_mean(sh).tobytes() == before.tobytes()
