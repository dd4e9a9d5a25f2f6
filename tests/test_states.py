"""Exact-simulator oracle checks: Born sampling, reductions, moments."""

import functools
import itertools
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumtools import born_distribution_loop, noisy_ghz_born, permutation_moment_oracle
from paulimeter import states
from paulimeter.errors import DimensionMismatch, FeasibilityError
from paulimeter.paulis import PauliString, WeightedPauliSum, _row_keys
from paulimeter.states import (
    DENSE_MAX_QUBITS,
    DensityMatrix,
    SubsystemMask,
    admix_white_noise,
    born_distribution,
    exact_expectation,
    exact_pt_moment,
    exact_subsystem_purity,
    ghz,
    noise_from_fidelity,
    noisy_ghz,
    partial_trace,
    partial_transpose,
    random_mixed_state,
    sample_outcomes,
    sample_settings,
)
from paulimeter.states import _BORN_BLOCK_ENTRIES, _born_rows, _child_uniforms

P = PauliString.from_text


def uniforms(shots, seed):
    """The draws a per-setting generator makes: default_rng(seed).random(shots)."""
    return np.random.default_rng(seed).random(shots)


def bits_to_index(bits):
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(1, np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(DimensionMismatch):
        DensityMatrix(2, np.eye(2) / 2)


def test_dense_bound_raises_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated past the dense bound")

    for name in ("array", "asarray", "empty", "eye", "outer", "zeros"):
        monkeypatch.setattr(np, name, refuse)
    n = DENSE_MAX_QUBITS + 1
    too_big = {
        "ghz": lambda: ghz(n),
        "noisy_ghz": lambda: noisy_ghz(16, 0.1),
        "DensityMatrix": lambda: DensityMatrix(n, None),
        "random_mixed_state": lambda: random_mixed_state(n, SimpleNamespace(normal=refuse)),
        "admix_white_noise": lambda: admix_white_noise(SimpleNamespace(n=n, mat=None), 0.5),
    }
    for name, build in too_big.items():
        with pytest.raises(FeasibilityError, match=f"bound of {DENSE_MAX_QUBITS} qubits"):
            build()
    with pytest.raises(ValueError, match="outside 1..16"):
        ghz(17)


def test_subsystem_mask_parsing_and_indices():
    m = SubsystemMask.from_text(4, "1,3")
    assert m == SubsystemMask.from_text(4, "1-3".replace("-", ","))
    assert m.indices == (0, 2)
    assert str(m) == "1-3"
    assert m.complement().indices == (1, 3)
    assert SubsystemMask.full(3).indices == (0, 1, 2)
    with pytest.raises(ValueError):
        SubsystemMask.from_text(2, "3")
    with pytest.raises(ValueError, match="^bad mask '1,a'; expected site labels"):
        SubsystemMask.from_text(2, "1,a")


def test_ghz_matrix_corners():
    rho = ghz(3)
    m = rho.mat
    assert m[0, 0] == pytest.approx(0.5)
    assert m[7, 7] == pytest.approx(0.5)
    assert m[0, 7] == pytest.approx(0.5)
    assert np.trace(m) == pytest.approx(1.0)


def test_born_ghz_z_basis():
    probs = born_distribution(ghz(4), P("ZZZZ"))
    expected = np.zeros(16)
    expected[0] = expected[15] = 0.5
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_born_ghz_x_basis_even_parity():
    probs = born_distribution(ghz(4), P("XXXX"))
    for idx in range(16):
        parity = bin(idx).count("1") & 1
        assert probs[idx] == pytest.approx(0.0 if parity else 1.0 / 8.0, abs=1e-12)


def rotated_diagonal(rho, text):
    """diag(U rho U^dag) with U the explicit kron of the per-site rotations:
    X -> H, Y -> S-dagger then H, Z -> 1."""
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    SDG = np.diag([1.0, -1.0j])
    rots = {"X": H, "Y": H @ SDG, "Z": np.eye(2)}
    U = np.eye(1, dtype=complex)
    for c in text:
        U = np.kron(U, rots[c])
    return np.real(np.diag(U @ rho.mat @ U.conj().T))


def test_born_matches_dense_diagonal():
    rng = np.random.default_rng(7)
    rho = random_mixed_state(3, rng)
    probs = born_distribution(rho, P("XZY"))
    np.testing.assert_allclose(probs, rotated_diagonal(rho, "XZY"), atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def _sampler_cases(n, rng):
    """Every way a state reaches the sampler: known forms (GHZ, noisy GHZ)
    and states whose form comes from an eigendecomposition."""
    dim = 2 ** n
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    phi /= np.linalg.norm(phi)
    rank2 = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.outer(phi, phi.conj())
    return {
        "ghz": ghz(n),
        **{f"ghz p={p}": admix_white_noise(ghz(n), p) for p in (0.05, 0.5, 1.0)},
        "random mixed": random_mixed_state(n, rng),
        "pure": DensityMatrix(n, np.outer(psi, psi.conj())),
        "rank 2": DensityMatrix(n, rank2),
    }


@pytest.mark.parametrize("n", range(1, 9))
def test_born_random_bases_match_explicit_rotation(n):
    rng = np.random.default_rng(100 + n)
    for name, rho in _sampler_cases(n, rng).items():
        for _ in range(4):
            text = "".join(rng.choice(list("XYZ"), size=n))
            probs = born_distribution(rho, P(text))
            np.testing.assert_allclose(probs, rotated_diagonal(rho, text), atol=1e-12,
                                       err_msg=f"{name} in {text}")


@functools.cache
def _cases_at(n):
    return _sampler_cases(n, np.random.default_rng(200 + n))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8),
       name=st.sampled_from(("ghz", "ghz p=0.05", "ghz p=0.5", "ghz p=1.0", "random mixed",
                             "pure", "rank 2")),
       size=st.sampled_from((0, -1, 1)), single=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(n=8, name="ghz p=0.05", size=1, single=False, seed=0)
@example(n=1, name="ghz", size=1, single=False, seed=0)
def test_stacked_born_rows_match_the_one_basis_loop(n, name, size, single, seed):
    # G rows at once: one row, or a block of stacked rows and one either side
    rho = _cases_at(n)[name]
    block = max(1, _BORN_BLOCK_ENTRIES // (2 ** n * max(rho.spectral_form()[1].shape[1], 1)))
    g = 1 if single else max(block + size, 1)
    rows = np.random.default_rng(seed).integers(1, 4, size=(g, n), dtype=np.int8)
    stacked = _born_rows(rho, rows)
    _, first, inverse = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    one = np.array([_born_rows(rho, rows[k][None])[0] for k in first])
    assert stacked.shape == (g, 2 ** n)
    assert stacked.tobytes() == one[inverse.ravel()].tobytes()
    loop = np.array([born_distribution_loop(rho, PauliString.from_codes(rows[k])) for k in first])
    if name.startswith("ghz"):
        assert one.tobytes() == loop.tobytes()
    else:
        assert np.max(np.abs(one - loop)) <= 1e-15


@pytest.mark.parametrize("p", [0.0, 0.1, 1.0])
def test_born_matches_the_closed_form_noisy_ghz_law(p):
    rng = np.random.default_rng(22)
    for n in range(1, 9):
        rho = noisy_ghz(n, p)
        rows = (itertools.product((1, 2, 3), repeat=n) if n <= 4
                else rng.integers(1, 4, size=(50, n)))
        for row in rows:
            np.testing.assert_allclose(born_distribution(rho, PauliString.from_codes(row)),
                                       noisy_ghz_born(n, p, row), rtol=0, atol=1e-12,
                                       err_msg=f"n={n} basis {row}")


def test_known_spectral_forms_reproduce_matrix(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("a GHZ-family state reached eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for n in (1, 3, 6):
        dim = 2 ** n
        for rho in (ghz(n), noisy_ghz(n, 0.0), *(admix_white_noise(ghz(n), p)
                                                 for p in (0.05, 0.5, 1.0))):
            floor, a = rho.spectral_form()
            assert a.shape == (dim, 1)
            np.testing.assert_allclose(floor * np.eye(dim) + a @ a.conj().T, rho.mat, atol=1e-14)
            sample_outcomes(rho, PauliString.from_codes([2] * n), uniforms(3, 0))


def test_eigh_spectral_form_reproduces_matrix():
    rng = np.random.default_rng(4)
    for rho in _sampler_cases(4, rng).values():
        floor, a = DensityMatrix(4, rho.mat).spectral_form()
        np.testing.assert_allclose(floor * np.eye(16) + a @ a.conj().T, rho.mat, atol=1e-12)
    # a rank-1 state keeps one column; the maximally mixed state keeps none
    assert DensityMatrix(3, ghz(3).mat).spectral_form()[1].shape == (8, 1)
    floor, a = DensityMatrix(3, np.eye(8) / 8).spectral_form()
    assert a.shape == (8, 0) and floor == pytest.approx(1 / 8)
    np.testing.assert_allclose(born_distribution(DensityMatrix(3, np.eye(8) / 8), P("XYZ")),
                               np.full(8, 1 / 8), atol=1e-15)


def test_noisy_ghz_is_ghz_with_white_noise():
    np.testing.assert_array_equal(noisy_ghz(3, 0.2).mat, admix_white_noise(ghz(3), 0.2).mat)
    np.testing.assert_array_equal(noisy_ghz(3, 0.0).mat, ghz(3).mat)
    # the lazily built matrix is the eager construction, down to signed zeros
    for n in range(1, 9):
        dim = 2 ** n
        vec = np.zeros(dim, dtype=complex)
        vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
        pure = np.outer(vec, vec.conj())
        for p in (0.0, 0.1, 0.5, 1.0):
            eager = pure if p == 0.0 else (1.0 - p) * pure + p * np.eye(dim) / dim
            rho = noisy_ghz(n, p)
            assert rho._mat is None
            np.testing.assert_array_equal(rho.mat, eager)
            assert rho.mat.tobytes() == eager.tobytes() and not rho.mat.flags.writeable


def test_states_pickle_as_their_form():
    rho = noisy_ghz(10, 0.1)
    before = pickle.dumps(rho)
    built = rho.mat
    after = pickle.dumps(rho)
    assert max(len(before), len(after)) < 64 * 1024
    back = pickle.loads(after)
    assert back._mat is None
    letters = np.random.default_rng(4).integers(1, 4, size=(20, 10), dtype=np.int8)
    np.testing.assert_array_equal(sample_settings(back, letters, 3, np.random.SeedSequence(5)),
                                  sample_settings(rho, letters, 3, np.random.SeedSequence(5)))
    np.testing.assert_array_equal(back.mat, built)
    assert not back.mat.flags.writeable and not back.spectral_form()[1].flags.writeable
    # a state given as a matrix travels with it, and its noisy version too
    mixed = random_mixed_state(3, np.random.default_rng(6))
    for state in (mixed, admix_white_noise(mixed, 0.3)):
        np.testing.assert_array_equal(pickle.loads(pickle.dumps(state)).mat, state.mat)


def test_memoized_sampling_matches_fresh_state():
    mixed = random_mixed_state(4, np.random.default_rng(8)).mat
    basis = P("XYZX")
    for make in (lambda: noisy_ghz(4, 0.3), lambda: DensityMatrix(4, mixed)):
        rho = make()
        first = sample_outcomes(rho, basis, uniforms(500, 5))
        again = sample_outcomes(rho, basis, uniforms(500, 5))
        np.testing.assert_array_equal(again, first)
        np.testing.assert_array_equal(again, sample_outcomes(make(), basis, uniforms(500, 5)))


def test_sampling_memo_is_capped_per_state():
    # 4,200 distinct n=8 rows overflow the 2^20-entry memo, one by one and in
    # sample_settings' stacked blocks alike, and the rows past the cap are
    # sampled from the same probabilities on the one-row path
    letters = np.array(list(itertools.islice(itertools.product((1, 2, 3), repeat=8), 4200)),
                       dtype=np.int8)
    children = np.random.SeedSequence(11).spawn(len(letters))
    rho = ghz(8)
    loop = np.concatenate([sample_outcomes(rho, PauliString.from_codes(row), uniforms(1, child))
                           for row, child in zip(letters, children)])
    stacked = ghz(8)
    np.testing.assert_array_equal(sample_settings(stacked, letters, 1, np.random.SeedSequence(11)),
                                  loop)
    assert len(rho._cdfs) == len(stacked._cdfs) == 2 ** 20 // 2 ** 8
    assert len(ghz(8)._cdfs) == 0


def test_sample_settings_calls_sample_outcomes_once_per_distinct_row(monkeypatch):
    seen = []
    real = states.sample_outcomes

    def counting(rho, basis, draws):
        seen.append(basis)
        return real(rho, basis, draws)

    monkeypatch.setattr(states, "sample_outcomes", counting)
    rng = np.random.default_rng(12)
    distinct = np.unique(rng.integers(1, 4, size=(40, 6), dtype=np.int8), axis=0)
    letters = distinct[rng.integers(0, len(distinct), size=300)]
    rho = noisy_ghz(6, 0.1)
    for _ in range(2):  # the second pass finds every row in the memo
        seen.clear()
        sample_settings(rho, letters, 2, np.random.SeedSequence(4))
        assert all(isinstance(basis, PauliString) for basis in seen)
        assert sorted((b.x, b.z) for b in seen) == sorted(
            {(b.x, b.z) for b in map(PauliString.from_codes, letters)})


def test_sample_settings_memory_beyond_the_memo_is_bounded():
    # the stacked Born blocks add at most 1 MiB to what the memo keeps
    rng = np.random.default_rng(13)
    letters = np.unique(rng.integers(1, 4, size=(320, 8), dtype=np.int8), axis=0)[:300]
    assert len(letters) == 300
    rho = noisy_ghz(8, 0.1)
    tracemalloc.start()
    try:
        sample_settings(rho, letters, 1, np.random.SeedSequence(14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rho._cdfs) == 300
    assert peak - sum(cdf.nbytes for cdf in rho._cdfs.values()) <= 2 ** 20


def test_born_distribution_is_fresh_and_writable():
    rho = noisy_ghz(3, 0.1)
    basis = P("XXZ")
    sample_outcomes(rho, basis, uniforms(10, 0))
    probs = born_distribution(rho, basis)
    assert probs.flags.writeable
    probs[:] = 0.0
    assert born_distribution(rho, basis).sum() == pytest.approx(1.0)


def test_sampling_is_seeded_and_close_to_born():
    rho = ghz(4)
    basis = P("XZZX")
    a = sample_outcomes(rho, basis, uniforms(2000, 11))
    b = sample_outcomes(rho, basis, uniforms(2000, 11))
    np.testing.assert_array_equal(a, b)
    probs = born_distribution(rho, basis)
    counts = np.zeros(16)
    for row in a:
        counts[bits_to_index(row)] += 1
    freqs = counts / 2000
    for idx in range(16):
        sigma = np.sqrt(probs[idx] * (1 - probs[idx]) / 2000) + 1e-9
        assert abs(freqs[idx] - probs[idx]) < 5 * sigma + 1e-12


def test_sample_outcomes_memory_is_a_small_multiple_of_its_output():
    # an int64 array of every draw's n bits made the peak 11x the uint8 output
    rho, basis = noisy_ghz(4, 0.1), P("XZZX")
    u = uniforms(10 ** 6, 3)
    sample_outcomes(rho, basis, u[:1])  # the CDF goes into the memo first
    tracemalloc.start()
    try:
        bits = sample_outcomes(rho, basis, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * bits.nbytes
    # the bits of every draw, in site order, as the one-pass expansion gives them
    draws = np.minimum(np.searchsorted(rho._cdfs[basis], u[:5000], side="right"), 15)
    np.testing.assert_array_equal(bits[:5000], (draws[:, None] >> np.arange(3, -1, -1)) & 1)


def test_sample_outcomes_rejects_bad_shots():
    with pytest.raises(ValueError):
        sample_outcomes(ghz(2), P("ZZ"), uniforms(0, 1))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("shots", [1, 3])
def test_sample_settings_equals_the_per_setting_loop(n, shots):
    rng = np.random.default_rng(100 + n)
    rho = random_mixed_state(n, rng)
    distinct = rng.integers(1, 4, size=(6, n), dtype=np.int8)
    if n > 1:
        # XX..XZ sorts before ZX..XX by letters but after it by row key
        distinct[4:] = 1
        distinct[4, -1] = distinct[5, 0] = 3
        assert _row_keys(distinct[4:5]) > _row_keys(distinct[5:6])
    letters = distinct[rng.integers(0, 6, size=12)]  # rows repeat
    for entropy, key in ((n, ()), (2 ** 70 + n, (shots, 2 ** 33))):
        children = np.random.SeedSequence(entropy, spawn_key=key).spawn(len(letters))
        loop = np.concatenate([sample_outcomes(rho, PauliString.from_codes(row),
                                               uniforms(shots, seed))
                               for row, seed in zip(letters, children)])
        got = sample_settings(rho, letters, shots, np.random.SeedSequence(entropy, spawn_key=key))
        assert got.dtype == np.uint8 and got.shape == (len(letters) * shots, n)
        np.testing.assert_array_equal(got, loop)


@settings(max_examples=60, deadline=None)
@given(entropy=st.one_of(st.just(0), st.integers(1, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64),
                         st.integers(2 ** 64 + 1, 2 ** 160)),
       key=st.lists(st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 96)),
                    max_size=6),
       count=st.integers(1, 300), shots=st.integers(1, 7),
       hashed=st.sampled_from((1, 3, 64, states._HASH_SETTINGS)))
# more than one block of draws, and three blocks of hashed settings
@example(entropy=2 ** 70 + 5, key=[3], count=2500, shots=7, hashed=states._HASH_SETTINGS)
@example(entropy=9, key=[], count=2100, shots=1, hashed=states._HASH_SETTINGS)
def test_bulk_draws_are_the_spawned_children_streams(entropy, key, count, shots, hashed):
    # `hashed` settings per hashing block: small ones make every count span
    # several blocks, with a partial last one
    parent = np.random.SeedSequence(entropy, spawn_key=key)
    want = np.array([uniforms(shots, child)
                     for child in np.random.SeedSequence(entropy, spawn_key=key).spawn(count)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "_HASH_SETTINGS", hashed)
        got = _child_uniforms(parent, count, shots)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert parent.n_children_spawned == 0


def test_child_uniform_memory_is_bounded():
    # the output is 0.4 MB; hashing all 10^4 settings at once peaked at 3.4 MB
    _child_uniforms(np.random.SeedSequence(3), 10, 5)  # the LCG tables are cached
    tracemalloc.start()
    try:
        got = _child_uniforms(np.random.SeedSequence(3), 10_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == 400_000 and peak <= 1_000_000


def test_many_shot_draws_cross_the_blocks():
    # 40,000 shots span several doublings of the LCG constants and three
    # blocks of 2^14 draws, the last one partial
    parent = np.random.SeedSequence(2 ** 70 + 9, spawn_key=(4,))
    want = np.array([uniforms(40_000, child) for child in
                     np.random.SeedSequence(2 ** 70 + 9, spawn_key=(4,)).spawn(3)])
    got = _child_uniforms(parent, 3, 40_000)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sample_settings_refuses_a_parent_it_cannot_replay():
    letters = np.array([[3, 3], [1, 1]], dtype=np.int8)
    spent = np.random.SeedSequence(1)
    spent.spawn(1)
    for parent in (spent, np.random.SeedSequence(1, pool_size=8), np.random.SeedSequence([1, 2]),
                   [1, 2]):
        with pytest.raises(ValueError):
            sample_settings(ghz(2), letters, 1, parent)


def test_fidelity_below_the_maximally_mixed_bound_is_named():
    assert noise_from_fidelity(2, 0.25) == pytest.approx(1.0)
    with pytest.raises(ValueError, match=r"fidelity 0\.1 outside \[1/2\^2, 1\].*maximally mixed"):
        noise_from_fidelity(2, 0.1)


def test_exact_expectation_ghz():
    rho = ghz(4)
    o = WeightedPauliSum(4, [(1.0, P("ZZII")), (0.5, P("XXXX")), (0.25, P("ZIII"))])
    # <ZZII> = 1, <XXXX> = 1, <ZIII> = 0
    assert exact_expectation(rho, o) == pytest.approx(1.5, abs=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    ra = random_mixed_state(1, rng)
    rb = random_mixed_state(2, rng)
    joint = DensityMatrix(3, np.kron(ra.mat, rb.mat))
    np.testing.assert_allclose(
        partial_trace(joint, SubsystemMask.of(3, 1)), ra.mat, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(joint, SubsystemMask.of(3, 2, 3)), rb.mat, atol=1e-12
    )


def test_partial_transpose_involution_and_negativity():
    rng = np.random.default_rng(5)
    rho = random_mixed_state(2, rng)
    a = SubsystemMask.of(2, 1)
    once = partial_transpose(rho, a)
    assert np.trace(once) == pytest.approx(1.0, abs=1e-12)
    # transposing the same sites again returns the original matrix
    back = once.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    np.testing.assert_allclose(back, rho.mat, atol=1e-14)
    # the Bell state has a -1/2 eigenvalue under partial transposition
    bell = ghz(2)
    eigs = np.linalg.eigvalsh(partial_transpose(bell, a))
    assert eigs[0] == pytest.approx(-0.5, abs=1e-12)


def test_exact_purity_ghz4():
    rho = ghz(4)
    for k in range(1, 16):
        members = frozenset(i + 1 for i in range(4) if (k >> i) & 1)
        mask = SubsystemMask(4, members)
        want = 1.0 if len(members) == 4 else 0.5
        assert exact_subsystem_purity(rho, mask) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        exact_subsystem_purity(rho, SubsystemMask(4, frozenset()))


def test_exact_pt_moments_ghz4():
    rho = ghz(4)
    full = SubsystemMask.full(4)
    for members in (frozenset({1}), frozenset({1, 2}), frozenset({2, 4})):
        a = SubsystemMask(4, members)
        assert exact_pt_moment(rho, a, 2) == pytest.approx(1.0, abs=1e-12)
        assert exact_pt_moment(rho, a, 3) == pytest.approx(0.25, abs=1e-12)
    assert exact_pt_moment(rho, full, 3) == pytest.approx(1.0, abs=1e-12)


def test_pt_second_moment_equals_purity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        rho = random_mixed_state(n, rng)
        members = frozenset(int(i) + 1 for i in range(n) if rng.integers(2))
        a = SubsystemMask(n, members or frozenset({1}))
        full = SubsystemMask.full(n)
        assert exact_pt_moment(rho, a, 2) == pytest.approx(
            exact_subsystem_purity(rho, full), abs=1e-12
        )


def test_permutation_moment_oracle_limits():
    rng = np.random.default_rng(1)
    rho = random_mixed_state(2, rng)
    with pytest.raises(ValueError):
        permutation_moment_oracle(rho, SubsystemMask.of(2, 1), 4)
    big = ghz(5)
    with pytest.raises(FeasibilityError):
        permutation_moment_oracle(big, SubsystemMask.of(5, 1), 3)


def test_noise_helpers():
    rho = ghz(3)
    p = noise_from_fidelity(3, 0.9)
    noisy = admix_white_noise(rho, p)
    vec = np.zeros(8)
    vec[0] = vec[7] = 1 / np.sqrt(2)
    fid = float(np.real(vec @ noisy.mat @ vec))
    assert fid == pytest.approx(0.9, abs=1e-12)
    assert noise_from_fidelity(3, 1.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        admix_white_noise(rho, 1.5)
    with pytest.raises(ValueError):
        noise_from_fidelity(3, -0.1)


def test_random_mixed_state_is_valid():
    rng = np.random.default_rng(2)
    states = [random_mixed_state(n, rng) for n in (1, 2, 3)]
    # noisy GHZ matrices are built from the form, unchecked, so check them here
    states += [noisy_ghz(n, p) for n in (1, 3, 6) for p in (0.0, 0.1, 0.5, 1.0)]
    for rho in states:
        assert np.trace(rho.mat) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(rho.mat)[0] > -1e-10
