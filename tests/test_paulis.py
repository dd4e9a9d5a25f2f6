"""Pauli-string algebra checked against dense matrix arithmetic."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimeter.errors import DegenerateObservable, DimensionMismatch
from paulimeter.paulis import (
    PauliString,
    WeightedPauliSum,
    compatible,
    hits,
    multiply,
    square,
)

SINGLE = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(text: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for c in text:
        out = np.kron(out, SINGLE[c])
    return out


def pauli_text(max_n: int = 5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)
    )


@st.composite
def text_pair(draw, max_n: int = 5):
    n = draw(st.integers(1, max_n))
    a = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
    b = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
    return a, b


@given(pauli_text())
def test_text_round_trip(text):
    p = PauliString.from_text(text)
    assert p.letters == text
    assert str(p) == text
    assert p.n == len(text)


def test_from_text_rejects_bad_input():
    with pytest.raises(ValueError):
        PauliString.from_text("XQZ")
    with pytest.raises(ValueError):
        PauliString.from_text("")


@given(pauli_text())
def test_codes_round_trip(text):
    p = PauliString.from_text(text)
    codes = list(p.codes())
    assert PauliString.from_codes(codes) == p
    assert [p.code(i) for i in range(p.n)] == codes
    assert all(c == "IXYZ"[k] for c, k in zip(text, codes))


def test_support_weight_flags():
    p = PauliString.from_text("IXIZ")
    assert p.support == (1, 3)
    assert p.weight == 2
    assert not p.is_identity
    assert not p.is_full_weight
    assert PauliString.identity(3).is_identity
    assert PauliString.identity(3).weight == 0
    assert PauliString.from_text("XYZ").is_full_weight


def test_to_matrix_matches_kron():
    for text in ("X", "IZ", "XYZ", "YIXZ"):
        np.testing.assert_allclose(PauliString.from_text(text).to_matrix(), dense(text))


def test_multiply_single_site_table():
    for a, b in itertools.product("IXYZ", repeat=2):
        res = multiply(PauliString.from_text(a), PauliString.from_text(b))
        got = res.phase * res.pauli.to_matrix()
        np.testing.assert_allclose(got, dense(a) @ dense(b), atol=1e-15)


@given(text_pair())
@settings(max_examples=60)
def test_multiply_matches_dense(pair):
    a, b = pair
    res = multiply(PauliString.from_text(a), PauliString.from_text(b))
    assert res.phase in (1, -1, 1j, -1j)
    got = res.phase * res.pauli.to_matrix()
    np.testing.assert_allclose(got, dense(a) @ dense(b), atol=1e-14)


def test_multiply_size_mismatch():
    with pytest.raises(DimensionMismatch):
        multiply(PauliString.from_text("XX"), PauliString.from_text("X"))


@given(text_pair(max_n=4))
@settings(max_examples=60)
def test_hits_letterwise(pair):
    basis_text, obs_text = pair
    basis = PauliString.from_text(basis_text)
    obs = PauliString.from_text(obs_text)
    expected = all(o == "I" or o == p for o, p in zip(obs_text, basis_text))
    assert hits(basis, obs) == expected


@given(text_pair(max_n=4))
@settings(max_examples=60)
def test_compatible_letterwise(pair):
    a_text, b_text = pair
    a = PauliString.from_text(a_text)
    b = PauliString.from_text(b_text)
    expected = all(x == "I" or y == "I" or x == y for x, y in zip(a_text, b_text))
    assert compatible(a, b) == expected
    assert compatible(b, a) == compatible(a, b)


def test_hits_requires_basis_to_cover_support():
    basis = PauliString.from_text("XZY")
    assert hits(basis, PauliString.from_text("XIY"))
    assert hits(basis, PauliString.from_text("III"))
    assert not hits(basis, PauliString.from_text("XIZ"))
    assert not hits(basis, PauliString.from_text("ZZY"))


def test_weighted_sum_merges_and_drops():
    p = PauliString.from_text
    o = WeightedPauliSum.from_terms(
        2, [(0.5, p("ZZ")), (0.25, p("XI")), (0.5, p("ZZ")), (-0.25, p("XI"))]
    )
    assert len(o) == 1
    assert o.paulis == (p("ZZ"),)
    assert o.coeffs == pytest.approx((1.0,))
    assert o.l1_norm == pytest.approx(1.0)


def test_weighted_sum_matrix_and_l1():
    p = PauliString.from_text
    o = WeightedPauliSum(2, [(0.6, p("ZX")), (-0.4, p("XI")), (0.3, p("YY"))])
    assert o.l1_norm == pytest.approx(1.3)
    expected = 0.6 * dense("ZX") - 0.4 * dense("XI") + 0.3 * dense("YY")
    np.testing.assert_allclose(o.to_matrix(), expected)


def test_weighted_sum_size_check_and_empty():
    p = PauliString.from_text
    with pytest.raises(DimensionMismatch):
        WeightedPauliSum(2, [(1.0, p("X"))])
    empty = WeightedPauliSum(2, [])
    assert len(empty) == 0
    with pytest.raises(DegenerateObservable):
        empty.require_nonempty()


def test_square_matches_dense():
    p = PauliString.from_text
    h = WeightedPauliSum(2, [(0.6, p("ZX")), (-0.4, p("XI")), (0.3, p("YY"))])
    sq = square(h)
    np.testing.assert_allclose(sq.to_matrix(), h.to_matrix() @ h.to_matrix(), atol=1e-13)
    assert all(abs(c) > 0 for c in sq.coeffs)


@given(st.integers(0, 3), st.data())
@settings(max_examples=25)
def test_square_random_sums(n_terms_extra, data):
    p = PauliString.from_text
    n = 3
    texts = data.draw(
        st.lists(
            st.text(alphabet="IXYZ", min_size=n, max_size=n),
            min_size=1,
            max_size=2 + n_terms_extra,
            unique=True,
        )
    )
    coeffs = data.draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
            min_size=len(texts),
            max_size=len(texts),
        )
    )
    h = WeightedPauliSum.from_terms(n, list(zip(coeffs, map(p, texts))))
    sq = square(h)
    np.testing.assert_allclose(sq.to_matrix(), h.to_matrix() @ h.to_matrix(), atol=1e-12)


def test_weighted_sum_letter_matrix():
    P = PauliString.from_text
    h = WeightedPauliSum(3, [(0.5, P("XIZ")), (-1.0, P("IYI")), (2.0, P("ZZZ"))])
    assert h.letters.dtype == np.int8
    assert np.array_equal(h.letters, np.stack([p.codes() for p in h.paulis]))
    with pytest.raises(ValueError):
        h.letters[0, 0] = 3
    assert WeightedPauliSum(5, ()).letters.shape == (0, 5)
    for derived in (WeightedPauliSum.from_terms(3, list(h) + list(h)), square(h)):
        assert np.array_equal(derived.letters, np.stack([p.codes() for p in derived.paulis]))
