"""Pauli-string algebra on bit-planes.

An n-qubit Pauli string is a tensor product of single-qubit operators from
{I, X, Y, Z}.  It is stored as two n-bit integers, ``x`` and ``z``: bit i of
``x`` set means site i carries an X component, bit i of ``z`` a Z component.
Letter code per site: I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).  Site 0 is the
leftmost letter of the text form, so ``"XZYI"`` puts X on site 0.

The two-bit-plane layout makes the hit and compatibility relations between
two strings a handful of word-parallel bit operations instead of per-site
letter comparisons.  A :class:`WeightedPauliSum` also carries its terms as
one letter matrix, ``letters[l, i]`` = code of term l at site i, which the
planners and estimator kernels read as whole arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateObservable, DimensionMismatch

MAX_QUBITS = 16

_LETTERS = "IXYZ"
_CODE = {"I": 0, "X": 1, "Y": 2, "Z": 3}
# (x bit, z bit) per letter code, and letter code by x bit + 2 * z bit
_PLANES = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}
_CODE_OF_PLANES = (0, 1, 3, 2)
_FROM_PLANES = np.array(_CODE_OF_PLANES, dtype=np.int8)

_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
_MATS = (_I2, _X2, _Y2, _Z2)


@dataclass(frozen=True, slots=True)
class PauliString:
    """Immutable n-qubit Pauli string.

    Attributes:
        n: qubit count, 1 <= n <= 16.
        x: X bit-plane (bit i set iff site i is X or Y).
        z: Z bit-plane (bit i set iff site i is Z or Y).
    """

    n: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count {self.n} outside 1..{MAX_QUBITS}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bit-plane exceeds qubit count")

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse the plain uppercase form, e.g. ``"XZYI"``."""
        if not text:
            raise ValueError("empty Pauli string")
        x = z = 0
        for i, ch in enumerate(text):
            try:
                code = _CODE[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {text!r}") from None
            bx, bz = _PLANES[code]
            x |= bx << i
            z |= bz << i
        return cls(len(text), x, z)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_codes(cls, codes) -> "PauliString":
        """Build from a sequence of letter codes 0..3 (I,X,Y,Z)."""
        x = z = 0
        for i, code in enumerate(codes):
            bx, bz = _PLANES[int(code)]
            x |= bx << i
            z |= bz << i
        return cls(len(codes), x, z)

    def code(self, i: int) -> int:
        """Letter code 0..3 (I,X,Y,Z) at site i."""
        return _CODE_OF_PLANES[((self.x >> i) & 1) + 2 * ((self.z >> i) & 1)]

    def codes(self) -> np.ndarray:
        """All letter codes as an int8 array of length n."""
        return letter_matrix((self,), self.n)[0]

    @property
    def letters(self) -> str:
        return "".join(_LETTERS[self.code(i)] for i in range(self.n))

    @property
    def support_mask(self) -> int:
        """Bitmask of non-identity sites."""
        return self.x | self.z

    @property
    def support(self) -> tuple[int, ...]:
        """0-based indices of non-identity sites."""
        m = self.support_mask
        return tuple(i for i in range(self.n) if (m >> i) & 1)

    @property
    def weight(self) -> int:
        return self.support_mask.bit_count()

    @property
    def is_identity(self) -> bool:
        return self.support_mask == 0

    @property
    def is_full_weight(self) -> bool:
        return self.support_mask == (1 << self.n) - 1

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (oracle use only)."""
        out = np.array([[1.0 + 0j]])
        for i in range(self.n):
            out = np.kron(out, _MATS[self.code(i)])
        return out

    def __str__(self) -> str:
        return self.letters

    def __repr__(self) -> str:
        return f"PauliString({self.letters!r})"


def letter_matrix(strings, n: int) -> np.ndarray:
    """int8 (len(strings), n) matrix whose row k is ``strings[k].codes()``,
    decoded from the bit planes of all n-qubit strings at once."""
    planes = (np.array([(s.x, s.z) for s in strings], dtype=np.int64).reshape(-1, 2, 1)
              >> np.arange(n)) & 1
    return _FROM_PLANES[planes[:, 0] + 2 * planes[:, 1]]


def strings_from_letters(letters: np.ndarray) -> tuple[PauliString, ...]:
    """One PauliString per row of an int (B, n) letter-code matrix, with the
    bit planes of all rows packed at once."""
    weights = 1 << np.arange(letters.shape[1], dtype=np.int64)
    xs = ((letters == 1) | (letters == 2)) @ weights
    zs = (letters >= 2) @ weights
    return tuple(PauliString(letters.shape[1], x, z) for x, z in zip(xs.tolist(), zs.tolist()))


def _row_keys(letters: np.ndarray) -> np.ndarray:
    """One integer per letter row (base-4 digits, site 0 least significant),
    for whole-basis lookups and grouping."""
    return letters.astype(np.int64) @ (4 ** np.arange(letters.shape[1], dtype=np.int64))


@dataclass(frozen=True, slots=True)
class PhasedPauli:
    """A Pauli string with a fourth-root-of-unity phase (product closure)."""

    phase: complex
    pauli: PauliString

    def __post_init__(self) -> None:
        if self.phase not in (1, 1j, -1, -1j):
            raise ValueError(f"phase {self.phase!r} is not a fourth root of unity")


def _require_same_n(a: PauliString, b: PauliString) -> None:
    if a.n != b.n:
        raise DimensionMismatch(f"qubit counts differ: {a.n} vs {b.n}")


def multiply(a: PauliString, b: PauliString) -> PhasedPauli:
    """Product a.b with its accumulated phase.

    With Y = iXZ every string is i^|x&z| X^x Z^z, and moving Z^(z_a) past
    X^(x_b) costs (-1)^|z_a&x_b|, so the phase exponent is
    |x_a&z_a| + |x_b&z_b| + 2|z_a&x_b| - |x&z| (mod 4) for x = x_a^x_b,
    z = z_a^z_b.  Involutive up to phase: multiply(a, a) == (+1, identity).
    """
    _require_same_n(a, b)
    x, z = a.x ^ b.x, a.z ^ b.z
    exp = ((a.x & a.z).bit_count() + (b.x & b.z).bit_count()
           + 2 * (a.z & b.x).bit_count() - (x & z).bit_count())
    return PhasedPauli((1, 1j, -1, -1j)[exp & 3], PauliString(a.n, x, z))


def hits(basis: PauliString, obs: PauliString) -> bool:
    """True iff measuring ``basis`` determines ``obs``.

    Every non-identity letter of ``obs`` must equal the corresponding letter
    of ``basis`` (identity letters of ``obs`` are unconstrained).
    """
    _require_same_n(basis, obs)
    m = obs.x | obs.z
    return not ((obs.x ^ basis.x) & m or (obs.z ^ basis.z) & m)


def compatible(a: PauliString, b: PauliString) -> bool:
    """True iff a common hitting basis exists (sitewise equal or identity)."""
    _require_same_n(a, b)
    m = (a.x | a.z) & (b.x | b.z)
    return not ((a.x ^ b.x) & m or (a.z ^ b.z) & m)


class WeightedPauliSum:
    """Real-weighted sum of distinct Pauli strings, O = sum_l alpha_l O_l.

    Terms are kept in insertion order.  Construction rejects duplicate
    Pauli strings and zero coefficients; use :meth:`from_terms` to collect
    arbitrary (coefficient, pauli) pairs first.  ``letters`` is the
    read-only int8 (L, n) letter matrix whose row l is ``paulis[l].codes()``.
    """

    __slots__ = ("n", "coeffs", "paulis", "letters")

    def __init__(self, n: int, terms) -> None:
        coeffs: list[float] = []
        paulis: list[PauliString] = []
        seen: set[tuple[int, int]] = set()
        for coeff, pauli in terms:
            if pauli.n != n:
                raise DimensionMismatch(f"term {pauli} has n={pauli.n}, sum has n={n}")
            if coeff == 0:
                raise ValueError(f"zero coefficient for term {pauli}")
            key = (pauli.x, pauli.z)
            if key in seen:
                raise ValueError(f"duplicate Pauli term {pauli}")
            seen.add(key)
            coeffs.append(float(coeff))
            paulis.append(pauli)
        self.n = n
        self.coeffs = tuple(coeffs)
        self.paulis = tuple(paulis)
        self.letters = np.array([p.codes() for p in paulis], dtype=np.int8).reshape(len(paulis), n)
        self.letters.setflags(write=False)

    @classmethod
    def from_terms(cls, n: int, terms) -> "WeightedPauliSum":
        """Collect (coefficient, pauli) pairs, summing duplicates; terms whose
        collected coefficient is zero are dropped."""
        acc: dict[tuple[int, int], float] = {}
        order: list[tuple[int, int]] = []
        for coeff, pauli in terms:
            if pauli.n != n:
                raise DimensionMismatch(f"term {pauli} has n={pauli.n}, sum has n={n}")
            key = (pauli.x, pauli.z)
            if key not in acc:
                acc[key] = 0.0
                order.append(key)
            acc[key] += float(coeff)
        kept = [(acc[k], PauliString(n, k[0], k[1])) for k in order if abs(acc[k]) > 0.0]
        return cls(n, kept)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[tuple[float, PauliString]]:
        return iter(zip(self.coeffs, self.paulis))

    @property
    def l1_norm(self) -> float:
        return float(sum(abs(c) for c in self.coeffs))

    def to_matrix(self) -> np.ndarray:
        dim = 2 ** self.n
        out = np.zeros((dim, dim), dtype=complex)
        for coeff, pauli in self:
            out += coeff * pauli.to_matrix()
        return out

    def require_nonempty(self) -> None:
        if len(self) == 0 or all(p.is_identity for p in self.paulis):
            raise DegenerateObservable("observable has no non-identity content")

    def __repr__(self) -> str:
        inner = " + ".join(f"{c:g}*{p}" for c, p in list(self)[:4])
        more = "" if len(self) <= 4 else f" + ... ({len(self)} terms)"
        return f"WeightedPauliSum({inner}{more})"


def square(h: WeightedPauliSum) -> WeightedPauliSum:
    """Pauli expansion of H.H with coefficients collected.

    All collected coefficients are real because H is Hermitian with real
    coefficients; terms below 1e-12 in magnitude are discarded as
    floating-point dust.
    """
    acc: dict[tuple[int, int], complex] = {}
    order: list[tuple[int, int]] = []
    for ca, pa in h:
        for cb, pb in h:
            prod = multiply(pa, pb)
            key = (prod.pauli.x, prod.pauli.z)
            if key not in acc:
                acc[key] = 0.0 + 0j
                order.append(key)
            acc[key] += ca * cb * prod.phase
    terms = []
    for key in order:
        val = acc[key]
        if abs(val.imag) > 1e-12:
            raise AssertionError(f"non-real coefficient {val} in a Hermitian square")
        if abs(val.real) >= 1e-12:
            terms.append((val.real, PauliString(h.n, key[0], key[1])))
    return WeightedPauliSum(h.n, terms)
