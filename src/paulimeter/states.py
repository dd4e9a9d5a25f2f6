"""Exact density-matrix simulator and brute-force oracle.

A state is held in its spectral form rho = floor*I + A A^dag, with A of
shape (2^n, r), beside a recipe for its dense 2^n x 2^n matrix
(``DensityMatrix.mat``).  ``ghz`` and ``admix_white_noise`` build the form
alone (r = 1), so sampling a noisy GHZ state costs O(2^n) memory; the dense
matrix is made only when an oracle reads ``mat``.  That matrix stays the
ground truth: the expectations, reductions and moments here are dense
linear algebra on it, deliberately direct rather than fast, and its recipe
repeats the eager arithmetic term for term, so exact values do not move.
A state given as a matrix gets its form from one eigendecomposition.
States are built only up to ``DENSE_MAX_QUBITS`` sites; past it every
constructor raises ``FeasibilityError`` before it allocates.

Born sampling is the one hot path.  It rotates only the r columns of A
into the measured basis, one site at a time: O(n r 2^n) per basis instead
of the O(n 4^n) of rotating rho itself.  ``_born_rows`` rotates a stack of
bases at once, one matmul per site over all of them, and
``born_distribution`` is its one-basis case.  ``sample_outcomes`` keeps
each basis's inverse-CDF table on the state, so repeated settings pay only
the lookup.  Measured bases travel as int8 letter rows (1=X, 2=Y, 3=Z).
``sample_settings`` draws the uniforms of all settings in one bulk pass:
setting k reads the stream of ``default_rng(parent.spawn(S)[k])``,
replayed on arrays without building any generator, so seeded outcomes
depend on numpy's SeedSequence and PCG64 algorithms (fixed by NEP 19).  It
then fills the CDF memo from stacked blocks for the distinct rows it
lacks, as far as the memo's cap allows, and runs ``sample_outcomes`` once
per distinct row.

Sites are 0-based internally; :class:`SubsystemMask` speaks the 1-based
labels used everywhere user-facing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FeasibilityError, InvalidBasis
from .paulis import MAX_QUBITS, PauliString, WeightedPauliSum, _row_keys

_HERMITIAN_TOL = 1e-10
_TRACE_TOL = 1e-10
_PSD_TOL = -1e-8
# eigvalsh cost grows as 8^n; skip the PSD eigencheck past this point
_PSD_CHECK_MAX_N = 10
# a dense 12-qubit state is a 256 MiB complex matrix
DENSE_MAX_QUBITS = 12
# eigenvalues within this of the smallest one fold into the floor; each
# Born probability then moves by at most this much
_RANK_TOL = 1e-13
# per-state budget of memoized inverse-CDF entries (8 MiB of float64)
_CDF_MEMO_ENTRIES = 2 ** 20
# amplitude entries per stacked block of Born rows (256 KiB of complex128):
# blocks of 2^16 and 2^20 entries ran an n=8 shadow collection no faster
# and raised its peak RSS by 4-5%
_BORN_BLOCK_ENTRIES = 2 ** 14

# row c rotates into the eigenbasis of letter c (1=X, 2=Y, 3=Z; row 0 is
# unused): its rows are <b| in that eigenbasis, so prob(b) = <b|U rho U^dag|b>
_EIGBASIS = np.array([np.zeros((2, 2)), [[1, 1], [1, -1]], [[1, -1j], [1, 1j]], np.eye(2)],
                     dtype=complex)
_EIGBASIS[1:3] /= np.sqrt(2.0)


def _check_qubits(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside 1..{MAX_QUBITS}")


def _dense_dim(n: int) -> int:
    """2^n, once n is a valid qubit count within the dense bound."""
    _check_qubits(n)
    if n > DENSE_MAX_QUBITS:
        raise FeasibilityError(f"a dense {n}-qubit state exceeds the bound of "
                               f"{DENSE_MAX_QUBITS} qubits (a 2^{2 * n}-entry matrix)")
    return 2 ** n


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class DensityMatrix:
    """n-qubit density matrix: its spectral form, a recipe for its dense
    matrix, and that matrix once built.

    A matrix given to the constructor is checked: Hermitian to 1e-10, unit
    trace to 1e-10, and (for n small enough to eigensolve) smallest
    eigenvalue >= -1e-8.  It is its own recipe, and its form comes from
    :meth:`spectral_form`.  ``ghz`` and ``admix_white_noise`` build states
    that are PSD with unit trace by construction (p in [0, 1] is checked),
    so no dense check runs; their recipe is a module-level function and its
    arguments, run on the first read of ``mat``.  A state pickles as its
    form and recipe, never as a built matrix, and without the inverse-CDF
    tables of the bases it was sampled in.
    """

    __slots__ = ("n", "_mat", "_recipe", "_form", "_cdfs")

    def __init__(self, n: int, mat: np.ndarray) -> None:
        dim = _dense_dim(n)
        mat = np.array(mat, dtype=complex)
        if mat.shape != (dim, dim):
            raise DimensionMismatch(f"matrix shape {mat.shape} does not fit n={n}")
        if np.max(np.abs(mat - mat.conj().T)) > _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian")
        tr = np.trace(mat)
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1")
        if n <= _PSD_CHECK_MAX_N:
            lo = np.linalg.eigvalsh(mat)[0]
            if lo < _PSD_TOL:
                raise ValueError(f"matrix is not PSD (min eigenvalue {lo})")
        self.n = n
        self._mat = _frozen(mat)
        self._recipe = (np.asarray, (mat,))
        self._form = None
        self._cdfs = {}

    @property
    def mat(self) -> np.ndarray:
        """The dense 2^n x 2^n matrix, read-only, built on first read."""
        if self._mat is None:
            build, args = self._recipe
            self._mat = _frozen(build(*args))
        return self._mat

    def spectral_form(self) -> tuple[float, np.ndarray]:
        """(floor, A) with mat = floor*I + A A^dag and A of shape (2^n, r).

        ``ghz`` and ``admix_white_noise`` set the form of the states they
        build.  Any other state gets it here, from one eigendecomposition:
        floor is the smallest eigenvalue, and A keeps the eigenvectors whose
        eigenvalue exceeds it by more than 1e-13, scaled by the square root
        of that excess.
        """
        if self._form is None:
            lam, vecs = np.linalg.eigh(self.mat)
            keep = lam - lam[0] > _RANK_TOL
            self._form = (float(lam[0]), _frozen(vecs[:, keep] * np.sqrt(lam[keep] - lam[0])))
        return self._form

    def __reduce__(self):
        return _assemble, (self.n, self._form, self._recipe)

    def __repr__(self) -> str:
        return f"DensityMatrix(n={self.n})"


def _assemble(n: int, form, recipe) -> DensityMatrix:
    """A state from its form (or None) and recipe, unchecked: the
    constructor of ``ghz`` and ``admix_white_noise`` and the unpickler."""
    rho = object.__new__(DensityMatrix)
    rho.n, rho._mat, rho._recipe, rho._cdfs = n, None, recipe, {}
    rho._form = None if form is None else (form[0], _frozen(form[1]))
    return rho


def _pure_matrix(a: np.ndarray) -> np.ndarray:
    """|psi><psi| for the one column psi of A."""
    return np.outer(a, a.conj())


def _admixed_matrix(recipe, p: float) -> np.ndarray:
    """(1-p) rho + p I/dim, with rho built from its recipe."""
    build, args = recipe
    mat = build(*args)
    return (1.0 - p) * mat + p * np.eye(len(mat)) / len(mat)


@dataclass(frozen=True, slots=True)
class SubsystemMask:
    """Subset of sites, labelled 1..n as in all user-facing text."""

    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if not all(1 <= m <= self.n for m in self.members):
            raise ValueError(f"mask members {sorted(self.members)} outside 1..{self.n}")

    @classmethod
    def of(cls, n: int, *members: int) -> "SubsystemMask":
        return cls(n, frozenset(members))

    @classmethod
    def full(cls, n: int) -> "SubsystemMask":
        return cls(n, frozenset(range(1, n + 1)))

    @classmethod
    def from_text(cls, n: int, text: str) -> "SubsystemMask":
        """Parse labels joined by commas or hyphens, e.g. ``"1,2"``."""
        try:
            members = frozenset(int(p) for p in text.replace("-", ",").split(",") if p)
        except ValueError:
            raise ValueError(f"bad mask {text!r}; expected site labels joined by commas") from None
        return cls(n, members)

    @property
    def indices(self) -> tuple[int, ...]:
        """Sorted 0-based site indices."""
        return tuple(sorted(m - 1 for m in self.members))

    def complement(self) -> "SubsystemMask":
        return SubsystemMask(self.n, frozenset(range(1, self.n + 1)) - self.members)

    def __str__(self) -> str:
        return "-".join(str(m) for m in sorted(self.members)) or "(empty)"


def ghz(n: int) -> DensityMatrix:
    """Pure projector onto (|0...0> + |1...1>)/sqrt(2), as the form (0, psi)."""
    vec = np.zeros((_dense_dim(n), 1), dtype=complex)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
    return _assemble(n, (0.0, vec), (_pure_matrix, (vec,)))


def admix_white_noise(rho: DensityMatrix, p: float) -> DensityMatrix:
    """(1-p) rho + p I/2^n; a known spectral form (floor, A) of rho
    carries over as ((1-p) floor + p/2^n, sqrt(1-p) A)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise weight {p} outside [0, 1]")
    dim = _dense_dim(rho.n)
    form = rho._form
    if form is not None:
        form = ((1.0 - p) * form[0] + p / dim, np.sqrt(1.0 - p) * form[1])
    return _assemble(rho.n, form, (_admixed_matrix, (rho._recipe, p)))


def noisy_ghz(n: int, noise: float) -> DensityMatrix:
    """GHZ state with white-noise weight ``noise``; noise 0 is plain GHZ."""
    rho = ghz(n)
    return admix_white_noise(rho, noise) if noise > 0.0 else rho


def noise_from_fidelity(n: int, fidelity: float) -> float:
    """White-noise weight p giving the stated fidelity to the pure target.

    For rho = (1-p)|g><g| + p I/2^n, F = <g|rho|g> = (1-p) + p/2^n, so
    p = (1-F) 2^n/(2^n - 1).  F runs from 1/2^n (maximally mixed, p = 1)
    to 1, and a fidelity outside that range is rejected.
    """
    _check_qubits(n)
    dim = 2 ** n
    if not 1.0 / dim <= fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity} outside [1/2^{n}, 1]; the maximally mixed "
                         f"{n}-qubit state already has fidelity 1/2^{n} = {1.0 / dim!r}")
    return (1.0 - fidelity) * dim / (dim - 1)


def exact_expectation(rho: DensityMatrix, o: WeightedPauliSum) -> float:
    """Oracle for Tr(O rho) = sum_l alpha_l Tr(rho O_l)."""
    if rho.n != o.n:
        raise DimensionMismatch(f"state n={rho.n}, observable n={o.n}")
    total = 0.0 + 0j
    for coeff, pauli in o:
        total += coeff * np.einsum("ij,ji->", rho.mat, pauli.to_matrix())
    if abs(total.imag) > 1e-10:
        raise AssertionError(f"expectation has imaginary part {total.imag}")
    return float(total.real)


def born_distribution(rho: DensityMatrix, basis: PauliString) -> np.ndarray:
    """Exact outcome distribution over the 2^n bit-strings of a basis.

    Outcome index encodes bits with site 0 as the most significant bit, so
    index b has bit_i(b) = (b >> (n-1-i)) & 1.  Bit 0 maps to eigenvalue +1,
    bit 1 to -1, per site.  With rho = floor*I + A A^dag and U the product
    of the per-site eigenbasis rotations, prob(b) = floor + sum_k |(U A)_bk|^2,
    computed by :func:`_born_rows` as its one-row case.
    """
    _check_basis(rho, basis)
    return _born_rows(rho, basis.codes()[None])[0]


def _check_basis(rho: DensityMatrix, basis: PauliString) -> None:
    if rho.n != basis.n:
        raise DimensionMismatch(f"state n={rho.n}, basis n={basis.n}")
    if not basis.is_full_weight:
        raise InvalidBasis(f"basis {basis} contains identity letters")


def _born_rows(rho: DensityMatrix, rows: np.ndarray) -> np.ndarray:
    """Born distributions of rho in the bases of the int8 (G, n) letter rows,
    as a (G, 2^n) array whose rows are indexed as in born_distribution.

    Site i leads each row's axes: one stacked matmul applies every row's
    rotation and moves the site to the back, so site i+1 leads next and each
    row is one BLAS call, the same whatever the stack.  The last site is two
    rounded products and a sum, so terms that cancel exactly (the parity
    zeros of GHZ) give exactly 0, as in the one-basis loop this replaced: on
    GHZ-family states every probability equals that loop's bit for bit.
    """
    n = rho.n
    floor, amp = rho.spectral_form()
    g, r = len(rows), amp.shape[1]
    amp = np.broadcast_to(amp, (g, 2 ** n, r))
    for i in range(n):
        lead = amp.reshape(g, 2, 2 ** (n - 1) * r).transpose(0, 2, 1)
        rot = _EIGBASIS[rows[:, i]].transpose(0, 2, 1)
        if i < n - 1:
            amp = np.matmul(lead, rot)
        else:
            amp = lead[:, :, :1] * rot[:, None, 0]
            amp += lead[:, :, 1:] * rot[:, None, 1]
    amp = amp.reshape(g, r, 2 ** n)
    probs = floor + np.sum(amp.real ** 2 + amp.imag ** 2, axis=1)
    probs[probs < 0] = 0.0
    return probs / probs.sum(axis=1, keepdims=True)


def sample_outcomes(rho: DensityMatrix, basis: PauliString, uniforms: np.ndarray) -> np.ndarray:
    """Born-rule outcomes by inverse CDF over the full 2^n distribution, one
    per uniform draw in [0, 1); returns a (len(uniforms), n) uint8 bit array.

    Each basis's CDF table is kept on the state, up to 2^20 entries per
    state, so a repeated basis costs only the lookup.  The bits go into the
    output ``_BLOCK_DRAWS`` draws at a time, so no int64 (draws, n) array is built.
    """
    if len(uniforms) < 1:
        raise ValueError("shots must be >= 1")
    cdf = rho._cdfs.get(basis)
    if cdf is None:
        cdf = _frozen(np.cumsum(born_distribution(rho, basis)))
        if (len(rho._cdfs) + 1) * len(cdf) <= _CDF_MEMO_ENTRIES:
            rho._cdfs[basis] = cdf
    draws = np.searchsorted(cdf, uniforms, side="right")
    np.minimum(draws, len(cdf) - 1, out=draws)
    shifts = rho.n - 1 - np.arange(rho.n)
    bits = np.empty((len(draws), rho.n), dtype=np.uint8)
    for lo in range(0, len(draws), _BLOCK_DRAWS):
        bits[lo:lo + _BLOCK_DRAWS] = draws[lo:lo + _BLOCK_DRAWS, None] >> shifts & 1
    return bits


def sample_settings(rho: DensityMatrix, letters: np.ndarray, shots: int,
                    parent: np.random.SeedSequence) -> np.ndarray:
    """Settings measured in turn: row k of the int8 (S, n) letter array is
    sampled ``shots`` times from the stream of ``parent.spawn(S)[k]``, that
    is ``default_rng(parent.spawn(S)[k]).random(shots)``, though no child
    is built (see :func:`_child_uniforms`).  Returns the (S*shots, n) uint8
    bits, setting by setting.

    The distinct rows that the state's CDF memo lacks, as many as its cap
    leaves room for, are rotated together by :func:`_born_rows` in blocks
    of at most 2^14 amplitude entries, and their CDFs go into the memo.
    ``sample_outcomes`` then runs once per distinct row, on all of that
    row's draws; a row past the cap takes its one-row path there.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    uniforms = _child_uniforms(parent, len(letters), shots)
    keys = _row_keys(letters)
    order = np.argsort(keys, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1) if len(order) else ()
    bases = [PauliString.from_codes(letters[idx[0]]) for idx in groups]
    for basis in bases:
        _check_basis(rho, basis)
    room = _CDF_MEMO_ENTRIES // 2 ** rho.n - len(rho._cdfs)
    todo = [k for k, basis in enumerate(bases) if basis not in rho._cdfs][:room]
    step = max(1, _BORN_BLOCK_ENTRIES // (2 ** rho.n * max(rho.spectral_form()[1].shape[1], 1)))
    for first in range(0, len(todo), step):
        block = todo[first:first + step]
        cdfs = np.cumsum(_born_rows(rho, letters[[groups[k][0] for k in block]]), axis=1)
        for k, cdf in zip(block, cdfs):
            rho._cdfs[bases[k]] = _frozen(cdf)
    bits = np.empty((len(letters), shots, rho.n), dtype=np.uint8)
    for idx, basis in zip(groups, bases):
        outcomes = sample_outcomes(rho, basis, uniforms[idx].ravel())
        bits[idx] = outcomes.reshape(len(idx), shots, rho.n)
    return bits.reshape(-1, rho.n)


# numpy's SeedSequence (default pool of four uint32 words) and PCG64 constants
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# draws per block of the PCG64 replay: its uint64 temporaries stay in cache
# (3x faster than one pass at 2M draws) and their memory stays bounded; also
# the draws per block of sample_outcomes' bit expansion
_BLOCK_DRAWS = 2 ** 14
# settings per block of the seed hashing, whose uint32 lanes (held in
# uint64) would otherwise grow with the setting count; it also caps the
# settings per draw block.  At 10^4 settings of 5 shots this keeps the
# working memory near 0.4 MiB beside the output, at the speed of 2^12
_HASH_SETTINGS = 2 ** 10


def _words(value) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative int."""
    value = int(value)
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: each call steps the hash constant."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two pool words."""
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64 arrays."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    mid = a0 * b0
    mid >>= 32
    mid += a1 * b0
    hi = a1 * b1
    hi += mid >> 32
    mid &= _M32
    mid += a0 * b1
    mid >>= 32
    hi += mid
    return hi


def _mul128(hi: np.ndarray, lo: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) times the Python int c, mod 2^128, on uint64 halves."""
    c_hi, c_lo = np.uint64(c >> 64), np.uint64(c & _M64)
    return _mulhi(lo, c_lo) + lo * c_hi + hi * c_lo, lo * c_lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(a_hi, a_lo) + (b_hi, b_lo) mod 2^128, on uint64 halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


# cached per `levels`: at most (_BLOCK_DRAWS + 2).bit_length() read-only tables
@functools.cache
def _lcg_constants(levels: int) -> tuple[np.ndarray, ...]:
    """M^j and S_j = 1 + M + ... + M^(j-1) mod 2^128 for j < 2^levels, as
    read-only (high, low) uint64 arrays, with M the PCG64 multiplier.
    Built by doubling: for j = L + r, M^j = M^L M^r and S_j = S_L + M^L S_r."""
    p_hi, p_lo, s_hi, s_lo = (np.array([v], dtype=np.uint64) for v in (0, 1, 0, 0))
    power, total = _PCG_MULT, 1  # M^L and S_L for the current L
    for _ in range(levels):
        q_hi, q_lo = _mul128(p_hi, p_lo, power)
        r_hi, r_lo = _add128(*_mul128(s_hi, s_lo, power), np.uint64(total >> 64),
                             np.uint64(total & _M64))
        p_hi, p_lo = np.concatenate((p_hi, q_hi)), np.concatenate((p_lo, q_lo))
        s_hi, s_lo = np.concatenate((s_hi, r_hi)), np.concatenate((s_lo, r_lo))
        total = (total + power * total) & _M128
        power = power * power & _M128
    return tuple(_frozen(a) for a in (p_hi, p_lo, s_hi, s_lo))


def _child_seeds(words: list) -> tuple[np.ndarray, ...]:
    """PCG64 seed and increment, as (seed_hi, seed_lo, inc_hi, inc_lo) uint64
    columns, of the children whose SeedSequence entropy words are ``words``;
    the last word is a column of child indices, hashed on uint32 lanes."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        pool = [_mix(p, hashmix(w)) for p in pool]
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL]) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (state[2 * j] | (state[2 * j + 1] << 32) for j in range(4))
    return seed_hi, seed_lo, (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1


def _child_uniforms(parent: np.random.SeedSequence, count: int, shots: int) -> np.ndarray:
    """(count, shots) doubles, row k equal to
    ``np.random.default_rng(parent.spawn(count)[k]).random(shots)``.

    A vectorized replica of numpy's streams, which NEP 19 keeps fixed:
    child k's SeedSequence pool differs from its siblings' only in the last
    entropy word, k, so the hashing runs on uint32 lanes (held in uint64)
    for that word alone, ``_HASH_SETTINGS`` children at a time from each
    block's first index; ``generate_state`` then gives PCG64's 128-bit seed
    and increment.  The LCG state s -> M s + inc after seeding and t steps
    is M^(t+1) seed + (1 + M + ... + M^(t+1)) inc, so every draw of every
    child is two 128-bit products by constants, on 64-bit halves.  Output
    is XSL-RR, and a double is (x >> 11) 2^-53.  The parent is not
    advanced, so one that has spawned children already, or whose entropy
    or pool size the replica does not model, is refused.
    """
    if not (isinstance(parent, np.random.SeedSequence) and parent.pool_size == _POOL
            and parent.n_children_spawned == 0
            and all(isinstance(v, (int, np.integer)) for v in (parent.entropy, *parent.spawn_key))):
        raise ValueError("sampling needs a fresh SeedSequence with integer entropy and spawn "
                         f"key and pool size {_POOL}, not {parent!r}")
    # the child's entropy: run entropy zero-padded to the pool, spawn key, child index
    entropy = _words(parent.entropy)
    words = entropy + [0] * (_POOL - len(entropy)) + [w for k in parent.spawn_key for w in _words(k)]
    # blocks of at most _BLOCK_DRAWS draws: `width` shots of `step` settings,
    # hashed `block` settings at a time
    width = min(shots, _BLOCK_DRAWS)
    step = max(1, min(_BLOCK_DRAWS // width, _HASH_SETTINGS))
    block = step * (_HASH_SETTINGS // step)
    pow_hi, pow_lo, sum_hi, sum_lo = _lcg_constants((width + 2).bit_length())
    a_hi, a_lo = pow_hi[2:width + 2], pow_lo[2:width + 2]
    g_hi, g_lo = sum_hi[3:width + 3], sum_lo[3:width + 3]
    # draw t + r is draw r of a stream seeded M^t seed + M S_t inc, and that
    # seed moves on by one block as b -> M^width b + M S_width inc
    shift = int(pow_hi[width]) << 64 | int(pow_lo[width])
    shift_inc = _PCG_MULT * (int(sum_hi[width]) << 64 | int(sum_lo[width])) & _M128
    uniforms = np.empty((count, shots))
    for first in range(0, count, block):
        last = min(first + block, count)
        b_hi, b_lo, inc_hi, inc_lo = _child_seeds(words + [np.arange(first, last, dtype=np.uint64)[:, None]])
        for t in range(0, shots, width):
            if t:
                b_hi, b_lo = _add128(*_mul128(b_hi, b_lo, shift), *_mul128(inc_hi, inc_lo, shift_inc))
            m = min(width, shots - t)
            for k in range(0, last - first, step):
                s_hi, s_lo, i_hi, i_lo = (v[k:k + step] for v in (b_hi, b_lo, inc_hi, inc_lo))
                # the state's 128-bit halves, summed in place to bound the temporaries
                lo_a = s_lo * a_lo[:m]
                lo = i_lo * g_lo[:m]
                lo += lo_a
                hi = _mulhi(s_lo, a_lo[:m])
                hi += lo < lo_a
                del lo_a
                hi += _mulhi(i_lo, g_lo[:m])
                for u, v in ((s_lo, a_hi), (s_hi, a_lo), (i_lo, g_hi), (i_hi, g_lo)):
                    hi += u * v[:m]
                # XSL-RR: x = hi ^ lo rotated right by hi >> 58
                lo ^= hi
                hi >>= 58
                left = lo << ((64 - hi) & 63)
                lo >>= hi
                lo |= left
                lo >>= 11
                np.multiply(lo, 2.0 ** -53, out=uniforms[first + k:first + k + step, t:t + m])
    return uniforms


def partial_trace(rho: DensityMatrix, keep: SubsystemMask) -> np.ndarray:
    """Trace out the complement of ``keep``; returns a dense matrix."""
    if keep.n != rho.n:
        raise DimensionMismatch("mask and state sizes differ")
    n = rho.n
    keep_idx = keep.indices
    drop_idx = tuple(i for i in range(n) if i not in keep_idx)
    arr = rho.mat.reshape((2,) * (2 * n))
    for k, i in enumerate(drop_idx):
        arr = np.trace(arr, axis1=i - k, axis2=n - k + i - k)
    d = 2 ** len(keep_idx)
    return arr.reshape(d, d)


def partial_transpose(rho: DensityMatrix, a: SubsystemMask) -> np.ndarray:
    """Transpose the indices of subsystem A only; returns a dense matrix."""
    if a.n != rho.n:
        raise DimensionMismatch("mask and state sizes differ")
    return _transpose_sites(rho.mat, a)


def _transpose_sites(mat: np.ndarray, a: SubsystemMask) -> np.ndarray:
    """Partial transpose of a 2^n x 2^n matrix on the sites of A."""
    arr = mat.reshape((2,) * (2 * a.n))
    for i in a.indices:
        arr = np.swapaxes(arr, i, a.n + i)
    return arr.reshape(mat.shape)


def exact_pt_moment(rho: DensityMatrix, a: SubsystemMask, order: int) -> float:
    """p_order = Tr[(rho^{T_A})^order] via eigenvalues of the PT matrix."""
    if order < 1:
        raise ValueError("order must be >= 1")
    evals = np.linalg.eigvalsh(partial_transpose(rho, a))
    return float(np.sum(evals ** order))


def exact_subsystem_purity(rho: DensityMatrix, a: SubsystemMask) -> float:
    """Tr(rho_A^2) by partial trace; Frobenius norm of the Hermitian rho_A."""
    if not a.members:
        raise ValueError("purity of an empty subsystem is undefined")
    sub = partial_trace(rho, a)
    return float(np.real(np.vdot(sub, sub)))


def random_mixed_state(n: int, rng) -> DensityMatrix:
    """Full-rank generic test state: normalized A A^dag, A complex normal."""
    dim = _dense_dim(n)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    m /= np.trace(m).real
    m = (m + m.conj().T) / 2
    return DensityMatrix(n, m)
