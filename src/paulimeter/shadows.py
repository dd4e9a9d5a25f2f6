"""Classical-shadow snapshots and the nonlinear-function estimators.

A single shot in full-weight basis W with outcome bits b yields the unbiased
state estimate rho_hat = prod_i f_i, f_i = (I + 3 s_i W_i)/2 with
s_i = (-1)^{b_i}.  Purity and partial-transpose moments are U-statistics
over distinct snapshot tuples, built from per-site closed forms:
Tr(f_a f_b) = 1/2 + 9/2 s_a s_b [W_a = W_b] (5, -4 or 1/2),
Tr(f_a^2 f_b) = 5/2 + 9/2 s_a s_b [W_a = W_b] (7, -2 or 5/2), and
Tr(f^3) = 7 since f has eigenvalues 2 and -1, so Tr(M_k^3) = 7^n exactly.

A partial transpose keeps the trace and Tr(X^{T_A} Y^{T_A}) = Tr(XY).  So
the second PT moment is the full-system purity, and in the third-order sum

    sum_{a!=b!=c} Tr[M_a M_b M_c] = Tr[T1^3] - 3 Tr[T2 T1] + 2 Tr[T3]

over T_m = sum_k (M_k^{T_A})^m only Tr[T1^3] depends on the mask A: T1 is
the partial transpose of the dense snapshot sum, Tr[T2 T1] is the pair sum
at alpha = 5/2 below, and Tr[T3] = N 7^n.  A row of reps w stands for w
snapshots, N = sum w; every sum weighs it by w, so no row is copied.

Per set, built once and kept on the ShadowSet: T1, S_all(5/2), the purity
sum S_all(1/2) behind p2, and every pair sum asked for.  Per mask: the
index-swap transpose of T1, Tr[T1^3] (two 2^n matmuls) and its own purity.
T1 is summed over the tree of snapshot prefixes: the snapshots that share
their codes on sites 0..d-1 share one Kronecker block on sites d..n-1.
Every factor entry is a multiple of 1/2 of size at most 2, so every partial
sum of T1 is a multiple of 2^-n below N 2^n and is exact while
N 4^n < 2^53: T1 is then the same in any summation order.  The feature-map
pair sums are Kronecker sums too; their entries are multiples of 1/sqrt(2),
so they keep the fixed order of the chunked kernel _kron_sum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, EmptyInput, FeasibilityError
from .estimators import ShotBatch
from .paulis import _MATS
from .states import DensityMatrix, SubsystemMask, _transpose_sites, sample_settings

# factor (I + 3 s W)/2 indexed by [letter code - 1][0 if s=+1 else 1]
_FACTOR = np.array([[(np.eye(2) + 3.0 * s * w) / 2.0 for s in (1.0, -1.0)] for w in _MATS[1:]])
if np.abs(np.trace(_FACTOR, axis1=2, axis2=3) - 1.0).max() > 1e-12:
    raise AssertionError("snapshot factor trace is not 1")
if np.abs(np.linalg.eigvalsh(_FACTOR) - [-1.0, 2.0]).max() > 1e-12:
    raise AssertionError("snapshot factor eigenvalues are not {2, -1}")

_MAX_DENSE_QUBITS = 10
_MC_CHUNK = 1 << 16
_KRON_BYTES = 1 << 25  # largest stack of Kronecker blocks built at once


class ShadowSet(ShotBatch):
    """Snapshot collection: a shot batch whose row of reps r stands for r snapshots.

    ``letters[k, i]`` is the measured Pauli letter code (1=X, 2=Y, 3=Z) on
    site i of row k; ``signs[k, i]`` is the outcome eigenvalue +-1, stored
    as the outcome bit.  The package builds its sets through ``_owned``, as
    any batch; the constructor takes signs and copies them, with unit reps.
    """

    def __init__(self, n: int, letters, signs):
        letters = np.array(letters, dtype=np.int8)
        signs = np.asarray(signs, dtype=np.int8)
        if letters.ndim != 2 or letters.shape[1] != n or letters.shape != signs.shape:
            raise DimensionMismatch("letters and signs must both be (N, n)")
        if signs.size and not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +-1")
        self._adopt(letters, (signs < 0).astype(np.uint8), np.ones(len(letters), dtype=np.int64))

    def _adopt(self, letters, bits, reps) -> None:
        super()._adopt(letters, bits, reps)
        self._sums: dict = {}  # per-set memo of _snapshot_sum and _pair_sum

    @property
    def signs(self) -> np.ndarray:
        return 1 - 2 * self.bits.astype(np.int8)

    @classmethod
    def from_records(cls, records: ShotBatch) -> "ShadowSet":
        """The snapshots of a shot batch, sharing its read-only arrays."""
        if len(records) == 0:
            raise EmptyInput("no records to build shadows from")
        return cls._owned(records.letters, records.bits, records.reps)

    def records(self) -> ShotBatch:
        """The set as a shot batch, with the same rows and reps (lossless)."""
        return self


def collect_shadows(rho: DensityMatrix, ns: int, seed) -> ShadowSet:
    """Simulate ns uniform-ensemble snapshots of rho: an independent uniform
    letter per qubit, then one shot per snapshot."""
    if ns < 1:
        raise ValueError("ns must be >= 1")
    if ns >= 2 ** 53:
        raise FeasibilityError(f"--ns {ns} is 2^53 snapshots or more")
    try:
        letters = np.random.default_rng(seed).integers(1, 4, size=(ns, rho.n), dtype=np.int8)
        bits = sample_settings(rho, letters, 1, np.random.SeedSequence(seed))
    except MemoryError:
        raise FeasibilityError(f"--ns {ns} snapshots do not fit in memory") from None
    return ShadowSet._owned(letters, bits, np.ones(ns, dtype=np.int64))


def _require(shadows: ShadowSet, least: int, what: str) -> int:
    count = shadows.shots
    if count < least:
        raise EmptyInput(f"{what} needs at least {least} snapshots, got {count}")
    return count


def _snapshot_sum(shadows: ShadowSet) -> np.ndarray:
    """T1 = sum_k M_k, built once per set and kept read-only in its memo."""
    if "t1" not in shadows._sums:
        shadows._sums["t1"] = _build_snapshot_sum(shadows)
        shadows._sums["t1"].setflags(write=False)
    return shadows._sums["t1"]


def _kron_sum(factors: np.ndarray, codes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] kron_j factors[codes[k, j]] over (N, m) code rows, in
    row chunks of at most _KRON_BYTES of Kronecker products that each gather
    their own factors.  The feature-map pair sums use it; T1 has its own kernel."""
    (count, m), (a, b) = codes.shape, factors.shape[1:]
    total = np.zeros((a ** m, b ** m), dtype=factors.dtype)
    chunk = max(1, _KRON_BYTES // (factors.itemsize * total.size))
    for lo in range(0, count, chunk):
        block = factors[codes[lo : lo + chunk]]
        out = block[:, 0] * weights[lo : lo + chunk, None, None]
        for j in range(1, m):
            c, p, q = out.shape
            out = np.einsum("kab,kcd->kacbd", out, block[:, j]).reshape(c, p * a, q * b)
        total += out.sum(axis=0)
    return total


def _build_snapshot_sum(shadows: ShadowSet) -> np.ndarray:
    """Dense sum of all snapshot matrices, T1 = sum_k M_k."""
    return _prefix_sum(2 * (shadows.letters.astype(np.int64) - 1) + shadows.bits, shadows.reps)


def _prefix_sum(codes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S = sum_k weights[k] kron_j F[codes[k, j]] over (count, m) code rows.

    S = sum_c kron(F_c, S_c), with S_c the sum over the rows that lead with
    code c.  When count blocks of 4^m complex entries fit in _KRON_BYTES,
    the rows are grouped in one pass; otherwise they are split on their
    leading code, and each kron(F_c, S_c) is added into the output one
    entry of F_c at a time.
    """
    count, m = codes.shape
    if m == 0 or count * 16 * 4 ** m <= _KRON_BYTES:
        return _grouped_sum(codes, weights)
    half = 1 << (m - 1)
    total = np.zeros((2 * half, 2 * half), dtype=complex)
    quarters = total.reshape(2, half, 2, half)
    lead = codes[:, 0]
    for c in np.unique(lead):
        child = _prefix_sum(codes[lead == c, 1:], weights[lead == c])
        for (a, b), f in np.ndenumerate(_FACTOR[c // 2, c % 2]):
            quarters[a, :, b, :] += f * child
    return total


def _grouped_sum(codes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """_prefix_sum breadth-first: the distinct code rows with their weights,
    then from the last site on, one kron of each group's code factor with
    its block and one sum of the groups that share the shorter prefix."""
    count, m = codes.shape
    keys = np.zeros(count, dtype=np.int64)
    for j in range(m):
        keys = 6 * keys + codes[:, j]
    keys, inverse = np.unique(keys, return_inverse=True)
    blocks = np.bincount(inverse, weights).astype(complex).reshape(-1, 1, 1)
    for _ in range(m):
        groups, size = len(keys), 2 * blocks.shape[1]
        # einsum adds each product onto a zeroed output, so no entry is -0,
        # as none is in a sum started from zeros
        kron = np.einsum("gab,gcd->gacbd", _FACTOR.reshape(6, 2, 2)[keys % 6], blocks)
        keys //= 6
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        blocks = np.add.reduceat(kron.reshape(groups, size, size), starts, axis=0)
        keys = keys[starts]
    return blocks[0]


def reconstruct_mean(shadows: ShadowSet) -> np.ndarray:
    """Arithmetic mean of the N snapshots. Trace is exactly 1; the
    matrix is generally not positive semidefinite and is returned as-is."""
    count = _require(shadows, 1, "reconstruction")
    if shadows.n > _MAX_DENSE_QUBITS:
        raise FeasibilityError(f"dense reconstruction limited to {_MAX_DENSE_QUBITS} qubits")
    return _snapshot_sum(shadows) / count


def _pair_sum(shadows: ShadowSet, sites, alpha: float) -> float:
    """_pair_kernel, kept in the set's memo under (sites, alpha)."""
    key = (tuple(sites), alpha)
    if key not in shadows._sums:
        shadows._sums[key] = _pair_kernel(shadows, key[0], alpha)
    return shadows._sums[key]


def _pair_kernel(shadows: ShadowSet, sites, alpha: float) -> float:
    """Sum of h(a, b) = prod_{i in sites} (alpha + 9/2 s_a s_b [W_a = W_b])
    over all ordered snapshot pairs (a, b), a = b included: over rows,
    sum_ab w_a w_b h(a, b) with w the reps.

    The feature map costs R 4^m and the pair table R^2 m for R rows and m
    sites; the cheaper one runs.  Feature vectors (sqrt(alpha), 3 s e_W / sqrt(2))
    have the per-site value as their inner product, so the sum is the
    squared norm of their weighted sum of tensor products.  The table is
    built, weighted and summed in row blocks of at most 2^20 entries.
    """
    count, m, weights = len(shadows), len(sites), shadows.reps
    sites = list(sites)
    # per-site code 2 (letter code - 1) + bit, and its letter and sign
    code = 2 * (shadows.letters[:, sites] - 1) + shadows.bits[:, sites]
    letter, sign = np.arange(6) // 2, 1.0 - 2.0 * (np.arange(6) % 2)
    if 4 ** m <= count * m:
        phi = np.zeros((6, 4))
        # sqrt(2 alpha)/sqrt(2) is exactly 1/sqrt(2) at alpha = 1/2
        phi[:, 0] = math.sqrt(2.0 * alpha) / math.sqrt(2.0)
        phi[np.arange(6), 1 + letter] = 3.0 * sign / math.sqrt(2.0)
        acc = _kron_sum(phi[..., None], code, weights)[:, 0]
        return float(acc @ acc)
    table = alpha + 4.5 * np.outer(sign, sign) * (letter[:, None] == letter)
    block = max(1, (1 << 20) // count)
    total = 0.0
    for lo in range(0, count, block):
        pair = table[code[lo : lo + block, 0, None], code[:, 0]]
        for j in range(1, m):
            pair *= table[code[lo : lo + block, j, None], code[:, j]]
        pair *= weights[lo : lo + block, None]
        pair *= weights
        total += float(pair.sum())
    return total


def purity_ustat(shadows: ShadowSet, a: SubsystemMask) -> float:
    """U-statistic for Tr(rho_A^2) over ordered distinct snapshot pairs.

    The per-qubit pair trace is 5 (same basis, same outcome), -4 (same
    basis, opposite outcome) or 1/2 (different bases), so the estimate is
    (S_A(1/2) - N 5^m) / (N (N - 1)): the pair sum over all ordered pairs
    minus its N diagonal terms.
    """
    count = _require(shadows, 2, "purity estimation")
    if a.n != shadows.n:
        raise DimensionMismatch(f"mask n={a.n}, shadows n={shadows.n}")
    sites = a.indices
    if not sites:
        raise ValueError("subsystem mask is empty")
    pair_sum = _pair_sum(shadows, sites, 0.5) - count * 5.0 ** len(sites)
    return pair_sum / (count * (count - 1))


def _parse_strategy(strategy: str) -> tuple[str, int]:
    if strategy == "full":
        return "full", 0
    if strategy.startswith("mc:"):
        try:
            budget = int(strategy[3:])
        except ValueError:
            raise ValueError(f"bad strategy {strategy!r}") from None
        if budget < 1:
            raise ValueError("montecarlo budget must be >= 1")
        return "mc", budget
    raise ValueError(f"unknown strategy {strategy!r}; expected 'full' or 'mc:<budget>'")


def pt_moment_ustat(
    shadows: ShadowSet,
    a: SubsystemMask,
    order: int = 2,
    strategy: str = "full",
    seed=0,
) -> float:
    """U-statistic for Tr[(rho^{T_A})^order], order 2 or 3.

    strategy "full" evaluates the sum over all ordered distinct tuples
    exactly: order 2 as the full-system purity, which it equals pair by pair,
    and order 3 as [Tr((T1^{T_A})^3) - 3 S_all(5/2) + 2 N 7^n] / (N(N-1)(N-2))
    with T1 the dense snapshot sum (see the module docstring);
    "mc:<budget>" averages over uniformly sampled distinct ordered tuples,
    deterministic for a fixed seed.  Sampled tuple values can carry an
    imaginary part; it cancels in expectation between a tuple and its
    reversal and is dropped.
    """
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    count = _require(shadows, order, "PT-moment estimation")
    if a.n != shadows.n:
        raise DimensionMismatch(f"mask n={a.n}, shadows n={shadows.n}")
    kind, budget = _parse_strategy(strategy)
    n = shadows.n
    if kind == "full" and order == 2:
        return purity_ustat(shadows, SubsystemMask.full(n))
    if kind == "full":
        if n > _MAX_DENSE_QUBITS:
            raise FeasibilityError(
                f"full tuple sums build 2^n matrices and are limited to n <= {_MAX_DENSE_QUBITS}; use 'mc:<budget>'"
            )
        t1 = _transpose_sites(_snapshot_sum(shadows), a)
        raw = (
            np.trace(t1 @ t1 @ t1)
            - 3.0 * _pair_sum(shadows, range(n), 2.5)
            + 2.0 * count * 7.0 ** n
        )
        if abs(raw.imag) > 1e-8 * max(1.0, abs(raw.real)):
            raise AssertionError("tuple power sum came out complex")
        return float(raw.real) / (count * (count - 1) * (count - 2))
    factors = _FACTOR[shadows.letters - 1, shadows.bits]
    ends = np.cumsum(shadows.reps)  # snapshot k is in the first row whose running total exceeds k
    masked = list(a.indices)
    rng = np.random.default_rng(seed)
    remaining = budget
    partials = []
    while remaining > 0:
        draw = rng.integers(0, count, size=(_MC_CHUNK, order))
        draw = draw[np.all(np.diff(np.sort(draw, 1), 1) != 0, 1)][:remaining]
        if len(draw) == 0:
            continue
        draw = np.searchsorted(ends, draw, "right")
        prod = factors[draw[:, 0]]
        for t in range(1, order):
            prod = np.einsum("kjab,kjbc->kjac", prod, factors[draw[:, t]])
        traces = prod[:, :, 0, 0] + prod[:, :, 1, 1]
        # a transposed site reverses its product of Hermitian factors, which
        # conjugates its trace
        traces[:, masked] = traces[:, masked].conj()
        partials.append(float(traces.prod(axis=1).real.sum()))
        remaining -= len(draw)
    return math.fsum(partials) / budget


def p3_ppt_certificate(shadows: ShadowSet, a: SubsystemMask, strategy: str = "full", seed=0) -> dict:
    """Moment-based entanglement witness: the state must be entangled
    across the mask cut when p2^2 > p3."""
    p2 = pt_moment_ustat(shadows, a, 2, strategy, seed)
    p3 = pt_moment_ustat(shadows, a, 3, strategy, seed)
    margin = p2 * p2 - p3
    return {"p2": p2, "p3": p3, "margin": margin, "entangled": margin > 0.0}


def purity_certificate(shadows: ShadowSet, a: SubsystemMask) -> dict:
    """Subsystem-vs-full purity comparison: a subsystem strictly more mixed
    than the whole flags entanglement across the cut."""
    purity_a = purity_ustat(shadows, a)
    purity_full = purity_ustat(shadows, SubsystemMask.full(shadows.n))
    return {
        "purity_A": purity_a,
        "purity_full": purity_full,
        "flag": purity_a < purity_full,
    }
