"""The unified estimator, its derandomized variant, and analytic variances.

One measurement shot in basis P with outcome bits b contributes

    o_hat(P, b) = sum_l alpha_l f(P, O_l, K) mu(b, supp(O_l))

where mu is the product of the +-1 site eigenvalues over the term's support
and f is the scheme's kernel: inverse entry probability times a membership
indicator for the explicit schemes (importance sampling, grouping), and the
factorized product kernel prod_i (delta_{Q_i,I} + K_i(P_i)^{-1} delta_{Q_i,P_i})
for the product schemes (uniform and locally biased randomized bases).  The
probability-weighted average of o_hat over bases and outcomes is exactly
Tr(O rho) for every scheme; the analytic variance calculators below give the
single-shot variance of the same estimators.  Each builds its kernel's second
moments g[l, l'] = E_P[f(P, O_l) f(P, O_l')] and hands them to one kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageError,
    DimensionMismatch,
    EmptyInput,
    ForeignRecord,
    PlanMismatch,
)
from .paulis import MAX_QUBITS, PauliString, WeightedPauliSum, _row_keys, multiply
from .schemes import BasisDistribution, MeasurementPlan
from .states import DensityMatrix, exact_expectation

# rows per block of the estimator kernel: a 10^4-row sweep cell stays one
# block, and a block's temporaries stay below a MiB
_BLOCK_ROWS = 2 ** 14


class ShotBatch:
    """Shot data as arrays, one row per measurement event.

    ``letters`` holds the full-weight basis letter codes (1=X, 2=Y, 3=Z) as
    an int8 (N, n) array, ``bits`` the outcome bits as a uint8 (N, n) array,
    and ``reps`` the int64 (N,) multiplicities: a row with reps=r stands for
    r unit shots that produced the same basis and the same outcome.  The
    total shot count must stay below 2^53, the bound under which
    :func:`per_term_expectations` sums exactly.  The constructor copies its
    arrays; the package's own builders hand theirs over through ``_owned``.
    Either way they are validated and made read-only once, in ``_adopt``.
    """

    def __init__(self, letters, bits, reps=None) -> None:
        letters = np.array(letters, dtype=np.int8)
        reps = np.ones(len(letters)) if reps is None else reps
        self._adopt(letters, np.array(bits, dtype=np.uint8), np.array(reps, dtype=np.int64))

    @classmethod
    def _owned(cls, letters, bits, reps) -> "ShotBatch":
        """A batch over arrays that the caller has just built and no one else
        holds: validated and frozen like the constructor's, but not copied."""
        batch = cls.__new__(cls)
        batch._adopt(np.asarray(letters, dtype=np.int8), np.asarray(bits, dtype=np.uint8),
                     np.asarray(reps, dtype=np.int64))
        return batch

    def _adopt(self, letters: np.ndarray, bits: np.ndarray, reps: np.ndarray) -> None:
        """Validate the arrays, freeze them and keep them as the batch's own."""
        if letters.ndim != 2 or bits.shape != letters.shape or reps.shape != letters.shape[:1]:
            raise ValueError(f"letters {letters.shape}, bits {bits.shape} and reps {reps.shape} "
                             "must be (N, n), (N, n) and (N,)")
        if not 1 <= letters.shape[1] <= MAX_QUBITS:
            raise ValueError(f"qubit count {letters.shape[1]} outside 1..{MAX_QUBITS}")
        if letters.size and letters.min() < 1:
            raise ValueError("record basis contains identity letters")
        if letters.size and letters.max() > 3:
            raise ValueError("letter codes must be 1 (X), 2 (Y) or 3 (Z)")
        if bits.size and bits.max() > 1:
            raise ValueError("bits must be 0 or 1")
        if reps.size and reps.min() < 1:
            raise ValueError("reps must be >= 1")
        # a float sum of positive integers is exact below 2^53 and cannot
        # fall back under it once a partial sum reaches it, in any order
        shots = reps.sum(dtype=float)
        if shots >= 2.0 ** 53:
            raise ValueError("reps add up to 2^53 shots or more")
        for a in (letters, bits, reps):
            a.setflags(write=False)
        self.n = letters.shape[1]
        self.letters = letters
        self.bits = bits
        self.reps = reps
        self.shots = int(shots)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ShotBatch) and np.array_equal(self.letters, other.letters)
                and np.array_equal(self.bits, other.bits) and np.array_equal(self.reps, other.reps))

    def __reduce__(self):
        return type(self)._owned, (self.letters, self.bits, self.reps)


@dataclass(frozen=True)
class EstimateReport:
    """Estimator output: value, shot count, per-term hit counts, and the
    initial-bias bound epsilon_0 = sum of |alpha_l| over terms never hit."""

    value: float
    n_samples: int
    s_l: tuple[int, ...]
    epsilon0: float


def _entry_of(o: WeightedPauliSum, plan: MeasurementPlan) -> np.ndarray:
    """Index of the explicit plan entry that measures each term of o (-1 if
    the plan was built without the term or no entry owns it)."""
    if plan.members is None:
        raise PlanMismatch("explicit plan carries no term membership")
    index = {(p.x, p.z): i for i, p in enumerate(plan.terms)}
    owner = {t: e for e, member in enumerate(plan.members) for t in member}
    return np.array([owner.get(index.get((p.x, p.z)), -1) for p in o.paulis], dtype=np.int64)


def _terms(batch: ShotBatch, plan: MeasurementPlan, o: WeightedPauliSum):
    """The estimator kernel, walked over blocks of at most ``_BLOCK_ROWS``
    rows.  Returns each term's weight f(P, O_l, K), for which
    f * sum(reps * mu) / shots is the term's estimate, and a generator of
    blocks (lo, hi, per_term).  ``per_term`` yields, for each term O_l of o
    in order, the mask of the block's rows that enter its estimate and their
    mu(b, supp O_l) = +-1.

    Explicit plans: the rows measured in the entry that owns the term, with
    f = 1/K(entry); a term the plan does not own gets no rows.  Product
    plans: the rows whose basis hits the term, with f the product over the
    support of 1/K_i(P_i).  Fixed-bases plans: the rows that hit the term,
    with f = shots/s_l, which turns the mean into the average over hits;
    it waits for the hit counts, so the weights are None.  The first row
    that the plan could not have measured raises ForeignRecord when its
    block is reached.
    """
    if o.n != plan.n:
        raise DimensionMismatch(f"observable n={o.n}, plan n={plan.n}")
    if len(batch) == 0:
        raise EmptyInput("no records to estimate from")
    if batch.n != plan.n:
        raise DimensionMismatch(f"records of n={batch.n} do not fit plan n={plan.n}")
    dist = plan.distribution
    kind = "fixed" if plan.scheme == "derand" else dist.kind
    weights = None
    if kind == "fixed":
        nb = len(plan.fixed_bases)
        if nb == 0 or len(batch) % nb != 0:
            raise PlanMismatch(f"{len(batch)} records do not cover {nb} planned settings evenly")
        nr = len(batch) // nb
    elif kind == "explicit":
        entry_of = _entry_of(o, plan)
        entry_keys = _row_keys(plan.letters)
        order = np.argsort(entry_keys)
        weights = [1.0 / dist.explicit[e][1] if e >= 0 else 0.0 for e in entry_of]
    else:
        weights = []
        for codes in o.letters:
            f = 1.0
            for i in np.flatnonzero(codes):
                f /= dist.product[i, codes[i] - 1]
            weights.append(f)
    supports = [np.flatnonzero(codes) for codes in o.letters]

    def per_term(letters, bits, ids):
        for l, (codes, supp) in enumerate(zip(o.letters, supports)):
            if kind == "explicit":
                rows = ids == entry_of[l]
            else:
                rows = np.all(letters[:, supp] == codes[supp], axis=1)
            parity = bits[rows][:, supp].sum(axis=1) & 1
            yield rows, 1.0 - 2.0 * parity

    def blocks():
        for lo in range(0, len(batch), _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, len(batch))
            letters, ids = batch.letters[lo:hi], None
            if kind == "fixed":
                planned = plan.letters[np.arange(lo, hi) // nr]
                wrong = np.flatnonzero(np.any(letters != planned, axis=1))
                if wrong.size:
                    k = lo + int(wrong[0])
                    basis = PauliString.from_codes(letters[wrong[0]])
                    raise ForeignRecord(f"record basis {basis} does not match planned "
                                        f"basis {plan.fixed_bases[k // nr]} (setting {k // nr})")
            elif kind == "explicit":
                keys = _row_keys(letters)
                ids = order[np.minimum(np.searchsorted(entry_keys, keys, sorter=order),
                                       len(order) - 1)]
                foreign = np.flatnonzero(entry_keys[ids] != keys)
                if foreign.size:
                    raise ForeignRecord(f"basis {PauliString.from_codes(letters[foreign[0]])} "
                                        "is not an entry of the plan")
            yield lo, hi, per_term(letters, batch.bits[lo:hi], ids)

    return weights, blocks()


def per_shot_estimates(batch: ShotBatch, plan: MeasurementPlan, o: WeightedPauliSum) -> np.ndarray:
    """o_hat for every row (in row order; reps NOT expanded)."""
    values = np.empty(len(batch))
    for lo, block in _shot_values(batch, plan, o, np.zeros(len(o), dtype=np.int64)):
        values[lo:lo + len(block)] = block
    return values


def _shot_values(batch: ShotBatch, plan: MeasurementPlan, o: WeightedPauliSum, s_l: np.ndarray):
    """o_hat per row, as (lo, values) blocks in row order; each block adds
    its hit counts into s_l before it is yielded.  The arguments are checked
    at once, the rows as the blocks are drawn."""
    if plan.scheme == "derand":
        raise PlanMismatch("per-shot estimation applies to randomized plans")
    weights, blocks = _terms(batch, plan, o)
    scales = [coeff * f for coeff, f in zip(o.coeffs, weights)]

    def values():
        for lo, hi, per_term in blocks:
            reps = batch.reps[lo:hi]
            block = np.zeros(hi - lo)
            for l, (rows, mu) in enumerate(per_term):
                s_l[l] += reps[rows].sum()
                block[rows] += scales[l] * mu
            yield lo, block

    return values()


def per_term_expectations(
    batch: ShotBatch, plan: MeasurementPlan, o: WeightedPauliSum
) -> tuple[np.ndarray, np.ndarray]:
    """Per-term estimates of <O_l> (coefficients not applied) and the
    weighted hit counts s_l, under any plan kind.

    For randomized plans a term's estimate is the all-shots mean of its
    kernel contribution; for fixed-bases plans it is the signed-outcome
    average over hitting shots (0.0 when never hit, flagged by s_l = 0).
    The hit counts and the sums of reps * mu add up block by block; they
    are integers, exact in any order while the shot count is below 2^53.
    """
    weights, blocks = _terms(batch, plan, o)
    hits = np.zeros(len(o), dtype=np.int64)
    s_l = np.zeros(len(o))
    signed = np.zeros(len(o))
    for lo, hi, per_term in blocks:
        reps = batch.reps[lo:hi]
        as_float = reps.astype(float)
        for l, (rows, mu) in enumerate(per_term):
            hit = as_float[rows]
            s_l[l] += hit.sum()
            signed[l] += np.dot(mu, hit)
            if weights is None:
                hits[l] += reps[rows].sum()
    vals = np.zeros(len(o))
    for l in np.flatnonzero(s_l > 0):
        f = batch.shots / int(hits[l]) if weights is None else weights[l]
        vals[l] = f * float(signed[l]) / batch.shots
    return vals, s_l


def estimate(
    batch: ShotBatch,
    plan: MeasurementPlan,
    o: WeightedPauliSum,
    aggregator: str = "mean",
    batches: int = 10,
) -> EstimateReport:
    """Estimate of Tr(O rho) under any plan: the mean of o_hat over all shots
    for a randomized plan, :func:`estimate_derandomized` for a derandomized one.

    A row with reps=r contributes as r unit shots.  ``aggregator`` may be
    "mean" (default) or "medianmeans", which splits the rows into
    ``batches`` consecutive batches and takes the median of the batch means;
    it needs a randomized plan (PlanMismatch otherwise).  Terms the dataset
    never hit are reported through s_l and epsilon0; their zero
    contributions stay in the mean, which is what keeps it unbiased.  The
    per-shot values stream block by block into ``math.fsum``, which rounds
    their sum once, whatever the blocks.
    """
    if aggregator not in ("mean", "medianmeans"):
        raise ValueError(f"unknown aggregator {aggregator!r}")
    if aggregator == "medianmeans" and batches < 1:
        raise ValueError("batches must be >= 1")
    if plan.scheme == "derand" and aggregator == "mean":
        return estimate_derandomized(batch, plan, o)
    s_l = np.zeros(len(o), dtype=np.int64)
    # o_hat * reps of every row, in row order
    weighted = itertools.chain.from_iterable(
        values * batch.reps[lo:lo + len(values)] for lo, values in _shot_values(batch, plan, o, s_l))
    if aggregator == "mean":
        value = math.fsum(weighted) / batch.shots
    else:
        edges = np.linspace(0, len(batch), min(batches, len(batch)) + 1).astype(int)
        value = float(np.median([math.fsum(itertools.islice(weighted, hi - lo)) / batch.reps[lo:hi].sum()
                                 for lo, hi in zip(edges[:-1], edges[1:])]))
    return _report(value, batch, o, s_l)


def estimate_derandomized(
    batch: ShotBatch, plan: MeasurementPlan, o: WeightedPauliSum
) -> EstimateReport:
    """Estimator for a fixed-bases plan.

    Every term averages its signed outcomes over all shots whose basis hits
    it (s_l = total hit count, reps included); terms never hit are excluded
    from the value and accumulate the initial bias epsilon0.
    """
    if plan.scheme != "derand":
        raise PlanMismatch("plan does not carry fixed bases")
    vals, s_l = per_term_expectations(batch, plan, o)
    value = math.fsum(c * v for c, v, s in zip(o.coeffs, vals, s_l) if s > 0)
    return _report(value, batch, o, s_l)


def _report(value: float, batch: ShotBatch, o: WeightedPauliSum, s_l) -> EstimateReport:
    eps0 = math.fsum(abs(c) for c, s in zip(o.coeffs, s_l) if s == 0)
    return EstimateReport(float(value), batch.shots, tuple(int(s) for s in s_l), eps0)


def _second_moment(o: WeightedPauliSum, rho: DensityMatrix, g: np.ndarray) -> float:
    """Single-shot variance of the unified estimator whose kernel has the
    second moments g[l, l'] = E_P[f(P, O_l) f(P, O_l')]:
    Tr(rho sum_{l,l'} alpha_l alpha_l' g[l, l'] O_l O_l') - Tr(O rho)^2."""
    pairs = [(o.coeffs[l] * o.coeffs[m] * g[l, m], multiply(o.paulis[l], o.paulis[m]))
             for l, m in zip(*np.nonzero(g))]
    if any(prod.phase != 1 for _, prod in pairs):
        raise AssertionError("terms measured in a common basis must agree sitewise")
    moment = WeightedPauliSum.from_terms(o.n, [(w, prod.pauli) for w, prod in pairs])
    return exact_expectation(rho, moment) - exact_expectation(rho, o) ** 2


def _explicit_probs(plan: MeasurementPlan, o: WeightedPauliSum, name: str) -> np.ndarray:
    """Entry probabilities K of an explicit plan over the qubits of o."""
    if plan.distribution is None or plan.distribution.kind != "explicit":
        raise PlanMismatch(f"{name} needs an explicit plan")
    if plan.n != o.n:
        raise DimensionMismatch(f"observable n={o.n}, plan n={plan.n}")
    return np.array([p for _, p in plan.distribution.explicit])


def variance_l1(o: WeightedPauliSum, rho: DensityMatrix) -> float:
    """Single-shot variance of importance sampling: ||alpha||_1^2 - Tr(O rho)^2."""
    return o.l1_norm ** 2 - exact_expectation(rho, o) ** 2


def variance_grouping(plan: MeasurementPlan, o: WeightedPauliSum, rho: DensityMatrix) -> float:
    """Single-shot variance of a membership plan:
    sum_j K(P_j)^{-1} sum_{l,l' in S_j} alpha_l alpha_l' Tr(rho O_l O_l') - Tr(O rho)^2,
    i.e. g = F diag(K) F^T with F[l, j] = 1/K(P_j) for the entry j that owns O_l."""
    k = _explicit_probs(plan, o, "variance_grouping")
    entry = _entry_of(o, plan)
    if np.any(entry < 0):
        raise CoverageError(f"term {o.paulis[int(np.argmin(entry))]} is not part of the plan")
    f = np.zeros((len(o), len(k)))
    f[np.arange(len(o)), entry] = 1.0 / k[entry]
    return _second_moment(o, rho, (f * k) @ f.T)


def variance_product_scheme(
    dist: BasisDistribution, o: WeightedPauliSum, rho: DensityMatrix
) -> tuple[float, float]:
    """Exact single-shot variance of a product-distribution scheme plus the
    closed-form bound 3^(max_l |supp(O_l)|) (sum_l |alpha_l|)^2.

    The exact value uses the sitewise expectation of the kernel product:
    E[f_l f_l'] is zero for incompatible term pairs and otherwise the product
    of 1/K_i(W) over the shared support (letters agree there), since kernels
    and the basis law both factorize per site.
    """
    if dist.kind != "product":
        raise PlanMismatch("variance_product_scheme needs a product distribution")
    if len(dist.product) != o.n:
        raise DimensionMismatch(f"observable n={o.n}, distribution n={len(dist.product)}")
    codes = o.letters
    inv = 1.0 / np.where(codes > 0, dist.product[np.arange(o.n), codes - 1], 1.0)
    a, b = codes[:, None], codes[None, :]
    shared = (a > 0) & (b > 0)
    g = np.where(shared, inv[:, None], 1.0).prod(axis=2)
    g[np.any(shared & (a != b), axis=2)] = 0.0
    bound = 3.0 ** max((p.weight for p in o.paulis), default=0) * o.l1_norm ** 2
    return _second_moment(o, rho, g), bound


def variance_generic(plan: MeasurementPlan, o: WeightedPauliSum, rho: DensityMatrix) -> float:
    """Variance of the generic hit-based scheme over an explicit basis list:
    g = F diag(K) F^T with F[l, j] = hits(P_j, O_l) / sum_{P hits O_l} K."""
    k = _explicit_probs(plan, o, "variance_generic")
    terms = o.letters[:, None]
    hit = np.all((terms == 0) | (terms == plan.letters), axis=2)
    h = hit @ k
    if np.any(h == 0.0):
        raise CoverageError(f"term {o.paulis[int(np.argmin(h))]} is hit by no basis of the plan")
    f = hit / h[:, None]
    return _second_moment(o, rho, (f * k) @ f.T)


def sample_size_linear(L: int, delta: float, epsilon: float, max_var: float) -> int:
    """N_s >= 2 log(L) log(1/delta) max_var / epsilon^2, floored at 1."""
    if L < 2:
        raise ValueError("L must be >= 2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if max_var < 0.0:
        raise ValueError("max_var must be nonnegative")
    bound = 2.0 * math.log(L) * math.log(1.0 / delta) * max_var / (epsilon * epsilon)
    return max(1, math.ceil(bound))


def sample_size_nonlinear(subsys_size: int, order: int, delta: float, epsilon: float, trace_o_sq: float) -> int:
    """N_s >= 2^(order * |AB|) Tr(O^2) / (delta epsilon^2), floored at 1."""
    if subsys_size < 1 or order < 1:
        raise ValueError("subsystem size and order must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if trace_o_sq < 0.0:
        raise ValueError("trace_o_sq must be nonnegative")
    bound = (2.0 ** (order * subsys_size)) * trace_o_sq / (delta * epsilon * epsilon)
    return max(1, math.ceil(bound))
