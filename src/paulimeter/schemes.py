"""Measurement-plan construction for the five schemes.

A plan is the static object a measurement campaign runs from: either a
probability law over full-weight Pauli bases (importance sampling, grouping,
uniform or locally-biased randomized bases) or a fixed list of bases chosen
greedily (derandomization).  Plans are immutable; drawing bases from a
randomized plan is pure given the seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateObservable, PlanMismatch
from .paulis import PauliString, WeightedPauliSum, hits, letter_matrix, strings_from_letters

_PROB_TOL = 1e-10
_LBCS_FLOOR = 1e-6
_LBCS_SWEEPS = 200
_LBCS_TOL = 1e-10
SCHEME_NAMES = ("l1", "ldf", "cs", "lbcs", "derand")


@dataclass(frozen=True)
class BasisDistribution:
    """Probability law over full-weight bases.

    Either an explicit finite list of (basis, probability) pairs, or a
    product law given by one probability triple (X, Y, Z) per qubit.
    """

    kind: str  # 'explicit' | 'product'
    explicit: Optional[tuple[tuple[PauliString, float], ...]] = None
    product: Optional[np.ndarray] = None  # shape (n, 3), columns X, Y, Z

    def __post_init__(self) -> None:
        if self.kind == "explicit":
            if not self.explicit:
                raise ValueError("explicit distribution needs at least one basis")
            probs = [p for _, p in self.explicit]
            if not all(0.0 < p < math.inf for p in probs):
                raise ValueError("explicit probabilities must be positive and finite")
            if abs(sum(probs) - 1.0) > _PROB_TOL:
                raise ValueError(f"explicit probabilities sum to {sum(probs)}, not 1")
            if any(not b.is_full_weight for b, _ in self.explicit):
                raise ValueError("explicit bases must be full weight")
            if len({(b.x, b.z) for b, _ in self.explicit}) < len(self.explicit):
                raise ValueError("explicit bases must be distinct")
        elif self.kind == "product":
            q = self.product
            if q is None or q.ndim != 2 or q.shape[1] != 3:
                raise ValueError("product distribution needs an (n, 3) array")
            if not np.all((q >= 0) & (q < np.inf)):
                raise ValueError("product probabilities must be nonnegative and finite")
            if np.max(np.abs(q.sum(axis=1) - 1.0)) > _PROB_TOL:
                raise ValueError("per-qubit triples must sum to 1")
            q.setflags(write=False)
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")


@dataclass(frozen=True)
class MeasurementPlan:
    """A scheme's measurement prescription.

    ``terms`` records the observable terms the plan was built from; for
    explicit plans ``members`` maps each distribution entry to the indices
    of the terms it measures (a partition for grouping, near-singletons for
    importance sampling).  Derandomized plans instead carry the ordered
    ``fixed_bases`` and a warning list of term indices never hit.

    Construction checks the fields against each other: a known scheme, fixed
    bases for derandomized plans and a distribution for every other one,
    terms, bases and product rows on n qubits, and member indices naming
    terms.  Explicit plans may omit ``members``: ``variance_generic`` needs
    none, and estimation from such a plan raises PlanMismatch.

    ``letters`` is the read-only int8 (B, n) letter matrix of the plan's
    bases, built once here: row k is ``fixed_bases[k].codes()`` for
    derandomized plans and the k-th entry's basis for explicit ones.
    Product plans have no list of bases and get a (0, n) matrix.
    """

    scheme: str  # 'l1' | 'ldf' | 'cs' | 'lbcs' | 'derand'
    n: int
    terms: tuple[PauliString, ...] = ()
    distribution: Optional[BasisDistribution] = None
    members: Optional[tuple[tuple[int, ...], ...]] = None
    fixed_bases: Optional[tuple[PauliString, ...]] = None
    converged: Optional[bool] = None
    unhit_terms: tuple[int, ...] = ()
    letters: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {', '.join(SCHEME_NAMES)}")
        dist = self.distribution
        if self.scheme == "derand":
            if not self.fixed_bases or dist is not None:
                raise ValueError("derand plans need fixed_bases and no distribution")
        elif dist is None:
            raise ValueError(f"{self.scheme} plans need a distribution")
        entries = dist.explicit if dist is not None and dist.kind == "explicit" else ()
        if any(b.n != self.n for b in (*self.terms, *(self.fixed_bases or ()), *(b for b, _ in entries))):
            raise ValueError(f"plan terms and bases must act on n={self.n} qubits")
        if dist is not None and dist.kind == "product" and dist.product.shape != (self.n, 3):
            raise ValueError(f"product table has shape {dist.product.shape}, not ({self.n}, 3)")
        if self.members is not None and any(t not in range(len(self.terms)) for m in self.members for t in m):
            raise ValueError(f"members name term indices outside 0..{len(self.terms) - 1}")
        bases = self.fixed_bases or tuple(b for b, _ in entries)
        letters = letter_matrix(bases, self.n)
        letters.setflags(write=False)
        object.__setattr__(self, "letters", letters)


def plan_l1(o: WeightedPauliSum) -> MeasurementPlan:
    """Importance sampling: draw term l with probability |alpha_l|/||alpha||_1.

    Each term is completed to a full-weight basis.  Completions are chosen
    to collide as rarely as possible (Z-fill, then deterministic alternate
    fills) so that distinct terms keep distinct plan entries and the
    single-shot estimator variance stays at the closed form
    ||alpha||_1^2 - Tr(O rho)^2.  When a term's completions are exhausted by
    other terms the term is merged into the entry holding its Z-fill and the
    entry measures both.
    """
    o.require_nonempty()
    norm = o.l1_norm
    entries: list[tuple[PauliString, float]] = []
    members: list[list[int]] = []
    claimed: dict[tuple[int, int], int] = {}
    for idx, (coeff, row) in enumerate(zip(o.coeffs, o.letters)):
        prob = abs(coeff) / norm
        free = np.flatnonzero(row == 0)
        codes = row.copy()
        chosen = None
        z_fill_key = None
        # every completion of the free sites, Z-fill first, deterministic order
        for fill in itertools.product((3, 1, 2), repeat=len(free)):
            codes[free] = fill
            cand = PauliString.from_codes(codes)
            key = (cand.x, cand.z)
            if z_fill_key is None:
                z_fill_key = key
            if key not in claimed:
                chosen = (cand, key)
                break
        if chosen is not None:
            cand, key = chosen
            claimed[key] = len(entries)
            entries.append((cand, prob))
            members.append([idx])
        else:
            e = claimed[z_fill_key]
            basis, old = entries[e]
            entries[e] = (basis, old + prob)
            members[e].append(idx)
    dist = BasisDistribution("explicit", explicit=tuple(entries))
    return MeasurementPlan(
        scheme="l1",
        n=o.n,
        terms=o.paulis,
        distribution=dist,
        members=tuple(tuple(m) for m in members),
    )


def _fill_group_basis(letters: np.ndarray, members: list[int]) -> PauliString:
    """Sitewise union of the member rows of the (L, n) letter matrix, with
    the free sites filled for extra hits.

    The outside terms (rows not in ``members``) that agree with the union on
    its support stay alive.  Each free site, in ascending order, takes the
    letter carried there by the most alive terms (candidates scanned Z, X, Y
    so ties fall to Z; sites with no candidate fall to Z too), and terms
    carrying another letter there die.
    """
    codes = letters[members].max(axis=0)  # compatible members agree sitewise
    outside = np.delete(letters, members, axis=0)
    alive = ~np.any((codes > 0) & (outside > 0) & (outside != codes), axis=1)
    for i in np.flatnonzero(codes == 0):
        counts = np.bincount(outside[alive, i], minlength=4)[[3, 1, 2]]
        codes[i] = (3, 1, 2)[np.argmax(counts)]
        alive &= (outside[:, i] == 0) | (outside[:, i] == codes[i])
    return PauliString.from_codes(codes)


def plan_ldf(o: WeightedPauliSum) -> MeasurementPlan:
    """Largest-degree-first grouping of qubit-wise compatible terms.

    Builds the incompatibility graph over terms, colors vertices greedily in
    nonincreasing degree order (ties broken by term index, each vertex taking
    the lowest class with no incompatible member), and turns each color class
    into a jointly measured group.  Group probabilities are proportional to
    the group's total |alpha| weight.  Entry j of the plan is group j's basis
    and measures the terms in ``members[j]``.
    """
    o.require_nonempty()
    a, b = o.letters[:, None], o.letters[None, :]
    adj = np.any((a > 0) & (b > 0) & (a != b), axis=2)  # incompatible term pairs
    degrees = adj.sum(axis=1)
    order = sorted(range(len(o)), key=lambda v: (-degrees[v], v))
    groups: list[list[int]] = []
    for v in order:
        for grp in groups:
            if not adj[v, grp].any():
                grp.append(v)
                break
        else:
            groups.append([v])
    bases = [_fill_group_basis(o.letters, grp) for grp in groups]
    for grp, basis in zip(groups, bases):
        for idx in grp:
            assert hits(basis, o.paulis[idx]), f"group basis {basis} misses {o.paulis[idx]}"
    weights = [sum(abs(o.coeffs[i]) for i in grp) for grp in groups]
    total = sum(weights)
    probs = [w / total for w in weights]
    dist = BasisDistribution("explicit", explicit=tuple(zip(bases, probs)))
    return MeasurementPlan(
        scheme="ldf",
        n=o.n,
        terms=o.paulis,
        distribution=dist,
        members=tuple(tuple(sorted(g)) for g in groups),
    )


def plan_uniform_cs(n: int) -> MeasurementPlan:
    """Uniform product distribution, K_i = (1/3, 1/3, 1/3) on every qubit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = np.full((n, 3), 1.0 / 3.0)
    return MeasurementPlan(scheme="cs", n=n, distribution=BasisDistribution("product", product=q))


def _lbcs_terms(o: WeightedPauliSum, q: np.ndarray, skip: int = -1) -> np.ndarray:
    """alpha_l^2 / prod_{i in supp(O_l), i != skip} K_i(O_{l,i}) per term,
    divided site by site in ascending order."""
    val = np.square(o.coeffs)
    for i, col in enumerate(o.letters.T):
        if i != skip:
            val = np.where(col > 0, val / q[i, col - 1], val)
    return val


def _lbcs_cost(o: WeightedPauliSum, q: np.ndarray) -> float:
    # cumsum adds in term order; np.sum's pairwise order moves the last digits
    return float(np.cumsum(_lbcs_terms(o, q))[-1])


def plan_lbcs(o: WeightedPauliSum) -> MeasurementPlan:
    """Locally biased product distribution.

    Minimizes the diagonal variance surrogate
    C(K) = sum_l alpha_l^2 prod_{i in supp(O_l)} 1/K_i(O_{l,i})
    by cyclic exact per-qubit minimization (the optimum of sum_W A_W/q_W on
    the simplex is q_W proportional to sqrt(A_W)) starting from uniform.
    Probabilities are floored at ``_LBCS_FLOOR`` and renormalized so
    estimator kernels stay finite; qubits carried by no term keep the
    uniform triple.  A qubit update is kept only if it does not increase the
    cost, so the surrogate is nonincreasing across sweeps.  Stops when the
    relative improvement of a full sweep drops below ``_LBCS_TOL``; if
    ``_LBCS_SWEEPS`` sweeps run out first the best iterate is returned with
    ``converged=False``.
    """
    o.require_nonempty()
    if any(p.is_identity for p in o.paulis):
        raise DegenerateObservable("locally biased planning needs nonempty support on every term")
    n = o.n
    q = np.full((n, 3), 1.0 / 3.0)
    cost = _lbcs_cost(o, q)
    converged = False
    for _ in range(_LBCS_SWEEPS):
        before = cost
        for i, col in enumerate(o.letters.T):
            on = col > 0
            a = np.bincount(col[on] - 1, weights=_lbcs_terms(o, q, skip=i)[on], minlength=3)
            if not np.any(a > 0):
                continue
            cand = np.sqrt(a)
            cand /= cand.sum()
            cand = np.maximum(cand, _LBCS_FLOOR)
            cand /= cand.sum()
            old = q[i].copy()
            q[i] = cand
            new_cost = _lbcs_cost(o, q)
            if new_cost <= cost:
                cost = new_cost
            else:
                q[i] = old
        if before - cost < _LBCS_TOL * before:
            converged = True
            break
    return MeasurementPlan(
        scheme="lbcs",
        n=n,
        terms=o.paulis,
        distribution=BasisDistribution("product", product=q),
        converged=converged,
    )


def derandomization_cost(
    o: WeightedPauliSum,
    epsilon: float,
    ns: int,
    complete: list[PauliString],
    partial: Optional[dict[int, int]] = None,
) -> float:
    """Confidence-bound surrogate F for a partially built derandomized plan.

    F = sum_l prod_j (1 - gamma p_{j,l}) with gamma = 1 - exp(-eps^2/2) and
    p_{j,l} the probability that measurement j hits term l when every
    still-unfixed letter is drawn uniformly from {X, Y, Z}: a completed
    measurement has p = 1 or 0, the measurement under construction
    multiplies matches over its fixed sites and 1/3 per unfixed support
    site, and each untouched future measurement contributes
    p = 3^{-|supp|}.  Affine in each letter slot, so the greedy minimum
    over a slot never exceeds the unfixed value.
    """
    gamma = 1.0 - math.exp(-epsilon * epsilon / 2.0)
    partial = partial or {}
    built = len(complete)
    total = 0.0
    for _, term in o:
        w = term.weight
        fac = 1.0
        for basis in complete:
            fac *= 1.0 - gamma * (1.0 if hits(basis, term) else 0.0)
        if built < ns:
            p = 1.0
            for i in term.support:
                if i in partial:
                    if partial[i] != term.code(i):
                        p = 0.0
                        break
                else:
                    p /= 3.0
            fac *= 1.0 - gamma * p
            fac *= (1.0 - gamma * 3.0 ** (-w)) ** (ns - built - 1)
        total += fac
    return total


def plan_derandomized(o: WeightedPauliSum, ns: int, epsilon: float = 0.9) -> MeasurementPlan:
    """Greedy derandomized basis selection.

    Walks measurement slots j = 1..ns and sites i = 1..n, fixing each letter
    to the choice in {X, Y, Z} that minimizes :func:`derandomization_cost`
    (ties broken X before Y before Z).  Because the cost is affine in each
    slot's letter distribution, every choice satisfies F_after <= F_before.
    Terms never hit by the finished plan are listed in ``unhit_terms``;
    their total weight is the initial bias the estimator reports.
    The loop relies on two invariants: a term's running match ``cur`` and
    each ``match`` entry are 0 or 1, so a letter's cost factor is 1 or
    1 - gamma 3^-(r-1); and a term's count ``r`` of unfixed support sites at
    site i depends on its support alone, so that factor is built once per site.
    """
    if ns < 1:
        raise ValueError("ns must be >= 1")
    o.require_nonempty()
    if any(p.is_identity for p in o.paulis):
        raise DegenerateObservable("derandomization needs nonempty support on every term")
    gamma = 1.0 - math.exp(-epsilon * epsilon / 2.0)
    supp = o.letters != 0
    r = supp.sum(axis=1).astype(float)  # unfixed support sites remaining
    future_base = 1.0 - gamma * (3.0 ** (-r))

    # per site: the terms it supports, their X, Y, Z match rows, and the
    # factor 1 - gamma 3^-(r-1) a still-matching term takes on a match there
    sites = []
    for i in range(o.n):
        affected = np.flatnonzero(supp[:, i])
        match = o.letters[affected, i] == np.array([[1], [2], [3]])
        sites.append((affected, match, 1.0 - gamma * 3.0 ** (-(r[affected] - 1.0))))
        r[affected] -= 1.0

    c = np.ones(len(o))  # product over completed measurements
    ever_hit = np.zeros(len(o), dtype=bool)
    chosen = np.zeros((ns, o.n), dtype=np.int8)
    for j in range(ns):
        cur = np.ones(len(o), dtype=bool)  # terms matched on every fixed site of measurement j
        base = c * future_base ** (ns - j - 1)
        for i, (affected, match, hit) in enumerate(sites):
            live = cur[affected] & match
            # a site no term touches costs 0 for every letter and falls to X
            cost = (base[affected] * np.where(live, hit, 1.0)).sum(axis=1)
            best = int(cost.argmin())  # the first minimum: X before Y before Z
            chosen[j, i] = best + 1
            cur[affected] = live[best]
        ever_hit |= cur  # every support site is fixed now
        c[cur] *= 1.0 - gamma
    unhit = tuple(int(i) for i in np.flatnonzero(~ever_hit))
    return MeasurementPlan(
        scheme="derand",
        n=o.n,
        terms=o.paulis,
        fixed_bases=strings_from_letters(chosen),
        unhit_terms=unhit,
    )


def draw_bases(plan: MeasurementPlan, count: int, seed) -> np.ndarray:
    """Draw ``count`` i.i.d. bases from a randomized plan, or return the
    fixed bases of a derandomized plan (count must match), as an int8
    (count, n) letter array whose row k is the k-th basis's letter codes."""
    if count < 1:
        raise ValueError("ns must be >= 1")
    if plan.scheme == "derand":
        if count != len(plan.letters):
            raise PlanMismatch(f"derandomized plan holds {len(plan.letters)} bases, not {count}")
        return plan.letters
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dist = plan.distribution
    if dist.kind == "explicit":
        probs = np.array([p for _, p in dist.explicit])
        idx = np.searchsorted(np.cumsum(probs), rng.random(count), side="right")
        return plan.letters[np.minimum(idx, len(probs) - 1)]
    q = dist.product
    n = plan.n
    letters = np.empty((count, n), dtype=np.int8)
    for i in range(n):
        cum = np.cumsum(q[i])
        col = np.searchsorted(cum, rng.random(count), side="right")
        letters[:, i] = np.minimum(col, 2) + 1
    return letters


def draw_basis(plan: MeasurementPlan, index_or_seed) -> PauliString:
    """Single-basis access: fixed index for derandomized plans, seeded draw
    for randomized ones."""
    if plan.scheme == "derand":
        index = int(index_or_seed)
        if not 0 <= index < len(plan.fixed_bases):
            raise PlanMismatch(f"index {index} outside the {len(plan.fixed_bases)} fixed bases")
        return plan.fixed_bases[index]
    return PauliString.from_codes(draw_bases(plan, 1, index_or_seed)[0])
