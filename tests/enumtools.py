"""Exact enumeration of single-shot estimators against the dense simulator.

Shared by the estimator tests and the acceptance suite: every (basis,
outcome) pair a plan can produce is listed with its probability, so
estimator means and variances come out exact instead of sampled.  The
per-line record parser kept here is the oracle for the array parser in
``paulimeter.formats``, the per-site greedy loop kept here is the oracle
for ``paulimeter.schemes.plan_derandomized``, the one-basis rotation loop kept
here is the oracle for the stacked Born kernel ``paulimeter.states._born_rows``,
the closed-form noisy-GHZ Born law is an oracle for both that shares no
code with them, the copy-permutation contraction is the direct side of
the PT-moment identity that ``paulimeter.states.exact_pt_moment`` and the
shadow U-statistics meet, and the one-Kronecker-product-per-snapshot sum
kept here is the oracle for the prefix-grouped snapshot sum T1 in
``paulimeter.shadows``, and the loop over rows and terms kept here
(``row_terms``) is the oracle for the estimators' key table.
"""

import itertools
import math

import numpy as np

from paulimeter.errors import (
    DegenerateObservable,
    DimensionMismatch,
    EmptyInput,
    FeasibilityError,
    ForeignRecord,
    PlanMismatch,
)
from paulimeter.estimators import EstimateReport, ShotBatch, _entry_of, per_shot_estimates
from paulimeter.formats import _LETTER_CODES, _fail
from paulimeter.paulis import MAX_QUBITS, PauliString, _row_keys
from paulimeter.schemes import MeasurementPlan
from paulimeter.shadows import _FACTOR, _kron_sum
from paulimeter.states import _EIGBASIS, born_distribution, sample_outcomes


def weighted_shots(plan, rho):
    """Every (basis, outcome) row one shot can produce under a randomized
    plan, as a ShotBatch, and the probability of each row."""
    n = plan.n
    dist = plan.distribution
    if dist.kind == "explicit":
        basis_probs = list(dist.explicit)
    else:
        q = dist.product
        basis_probs = []
        for codes in itertools.product((1, 2, 3), repeat=n):
            prob = 1.0
            for i, c in enumerate(codes):
                prob *= float(q[i, c - 1])
            if prob > 0.0:
                basis_probs.append((PauliString.from_codes(codes), prob))
    letters = []
    bits = []
    weights = []
    for basis, bp in basis_probs:
        outcome_probs = born_distribution(rho, basis)
        for idx, op in enumerate(outcome_probs):
            if op <= 0.0:
                continue
            letters.append(basis.codes())
            bits.append([(idx >> (n - 1 - i)) & 1 for i in range(n)])
            weights.append(bp * float(op))
    return ShotBatch(letters, bits), np.array(weights)


def enumerate_moments(plan, o, rho):
    """Exact (mean, variance) of the single-shot estimator under the plan."""
    records, weights = weighted_shots(plan, rho)
    values = per_shot_estimates(records, plan, o)
    mean = float(np.dot(weights, values))
    second = float(np.dot(weights, values * values))
    return mean, second - mean * mean


def sample_records(plan, rho, ns, seed, nr=1):
    """Simulate ns settings drawn from the plan, nr unit-shot rows each."""
    from paulimeter.schemes import draw_bases

    ss = np.random.SeedSequence(seed)
    basis_ss, outcome_ss = ss.spawn(2)
    letters = draw_bases(plan, ns, np.random.default_rng(basis_ss))
    outcomes = [sample_outcomes(rho, PauliString.from_codes(row),
                                np.random.default_rng(child).random(nr))
                for child, row in zip(outcome_ss.spawn(ns), letters)]
    return ShotBatch(np.repeat(letters, nr, axis=0), np.concatenate(outcomes))


def born_distribution_loop(rho, basis):
    """Born distribution of one full-weight basis, rotating the columns of
    A one site at a time: site i is the middle axis of a (2^i, 2, rest)
    view, and matmul broadcasts the 2x2 rotation over the leading one."""
    n = rho.n
    floor, amp = rho.spectral_form()
    r = amp.shape[1]
    for i in range(n):
        amp = np.matmul(_EIGBASIS[basis.code(i)], amp.reshape(2 ** i, 2, 2 ** (n - 1 - i) * r))
    amp = amp.reshape(2 ** n, r)
    probs = floor + np.sum(amp.real ** 2 + amp.imag ** 2, axis=1)
    probs[probs < 0] = 0.0
    return probs / probs.sum()


def noisy_ghz_born(n, p, codes):
    """Born law of noisy_ghz(n, p) in the full-weight basis of letter codes
    (1=X, 2=Y, 3=Z), from the closed form (1-p) q(b) + p/2^n.  With a Z in
    the basis, q(b) = 2^-(n-#Z)-1 when the bits on the Z sites agree and 0
    otherwise; with none, q(b) = (1 + Re[(-i)^#Y] (-1)^(sum of b)) / 2^n."""
    codes = list(codes)
    zs = [i for i, c in enumerate(codes) if c == 3]
    ys = codes.count(2)
    q = []
    for b in range(2 ** n):
        bits = [(b >> (n - 1 - i)) & 1 for i in range(n)]
        if zs:
            agree = len({bits[i] for i in zs}) == 1
            q.append(2.0 ** -(n - len(zs) + 1) if agree else 0.0)
        else:
            q.append((1 + ((-1j) ** ys).real * (-1) ** sum(bits)) / 2 ** n)
    return (1 - p) * np.array(q) + p / 2 ** n


def snapshot_matrix(codes, bits):
    """One snapshot's dense matrix kron_j (I + 3 s_j W_j)/2, from its row of
    letter codes (1=X, 2=Y, 3=Z) and outcome bits, through ``_FACTOR``."""
    out = np.ones((1, 1), dtype=complex)
    for code, bit in zip(codes, bits):
        out = np.kron(out, _FACTOR[code - 1, bit])
    return out


def snapshot_sum_kron(shadows):
    """T1 = sum_k w_k kron_j F_kj of a ShadowSet, one 2^n x 2^n Kronecker
    product per row scaled by its reps, summed in row chunks from a zero
    matrix."""
    codes = 2 * (shadows.letters.astype(np.int64) - 1) + shadows.bits
    return _kron_sum(_FACTOR.reshape(6, 2, 2), codes, shadows.reps)


def permutation_moment_oracle(rho, a, order):
    """Contract the copy-permutation operators against rho^(tensor order).

    Builds the forward cyclic shift on the A sites and the backward shift on
    the B sites of ``order`` copies, then evaluates
    Tr[Pi_A_forward Pi_B_backward rho^(x order)] index by index.  This is
    the direct (no partial transpose) side of the PT-moment identity.
    """
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    n = rho.n
    if order * n > 12:
        raise FeasibilityError(f"order*n = {order * n} exceeds the dense bound 12")
    a_idx = set(a.indices)
    dim_total = 2 ** (n * order)
    xs = np.arange(dim_total)

    # bits of global index: copy k, site j lives at position (order-1-k)*n + (n-1-j)
    def bit(idx, k, j):
        return (idx >> ((order - 1 - k) * n + (n - 1 - j))) & 1

    # y = pi^{-1}(x): for site j in A the copies shift forward (copy k takes
    # its bit from copy k-1), in B backward (from copy k+1)
    ys = np.zeros_like(xs)
    for k in range(order):
        for j in range(n):
            src = (k - 1) % order if j in a_idx else (k + 1) % order
            ys |= bit(xs, src, j) << ((order - 1 - k) * n + (n - 1 - j))

    # Tr[Pi rho^(x m)] = sum_x prod_k rho[copy_k(pi^{-1} x), copy_k(x)]
    dim = 2 ** n
    total = np.ones(dim_total, dtype=complex)
    for k in range(order):
        shift = (order - 1 - k) * n
        rows = (ys >> shift) & (dim - 1)
        cols = (xs >> shift) & (dim - 1)
        total *= rho.mat[rows, cols]
    result = total.sum()
    if abs(result.imag) > 1e-10:
        raise AssertionError(f"moment has imaginary part {result.imag}")
    return float(result.real)


def parse_records_loop(path):
    """Record file to ShotBatch one line at a time, with str.split()."""
    linenos, bases, bits, reps = [], [], [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) not in (2, 3):
                _fail(path, lineno, "record lines are '<basis> <bits> [reps]'")
            linenos.append(lineno)
            bases.append(parts[0])
            bits.append(parts[1])
            try:
                reps.append(int(parts[2]) if len(parts) == 3 else 1)
            except ValueError:
                _fail(path, lineno, f"bad reps {parts[2]!r}")
            if not 1 <= reps[-1] < 1 << 63:
                _fail(path, lineno, "reps must be >= 1 and below 2**63")
    if not linenos:
        raise EmptyInput(f"{path}: no record lines")
    n = len(bases[0])

    def first_bad(bad, message):
        if bad.any():
            k = int(np.argmax(bad))
            _fail(path, linenos[k], message(k))

    def chars(fields):
        data = "".join(fields).encode("ascii", "replace")
        return np.frombuffer(data, dtype=np.uint8).reshape(-1, n)

    def bad_bits(k):
        return f"bits {bits[k]!r} must be {n} characters of 0/1"

    first_bad(np.array([len(b) for b in bases]) != n,
              lambda k: f"basis {bases[k]} does not fit n={n}")
    letters = _LETTER_CODES[chars(bases)]
    first_bad(np.any(letters < 0, axis=1), lambda k: f"invalid Pauli letter in {bases[k]!r}")
    first_bad(np.any(letters == 0, axis=1),
              lambda k: f"record basis {bases[k]} contains identity letters")
    first_bad(np.array([len(b) for b in bits]) != n, bad_bits)
    bit_rows = chars(bits) - ord("0")
    first_bad(np.any(bit_rows > 1, axis=1), bad_bits)
    if n > MAX_QUBITS:
        _fail(path, linenos[0], f"qubit count {n} outside 1..{MAX_QUBITS}")
    for lineno, total in zip(linenos, itertools.accumulate(reps)):
        if total >= 2 ** 53:
            _fail(path, lineno, "reps add up to 2^53 shots or more")
    return ShotBatch(letters, bit_rows, reps)


def plan_derandomized_loop(o, ns, epsilon=0.9):
    """Greedy derandomized plan with the float cost arithmetic written out
    per (slot, site): match products, remaining-support powers and costs."""
    if ns < 1:
        raise ValueError("ns must be >= 1")
    o.require_nonempty()
    if any(p.is_identity for p in o.paulis):
        raise DegenerateObservable("derandomization needs nonempty support on every term")
    gamma = 1.0 - math.exp(-epsilon * epsilon / 2.0)
    L = len(o)
    n = o.n
    supp = o.letters != 0
    w = supp.sum(axis=1)
    future_base = 1.0 - gamma * (3.0 ** (-w.astype(float)))

    # per site: the terms it supports, and their X, Y, Z match rows
    sites = []
    for i in range(n):
        affected = np.flatnonzero(supp[:, i])
        sites.append((affected, (o.letters[affected, i] == np.array([[1], [2], [3]])).astype(float)))

    c = np.ones(L)  # product over completed measurements
    hit_counts = np.zeros(L, dtype=np.int64)
    chosen = np.zeros((ns, n), dtype=np.int8)
    for j in range(ns):
        cur = np.ones(L)  # match product over fixed sites of measurement j
        r = w.astype(float).copy()  # unfixed support sites remaining
        fut = future_base ** (ns - j - 1)
        for i, (affected, match) in enumerate(sites):
            if not len(affected):
                chosen[j, i] = 1  # letter is irrelevant; X by the tie rule
                continue
            base = c[affected] * fut[affected]
            cur_a = cur[affected]
            pow_rest = 3.0 ** (-(r[affected] - 1.0))
            cost = np.sum(base * (1.0 - gamma * cur_a * match * pow_rest), axis=1)
            best = int(np.argmin(cost))  # the first minimum: X before Y before Z
            chosen[j, i] = best + 1
            cur[affected] *= match[best]
            r[affected] -= 1.0
        hits_j = cur  # r == 0 on every support site now
        hit_counts += hits_j.astype(np.int64)
        c *= 1.0 - gamma * hits_j
    bases = tuple(PauliString.from_codes(chosen[j]) for j in range(ns))
    unhit = tuple(int(i) for i in np.flatnonzero(hit_counts == 0))
    return MeasurementPlan(
        scheme="derand",
        n=n,
        terms=o.paulis,
        fixed_bases=bases,
        unhit_terms=unhit,
    )


def row_terms(batch, plan, o):
    """The estimator as one loop over rows and terms, the oracle for the key
    table of ``paulimeter.estimators``: each term's weight f(P, O_l, K) (None
    under a fixed-bases plan, where f = shots/s_l) and, per term in order,
    the mask of the rows that hit it and their mu(b, supp O_l) = +-1.  It
    raises what the estimators raise, at the same first row."""
    if o.n != plan.n:
        raise DimensionMismatch(f"observable n={o.n}, plan n={plan.n}")
    if len(batch) == 0:
        raise EmptyInput("no records to estimate from")
    if batch.n != plan.n:
        raise DimensionMismatch(f"records of n={batch.n} do not fit plan n={plan.n}")
    dist = plan.distribution
    kind = "fixed" if plan.scheme == "derand" else dist.kind
    letters, ids, weights = batch.letters, None, None
    if kind == "fixed":
        nb = len(plan.fixed_bases)
        if nb == 0 or len(batch) % nb != 0:
            raise PlanMismatch(f"{len(batch)} records do not cover {nb} planned settings evenly")
        nr = len(batch) // nb
        wrong = np.flatnonzero(np.any(letters != plan.letters[np.arange(len(batch)) // nr], axis=1))
        if wrong.size:
            k = int(wrong[0])
            raise ForeignRecord(f"record basis {PauliString.from_codes(letters[k])} does not "
                                f"match planned basis {plan.fixed_bases[k // nr]} (setting {k // nr})")
    elif kind == "explicit":
        entry_of = _entry_of(o, plan)
        weights = [1.0 / dist.explicit[e][1] if e >= 0 else 0.0 for e in entry_of]
        entry_keys, keys = _row_keys(plan.letters), _row_keys(letters)
        order = np.argsort(entry_keys)
        ids = order[np.minimum(np.searchsorted(entry_keys, keys, sorter=order), len(order) - 1)]
        foreign = np.flatnonzero(entry_keys[ids] != keys)
        if foreign.size:
            raise ForeignRecord(f"basis {PauliString.from_codes(letters[foreign[0]])} "
                                "is not an entry of the plan")
    else:
        weights = []
        for codes in o.letters:
            f = 1.0
            for i in np.flatnonzero(codes):
                f /= dist.product[i, codes[i] - 1]
            weights.append(f)
    per_term = []
    for l, codes in enumerate(o.letters):
        supp = np.flatnonzero(codes)
        rows = ids == entry_of[l] if kind == "explicit" else np.all(letters[:, supp] == codes[supp], axis=1)
        per_term.append((rows, 1.0 - 2.0 * (batch.bits[rows][:, supp].sum(axis=1) & 1)))
    return weights, per_term


def row_per_shot_estimates(batch, plan, o):
    """o_hat of every row, each hit term added in term order from 0.0, and
    the hit counts s_l (int64)."""
    if plan.scheme == "derand":
        raise PlanMismatch("per-shot estimation applies to randomized plans")
    weights, per_term = row_terms(batch, plan, o)
    values, s_l = np.zeros(len(batch)), np.zeros(len(o), dtype=np.int64)
    for l, (rows, mu) in enumerate(per_term):
        s_l[l] = batch.reps[rows].sum()
        values[rows] += o.coeffs[l] * weights[l] * mu
    return values, s_l


def row_per_term_expectations(batch, plan, o):
    """Per-term estimates and the float hit counts s_l, from per-row sums."""
    weights, per_term = row_terms(batch, plan, o)
    vals, s_l = np.zeros(len(o)), np.zeros(len(o))
    for l, (rows, mu) in enumerate(per_term):
        hit = batch.reps[rows].astype(float)
        s_l[l] = hit.sum()
        if s_l[l] > 0:
            f = batch.shots / int(s_l[l]) if weights is None else weights[l]
            vals[l] = f * float(np.dot(mu, hit)) / batch.shots
    return vals, s_l


def row_estimate(batch, plan, o, aggregator="mean", batches=10):
    """The estimate from one fsum over the rows' o_hat * reps per batch of
    rows (derandomized plans: the per-term averages)."""
    if plan.scheme == "derand" and aggregator == "mean":
        vals, s_l = row_per_term_expectations(batch, plan, o)
        value = math.fsum(c * v for c, v, s in zip(o.coeffs, vals, s_l) if s > 0)
    else:
        values, s_l = row_per_shot_estimates(batch, plan, o)
        weighted = values * batch.reps
        if aggregator == "mean":
            value = math.fsum(weighted) / batch.shots
        else:
            edges = np.linspace(0, len(batch), min(batches, len(batch)) + 1).astype(int)
            value = float(np.median([math.fsum(weighted[lo:hi]) / batch.reps[lo:hi].sum()
                                     for lo, hi in zip(edges[:-1], edges[1:])]))
    eps0 = math.fsum(abs(c) for c, s in zip(o.coeffs, s_l) if s == 0)
    return EstimateReport(float(value), batch.shots, tuple(int(s) for s in s_l), eps0)
