"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the correctness checks on the pass's output.

Each workload reaches paulimeter through module attributes
(``experiments.run_observables_experiment``, ``cli.main``) at call time, so
a tracer that swaps those attributes sees the calls.  The dense oracle in
``paulimeter.states`` judges every estimate; the shadow workloads' estimates
are also recomputed from their snapshots by code of the benchmark's own.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import os

import numpy as np

from paulimeter import cli, experiments, formats, paulis, states

# Oracle tolerances are TOL_SIGMAS standard deviations of the estimate's
# error, measured over seeds 0-29 at the seed commit with the full-size
# inputs (perfbench/README.md lists the measurements), and widened by
# sqrt(N_full / N) for the smaller inputs of --tiny.  Purity and PT moments
# are quadratic and cubic U-statistics whose errors have a chi-square-like
# right tail (a single-site purity error reached 5.1 sd in 180 samples); at
# 12 sd even a 3-degree-of-freedom chi-square error exceeds the tolerance
# with probability below 1e-6.  So wide a band does not catch a wrong
# estimator or sampler by itself; the exact recomputations and the Z-Z
# agreement check below do that.
TOL_SIGMAS = 12.0
# an estimate recomputed from the same snapshots must agree to rounding
SAME_REL = 1e-9
# sd over seeds 0-29 of the Z-Z agreement's error at 300 snapshots: n=6 at
# fidelity 0.95, n=8 at fidelity 0.9
ZZ_SIGMA_N6 = 0.023
ZZ_SIGMA_N8 = 0.03


class Checks:
    """Counts correctness checks and keeps a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def true(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def close(self, what: str, value: float, expected: float, tol: float) -> None:
        """|value - expected| <= tol; NaN fails."""
        expected = float(expected)
        self.true(f"{what}: {value!r} vs oracle {expected!r} (tolerance {tol!r})",
                  abs(value - expected) <= tol)

    def same(self, what: str, value: float, expected: float) -> None:
        """value equals an exact recomputation up to rounding; NaN fails."""
        expected = float(expected)
        tol = SAME_REL * max(1.0, abs(expected))
        self.true(f"{what}: {value!r} vs recomputed {expected!r} (tolerance {tol!r})",
                  abs(value - expected) <= tol)


def _tol(sigma: float, n_full: int, n: int, mean: float = 0.0) -> float:
    """mean + TOL_SIGMAS * sigma, as measured at N_full, scaled to N."""
    return (mean + TOL_SIGMAS * sigma) * math.sqrt(n_full / n)


def _csv_rows(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _noisy_ghz(n: int, fidelity: float):
    return states.admix_white_noise(states.ghz(n), states.noise_from_fidelity(n, fidelity))


def _invoke(argv: list[str]) -> str:
    """Run one CLI command in process; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv, standalone_mode=False)
    return buf.getvalue()


@contextlib.contextmanager
def _keeping(module, name: str, kept: list):
    """Wrap ``module.name`` so that each value it returns is appended to
    ``kept``; a missing name leaves ``kept`` empty, which the checks count
    as a failure."""
    fn = getattr(module, name, None)
    if fn is None:
        yield
        return

    @functools.wraps(fn)
    def keep(*args, **kwargs):
        out = fn(*args, **kwargs)
        kept.append(out)
        return out

    setattr(module, name, keep)
    try:
        yield
    finally:
        setattr(module, name, fn)


def _read(workdir: str, *names: str) -> dict[str, bytes]:
    out = {}
    for name in names:
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


# -- recomputation from the snapshots ----------------------------------------
# The snapshot factors (I + 3 s P)/2 are built here rather than taken from
# paulimeter, and the U-statistics are summed over explicit pairs and
# triples, so these checks share no code with the estimators they check.
_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
# factor index u = 2 * (letter code - 1) + (sign < 0); u + 6 is its transpose
_FACTORS = np.array([(np.eye(2) + 3 * s * p) / 2 for p in _PAULI for s in (1, -1)])
_FACTORS = np.concatenate([_FACTORS, _FACTORS.transpose(0, 2, 1)])
_TRACE2 = np.einsum("uab,vba->uv", _FACTORS, _FACTORS).real
_TRACE3 = np.einsum("uab,vbc,wca->uvw", _FACTORS, _FACTORS, _FACTORS)


def _factor_index(letters: np.ndarray, signs: np.ndarray, transposed=()) -> np.ndarray:
    """(N, n) factor indices, transposed on the 0-based sites given."""
    u = 2 * (letters.astype(int) - 1) + (signs < 0)
    for i in transposed:
        u[:, i] += 6
    return u


def _pair_ustat(u: np.ndarray) -> float:
    """Mean of prod_i Tr[F F'] over ordered distinct snapshot pairs."""
    count = len(u)
    pair = np.ones((count, count))
    for col in u.T:
        pair *= _TRACE2[col[:, None], col[None, :]]
    return float(pair.sum() - np.trace(pair)) / (count * (count - 1))


def _triple_ustat(u: np.ndarray) -> float:
    """Mean of prod_i Tr[F F' F''] over ordered distinct snapshot triples."""
    count = len(u)
    total = 0j
    for a in range(count):
        t = np.ones((count, count), dtype=complex)
        for col in u.T:
            t *= _TRACE3[col[a]][col[:, None], col[None, :]]
        t[a, :] = 0
        t[:, a] = 0
        np.fill_diagonal(t, 0)
        total += t.sum()
    return total.real / (count * (count - 1) * (count - 2))


def _zz_pairs(rho, n: int) -> np.ndarray:
    """Oracle <Z_i Z_j> for every pair of sites."""
    out = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        codes = [0] * n
        codes[i] = codes[j] = 3
        term = paulis.WeightedPauliSum(n, ((1.0, paulis.PauliString.from_codes(codes)),))
        out[i, j] = states.exact_expectation(rho, term)
    return out


def _zz_agreement(letters: np.ndarray, signs: np.ndarray, zz: np.ndarray) -> tuple[float, float]:
    """Mean outcome product s_i s_j over the site pairs a snapshot measured
    both in Z, and its expectation given those letters."""
    z = letters == 3
    total = expected = 0.0
    count = 0
    for i, j in itertools.combinations(range(letters.shape[1]), 2):
        both = z[:, i] & z[:, j]
        total += float((signs[both, i] * signs[both, j]).sum())
        expected += int(both.sum()) * zz[i, j]
        count += int(both.sum())
    return total / count, expected / count


def _snapshot_bytes(shadow_sets) -> bytes:
    return b"".join(np.asarray(s.letters, dtype=np.int8).tobytes()
                    + np.asarray(s.signs, dtype=np.int8).tobytes() for s in shadow_sets)


def _parse_snapshots(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(letters, signs) from '<basis> <bits> [reps]' record lines."""
    letters, signs = [], []
    for line in text.splitlines():
        parts = line.split()
        for _ in range(int(parts[2]) if len(parts) == 3 else 1):
            letters.append(["XYZ".index(c) + 1 for c in parts[0]])
            signs.append([1 - 2 * int(b) for b in parts[1]])
    return np.array(letters), np.array(signs)


class PoolSweep:
    """Criterion-4 observable-pool sweep over all five schemes, with fan-out."""

    name = "pool-sweep"
    jobs = 2
    # per-layer counts the traced pass must see
    TRACED = ("states.simulate_calls", "estimators.records_in", "paulis.codes_calls",
              "schemes.plan_calls", "experiments.self_s")
    # per scheme, (mean, sd) of max_abs_error and of mean_abs_error over the
    # pool at N_s=2000, N_r=5; these errors are positive, so the limit is
    # the mean plus TOL_SIGMAS sd
    MAX_ERROR = {"l1": (0.241, 0.071), "ldf": (0.12, 0.044), "cs": (0.096, 0.029),
                 "lbcs": (0.103, 0.035), "derand": (0.072, 0.014)}
    MEAN_ERROR = {"l1": (0.061, 0.0070), "ldf": (0.029, 0.0040), "cs": (0.025, 0.0027),
                  "lbcs": (0.025, 0.0036), "derand": (0.021, 0.0026)}
    FULL_SHOTS_PER_CELL = 2000 * 5

    def __init__(self, tiny: bool = False) -> None:
        self.ns, self.nr, self.reps = (100, 2, 1) if tiny else (2000, 5, 2)
        self.shots = len(experiments.SCHEME_NAMES) * self.ns * self.nr * self.reps

    def setup(self, seed: int) -> dict:
        pool = experiments.default_observable_pool(seed=seed)
        spec = experiments.ExperimentSpec(
            task="observables", schemes=experiments.SCHEME_NAMES, ns_grid=(self.ns,),
            nr=self.nr, repetitions=self.reps, seed=seed, observables=pool)
        return {"spec": spec}

    def reference(self, inputs: dict) -> dict:
        return {}

    def run(self, inputs: dict, workdir: str, jobs: int) -> str:
        return experiments.run_observables_experiment(inputs["spec"], jobs=jobs).csv

    def outputs(self, result: str, workdir: str) -> dict[str, bytes]:
        return {"csv": result.encode()}

    def check(self, inputs: dict, ref: dict, out: dict[str, bytes], checks: Checks) -> None:
        rows = _csv_rows(out["csv"].decode())
        checks.true("one row per scheme and repetition",
                    sorted(r["scheme"] for r in rows)
                    == sorted(experiments.SCHEME_NAMES * self.reps))
        shots = self.ns * self.nr
        for r in rows:
            s = r["scheme"]
            where = f"{s} repetition {r['repetition']}"
            for column, (mean, sd) in (("max_abs_error", self.MAX_ERROR[s]),
                                       ("mean_abs_error", self.MEAN_ERROR[s])):
                checks.close(f"{where} {column}", float(r[column]), 0.0,
                             _tol(sd, self.FULL_SHOTS_PER_CELL, shots, mean))


class CertifyN6:
    """Entanglement sweep at n=6: purities and PT moments for every mask of 1-3 sites."""

    name = "certify-n6"
    jobs = 1  # the snapshots are kept from the runner's own call, in this process
    TRACED = ("states.simulate_calls", "shadows.collect_s", "shadows.purity_s",
              "shadows.pt_calls", "shadows.pt_peak_bytes")
    FIDELITY = 0.95
    # sd of (estimate - oracle) at N_s=300: purity by mask size, p2 and p3,
    # and the Z-Z agreement
    SIGMA_PURITY = {1: 0.013, 2: 0.079, 3: 0.12}
    SIGMA_P2 = 1.9
    SIGMA_P3 = 1.4
    SIGMA_ZZ = ZZ_SIGMA_N6
    FULL_NS = 300

    def __init__(self, tiny: bool = False) -> None:
        self.n, self.max_sites, self.ns, self.reps = (4, 2, 40, 1) if tiny else (6, 3, 300, 1)
        self.shots = self.ns * self.reps

    def setup(self, seed: int) -> dict:
        masks = tuple(states.SubsystemMask(self.n, frozenset(c))
                      for k in range(1, self.max_sites + 1)
                      for c in itertools.combinations(range(1, self.n + 1), k))
        spec = experiments.ExperimentSpec(
            task="certify", ns_grid=(self.ns,), repetitions=self.reps, seed=seed,
            noise=states.noise_from_fidelity(self.n, self.FIDELITY), masks=masks,
            strategy="full")
        return {"spec": spec}

    def reference(self, inputs: dict) -> dict:
        rho = _noisy_ghz(self.n, self.FIDELITY)
        return {"masks": {str(m): (states.exact_subsystem_purity(rho, m),
                                   states.exact_pt_moment(rho, m, 2),
                                   states.exact_pt_moment(rho, m, 3))
                          for m in inputs["spec"].masks},
                "zz": _zz_pairs(rho, self.n)}

    def run(self, inputs: dict, workdir: str, jobs: int):
        kept: list = []
        with _keeping(experiments, "collect_shadows", kept):
            csv = experiments.run_entanglement_experiment(inputs["spec"], jobs=jobs).csv
        return csv, kept

    def outputs(self, result, workdir: str) -> dict[str, bytes]:
        csv, kept = result
        return {"csv": csv.encode(), "snapshots": _snapshot_bytes(kept)}

    def check(self, inputs: dict, ref: dict, out: dict[str, bytes], checks: Checks) -> None:
        masks = ref["masks"]
        rows = _csv_rows(out["csv"].decode())
        checks.true("one row per mask and repetition",
                    sorted(r["mask"] for r in rows) == sorted(list(masks) * self.reps))
        for r in rows:
            purity, p2, p3 = masks[r["mask"]]
            size = len(r["mask"].split("-"))
            where = f"mask {r['mask']} repetition {r['repetition']}"
            checks.close(f"{where} purity", float(r["purity"]), purity,
                         _tol(self.SIGMA_PURITY[size], self.FULL_NS, self.ns))
            checks.close(f"{where} p2", float(r["p2"]), p2, _tol(self.SIGMA_P2, self.FULL_NS, self.ns))
            checks.close(f"{where} p3", float(r["p3"]), p3, _tol(self.SIGMA_P3, self.FULL_NS, self.ns))
            margin = float(r["p2"]) ** 2 - float(r["p3"])
            checks.close(f"{where} margin = p2^2 - p3", float(r["margin"]), margin,
                         1e-12 * max(1.0, abs(margin)))

        snaps = np.frombuffer(out["snapshots"], dtype=np.int8)
        checks.true(f"{self.reps} snapshot set(s) of {self.ns} x {self.n} kept from "
                    "experiments.collect_shadows", snaps.size == self.reps * 2 * self.ns * self.n)
        if snaps.size != self.reps * 2 * self.ns * self.n:
            return
        snaps = snaps.reshape(self.reps, 2, self.ns, self.n)
        for rep, (letters, signs) in enumerate(snaps):
            self._check_snapshots(letters, signs, ref["zz"],
                                  [r for r in rows if r["repetition"] == str(rep)], checks)

    def _check_snapshots(self, letters, signs, zz, rows, checks: Checks) -> None:
        """Recompute every row from the snapshots the runner used."""
        where = f"repetition {rows[0]['repetition']}" if rows else "no rows"
        value, expected = _zz_agreement(letters, signs, zz)
        checks.close(f"{where} Z-Z agreement", value, expected,
                     _tol(self.SIGMA_ZZ, self.FULL_NS, self.ns))
        u = _factor_index(letters, signs)
        p2 = _pair_ustat(u)  # Tr[(rho^T_A)^2] = Tr[rho^2] for every mask
        by_mask = {r["mask"]: r for r in rows}
        first_of_size = {}
        for text, r in by_mask.items():
            sites = [int(k) - 1 for k in text.split("-")]
            first_of_size.setdefault(len(sites), (text, sites))
            checks.same(f"{where} mask {text} purity", float(r["purity"]), _pair_ustat(u[:, sites]))
            checks.same(f"{where} mask {text} p2", float(r["p2"]), p2)
            # rho^(T_complement) is the full transpose of rho^(T_A): same p3
            rest = "-".join(str(k + 1) for k in range(self.n) if k not in sites)
            if rest in by_mask:
                checks.same(f"{where} mask {text} p3 = p3 of mask {rest}",
                            float(r["p3"]), float(by_mask[rest]["p3"]))
        for text, sites in first_of_size.values():
            checks.same(f"{where} mask {text} p3", float(by_mask[text]["p3"]),
                        _triple_ustat(_factor_index(letters, signs, sites)))


class CliPipeline:
    """README chain plan -> sample -> estimate through the click entry point."""

    name = "cli-pipeline"
    jobs = 1
    TRACED = ("states.simulate_calls", "estimators.records_in", "paulis.codes_calls",
              "formats.bytes", "schemes.plan_calls", "cli.plan_s", "cli.sample_s",
              "cli.estimate_s")
    HAMILTONIAN = "builtin:lattice4"
    FIDELITY = 0.95
    SIGMA_ENERGY = 0.016  # sd of (estimate - oracle) at 10000 settings x 5 shots
    FULL_SHOTS = 10000 * 5

    def __init__(self, tiny: bool = False) -> None:
        self.ns, self.nr = (200, 5) if tiny else (10000, 5)
        self.shots = self.ns * self.nr

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def reference(self, inputs: dict) -> dict:
        h = formats.load_hamiltonian(self.HAMILTONIAN)
        return {"energy": states.exact_expectation(_noisy_ghz(h.n, self.FIDELITY), h)}

    def run(self, inputs: dict, workdir: str, jobs: int) -> str:
        plan, shots, est = (os.path.join(workdir, f) for f in ("plan.json", "shots.rec", "est.csv"))
        printed = _invoke(["plan", "--scheme", "ldf", "--hamiltonian", self.HAMILTONIAN,
                           "--out", plan])
        printed += _invoke(["sample", "--plan", plan, "--ns", str(self.ns), "--nr", str(self.nr),
                            "--seed", str(inputs["seed"]), "--fidelity", str(self.FIDELITY),
                            "--out", shots])
        printed += _invoke(["estimate", "--records", shots, "--plan", plan,
                            "--hamiltonian", self.HAMILTONIAN, "--out", est])
        return printed

    def outputs(self, result: str, workdir: str) -> dict[str, bytes]:
        return _read(workdir, "plan.json", "shots.rec", "est.csv")

    def check(self, inputs: dict, ref: dict, out: dict[str, bytes], checks: Checks) -> None:
        checks.true("one record line per shot", out["shots.rec"].count(b"\n") == self.shots)
        value = float(_csv_rows(out["est.csv"].decode())[0]["value"])
        checks.close("energy", value, ref["energy"],
                     _tol(self.SIGMA_ENERGY, self.FULL_SHOTS, self.shots))


class ShadowsN8:
    """CLI shadows at n=8, then subsystem purities from the written records."""

    name = "shadows-n8"
    jobs = 1
    TRACED = ("states.simulate_calls", "formats.bytes", "shadows.collect_s",
              "shadows.purity_s", "cli.shadows_s", "cli.purity_s")
    FIDELITY = 0.9
    MASKS = ("1-2", "1-2-3-4")
    # sd of (estimate - oracle) at 300 snapshots
    SIGMA_PURITY = {"1-2": 0.07, "1-2-3-4": 0.29}
    SIGMA_ZZ = ZZ_SIGMA_N8
    FULL_NS = 300

    def __init__(self, tiny: bool = False) -> None:
        self.n, self.ns = (4, 40) if tiny else (8, 300)
        self.shots = self.ns

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def reference(self, inputs: dict) -> dict:
        rho = _noisy_ghz(self.n, self.FIDELITY)
        return {"purity": {m: states.exact_subsystem_purity(
                    rho, states.SubsystemMask.from_text(self.n, m)) for m in self.MASKS},
                "zz": _zz_pairs(rho, self.n)}

    def run(self, inputs: dict, workdir: str, jobs: int) -> str:
        snaps, pur = os.path.join(workdir, "snaps.rec"), os.path.join(workdir, "purity.csv")
        printed = _invoke(["shadows", "--qubits", str(self.n), "--ns", str(self.ns),
                           "--seed", str(inputs["seed"]), "--fidelity", str(self.FIDELITY),
                           "--out", snaps])
        masks = [arg for m in self.MASKS for arg in ("--mask", m)]
        printed += _invoke(["purity", "--records", snaps, *masks, "--out", pur])
        return printed

    def outputs(self, result: str, workdir: str) -> dict[str, bytes]:
        return _read(workdir, "snaps.rec", "purity.csv")

    def check(self, inputs: dict, ref: dict, out: dict[str, bytes], checks: Checks) -> None:
        checks.true("one record line per snapshot", out["snaps.rec"].count(b"\n") == self.ns)
        rows = _csv_rows(out["purity.csv"].decode())
        checks.true("one purity row per mask", [r["mask"] for r in rows] == list(self.MASKS))
        letters, signs = _parse_snapshots(out["snaps.rec"].decode())
        value, expected = _zz_agreement(letters, signs, ref["zz"])
        checks.close("Z-Z agreement", value, expected, _tol(self.SIGMA_ZZ, self.FULL_NS, self.ns))
        u = _factor_index(letters, signs)
        for r in rows:
            checks.close(f"mask {r['mask']} purity", float(r["purity"]), ref["purity"][r["mask"]],
                         _tol(self.SIGMA_PURITY[r["mask"]], self.FULL_NS, self.ns))
            sites = [int(k) - 1 for k in r["mask"].split("-")]
            checks.same(f"mask {r['mask']} purity", float(r["purity"]), _pair_ustat(u[:, sites]))


WORKLOADS = {w.name: w for w in (PoolSweep, CertifyN6, CliPipeline, ShadowsN8)}
