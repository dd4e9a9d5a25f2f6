"""Desk-scale experiment runners with deterministic CSV output.

Three sweeps over noisy GHZ states: per-observable error comparison across
sampling schemes, energy (and squared-energy) error, and entanglement
quantities per subsystem mask.  Every cell derives its randomness from
``np.random.SeedSequence(seed, spawn_key=...)``, so each CSV row is a pure
function of (spec, seed) and parallel execution produces output
byte-identical to a serial run.  An estimation sweep fans out tasks that
each build one (scheme, N_s) plan and then run a strided chunk of its
repetitions, so planning is part of the parallel work; an entanglement
sweep fans out one task per (N_s, repetition).  A cell spawns two children:
one generator draws its bases, and the other child is the parent of one
bulk outcome stream in which setting k reads what ``default_rng`` gives its
k-th spawned child (``states.sample_settings``).  Seeded bytes thus depend
on numpy's SeedSequence and PCG64 stream algorithms.
"""

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import DimensionMismatch, EmptyInput, FeasibilityError
from .estimators import ShotBatch, estimate, per_term_expectations
from .paulis import PauliString, WeightedPauliSum, square
from .schemes import (
    SCHEME_NAMES,
    MeasurementPlan,
    draw_bases,
    plan_derandomized,
    plan_l1,
    plan_lbcs,
    plan_ldf,
    plan_uniform_cs,
)
from .shadows import collect_shadows, p3_ppt_certificate, purity_ustat
from .states import DensityMatrix, SubsystemMask, exact_expectation, noisy_ghz, sample_settings

_TASK_NR = {"observables": 5, "energy": 5, "moment2": 5,
            "purity": 1, "ptmoments": 1, "certify": 1}
_TASK_CODE = {name: i for i, name in enumerate(sorted(_TASK_NR))}
DEFAULT_POOL_SEED = 0
DEFAULT_POOL_SIZE = 50


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Everything a runner needs besides the derived state: task name,
    schemes, the N_s grid, per-setting repetitions N_r (None picks the
    task default), repetition count, master seed, white-noise weight, and
    the task's subject (observable pool, Hamiltonian, or masks)."""

    task: str
    schemes: tuple[str, ...] = ("cs",)
    ns_grid: tuple[int, ...] = (100,)
    nr: int | None = None
    repetitions: int = 20
    seed: int = 0
    noise: float = 0.0
    observables: tuple[PauliString, ...] | None = None
    hamiltonian: WeightedPauliSum | None = None
    masks: tuple[SubsystemMask, ...] = ()
    strategy: str = "full"

    def __post_init__(self) -> None:
        if self.task not in _TASK_NR:
            raise ValueError(f"unknown task {self.task!r}")
        if not self.ns_grid or any(ns < 1 for ns in self.ns_grid):
            raise ValueError("ns_grid must be nonempty with entries >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.nr is not None and self.nr < 1:
            raise ValueError("nr must be >= 1")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise weight {self.noise} outside [0, 1]")
        for s in self.schemes:
            if s not in SCHEME_NAMES:
                raise ValueError(f"unknown scheme {s!r}")

    @property
    def effective_nr(self) -> int:
        return self.nr if self.nr is not None else _TASK_NR[self.task]


@dataclasses.dataclass(frozen=True)
class RunResult:
    """CSV text plus out-of-band diagnostics (coverage warnings)."""

    csv: str
    notes: tuple[str, ...] = ()


def default_observable_pool(n: int = 4, count: int = DEFAULT_POOL_SIZE,
                            seed: int = DEFAULT_POOL_SEED) -> tuple[PauliString, ...]:
    """Uniform draw without replacement from all non-identity Pauli strings
    acting on at most two of n sites, in a fixed enumeration order."""
    universe = []
    for i in range(n):
        for a in (1, 2, 3):
            codes = [0] * n
            codes[i] = a
            universe.append(PauliString.from_codes(codes))
    for i in range(n):
        for j in range(i + 1, n):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    codes = [0] * n
                    codes[i], codes[j] = a, b
                    universe.append(PauliString.from_codes(codes))
    if count > len(universe):
        raise ValueError(f"pool of {count} exceeds the {len(universe)} available strings")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(universe), size=count, replace=False)
    return tuple(universe[k] for k in picks)


def split_identity(o: WeightedPauliSum) -> tuple[float, WeightedPauliSum]:
    """Constant offset and the identity-free remainder; planners reject
    identity terms, so runners estimate the remainder and add the offset.
    Raises DegenerateObservable when no remainder is left."""
    offset = 0.0
    rest = []
    for coeff, pauli in o:
        if pauli.is_identity:
            offset += coeff
        else:
            rest.append((coeff, pauli))
    rest = WeightedPauliSum(o.n, tuple(rest))
    rest.require_nonempty()
    return offset, rest


def build_plan(scheme: str, o: WeightedPauliSum, n: int, ns: int) -> MeasurementPlan:
    """Plan for one scheme name; ns only matters for the derandomized one."""
    if scheme == "l1":
        return plan_l1(o)
    if scheme == "ldf":
        return plan_ldf(o)
    if scheme == "cs":
        return plan_uniform_cs(n)
    if scheme == "lbcs":
        return plan_lbcs(o)
    if scheme == "derand":
        return plan_derandomized(o, ns)
    raise ValueError(f"unknown scheme {scheme!r}")


def _cell_records(rho: DensityMatrix, plan: MeasurementPlan, ns: int, nr: int,
                  ss: np.random.SeedSequence) -> ShotBatch:
    """ns settings, nr unit shots each, in planned order.  A batch holds
    fewer than 2^53 shots, so a larger ns * nr is refused before anything
    is allocated, and one that does not fit in memory is named by its flags."""
    if ns * nr >= 2 ** 53:
        raise FeasibilityError(f"--ns {ns} times --nr {nr} is 2^53 shots or more")
    basis_ss, outcome_ss = ss.spawn(2)
    try:
        letters = draw_bases(plan, ns, np.random.default_rng(basis_ss))
        return ShotBatch._owned(np.repeat(letters, nr, axis=0), sample_settings(rho, letters, nr, outcome_ss),
                                np.ones(ns * nr, dtype=np.int64))
    except MemoryError:
        raise FeasibilityError(f"--ns {ns} times --nr {nr} shots do not fit in memory") from None


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _run_cells(worker, cells, jobs: int):
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(cells) <= 1:
        return [worker(c) for c in cells]
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        return list(pool.map(worker, cells))


def _estimate_task(args):
    """Build one (scheme, N_s) plan, then run the repetitions this task owns."""
    scheme, ns, reps, rho, o, nr, master, task = args
    plan = build_plan(scheme, o, o.n, ns)
    kernel = per_term_expectations if task == "observables" else estimate
    out = []
    for rep in reps:
        ss = np.random.SeedSequence(master, spawn_key=(
            _TASK_CODE[task], SCHEME_NAMES.index(scheme), ns, rep))
        out.append(kernel(_cell_records(rho, plan, ns, nr, ss), plan, o))
    return out


def _estimate_sweep(spec: ExperimentSpec, o: WeightedPauliSum, rho: DensityMatrix, jobs: int):
    """[((scheme, N_s, repetition), cell result), ...] for every cell of an
    estimation task, in key order.

    Each distinct (scheme, N_s) group is planned once, inside the tasks: its
    repetitions split into min(R, ceil(jobs / groups)) strided chunks, one
    task each, and a repeated scheme's results are copied to every repeated
    key.  Larger N_s runs first, and derand first within an N_s, since its
    planner alone grows with N_s.  Cell seeds come from the key alone and no
    planner draws randomness, so chunking moves no byte.
    """
    groups = sorted(dict.fromkeys((s, ns) for s in spec.schemes for ns in spec.ns_grid),
                    key=lambda g: (-g[1], g[0] != "derand"))
    chunks = max(1, min(spec.repetitions, -(-jobs // len(groups))))
    tasks = [(s, ns, range(spec.repetitions)[c::chunks], rho, o, spec.effective_nr,
              spec.seed, spec.task) for s, ns in groups for c in range(chunks)]
    results = {(s, ns, rep): r
               for (s, ns, reps, *_), out in zip(tasks, _run_cells(_estimate_task, tasks, jobs))
               for rep, r in zip(reps, out)}
    keys = sorted((s, ns, rep) for s in spec.schemes for ns in spec.ns_grid
                  for rep in range(spec.repetitions))
    return [(k, results[k]) for k in keys]


def run_observables_experiment(spec: ExperimentSpec, jobs: int = 1) -> RunResult:
    """Per-repetition max and mean absolute error over an observable pool.

    Unobserved pool members count at estimate 0, so coverage failures show
    up as error |<O_l>| and in the returned notes rather than vanishing.
    """
    pool = spec.observables if spec.observables is not None else default_observable_pool()
    if not pool:
        raise EmptyInput("observable pool is empty")
    n = pool[0].n
    if any(p.n != n for p in pool):
        raise DimensionMismatch("observable pool mixes qubit counts")
    pool_sum = WeightedPauliSum(n, tuple((1.0, p) for p in pool))
    rho = noisy_ghz(n, spec.noise)
    exact_vals = np.array([exact_expectation(rho, WeightedPauliSum(n, ((1.0, p),)))
                           for p in pool])
    rows, notes = [], []
    for (s, ns, rep), (vals, s_l) in _estimate_sweep(spec, pool_sum, rho, jobs):
        errs = np.abs(vals - exact_vals)
        rows.append((s, ns, rep, float(np.max(errs)), float(np.mean(errs))))
        unhit = s_l == 0
        if unhit.any():
            eps0 = math.fsum(abs(c) for c, u in zip(pool_sum.coeffs, unhit) if u)
            notes.append(f"{s} N_s={ns} repetition={rep}: {int(unhit.sum())} of {len(pool)} "
                         f"observables never hit, never-hit weight epsilon0={eps0!r}")
    return RunResult(_csv(("scheme", "N_s", "repetition", "max_abs_error", "mean_abs_error"), rows),
                     tuple(notes))


def run_energy_experiment(spec: ExperimentSpec, jobs: int = 1) -> RunResult:
    """Absolute error of <H>, or of <H^2> for task moment2, per repetition."""
    if spec.hamiltonian is None:
        raise EmptyInput("energy experiment needs a Hamiltonian")
    o_full = square(spec.hamiltonian) if spec.task == "moment2" else spec.hamiltonian
    offset, o_work = split_identity(o_full)
    rho = noisy_ghz(o_full.n, spec.noise)
    exact = exact_expectation(rho, o_full)
    results = _estimate_sweep(spec, o_work, rho, jobs)
    rows = [(s, ns, rep, abs(r.value + offset - exact)) for (s, ns, rep), r in results]
    notes = tuple(f"{s} N_s={ns} repetition={rep}: uncovered weight epsilon0={r.epsilon0!r}"
                  for (s, ns, rep), r in results if r.epsilon0 > 0)
    return RunResult(_csv(("scheme", "N_s", "repetition", "abs_error"), rows), notes)


def _entangle_cell(args):
    rho, masks, ns, rep, master, strategy = args
    ss = np.random.SeedSequence(master, spawn_key=(_TASK_CODE["certify"], ns, rep))
    shadow_seed, mc_seed = (int(s) for s in ss.generate_state(2, np.uint64))
    shadows = collect_shadows(rho, ns, shadow_seed)
    out = []
    for mask in masks:
        cert = p3_ppt_certificate(shadows, mask, strategy=strategy, seed=mc_seed)
        out.append((str(mask), ns, rep, purity_ustat(shadows, mask),
                    cert["p2"], cert["p3"], cert["margin"]))
    return out


def run_entanglement_experiment(spec: ExperimentSpec, jobs: int = 1) -> RunResult:
    """Subsystem purity and PT-moment certificate columns per mask.

    One shadow data set is collected per (N_s, repetition) cell and shared
    by every mask, the way a single experiment serves all subsystems.
    """
    if not spec.masks:
        raise EmptyInput("entanglement experiment needs subsystem masks")
    n = spec.masks[0].n
    if any(m.n != n for m in spec.masks):
        raise DimensionMismatch("masks mix qubit counts")
    rho = noisy_ghz(n, spec.noise)
    order = {str(m): (len(m.indices), m.indices) for m in spec.masks}
    cells = [(rho, spec.masks, ns, rep, spec.seed, spec.strategy)
             for ns in spec.ns_grid for rep in range(spec.repetitions)]
    results = _run_cells(_entangle_cell, cells, jobs)
    rows = sorted((row for group in results for row in group),
                  key=lambda r: (order[r[0]], r[1], r[2]))
    return RunResult(_csv(("mask", "N_s", "repetition", "purity", "p2", "p3", "margin"), rows))
