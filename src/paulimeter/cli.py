"""Command-line surface: planning, sampling, estimation, shadow analysis,
and the benchmark sweeps behind the CSV outputs.

Exit codes: 0 success, 2 malformed input (files, flags, mismatched
dimensions), 3 coverage or degenerate-observable failures.
"""

import functools
import sys

import click
import numpy as np

from .errors import CoverageError, DegenerateObservable, PaulimeterError
from .estimators import estimate
from .experiments import (
    ExperimentSpec,
    build_plan,
    default_observable_pool,
    run_energy_experiment,
    run_entanglement_experiment,
    run_observables_experiment,
    split_identity,
    _cell_records,
)
from .formats import (
    load_hamiltonian,
    parse_records,
    read_plan,
    write_plan,
    write_records,
)
from .schemes import SCHEME_NAMES
from .shadows import (
    ShadowSet,
    collect_shadows,
    p3_ppt_certificate,
    pt_moment_ustat,
    purity_certificate,
    purity_ustat,
)
from .states import SubsystemMask, noise_from_fidelity, noisy_ghz

SCHEME_CHOICES = click.Choice(SCHEME_NAMES)


def guarded(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (CoverageError, DegenerateObservable) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (PaulimeterError, OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


def _grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise ValueError(f"bad N_s grid {text!r}; expected comma-separated integers")
    if not grid:
        raise ValueError("empty N_s grid")
    return grid


def _masks(n: int, texts) -> tuple[SubsystemMask, ...]:
    if not texts:
        return ()
    return tuple(SubsystemMask.from_text(n, t) for t in texts)


def _all_proper_masks(n: int) -> tuple[SubsystemMask, ...]:
    out = []
    for bits in range(1, 2 ** n - 1):
        members = frozenset(i + 1 for i in range(n) if bits >> i & 1)
        out.append(SubsystemMask(n, members))
    return tuple(sorted(out, key=lambda m: (len(m.indices), m.indices)))


def _state(qubits: int, fidelity: float):
    return noisy_ghz(qubits, noise_from_fidelity(qubits, fidelity))


def _shadows_from(records_path, qubits, ns, seed, fidelity) -> ShadowSet:
    if records_path is not None:
        records = parse_records(records_path)
        return ShadowSet.from_records(records)
    rho = _state(qubits, fidelity)
    return collect_shadows(rho, ns, seed)


def _shadow_source(command):
    """The options naming a shadow command's snapshots: a record file or a simulated state."""
    return functools.reduce(lambda f, option: option(f), reversed((
        click.option("--records", "records_path", default=None, help="Snapshot record file."),
        click.option("--ns", default=1000, show_default=True),
        click.option("--seed", default=0, show_default=True),
        click.option("--fidelity", default=1.0, show_default=True),
        click.option("--qubits", default=4, show_default=True),
    )), command)


def _echo_out(text: str, out) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@click.group()
def main() -> None:
    """Pauli measurement planning, simulation, and estimation."""


@main.command("plan")
@click.option("--scheme", type=SCHEME_CHOICES, required=True)
@click.option("--hamiltonian", required=True, help="Hamiltonian file or builtin:<name>.")
@click.option("--ns", default=100, show_default=True,
              help="Measurement budget (used by the derandomized scheme).")
@click.option("--out", default=None, help="Write the plan as JSON.")
@guarded
def plan_cmd(scheme, hamiltonian, ns, out):
    """Build a measurement plan for a Hamiltonian's Pauli terms."""
    o = load_hamiltonian(hamiltonian)
    offset, o_work = split_identity(o)
    plan = build_plan(scheme, o_work, o.n, ns)
    if plan.scheme == "derand":
        detail = f"{len(plan.fixed_bases)} settings"
        if plan.unhit_terms:
            detail += f", {len(plan.unhit_terms)} terms unhit"
    elif plan.distribution.kind == "explicit":
        detail = f"{len(plan.distribution.explicit)} weighted bases"
    else:
        detail = "per-site product distribution"
        if plan.converged is False:
            detail += " (optimizer hit the sweep limit)"
    click.echo(f"{plan.scheme} plan on n={plan.n}, {len(plan.terms)} terms: {detail}")
    if offset != 0.0:
        click.echo(f"identity offset {offset!r} excluded from the plan", err=True)
    if out is not None:
        write_plan(out, plan)
        click.echo(f"wrote {out}")


@main.command("sample")
@click.option("--scheme", type=SCHEME_CHOICES, default=None)
@click.option("--hamiltonian", default=None, help="Hamiltonian file or builtin:<name>.")
@click.option("--plan", "plan_path", default=None, help="Plan JSON from the plan command.")
@click.option("--ns", default=100, show_default=True, help="Number of settings.")
@click.option("--nr", default=5, show_default=True, help="Shots per setting.")
@click.option("--seed", default=0, show_default=True)
@click.option("--fidelity", default=1.0, show_default=True,
              help="GHZ fidelity of the sampled state (white-noise model).")
@click.option("--qubits", default=4, show_default=True)
@click.option("--out", required=True, help="Record file to write.")
@guarded
def sample_cmd(scheme, hamiltonian, plan_path, ns, nr, seed, fidelity, qubits, out):
    """Simulate measurement records of a noisy GHZ state under a plan."""
    if plan_path is not None:
        plan = read_plan(plan_path)
    elif scheme == "cs" and hamiltonian is None:
        plan = build_plan(scheme, None, qubits, ns)
    elif scheme is not None and hamiltonian is not None:
        o = load_hamiltonian(hamiltonian)
        _, o_work = split_identity(o)
        plan = build_plan(scheme, o_work, o.n, ns)
    else:
        raise ValueError("give either --plan, or --scheme with --hamiltonian "
                         "(--scheme cs alone works with --qubits)")
    rho = _state(plan.n, fidelity)
    records = _cell_records(rho, plan, ns, nr, np.random.SeedSequence(seed))
    write_records(out, records)
    click.echo(f"wrote {len(records)} records to {out}")


@main.command("estimate")
@click.option("--records", "records_path", required=True, help="Record file to read.")
@click.option("--hamiltonian", required=True, help="Observable to estimate.")
@click.option("--scheme", type=SCHEME_CHOICES, default=None)
@click.option("--plan", "plan_path", default=None, help="Plan JSON from the plan command.")
@click.option("--ns", default=100, show_default=True,
              help="Budget used to rebuild a derandomized plan without --plan.")
@click.option("--out", default=None, help="Optional CSV (value, epsilon0).")
@guarded
def estimate_cmd(records_path, hamiltonian, scheme, plan_path, ns, out):
    """Estimate an observable from recorded shots."""
    records = parse_records(records_path)
    o = load_hamiltonian(hamiltonian)
    offset, o_work = split_identity(o)
    if plan_path is not None:
        plan = read_plan(plan_path)
    else:
        if scheme is None:
            raise ValueError("give either --plan or --scheme")
        plan = build_plan(scheme, o_work, o.n, ns)
    report = estimate(records, plan, o_work)
    value = report.value + offset
    click.echo(f"value = {value!r}")
    if report.epsilon0 > 0:
        click.echo(f"epsilon0 = {report.epsilon0!r} (weight of terms never hit)", err=True)
    if out is not None:
        _echo_out(f"value,epsilon0\n{value!r},{report.epsilon0!r}\n", out)


@main.command("shadows")
@click.option("--ns", default=100, show_default=True, help="Number of snapshots.")
@click.option("--seed", default=0, show_default=True)
@click.option("--fidelity", default=1.0, show_default=True)
@click.option("--qubits", default=4, show_default=True)
@click.option("--out", required=True, help="Record file to write.")
@guarded
def shadows_cmd(ns, seed, fidelity, qubits, out):
    """Collect uniform classical-shadow snapshots of a noisy GHZ state."""
    rho = _state(qubits, fidelity)
    shadows = collect_shadows(rho, ns, seed)
    write_records(out, shadows.records())
    click.echo(f"wrote {len(shadows)} snapshot records to {out}")


@main.command("purity")
@_shadow_source
@click.option("--mask", "mask_texts", multiple=True,
              help="Subsystem as site labels, e.g. 1,2; repeatable. Default: full system.")
@click.option("--out", default=None, help="Optional CSV (mask, purity).")
@guarded
def purity_cmd(records_path, ns, seed, fidelity, qubits, mask_texts, out):
    """Subsystem purity from classical shadows."""
    shadows = _shadows_from(records_path, qubits, ns, seed, fidelity)
    masks = _masks(shadows.n, mask_texts) or (SubsystemMask.full(shadows.n),)
    lines = ["mask,purity"]
    for mask in masks:
        value = purity_ustat(shadows, mask)
        click.echo(f"{mask}: purity = {value!r}")
        lines.append(f"{mask},{value!r}")
    if out is not None:
        _echo_out("\n".join(lines) + "\n", out)


@main.command("ptmoments")
@_shadow_source
@click.option("--mask", "mask_text", required=True, help="Transposed subsystem, e.g. 1,2.")
@click.option("--order", default=3, show_default=True, type=click.IntRange(2, 3))
@click.option("--strategy", default="full", show_default=True,
              help="full, or mc:<budget> Monte-Carlo tuple sampling.")
@click.option("--out", default=None, help="Optional CSV (mask, order, value).")
@guarded
def ptmoments_cmd(records_path, ns, seed, fidelity, qubits, mask_text, order, strategy, out):
    """Partially transposed moment p_order from classical shadows."""
    shadows = _shadows_from(records_path, qubits, ns, seed, fidelity)
    mask = SubsystemMask.from_text(shadows.n, mask_text)
    value = pt_moment_ustat(shadows, mask, order=order, strategy=strategy, seed=seed)
    click.echo(f"{mask}: p{order} = {value!r}")
    if out is not None:
        _echo_out(f"mask,order,value\n{mask},{order},{value!r}\n", out)


@main.command("certify")
@_shadow_source
@click.option("--mask", "mask_texts", multiple=True,
              help="Subsystem; repeatable. Default: all nonempty proper subsets.")
@click.option("--strategy", default="full", show_default=True)
@click.option("--out", default=None, help="Optional CSV of certificate rows.")
@guarded
def certify_cmd(records_path, ns, seed, fidelity, qubits, mask_texts, strategy, out):
    """Entanglement certificates (moment condition and purity comparison)."""
    shadows = _shadows_from(records_path, qubits, ns, seed, fidelity)
    masks = _masks(shadows.n, mask_texts) or _all_proper_masks(shadows.n)
    lines = ["mask,purity_A,purity_full,purity_flag,p2,p3,margin,moment_flag"]
    for mask in masks:
        pc = purity_certificate(shadows, mask)
        mc = p3_ppt_certificate(shadows, mask, strategy=strategy, seed=seed)
        click.echo(f"{mask}: purity_A = {pc['purity_A']:.4f}, margin = {mc['margin']:.4f}, "
                   f"entangled = {pc['flag'] or mc['entangled']}")
        lines.append(f"{mask},{pc['purity_A']!r},{pc['purity_full']!r},{pc['flag']},"
                     f"{mc['p2']!r},{mc['p3']!r},{mc['margin']!r},{mc['entangled']}")
    if out is not None:
        _echo_out("\n".join(lines) + "\n", out)


@main.command("bench")
@click.argument("task", type=click.Choice(
    ["observables", "energy", "moment2", "purity", "ptmoments", "certify"]))
@click.option("--scheme", "scheme_texts", multiple=True,
              help="Scheme; repeatable or comma-separated. Default: all five.")
@click.option("--hamiltonian", default=None, help="Required for energy and moment2.")
@click.option("--ns", "ns_text", default="100", show_default=True,
              help="Comma-separated N_s grid.")
@click.option("--nr", default=None, type=int, help="Shots per setting (task default).")
@click.option("--reps", default=20, show_default=True, help="Independent repetitions R.")
@click.option("--seed", default=0, show_default=True)
@click.option("--fidelity", default=1.0, show_default=True)
@click.option("--qubits", default=4, show_default=True)
@click.option("--mask", "mask_texts", multiple=True,
              help="Entanglement tasks; default all nonempty proper subsets plus full.")
@click.option("--strategy", default="full", show_default=True)
@click.option("--jobs", default=1, show_default=True, help="Parallel worker processes.")
@click.option("--out", default=None, help="CSV path (stdout when absent).")
@guarded
def bench_cmd(task, scheme_texts, hamiltonian, ns_text, nr, reps, seed, fidelity,
              qubits, mask_texts, strategy, jobs, out):
    """Run a benchmark sweep and emit its CSV."""
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    schemes = tuple(s for t in scheme_texts for s in t.split(",") if s) or SCHEME_NAMES
    ns_grid = _grid(ns_text)
    h = load_hamiltonian(hamiltonian) if hamiltonian is not None else None
    n = h.n if h is not None else qubits
    masks = _masks(n, mask_texts)
    if task in ("purity", "ptmoments", "certify") and not masks:
        masks = _all_proper_masks(n) + (SubsystemMask.full(n),)
    spec = ExperimentSpec(
        task=task, schemes=schemes, ns_grid=ns_grid, nr=nr, repetitions=reps,
        seed=seed, noise=noise_from_fidelity(n, fidelity), hamiltonian=h,
        observables=default_observable_pool(n) if task == "observables" else None,
        masks=masks, strategy=strategy)
    if task == "observables":
        result = run_observables_experiment(spec, jobs=jobs)
    elif task in ("energy", "moment2"):
        result = run_energy_experiment(spec, jobs=jobs)
    else:
        result = run_entanglement_experiment(spec, jobs=jobs)
    for note in result.notes:
        click.echo(note, err=True)
    _echo_out(result.csv, out)
    if out is not None:
        click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
