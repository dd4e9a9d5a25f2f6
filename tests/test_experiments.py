"""Experiment runners and the command line: determinism and pipelines."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import paulimeter
from paulimeter import experiments
from paulimeter.cli import main
from paulimeter.errors import DegenerateObservable
from paulimeter.estimators import estimate
from paulimeter.experiments import (
    ExperimentSpec,
    default_observable_pool,
    run_energy_experiment,
    run_entanglement_experiment,
    run_observables_experiment,
    split_identity,
)
from paulimeter.formats import (
    builtin_hamiltonian,
    parse_records,
    read_plan,
    write_hamiltonian,
    write_records,
)
from paulimeter.paulis import PauliString, WeightedPauliSum, hits
from paulimeter.schemes import plan_derandomized
from paulimeter.shadows import ShadowSet, collect_shadows
from paulimeter.states import DensityMatrix, SubsystemMask, noisy_ghz

P = PauliString.from_text


def rows_of(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


def test_default_observable_pool_properties():
    pool = default_observable_pool()
    assert len(pool) == 50
    assert len(set(pool)) == 50
    for p in pool:
        assert p.n == 4
        assert 1 <= p.weight <= 2
    again = default_observable_pool()
    assert again == pool
    assert default_observable_pool(seed=1) != pool


def test_split_identity():
    o = WeightedPauliSum(2, [(0.7, P("II")), (0.5, P("ZZ"))])
    offset, rest = split_identity(o)
    assert offset == pytest.approx(0.7)
    assert rest.paulis == (P("ZZ"),)
    offset2, rest2 = split_identity(rest)
    assert offset2 == 0.0
    assert len(rest2) == 1
    with pytest.raises(DegenerateObservable):
        split_identity(WeightedPauliSum(2, [(0.5, P("II"))]))


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(task="unknown")
    with pytest.raises(ValueError):
        ExperimentSpec(task="observables", schemes=("bulk",))
    with pytest.raises(ValueError):
        ExperimentSpec(task="observables", ns_grid=(0,))
    with pytest.raises(ValueError):
        ExperimentSpec(task="observables", repetitions=0)
    with pytest.raises(ValueError):
        ExperimentSpec(task="observables", noise=1.5)
    assert ExperimentSpec(task="observables").effective_nr == 5
    assert ExperimentSpec(task="purity").effective_nr == 1
    assert ExperimentSpec(task="observables", nr=2).effective_nr == 2


SMALL_OBS = ExperimentSpec(
    task="observables", schemes=("l1", "cs"), ns_grid=(40,), repetitions=3, seed=11
)


def test_observables_runner_shape_and_determinism():
    serial = run_observables_experiment(SMALL_OBS)
    parallel = run_observables_experiment(SMALL_OBS, jobs=2)
    rerun = run_observables_experiment(SMALL_OBS)
    assert serial.csv == parallel.csv == rerun.csv
    # at jobs=3 each of the two (cs, N_s) groups splits its 5 repetitions
    # into strided chunks of 3 and 2
    uneven = dataclasses.replace(SMALL_OBS, schemes=("cs",), ns_grid=(20, 40), repetitions=5)
    runs = [run_observables_experiment(uneven, jobs=j).csv for j in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    assert len(rows_of(runs[0])) == 2 * 5
    rows = rows_of(serial.csv)
    assert len(rows) == 2 * 1 * 3
    assert set(r["scheme"] for r in rows) == {"l1", "cs"}
    for r in rows:
        assert 0.0 <= float(r["max_abs_error"])
        assert float(r["mean_abs_error"]) <= float(r["max_abs_error"]) + 1e-12


def test_observables_runner_notes_unhit_terms():
    spec = ExperimentSpec(
        task="observables", schemes=("derand",), ns_grid=(1,), repetitions=1, seed=0
    )
    result = run_observables_experiment(spec)
    assert any("never hit" in note for note in result.notes)


def test_observables_error_shrinks_with_settings():
    spec = ExperimentSpec(
        task="observables", schemes=("cs",), ns_grid=(50, 400), repetitions=8, seed=1
    )
    rows = rows_of(run_observables_experiment(spec, jobs=2).csv)
    med = {
        ns: statistics.median(
            float(r["max_abs_error"]) for r in rows if r["N_s"] == str(ns)
        )
        for ns in (50, 400)
    }
    assert med[400] < med[50]


def test_energy_runner_and_derandomized_path():
    spec = ExperimentSpec(
        task="energy",
        schemes=("l1", "derand"),
        ns_grid=(150,),
        repetitions=2,
        seed=3,
        hamiltonian=builtin_hamiltonian("lattice4"),
    )
    serial = run_energy_experiment(spec)
    parallel = run_energy_experiment(spec, jobs=2)
    # jobs=3 gives each (scheme, N_s) group two one-repetition chunks
    chunked = run_energy_experiment(spec, jobs=3)
    assert serial.csv == parallel.csv == chunked.csv
    rows = rows_of(serial.csv)
    assert len(rows) == 4
    for r in rows:
        assert float(r["abs_error"]) < 3.0  # ||alpha||_1 = 5 bounds the scale


def test_moment2_runner():
    spec = ExperimentSpec(
        task="moment2",
        schemes=("derand",),
        ns_grid=(200,),
        repetitions=2,
        seed=5,
        hamiltonian=builtin_hamiltonian("cluster4"),
    )
    rows = rows_of(run_energy_experiment(spec).csv)
    assert len(rows) == 2
    for r in rows:
        assert np.isfinite(float(r["abs_error"]))


def test_entanglement_runner_shares_shadows_across_masks():
    masks = (SubsystemMask.of(4, 1), SubsystemMask.of(4, 1, 2), SubsystemMask.full(4))
    spec = ExperimentSpec(
        task="certify", ns_grid=(120,), repetitions=2, seed=7, masks=masks
    )
    serial = run_entanglement_experiment(spec)
    parallel = run_entanglement_experiment(spec, jobs=2)
    assert serial.csv == parallel.csv
    rows = rows_of(serial.csv)
    assert len(rows) == 3 * 2
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r["N_s"], r["repetition"]), set()).add(r["p2"])
    # one shadow set serves every mask in a cell and p2 ignores the mask
    for vals in by_cell.values():
        assert len(vals) == 1
    full_rows = [r for r in rows if r["mask"] == "1-2-3-4"]
    assert full_rows
    for r in full_rows:
        assert float(r["purity"]) > 0.6


def run_cli(args, **kwargs):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kwargs)


def test_cli_plan_sample_estimate_pipeline(tmp_path):
    plan_path = tmp_path / "plan.json"
    rec_path = tmp_path / "rec.txt"
    result = run_cli(
        [
            "plan",
            "--scheme",
            "ldf",
            "--hamiltonian",
            "builtin:lattice4",
            "--out",
            str(plan_path),
        ]
    )
    assert result.exit_code == 0
    plan = read_plan(str(plan_path))
    assert plan.scheme == "ldf"
    result = run_cli(
        [
            "sample",
            "--plan",
            str(plan_path),
            "--ns",
            "60",
            "--nr",
            "2",
            "--seed",
            "4",
            "--out",
            str(rec_path),
        ]
    )
    assert result.exit_code == 0
    records = parse_records(str(rec_path))
    assert records.shots == 120
    result = run_cli(
        [
            "estimate",
            "--records",
            str(rec_path),
            "--hamiltonian",
            "builtin:lattice4",
            "--plan",
            str(plan_path),
        ]
    )
    assert result.exit_code == 0
    offset, rest = split_identity(builtin_hamiltonian("lattice4"))
    direct = estimate(records, plan, rest).value + offset
    value_line = next(l for l in result.output.splitlines() if l.startswith("value = "))
    assert float(value_line.split("= ")[1]) == pytest.approx(direct, abs=1e-15)


def test_cli_sample_requires_a_plan_source(tmp_path):
    result = CliRunner().invoke(
        main, ["sample", "--ns", "5", "--out", str(tmp_path / "r.txt")]
    )
    assert result.exit_code == 2


def test_cli_uniform_cs_sample_needs_no_hamiltonian(tmp_path):
    rec_path = tmp_path / "r.txt"
    result = run_cli(
        [
            "sample",
            "--scheme",
            "cs",
            "--qubits",
            "2",
            "--ns",
            "10",
            "--nr",
            "1",
            "--out",
            str(rec_path),
        ]
    )
    assert result.exit_code == 0
    records = parse_records(str(rec_path))
    assert len(records) == 10
    assert records.n == 2


def test_cli_shadows_purity_certify_pipeline(tmp_path):
    rec_path = tmp_path / "shadows.txt"
    result = run_cli(
        [
            "shadows",
            "--ns",
            "400",
            "--seed",
            "6",
            "--qubits",
            "4",
            "--out",
            str(rec_path),
        ]
    )
    assert result.exit_code == 0
    out_csv = tmp_path / "purity.csv"
    result = run_cli(
        [
            "purity",
            "--records",
            str(rec_path),
            "--mask",
            "1,2",
            "--mask",
            "1-2-3-4",
            "--out",
            str(out_csv),
        ]
    )
    assert result.exit_code == 0
    rows = rows_of(out_csv.read_text())
    got = {r["mask"]: float(r["purity"]) for r in rows}
    assert set(got) == {"1-2", "1-2-3-4"}
    assert got["1-2"] == pytest.approx(0.5, abs=0.3)
    assert got["1-2-3-4"] == pytest.approx(1.0, abs=0.35)
    result = run_cli(["certify", "--records", str(rec_path), "--mask", "1,2"])
    assert result.exit_code == 0
    assert "margin" in result.output


def test_cli_ptmoments_strategies_agree(tmp_path):
    rec_path = tmp_path / "shadows.txt"
    run_cli(["shadows", "--ns", "80", "--seed", "2", "--qubits", "2", "--out", str(rec_path)])
    full = run_cli(
        ["ptmoments", "--records", str(rec_path), "--mask", "1", "--order", "3"]
    )
    mc = run_cli(
        [
            "ptmoments",
            "--records",
            str(rec_path),
            "--mask",
            "1",
            "--order",
            "3",
            "--strategy",
            "mc:4000",
        ]
    )
    assert full.exit_code == 0 and mc.exit_code == 0
    v_full = float(full.output.strip().splitlines()[-1].split()[-1])
    v_mc = float(mc.output.strip().splitlines()[-1].split()[-1])
    assert abs(v_full - v_mc) < 0.5


def test_cli_bench_rerun_and_parallel_identical(tmp_path):
    paths = [tmp_path / f"b{i}.csv" for i in range(3)]
    base = [
        "bench",
        "observables",
        "--scheme",
        "cs",
        "--ns",
        "30",
        "--reps",
        "2",
        "--seed",
        "5",
    ]
    for extra, path in zip(([], [], ["--jobs", "2"]), paths):
        result = run_cli(base + extra + ["--out", str(path)])
        assert result.exit_code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def serial_pool(monkeypatch):
    """Swap ProcessPoolExecutor for an in-process stand-in; returns the list
    of pool widths and the list of tasks handed to map."""
    widths, tasks = [], []

    class SerialPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, cells):
            tasks.extend(cells)
            return map(worker, cells)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    return widths, tasks


def test_process_pool_is_capped_at_the_cell_count(monkeypatch):
    spec = ExperimentSpec(task="observables", schemes=("cs",), ns_grid=(20,), repetitions=2,
                          seed=4, observables=default_observable_pool(3, count=6))
    serial = run_observables_experiment(spec)
    widths, _ = serial_pool(monkeypatch)
    assert run_observables_experiment(spec, jobs=1000) == serial
    assert widths == [2]


def test_sweep_tasks_plan_once_largest_ns_and_derand_first(monkeypatch):
    spec = ExperimentSpec(task="observables", schemes=("l1", "ldf", "cs", "lbcs", "derand"),
                          ns_grid=(20, 40), repetitions=2, seed=4,
                          observables=default_observable_pool(3, count=6))
    serial = run_observables_experiment(spec)
    built = []
    build_plan = experiments.build_plan

    def counting_build_plan(scheme, o, n, ns):
        built.append((scheme, ns))
        return build_plan(scheme, o, n, ns)

    monkeypatch.setattr(experiments, "build_plan", counting_build_plan)
    widths, tasks = serial_pool(monkeypatch)
    assert run_observables_experiment(spec, jobs=2) == serial
    # ten groups for two workers: one task per plan, so each plan is built
    # once; larger N_s first, the derandomized planner first within an N_s
    order = [(s, ns) for ns in (40, 20) for s in ("derand", "l1", "ldf", "cs", "lbcs")]
    assert [task[:2] for task in tasks] == order
    assert built == order
    assert widths == [2]


def test_repeated_scheme_is_computed_once(monkeypatch):
    spec = ExperimentSpec(task="observables", schemes=("l1", "cs", "derand", "cs"),
                          ns_grid=(1, 40), repetitions=3, seed=3)
    calls = []
    cell_records = experiments._cell_records

    def counting_cell_records(*args):
        calls.append(args)
        return cell_records(*args)

    monkeypatch.setattr(experiments, "_cell_records", counting_cell_records)
    rows = rows_of(run_observables_experiment(spec).csv)
    assert len(calls) == 3 * 2 * 3  # distinct (scheme, N_s) groups x repetitions
    cs_rows = [r for r in rows if r["scheme"] == "cs"]
    assert len(cs_rows) == 2 * 2 * 3
    assert cs_rows[0::2] == cs_rows[1::2]


def test_cli_bench_certify_runs(tmp_path):
    out = tmp_path / "cert.csv"
    result = run_cli(
        [
            "bench",
            "certify",
            "--ns",
            "60",
            "--reps",
            "2",
            "--seed",
            "1",
            "--mask",
            "1",
            "--mask",
            "1,2",
            "--out",
            str(out),
        ]
    )
    assert result.exit_code == 0
    rows = rows_of(out.read_text())
    assert len(rows) == 4
    assert set(r["mask"] for r in rows) == {"1", "1-2"}


def test_sampling_paths_never_build_the_dense_state(tmp_path, monkeypatch):
    def refuse(rho):
        raise AssertionError(f"built the dense matrix of {rho!r}")

    monkeypatch.setattr(DensityMatrix, "mat", property(refuse))
    plan_path = tmp_path / "plan.json"
    for args in (["plan", "--scheme", "ldf", "--hamiltonian", "builtin:lattice4",
                  "--out", str(plan_path)],
                 ["sample", "--plan", str(plan_path), "--ns", "30", "--out", str(tmp_path / "s.rec")],
                 ["shadows", "--qubits", "6", "--ns", "30", "--out", str(tmp_path / "sh.rec")],
                 ["bench", "certify", "--ns", "30", "--reps", "2", "--mask", "1,2",
                  "--out", str(tmp_path / "c.csv")]):
        assert run_cli(args).exit_code == 0
    rho = noisy_ghz(4, 0.1)
    collect_shadows(rho, 30, 1)
    plan = read_plan(str(plan_path))
    experiments._cell_records(rho, plan, 30, 2, np.random.SeedSequence(3))
    assert rho._mat is None


def test_cli_exit_codes(tmp_path):
    # missing plan source
    r = CliRunner().invoke(
        main,
        ["estimate", "--records", str(tmp_path / "none.txt"), "--hamiltonian", "builtin:lattice4"],
    )
    assert r.exit_code == 2
    # unreadable hamiltonian file
    r = CliRunner().invoke(
        main,
        ["plan", "--scheme", "l1", "--hamiltonian", str(tmp_path / "missing.ham")],
    )
    assert r.exit_code == 2
    # degenerate observable: no terms at all
    empty = tmp_path / "empty.ham"
    empty.write_text("n 2\n")
    r = CliRunner().invoke(main, ["plan", "--scheme", "l1", "--hamiltonian", str(empty)])
    assert r.exit_code == 3
    # invalid setting count
    r = CliRunner().invoke(
        main,
        ["plan", "--scheme", "derand", "--hamiltonian", "builtin:lattice4", "--ns", "0"],
    )
    assert r.exit_code == 2


def test_cli_estimate_derand_alignment(tmp_path):
    plan_path = tmp_path / "plan.json"
    rec_path = tmp_path / "rec.txt"
    ham = tmp_path / "h.ham"
    write_hamiltonian(
        str(ham), WeightedPauliSum(2, [(0.8, P("ZZ")), (-0.5, P("XX"))])
    )
    assert run_cli(
        ["plan", "--scheme", "derand", "--hamiltonian", str(ham), "--ns", "6",
         "--out", str(plan_path)]
    ).exit_code == 0
    assert run_cli(
        ["sample", "--plan", str(plan_path), "--ns", "6", "--nr", "3", "--seed", "2",
         "--qubits", "2", "--out", str(rec_path)]
    ).exit_code == 0
    out_csv = tmp_path / "est.csv"
    result = run_cli(
        ["estimate", "--records", str(rec_path), "--hamiltonian", str(ham),
         "--plan", str(plan_path), "--out", str(out_csv)]
    )
    assert result.exit_code == 0
    rows = rows_of(out_csv.read_text())
    # GHZ is the default sampled state and both terms stabilize it
    assert float(rows[0]["value"]) == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "--hamiltonian", "builtin:lattice4", "--scheme", "cs"],
        ["purity"],
        ["ptmoments", "--mask", "1"],
        ["certify"],
    ],
    ids=["estimate", "purity", "ptmoments", "certify"],
)
def test_cli_empty_record_file_exits_2(tmp_path, args):
    rec_path = tmp_path / "empty.rec"
    rec_path.write_text("# no shots\n\n")
    result = run_cli(args + ["--records", str(rec_path)])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"error: {rec_path}: no record lines"]


MALFORMED_PLANS = [
    pytest.param("ldf", lambda d: d["members"].__setitem__(0, [99]), "term indices",
                 id="members-out-of-range"),
    pytest.param("lbcs", lambda d: d["distribution"].__setitem__("q", d["distribution"]["q"][:3]),
                 "product table", id="product-table-shape"),
    pytest.param("derand", lambda d: d.pop("fixed_bases"), "need fixed_bases", id="derand-without-bases"),
    pytest.param("cs", lambda d: d.pop("distribution"), "need a distribution", id="cs-without-distribution"),
    pytest.param("cs", lambda d: d.__setitem__("scheme", "bogus"), "unknown scheme 'bogus'",
                 id="unknown-scheme"),
    pytest.param("l1", lambda d: d["terms"].__setitem__(0, "XYZ"), "n=4", id="term-of-wrong-n"),
    # json writes and reads NaN; both probability checks are false for it
    pytest.param("l1", lambda d: d["distribution"]["entries"][0].__setitem__(1, float("nan")),
                 "finite", id="nan-explicit-probability"),
    pytest.param("lbcs", lambda d: d["distribution"]["q"][0].__setitem__(0, float("nan")),
                 "finite", id="nan-product-probability"),
]


@pytest.mark.parametrize("scheme,corrupt,fragment", MALFORMED_PLANS)
def test_cli_malformed_plan_exits_2(tmp_path, scheme, corrupt, fragment):
    plan_path = tmp_path / "plan.json"
    run_cli(["plan", "--scheme", scheme, "--hamiltonian", "builtin:lattice4", "--out", str(plan_path)])
    d = json.loads(plan_path.read_text())
    corrupt(d)
    plan_path.write_text(json.dumps(d))
    result = run_cli(["sample", "--plan", str(plan_path), "--ns", "5", "--out", str(tmp_path / "r.rec")])
    assert result.exit_code == 2
    (line,) = result.stderr.splitlines()
    assert "bad plan file" in line and fragment in line


def test_cli_bench_observables_pool_follows_qubits(tmp_path):
    out = tmp_path / "obs.csv"
    args = ["bench", "observables", "--scheme", "cs", "--ns", "20", "--reps", "2", "--seed", "3"]
    assert run_cli(args + ["--qubits", "4", "--out", str(out)]).exit_code == 0
    spec = ExperimentSpec(task="observables", schemes=("cs",), ns_grid=(20,), repetitions=2, seed=3)
    assert out.read_text() == run_observables_experiment(spec).csv
    result = run_cli(args + ["--qubits", "3"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == ["error: pool of 50 exceeds the 36 available strings"]


def test_cli_dense_bound_exits_2_before_allocating(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated past the dense bound")

    for name in ("eye", "outer", "zeros"):
        monkeypatch.setattr(np, name, refuse)
    result = run_cli(["shadows", "--qubits", "16", "--ns", "5", "--out", str(tmp_path / "s.rec")])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "error: a dense 16-qubit state exceeds the bound of 12 qubits (a 2^32-entry matrix)"]
    assert not (tmp_path / "s.rec").exists()


def test_cli_full_pt_moments_refuse_eleven_qubits(tmp_path, monkeypatch):
    path = tmp_path / "wide.rec"
    write_records(str(path), ShadowSet(11, np.ones((3, 11)), np.ones((3, 11))).records())
    for args in (["ptmoments", "--records", str(path), "--mask", "1", "--order", "3"],
                 ["certify", "--records", str(path)]):
        with monkeypatch.context() as patch:
            if args[0] == "ptmoments":
                # the bound is checked before the dense snapshot sum allocates
                patch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
            result = run_cli(args)
        assert result.exit_code == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: ") and "n <= 10" in line
        assert "Traceback" not in result.output + result.stderr


def test_observables_notes_report_count_and_weight_separately():
    pool = default_observable_pool()[:6]
    spec = ExperimentSpec(task="observables", schemes=("derand",), ns_grid=(1,), nr=1,
                          repetitions=1, seed=0, observables=pool)
    (basis,) = plan_derandomized(WeightedPauliSum(4, tuple((1.0, p) for p in pool)), 1).fixed_bases
    unhit = sum(not hits(basis, p) for p in pool)
    assert unhit > 0
    assert run_observables_experiment(spec).notes == (
        f"derand N_s=1 repetition=0: {unhit} of 6 observables never hit, "
        f"never-hit weight epsilon0={float(unhit)!r}",
    )


@pytest.fixture(scope="module")
def error_inputs(tmp_path_factory):
    """The input files the error-path cases name: a sum with no terms, a
    sum of identity terms only, a term of the wrong size, an empty record
    file, 11-qubit snapshots, non-finite coefficients, shot totals past
    2^53 and past memory, and one corrupted plan per MALFORMED_PLANS case."""
    tmp_path = tmp_path_factory.mktemp("error-inputs")
    (tmp_path / "empty.ham").write_text("n 2\n")
    (tmp_path / "bad.ham").write_text("n 2\n0.5 XYZ\n")
    (tmp_path / "identity.ham").write_text("n 2\n0.5 II\n")
    (tmp_path / "empty.rec").write_text("# no shots\n")
    (tmp_path / "nan.ham").write_text("n 2\nnan ZZ\n0.5 XX\n")
    (tmp_path / "inf.ham").write_text("n 2\ninf ZZ\n0.5 XX\n")
    (tmp_path / "zz.ham").write_text("n 2\n1 ZZ\n")
    (tmp_path / "two.rec").write_text("XZ 01\nZZ 00\n")
    (tmp_path / "wrap.rec").write_text(f"XZ 01 {2 ** 62}\nZZ 00 {2 ** 62}\n")
    (tmp_path / "huge.rec").write_text(f"XZ 01 {2 ** 50}\n")
    write_records(str(tmp_path / "wide.rec"), ShadowSet(11, np.ones((3, 11)), np.ones((3, 11))).records())
    for case in MALFORMED_PLANS:
        scheme, corrupt, _ = case.values
        path = tmp_path / f"{case.id}.json"
        run_cli(["plan", "--scheme", scheme, "--hamiltonian", "builtin:lattice4", "--ns", "5",
                 "--out", str(path)])
        d = json.loads(path.read_text())
        corrupt(d)
        path.write_text(json.dumps(d))
    return tmp_path


ERROR_PATHS = {
    "shadows-qubits-0": "shadows --qubits 0 --out {tmp}/s.rec",
    "purity-qubits-0": "purity --qubits 0",
    "ptmoments-qubits-0": "ptmoments --qubits 0 --mask 1",
    "certify-qubits-0": "certify --qubits 0",
    "sample-ns-0": "sample --scheme cs --ns 0 --out {tmp}/r.rec",
    "sample-qubits-0": "sample --scheme cs --qubits 0 --out {tmp}/r.rec",
    "sample-without-plan": "sample --ns 5 --out {tmp}/r.rec",
    "shadows-dense-bound": "shadows --qubits 16 --ns 5 --out {tmp}/s.rec",
    "shadows-fidelity": "shadows --fidelity 2 --out {tmp}/s.rec",
    "shadows-fidelity-below-mixed": "shadows --qubits 2 --fidelity 0.1 --out {tmp}/s.rec",
    "bench-certify-fidelity-below-mixed": "bench certify --qubits 2 --fidelity 0.1 --ns 10 --reps 1",
    "purity-bad-mask": "purity --qubits 3 --mask 9",
    "purity-mask-label": "purity --qubits 3 --mask 1,a",
    "bench-jobs-0": "bench certify --qubits 2 --ns 10 --reps 1 --jobs 0",
    "plan-nan-coefficient": "plan --scheme l1 --hamiltonian {tmp}/nan.ham",
    "estimate-inf-coefficient": "estimate --records {tmp}/two.rec --hamiltonian {tmp}/inf.ham --scheme cs",
    "estimate-shots-past-2^53": "estimate --records {tmp}/wrap.rec --hamiltonian {tmp}/zz.ham --scheme cs",
    "purity-snapshots-past-memory": "purity --records {tmp}/huge.rec",
    "plan-missing-file": "plan --scheme l1 --hamiltonian {tmp}/missing.ham",
    "plan-bad-term": "plan --scheme l1 --hamiltonian {tmp}/bad.ham",
    "plan-unknown-builtin": "plan --scheme l1 --hamiltonian builtin:nothing",
    "plan-no-terms": "plan --scheme l1 --hamiltonian {tmp}/empty.ham",
    "plan-identity-only": "plan --scheme l1 --hamiltonian {tmp}/identity.ham",
    "sample-identity-only": "sample --scheme ldf --hamiltonian {tmp}/identity.ham --out {tmp}/r.rec",
    "estimate-identity-only": "estimate --records {tmp}/wide.rec --hamiltonian {tmp}/identity.ham "
                              "--scheme l1",
    "bench-energy-identity-only": "bench energy --hamiltonian {tmp}/identity.ham --reps 1",
    "plan-derand-ns-0": "plan --scheme derand --hamiltonian builtin:lattice4 --ns 0",
    "estimate-missing-records": "estimate --records {tmp}/none.rec --hamiltonian builtin:lattice4",
    "estimate-empty-records": "estimate --records {tmp}/empty.rec --hamiltonian builtin:lattice4 --scheme cs",
    "estimate-without-plan": "estimate --records {tmp}/wide.rec --hamiltonian builtin:lattice4",
    "ptmoments-eleven-qubits": "ptmoments --records {tmp}/wide.rec --mask 1 --order 3",
    "bench-pool-too-large": "bench observables --scheme cs --qubits 3 --reps 1",
    "bench-bad-grid": "bench observables --scheme cs --ns 1,x",
    "sample-seed-negative": "sample --scheme cs --qubits 4 --ns 30 --seed -1 --out {tmp}/r.rec",
    "shadows-seed-negative": "shadows --qubits 4 --ns 30 --seed -1 --out {tmp}/s.rec",
    "sample-nr-0": "sample --scheme cs --qubits 4 --ns 30 --nr 0 --out {tmp}/r.rec",
    **{f"sample-plan-{case.id}": f"sample --plan {{tmp}}/{case.id}.json --ns 5 --out {{tmp}}/r.rec"
       for case in MALFORMED_PLANS},
}


@pytest.mark.parametrize("args", list(ERROR_PATHS.values()), ids=list(ERROR_PATHS))
def test_cli_error_paths_end_in_one_line(error_inputs, args):
    result = run_cli(args.format(tmp=error_inputs).split())
    assert result.exit_code in (2, 3)
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ")
    assert "Traceback" not in result.output + result.stderr


def test_cli_identity_only_observables_exit_3(error_inputs):
    for name in ("plan", "sample", "estimate", "bench-energy"):
        result = run_cli(ERROR_PATHS[f"{name}-identity-only"].format(tmp=error_inputs).split())
        assert result.exit_code == 3
        assert result.stderr == "error: observable has no non-identity content\n"


# sha256 of seeded CLI outputs recorded at commit d0d9cef: plan JSON and
# sampled records per scheme on lattice4, and one shadows record file.
# Reruns agreeing with each other (criterion 10) cannot show seeded results
# moving from one commit to the next; these digests do.
PINNED_DIGESTS = {
    "l1": ("fe787d9b2ce3100d253d00b3f96f7785179260b7693ce14e3fb4d7820eede96e",
           "e3b855721a7d01bd3edb162761a409063b0e4c5c4729d43ddb037a43a6ec15bc"),
    "ldf": ("696e99125e406cf0b7c585573d4cb86b1320aa6d80207eea31af2135e8e05844",
            "c795fbfefaacb49cb3217eaa5917c5c669bf04d4ead6a0e34fc20dae0067174b"),
    "cs": ("e5994d6dd693ec6158a4a54ae3e15487b5851b1246e99c9ad32aa37570eb4a5d",
           "1f7e3fd583b230dfd2140ac7a6d2ba8a43514159a8fe92ee092eab95d0afea0f"),
    "lbcs": ("f12f6fb852039f0a561546a87ff6aea0a1d99c2a3de90f7d69ae2fbd21542003",
             "9edb41154ef152d3f93cee83b62651c9f29df8153b18f570a900a0cb802c492c"),
    "derand": ("e975ff52344c47e12e713ce674b83c720f55c04277a8661a1768eecc7acecbde",
               "0458f90260a745e23ef47fc2bd6c964574fca44406c7465164d501f4658fc7e7"),
    "shadows": "07e35f9633a13e36815a5f4517fe5e0b0682521b52bc25305cf1447a2eeb394c",
}


# sha256 of the derandomized plan of pool-sweep's observable sum (the 50-term
# pool of `default_observable_pool(seed=21)`, N_s=2000): `letters.tobytes()`
# followed by `unhit_terms` as int64, recorded at commit b400fa7.
PINNED_POOL_PLAN_DIGEST = "9280e0eddc895311a4f2fb8b42839a0d042c3d5cf285855bf49d8e68a4e07fcf"


def test_pool_sweep_derandomized_plan_matches_pinned_digest():
    pool = default_observable_pool(seed=21)
    plan = plan_derandomized(WeightedPauliSum(pool[0].n, tuple((1.0, p) for p in pool)), 2000)
    data = plan.letters.tobytes() + np.asarray(plan.unhit_terms, dtype=np.int64).tobytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_POOL_PLAN_DIGEST


def test_seeded_cli_outputs_match_pinned_digests(tmp_path):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    got = {}
    for scheme in ("l1", "ldf", "cs", "lbcs", "derand"):
        plan, rec = tmp_path / f"{scheme}.json", tmp_path / f"{scheme}.rec"
        run_cli(["plan", "--scheme", scheme, "--hamiltonian", "builtin:lattice4", "--ns", "30",
                 "--out", str(plan)])
        run_cli(["sample", "--plan", str(plan), "--ns", "30", "--nr", "2", "--seed", "7",
                 "--fidelity", "0.9", "--out", str(rec)])
        got[scheme] = (digest(plan), digest(rec))
    snaps = tmp_path / "shadows.rec"
    run_cli(["shadows", "--qubits", "4", "--ns", "200", "--seed", "3", "--fidelity", "0.9",
             "--out", str(snaps)])
    got["shadows"] = digest(snaps)
    assert got == PINNED_DIGESTS


# sha256 of seeded estimation outputs recorded at commit 944fad6: `estimate
# --plan` stdout and CSV on the records the test above writes, and the CSV
# and stderr of three estimation sweeps (a derandomized never-hit note and a
# repeated scheme among them).
PINNED_ESTIMATE_DIGESTS = {
    "estimate l1": ("825d349fa67a898fa376e551e1e3a5e1713938914ee35a8f412f0fb5b9873438",
                    "568bc06cb7ef57c28deda3bed8fc65c8b40700585a653e37412de992a9786f15"),
    "estimate ldf": ("58f6018ae5ede97e1710d2a4cf65383750baa049b0234f4e56036caf405f82cd",
                     "902544d78c0f99dcd5c6f592c793e397e4c8e9b654661610562b8f12bca03d4b"),
    "estimate cs": ("ed4be0e6ce3d787d0d0c29ba3dcc30a83fbb2b130289b1ff0daa10a9e4ab5ae8",
                    "392fa0364604671d5257aa85c01720d0b05a32909072eff85f87fa294a49bb2e"),
    "estimate lbcs": ("814d033daddd64bc6b9b33ea70e90a31b63e5e137d8624a89df58b728195947c",
                      "b46ed09318a70d95342803c4dc93deddd88e3b33df73993fef10a6a4c873bfbe"),
    "estimate derand": ("df06b0490701addf6cc1f054b0364ed6587999026a955820f6c9b25707864af8",
                        "216003539987427aaaaf5ef34d83daf29df5c9e69609c6a7d9517a33ecf4bb8c"),
    "bench observables": ("8cb7dcab5b772e1cada4681055240b5bb37202e16852743044ae405cf3128b8f",
                          "7a9a135e21fc7c1a041012c4bb96e6feb6b7c11bde084519fd3552dd1197379b"),
    "bench energy": ("48136944ee98453ed1cc8a25edc801a866e1418e5882eed27e54482281ee88b3",
                     "f173f2dd6f1c97a87e7299c3fda209b702eb0706a2ab5dd44450c7f7566ae62d"),
    "bench moment2": ("8e05b230fb9885429de8376b886f4c529492d451dc4fc19d606a79697c3d45df",
                      "fc0c5adf420b55dce89ffd5a4fa002d8f0563bd417dab0326d54794112624888"),
}

ESTIMATE_SWEEPS = {
    "bench observables": "bench observables --scheme l1,cs,derand,cs --ns 1,40 --reps 3 --seed 3",
    "bench energy": "bench energy --hamiltonian builtin:lattice4 --scheme cs,derand,cs "
                    "--fidelity 0.9 --ns 5,40 --reps 3 --seed 3",
    "bench moment2": "bench moment2 --hamiltonian builtin:cluster4 --ns 5,40 --reps 3 --seed 3",
}


def test_seeded_estimates_match_pinned_digests(tmp_path):
    def digest(data):
        return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()

    got = {}
    for scheme in ("l1", "ldf", "cs", "lbcs", "derand"):
        plan, rec, out = (tmp_path / f"{scheme}.{ext}" for ext in ("json", "rec", "csv"))
        run_cli(["plan", "--scheme", scheme, "--hamiltonian", "builtin:lattice4", "--ns", "30",
                 "--out", str(plan)])
        run_cli(["sample", "--plan", str(plan), "--ns", "30", "--nr", "2", "--seed", "7",
                 "--fidelity", "0.9", "--out", str(rec)])
        result = run_cli(["estimate", "--records", str(rec), "--hamiltonian", "builtin:lattice4",
                          "--plan", str(plan), "--out", str(out)])
        assert result.exit_code == 0
        got[f"estimate {scheme}"] = (digest(result.stdout), digest(out.read_bytes()))
    for name, args in ESTIMATE_SWEEPS.items():
        out = tmp_path / "sweep.csv"
        result = run_cli(args.split() + ["--out", str(out)])
        assert result.exit_code == 0
        got[name] = (digest(out.read_bytes()), digest(result.stderr))
    assert got == PINNED_ESTIMATE_DIGESTS


# sha256 of seeded certificate CSVs recorded at commit b3953b4: `certify
# --records` on the pinned shadows record file (all default masks, full
# strategy) and a small `bench certify` at n=6.
PINNED_CERTIFY_DIGESTS = {
    "certify": "bd12a82bdcae78981bb4697234353f211b152dbdcab1aefead367051cf537b0f",
    "bench certify": "179ac34d79b38ee873531240183009fe962b48deba38f33a7d25eb5b1d0e87b5",
}


def test_seeded_certificates_match_pinned_digests(tmp_path):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    snaps, cert, bench = tmp_path / "shadows.rec", tmp_path / "cert.csv", tmp_path / "bench.csv"
    run_cli(["shadows", "--qubits", "4", "--ns", "200", "--seed", "3", "--fidelity", "0.9",
             "--out", str(snaps)])
    assert digest(snaps) == PINNED_DIGESTS["shadows"]
    run_cli(["certify", "--records", str(snaps), "--out", str(cert)])
    run_cli(["bench", "certify", "--qubits", "6", "--ns", "40", "--reps", "1", "--seed", "5",
             "--fidelity", "0.9", "--out", str(bench)])
    assert {"certify": digest(cert), "bench certify": digest(bench)} == PINNED_CERTIFY_DIGESTS


# sha256 of `certify --records` on the pinned shadows file with Monte-Carlo
# tuple sampling (`--strategy mc:20000 --seed 3`), recorded at commit 99397ad.
PINNED_MC_CERTIFY_DIGEST = "0c88ebdafab0395c556d82e3576375d2269bcf5404b5d65b410767aef9489329"


def test_seeded_mc_certificates_match_pinned_digest(tmp_path):
    snaps, cert = tmp_path / "shadows.rec", tmp_path / "cert.csv"
    run_cli(["shadows", "--qubits", "4", "--ns", "200", "--seed", "3", "--fidelity", "0.9",
             "--out", str(snaps)])
    run_cli(["certify", "--records", str(snaps), "--strategy", "mc:20000", "--seed", "3",
             "--out", str(cert)])
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == PINNED_MC_CERTIFY_DIGEST


# sha256 of `sample` and `shadows` output at the seed 2^70 + 5, whose
# entropy spans three 32-bit words, recorded at commit eba6757.
WIDE_SEED = "1180591620717411303429"
PINNED_WIDE_SEED_DIGESTS = {
    "sample": "f7f74d18a49f2183fa720dbede8dfb1b9183272b5fd1902c496240a5e79a7736",
    "shadows": "a295ab474cf1b3b4aa86ed04887d1aec367884d9f15da6aeca093b754f451a0c",
}


def test_wide_seed_outputs_match_pinned_digests(tmp_path):
    rec, snaps = tmp_path / "r.rec", tmp_path / "s.rec"
    assert run_cli(["sample", "--scheme", "cs", "--qubits", "4", "--ns", "30", "--nr", "3",
                    "--seed", WIDE_SEED, "--out", str(rec)]).exit_code == 0
    assert run_cli(["shadows", "--qubits", "4", "--ns", "30", "--seed", WIDE_SEED,
                    "--out", str(snaps)]).exit_code == 0
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest()
           for name, path in (("sample", rec), ("shadows", snaps))}
    assert got == PINNED_WIDE_SEED_DIGESTS


def run_module_cli(args, cwd):
    src = os.path.dirname(os.path.dirname(paulimeter.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "paulimeter.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_cli_runs_the_command_line(tmp_path):
    result = run_module_cli(["--help"], tmp_path)
    assert result.returncode == 0
    assert "Usage:" in result.stdout
    result = run_module_cli(["shadows", "--qubits", "2", "--fidelity", "0.1", "--out", "x.rec"],
                            tmp_path)
    assert result.returncode == 2
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: ")
    assert "Traceback" not in result.stdout + result.stderr
    assert not (tmp_path / "x.rec").exists()
