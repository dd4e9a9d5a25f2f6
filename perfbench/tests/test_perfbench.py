"""Self-tests of the benchmark harness, on test-size inputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402
from paulimeter import cli, formats, shadows, states  # noqa: E402,F401  (cli loads every module)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("states.simulate_calls", "states.repeat_basis_frac", "estimators.records_in",
          "paulis.codes_calls", "formats.bytes", "schemes.plan_calls", "shadows.pt_calls",
          "shadows.pt_peak_bytes")


def bench(workload: str, trace: int, seed: int = 0) -> dict:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    out = bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    assert out["correct"] and out["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for value in out["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in wanted)
    else:
        for name in workloads.WORKLOADS[workload].TRACED:
            assert out["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_and_self_times_add_up(workload):
    first, second = bench(workload, 1, seed=3), bench(workload, 1, seed=3)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    m = first["metrics"]
    self_sum = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
    self_sum += m["trace.unattributed_s"]["value"]
    assert self_sum == pytest.approx(m["trace.pass_s"]["value"], rel=1e-9, abs=1e-9)


def _cli_output(value: float, wl) -> dict:
    return {"shots.rec": b"XXXX 0000\n" * wl.shots,
            "est.csv": f"value,epsilon0\n{value!r},0.0\n".encode()}


def test_perturbed_energy_estimate_counts_as_failed():
    wl = workloads.CliPipeline()
    ref = wl.reference(wl.setup(0))
    tol = workloads._tol(wl.SIGMA_ENERGY, wl.FULL_SHOTS, wl.shots)

    ok = workloads.Checks()
    wl.check({}, ref, _cli_output(ref["energy"] + 0.5 * tol, wl), ok)
    assert (ok.attempted, ok.failed) == (2, 0)

    bad = workloads.Checks()
    wl.check({}, ref, _cli_output(ref["energy"] + 2.0 * tol, wl), bad)
    assert (bad.attempted, bad.failed) == (2, 1)
    assert "energy" in bad.failures[0]


def _certify_output(tmp_path):
    wl = workloads.CertifyN6(tiny=True)
    inputs = wl.setup(0)
    ref = wl.reference(inputs)
    return wl, inputs, ref, wl.outputs(wl.run(inputs, str(tmp_path), 1), str(tmp_path))


def _edit_csv(out: dict, mask: str, column: str, change) -> dict:
    lines = out["csv"].decode().splitlines()
    header = lines[0].split(",")
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[0] == mask:
            cells[header.index(column)] = repr(change(float(cells[header.index(column)])))
            lines[k] = ",".join(cells)
    return dict(out, csv=("\n".join(lines) + "\n").encode())


def test_certify_output_passes_its_checks(tmp_path):
    wl, inputs, ref, out = _certify_output(tmp_path)
    checks = workloads.Checks()
    wl.check(inputs, ref, out, checks)
    assert checks.failures == [] and checks.attempted > 4 * len(ref["masks"])


@pytest.mark.parametrize("mask", ("1", "1-2", "3-4"))
@pytest.mark.parametrize("column, change", (("p3", lambda v: -v), ("p3", lambda v: 2 * v),
                                            ("p2", lambda v: 2 * v), ("purity", lambda v: -v)))
def test_wrong_sign_or_factor_in_a_u_statistic_fails(tmp_path, mask, column, change):
    wl, inputs, ref, out = _certify_output(tmp_path)
    checks = workloads.Checks()
    wl.check(inputs, ref, _edit_csv(out, mask, column, change), checks)
    assert any(f"mask {mask} {column}" in f for f in checks.failures), checks.failures


def test_missing_snapshots_fail(tmp_path):
    wl, inputs, ref, out = _certify_output(tmp_path)
    checks = workloads.Checks()
    wl.check(inputs, ref, dict(out, snapshots=b""), checks)
    assert checks.failed == 1 and "snapshot set" in checks.failures[0]


def _shadows_output(letters, signs, wl, tmp_path) -> dict:
    """The two files of a shadows-n8 pass, written from the given snapshots."""
    sset = shadows.ShadowSet(wl.n, letters, signs)
    formats.write_records(str(tmp_path / "snaps.rec"), sset.records())
    rows = [f"{m},{shadows.purity_ustat(sset, states.SubsystemMask.from_text(wl.n, m))!r}\n"
            for m in wl.MASKS]
    return {"snaps.rec": (tmp_path / "snaps.rec").read_bytes(),
            "purity.csv": ("mask,purity\n" + "".join(rows)).encode()}


def test_uniformly_random_bits_fail_the_sampler_check(tmp_path):
    wl = workloads.ShadowsN8()
    ref = wl.reference(wl.setup(0))
    rho = states.admix_white_noise(states.ghz(wl.n), states.noise_from_fidelity(wl.n, wl.FIDELITY))
    real = shadows.collect_shadows(rho, wl.ns, 0)

    ok = workloads.Checks()
    wl.check({}, ref, _shadows_output(real.letters, real.signs, wl, tmp_path), ok)
    assert ok.failures == []

    coin = np.random.default_rng(0).choice(np.array([-1, 1], dtype=np.int8), size=real.signs.shape)
    bad = workloads.Checks()
    wl.check({}, ref, _shadows_output(real.letters, coin, wl, tmp_path), bad)
    assert bad.failed == 1 and "Z-Z agreement" in bad.failures[0]


def test_tracer_reports_a_name_the_program_lacks(monkeypatch):
    with spans.Tracer("complete") as tracer:
        pass
    assert tracer.missing == []
    monkeypatch.setitem(spans.FUNCTIONS, "states.simulate",
                        ("paulimeter.states", ("sample_outcomes", "no_such_sampler")))
    with spans.Tracer("renamed") as tracer:
        pass
    assert tracer.missing == ["paulimeter.states.no_such_sampler"]


def test_nan_estimate_counts_as_failed():
    checks = workloads.Checks()
    checks.close("nan", float("nan"), 0.0, 1.0)
    assert (checks.attempted, checks.failed) == (1, 1)
