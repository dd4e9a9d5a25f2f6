"""File formats, built-in Hamiltonians, and plan serialization.

Hamiltonian files are line-oriented: ``# comment`` lines, one ``n <int>``
header, then ``<coefficient> <pauli>`` per line.  Record files carry one
shot per line as ``<basis> <bits> [reps]``.  Plans serialize to JSON.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import EmptyInput, FormatError
from .estimators import ShotBatch
from .paulis import PauliString, WeightedPauliSum
from .schemes import BasisDistribution, MeasurementPlan


# letter code per ASCII byte: I, X, Y, Z -> 0..3, anything else -> -1
_LETTER_CODES = np.full(256, -1, dtype=np.int8)
_LETTER_CODES[np.frombuffer(b"IXYZ", dtype=np.uint8)] = np.arange(4)


def _fail(path: str, lineno: int, msg: str):
    raise FormatError(f"{path}:{lineno}: {msg}")


def parse_hamiltonian(path: str) -> WeightedPauliSum:
    """Read a Hamiltonian file; duplicate Pauli lines are rejected."""
    n = None
    terms = []
    seen: dict[tuple[int, int], int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "n":
                if n is not None:
                    _fail(path, lineno, "second 'n' header")
                if len(parts) != 2:
                    _fail(path, lineno, "header must be 'n <int>'")
                try:
                    n = int(parts[1])
                except ValueError:
                    _fail(path, lineno, f"bad qubit count {parts[1]!r}")
                if n < 1:
                    _fail(path, lineno, "qubit count must be >= 1")
                continue
            if n is None:
                _fail(path, lineno, "term line before the 'n <int>' header")
            if len(parts) != 2:
                _fail(path, lineno, "term lines are '<coefficient> <pauli>'")
            try:
                coeff = float(parts[0])
            except ValueError:
                _fail(path, lineno, f"bad coefficient {parts[0]!r}")
            try:
                pauli = PauliString.from_text(parts[1])
            except ValueError as exc:
                _fail(path, lineno, str(exc))
            if pauli.n != n:
                _fail(path, lineno, f"pauli {parts[1]} does not fit n={n}")
            key = (pauli.x, pauli.z)
            if key in seen:
                _fail(path, lineno, f"duplicate pauli {parts[1]} (first on line {seen[key]})")
            seen[key] = lineno
            terms.append((coeff, pauli))
    if n is None:
        raise FormatError(f"{path}: missing 'n <int>' header")
    return WeightedPauliSum(n, tuple((c, p) for c, p in terms if c != 0.0))


def write_hamiltonian(path: str, o: WeightedPauliSum, comment: str = "") -> None:
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}")
    lines.append(f"n {o.n}")
    for coeff, pauli in o:
        lines.append(f"{coeff!r} {pauli.letters}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_records(path: str) -> ShotBatch:
    """Read a record file: '<basis> <bits> [reps]' per line."""
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

    def first_bad(bad: np.ndarray, message) -> None:
        if bad.any():
            k = int(np.argmax(bad))
            _fail(path, linenos[k], message(k))

    def chars(fields: list[str]) -> np.ndarray:
        data = "".join(fields).encode("ascii", "replace")
        return np.frombuffer(data, dtype=np.uint8).reshape(-1, n)

    def bad_bits(k: int) -> str:
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
    try:
        return ShotBatch(letters, bit_rows, reps)
    except ValueError as exc:
        _fail(path, linenos[0], str(exc))


def write_records(path: str, records: ShotBatch) -> None:
    """Write '<basis> <bits>' lines, with the reps column only where reps > 1."""
    n = records.n
    plural = records.reps > 1
    digits = records.reps.astype(bytes)
    digits = digits.view(np.uint8).reshape(len(records), digits.itemsize) * plural[:, None]
    lines = np.zeros((len(records), 2 * n + 3 + digits.shape[1]), dtype=np.uint8)
    lines[:, :n] = np.frombuffer(b"IXYZ", dtype=np.uint8)[records.letters]
    lines[:, n] = ord(" ")
    lines[:, n + 1 : 2 * n + 1] = records.bits + ord("0")
    lines[:, 2 * n + 1] = ord(" ") * plural
    lines[:, 2 * n + 2 : -1] = digits
    lines[:, -1] = ord("\n")
    data = lines.ravel()
    with open(path, "wb") as fh:
        fh.write(data[data != 0].tobytes())


def builtin_hamiltonian(name: str, J: float = 0.25, h: float = 0.25, h1: float = 0.25, h2: float = 0.25) -> WeightedPauliSum:
    """Built-in 4-qubit models, periodic boundary conditions.

    lattice4: J sum_i (Z_i Z_{i+1} + X_i Y_{i+1} + Y_i Z_{i+1} + X_i Z_{i+1}) + h sum_i X_i
    cluster4: J sum_i Z_i X_{i+1} Z_{i+2} + h1 sum_i X_i + h2 sum_i Y_i Y_{i+1}
    """
    if name == "lattice4":
        n = 4
        terms = []
        for i in range(n):
            j = (i + 1) % n
            for a, b in ((3, 3), (1, 2), (2, 3), (1, 3)):
                codes = [0] * n
                codes[i], codes[j] = a, b
                terms.append((J, PauliString.from_codes(codes)))
        for i in range(n):
            codes = [0] * n
            codes[i] = 1
            terms.append((h, PauliString.from_codes(codes)))
        return WeightedPauliSum.from_terms(n, terms)
    if name == "cluster4":
        n = 4
        terms = []
        for i in range(n):
            codes = [0] * n
            codes[i] = 3
            codes[(i + 1) % n] = 1
            codes[(i + 2) % n] = 3
            terms.append((J, PauliString.from_codes(codes)))
        for i in range(n):
            codes = [0] * n
            codes[i] = 1
            terms.append((h1, PauliString.from_codes(codes)))
        for i in range(n):
            codes = [0] * n
            codes[i] = 2
            codes[(i + 1) % n] = 2
            terms.append((h2, PauliString.from_codes(codes)))
        return WeightedPauliSum.from_terms(n, terms)
    raise ValueError(f"unknown builtin Hamiltonian {name!r}")


_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def load_hamiltonian(source: str) -> WeightedPauliSum:
    """Resolve 'builtin:<name>' or a file path.  Builtin names include the
    4-qubit models above and the shipped hydrogen files h2_jw, h2_parity,
    h2_bk."""
    if source.startswith("builtin:"):
        name = source[len("builtin:") :]
        if name in ("lattice4", "cluster4"):
            return builtin_hamiltonian(name)
        data_path = os.path.join(_DATA_DIR, f"{name}.ham")
        if os.path.exists(data_path):
            return parse_hamiltonian(data_path)
        raise ValueError(f"unknown builtin Hamiltonian {name!r}")
    return parse_hamiltonian(source)


def plan_to_dict(plan: MeasurementPlan) -> dict:
    out = {"scheme": plan.scheme, "n": plan.n, "terms": [p.letters for p in plan.terms]}
    if plan.distribution is not None:
        if plan.distribution.kind == "explicit":
            out["distribution"] = {
                "kind": "explicit",
                "entries": [[b.letters, p] for b, p in plan.distribution.explicit],
            }
        else:
            out["distribution"] = {
                "kind": "product",
                "q": [[float(v) for v in row] for row in plan.distribution.product],
            }
    if plan.members is not None:
        out["members"] = [list(m) for m in plan.members]
    if plan.fixed_bases is not None:
        out["fixed_bases"] = [b.letters for b in plan.fixed_bases]
    if plan.converged is not None:
        out["converged"] = plan.converged
    out["unhit_terms"] = list(plan.unhit_terms)
    return out


def plan_from_dict(d: dict) -> MeasurementPlan:
    n = int(d["n"])
    terms = tuple(PauliString.from_text(t) for t in d["terms"])
    members = tuple(tuple(m) for m in d["members"]) if "members" in d else None
    distribution = None
    if "distribution" in d:
        dd = d["distribution"]
        if dd["kind"] == "explicit":
            distribution = BasisDistribution(
                "explicit",
                explicit=tuple((PauliString.from_text(b), float(p)) for b, p in dd["entries"]),
            )
            if len(members or ()) != len(distribution.explicit):
                raise ValueError("explicit plans need one members group per entry")
        else:
            distribution = BasisDistribution("product", product=np.array(dd["q"], dtype=float))
    fixed = tuple(PauliString.from_text(b) for b in d["fixed_bases"]) if "fixed_bases" in d else None
    return MeasurementPlan(
        scheme=d["scheme"],
        n=n,
        terms=terms,
        distribution=distribution,
        members=members,
        fixed_bases=fixed,
        converged=d.get("converged"),
        unhit_terms=tuple(d.get("unhit_terms", ())),
    )


def write_plan(path: str, plan: MeasurementPlan) -> None:
    with open(path, "w") as fh:
        json.dump(plan_to_dict(plan), fh, indent=1)
        fh.write("\n")


def read_plan(path: str) -> MeasurementPlan:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    try:
        return plan_from_dict(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad plan file ({exc})") from None
