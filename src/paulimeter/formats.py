"""File formats, built-in Hamiltonians, and plan serialization.

Hamiltonian files are line-oriented: ``# comment`` lines, one ``n <int>``
header, then ``<coefficient> <pauli>`` per line.  Plans serialize to JSON.

Record files carry one row per line as ``<basis> <bits> [reps]``: a basis
of X, Y and Z letters, one 0/1 bit per basis letter, and an optional
integer multiplicity (default 1, written only where it exceeds 1).  Tokens
are separated by runs of the ASCII characters that ``str.isspace()``
accepts: space, ``\t \n \v \f \r`` and ``\x1c``-``\x1f``.  Lines are
numbered from 1 after universal-newline translation, so ``\r\n`` and a
lone ``\r`` each end one line.  Blank lines and lines whose first token
starts with ``#`` are skipped, and comment lines may hold any text.  Every
other line is a record line and must be ASCII.
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


def _separators(data: np.ndarray) -> np.ndarray:
    """Mask of the ASCII bytes for which str.isspace() is true: \\t \\n \\v \\f
    \\r (9-13), \\x1c-\\x1f (28-31) and space."""
    return ((data >= 9) & (data <= 13)) | ((data >= 28) & (data <= 32))


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
    """Read a record file (grammar in the module docstring) in whole-array
    passes over its bytes; every FormatError names the first bad line."""
    with open(path) as fh:
        raw = fh.read().encode()
    data = np.frombuffer(raw, dtype=np.uint8)
    # tokens start and end where the separator mask changes
    edges = np.flatnonzero(np.diff(_separators(data), prepend=True, append=True))
    starts, ends = edges[::2], edges[1::2]
    newlines = np.flatnonzero(data == ord("\n"))
    line = np.searchsorted(newlines, starts)
    # the first token of each line, and the line's token count
    first = np.flatnonzero(np.diff(line, prepend=-1))
    count = np.diff(first, append=len(starts))
    record = data[starts[first]] != ord("#")
    first, count = first[record], count[record]
    line = line[first]
    linenos = line + 1
    # lines holding a non-ASCII byte, ended by a line past the last one
    wide = np.append(np.searchsorted(newlines, np.flatnonzero(data > 127)), len(newlines) + 1)
    wide = wide[np.searchsorted(wide, line)] == line

    def token(k) -> str:
        return raw[starts[k]:ends[k]].decode()

    bad_lines = np.flatnonzero(wide | (count < 2) | (count > 3))
    stop = bad_lines[0] if len(bad_lines) else len(first)
    reps = np.ones(len(first), dtype=np.int64)
    for k in np.flatnonzero(count[:stop] == 3):
        try:
            value = int(token(first[k] + 2))
        except ValueError:
            _fail(path, linenos[k], f"bad reps {token(first[k] + 2)!r}")
        if not 1 <= value < 1 << 63:
            _fail(path, linenos[k], "reps must be >= 1 and below 2**63")
        reps[k] = value
    if len(bad_lines):
        _fail(path, linenos[stop], "record lines must be ASCII" if wide[stop]
              else "record lines are '<basis> <bits> [reps]'")
    if not len(first):
        raise EmptyInput(f"{path}: no record lines")
    n = int(ends[first[0]] - starts[first[0]])

    def first_bad(bad: np.ndarray, message) -> None:
        if bad.any():
            k = int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))
            _fail(path, linenos[k], message(k))

    def bad_bits(k: int) -> str:
        return f"bits {token(first[k] + 1)!r} must be {n} characters of 0/1"

    windows = np.lib.stride_tricks.sliding_window_view(data, n)
    first_bad(ends[first] - starts[first] != n,
              lambda k: f"basis {token(first[k])} does not fit n={n}")
    letters = _LETTER_CODES[windows[starts[first]]]
    first_bad(letters < 0, lambda k: f"invalid Pauli letter in {token(first[k])!r}")
    first_bad(letters == 0, lambda k: f"record basis {token(first[k])} contains identity letters")
    first_bad(ends[first + 1] - starts[first + 1] != n, bad_bits)
    bits = windows[starts[first + 1]] - ord("0")
    first_bad(bits > 1, bad_bits)
    try:
        return ShotBatch(letters, bits, reps)
    except ValueError as exc:
        _fail(path, linenos[0], str(exc))


def write_records(path: str, records: ShotBatch) -> None:
    """Write '<basis> <bits>' lines, with the reps column only where reps > 1."""
    n = records.n
    plural = np.flatnonzero(records.reps > 1)
    width = len(str(records.reps[plural].max())) + 1 if len(plural) else 0
    lines = np.empty((len(records), 2 * n + 2 + width), dtype=np.uint8)
    lines[:, :n] = np.frombuffer(b"IXYZ", dtype=np.uint8)[records.letters]
    lines[:, n] = ord(" ")
    lines[:, n + 1 : 2 * n + 1] = records.bits + ord("0")
    lines[:, -1] = ord("\n")
    data = lines.ravel()
    if width:
        # ' <digits>' on plural rows, zero bytes (dropped below) elsewhere
        digits = records.reps[plural].astype(bytes)
        lines[:, 2 * n + 1 : -1] = 0
        lines[plural, 2 * n + 1] = ord(" ")
        lines[plural, 2 * n + 2 : -1] = digits.view(np.uint8).reshape(len(plural), -1)[:, : width - 1]
        data = data[data != 0]
    with open(path, "wb") as fh:
        fh.write(data.tobytes())


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
