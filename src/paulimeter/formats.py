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
starts with ``#`` are skipped.  Every other line is a record line and must
be ASCII.

Record files are read as bytes, in line-aligned chunks of about
``_CHUNK_BYTES``, so a comment line may hold any bytes at all.  The rows go
into arrays reserved once from the file's length: 2n + 8 bytes per row
(letters, bits, reps), beside a working set that does not grow with the
file.  ``write_records`` writes ``_WRITE_ROWS`` rows at a time.
Hamiltonian and plan files are text, and a byte there that does not decode
is a FormatError naming the file (and, for a Hamiltonian, the line).
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

from .errors import EmptyInput, FormatError
from .estimators import ShotBatch
from .paulis import MAX_QUBITS, PauliString, WeightedPauliSum
from .schemes import BasisDistribution, MeasurementPlan


# what errors="surrogateescape" makes of a byte that does not decode
_UNDECODABLE = re.compile("[\udc80-\udcff]")
# bytes per read of a record file; each chunk is then cut at a line end
_CHUNK_BYTES = 1 << 16
# rows per block of write_records
_WRITE_ROWS = 1 << 14
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
    # an undecodable byte becomes a lone surrogate, caught on its own line
    with open(path, errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            bad = _UNDECODABLE.search(raw)
            if bad:
                _fail(path, lineno, f"undecodable byte {ord(bad.group()) - 0xDC00:#04x}")
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
            if not math.isfinite(coeff):
                _fail(path, lineno, f"coefficient {parts[0]!r} is not finite")
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


def _chunks(fh):
    """Line-aligned uint8 chunks of a binary file of about ``_CHUNK_BYTES``,
    with \\r\\n and a lone \\r translated to \\n as text mode does.  A chunk
    ends after its last line end; a final \\r waits for the next read, whose
    first byte may be its \\n.  A line longer than a chunk doubles the read."""
    carry = b""
    while True:
        block = fh.read(max(_CHUNK_BYTES, len(carry)))
        raw = carry + block
        cut = max(raw.rfind(b"\n"), raw.rfind(b"\r", 0, len(raw) - 1)) + 1 if block else len(raw)
        carry = raw[cut:]
        if cut:
            data = np.frombuffer(raw, dtype=np.uint8, count=cut)
            if raw.find(b"\r", 0, cut) >= 0:
                cr = data == ord("\r")
                pair = np.append(cr[:-1] & (data[1:] == ord("\n")), False)
                data = np.where(cr, np.uint8(ord("\n")), data)[~pair]
            yield data
        if not block:
            return


def parse_records(path: str) -> ShotBatch:
    """Read a record file (grammar in the module docstring) chunk by chunk
    into arrays sized from the file's length; every FormatError names the
    first bad line.

    A line-level error (a non-ASCII record line, a wrong token count, bad
    reps) is raised in the chunk that holds it.  Then comes EmptyInput.
    Then, held across chunks, the first failing row of the first column
    check that fails: basis width, letters, identity letters, bits width,
    bit values.  After the first column error no row is stored.
    """
    n = None
    held = None  # (check, line number, message) of the first column error
    lines = rows = 0
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        for data in _chunks(fh):
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
            linenos = lines + line + 1
            lines += len(newlines)
            # lines holding a non-ASCII byte, ended by a line past the last one
            wide = np.append(np.searchsorted(newlines, np.flatnonzero(data > 127)), len(newlines) + 1)
            wide = wide[np.searchsorted(wide, line)] == line

            def token(k) -> str:
                return data[starts[k]:ends[k]].tobytes().decode()

            bad_lines = np.flatnonzero(wide | (count < 2) | (count > 3))
            stop = bad_lines[0] if len(bad_lines) else len(first)
            chunk_reps = np.ones(len(first), dtype=np.int64)
            for k in np.flatnonzero(count[:stop] == 3):
                try:
                    value = int(token(first[k] + 2))
                except ValueError:
                    _fail(path, linenos[k], f"bad reps {token(first[k] + 2)!r}")
                if not 1 <= value < 1 << 63:
                    _fail(path, linenos[k], "reps must be >= 1 and below 2**63")
                chunk_reps[k] = value
            if len(bad_lines):
                _fail(path, linenos[stop], "record lines must be ASCII" if wide[stop]
                      else "record lines are '<basis> <bits> [reps]'")
            if not len(first):
                continue
            if n is None:
                n = int(ends[first[0]] - starts[first[0]])
                first_line = linenos[0]
                # a stored row's line holds 2n + 1 bytes and a line end, so
                # this bounds the row count unless the file grows meanwhile
                cap = (size + 1) // (2 * n + 2) if n <= MAX_QUBITS else 0
                letters = np.empty((cap, n), dtype=np.int8)
                bits = np.empty((cap, n), dtype=np.uint8)
                reps = np.empty(cap, dtype=np.int64)

            def bad_bits(k: int) -> str:
                return f"bits {token(first[k] + 1)!r} must be {n} characters of 0/1"

            # each check's rows are read only once the checks they rely on pass
            checks = [(ends[first] - starts[first] != n,
                       lambda k: f"basis {token(first[k])} does not fit n={n}")]
            if not checks[0][0].any():
                windows = np.lib.stride_tricks.sliding_window_view(data, n)
                chunk_letters = _LETTER_CODES[windows[starts[first]]]
                checks += [(chunk_letters < 0, lambda k: f"invalid Pauli letter in {token(first[k])!r}"),
                           (chunk_letters == 0,
                            lambda k: f"record basis {token(first[k])} contains identity letters"),
                           (ends[first + 1] - starts[first + 1] != n, bad_bits)]
                if not checks[-1][0].any():
                    chunk_bits = windows[starts[first + 1]] - ord("0")
                    checks.append((chunk_bits > 1, bad_bits))
            for check, (bad, message) in enumerate(checks):
                if held is not None and held[0] <= check:
                    break
                if bad.any():
                    k = int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))
                    held = (check, linenos[k], message(k))
                    break
            if held is not None or n > MAX_QUBITS:
                continue
            end = rows + len(first)
            if end > len(reps):
                for a in (letters, bits, reps):
                    a.resize((max(end, 2 * len(reps)),) + a.shape[1:], refcheck=False)
            letters[rows:end], bits[rows:end], reps[rows:end] = chunk_letters, chunk_bits, chunk_reps
            rows = end
    if n is None:
        raise EmptyInput(f"{path}: no record lines")
    if held is not None:
        _fail(path, *held[1:])
    # give back what the length bound over-reserved; no view of these exists
    for a in (letters, bits, reps):
        a.resize((rows,) + a.shape[1:], refcheck=False)
    try:
        return ShotBatch._owned(letters, bits, reps)
    except ValueError as exc:
        _fail(path, first_line, str(exc))


def write_records(path: str, records: ShotBatch) -> None:
    """Write '<basis> <bits>' lines, with the reps column only where reps > 1,
    ``_WRITE_ROWS`` rows at a time."""
    n = records.n
    with open(path, "wb") as fh:
        for lo in range(0, len(records), _WRITE_ROWS):
            letters, bits, reps = (a[lo:lo + _WRITE_ROWS]
                                   for a in (records.letters, records.bits, records.reps))
            plural = np.flatnonzero(reps > 1)
            width = len(str(reps[plural].max())) + 1 if len(plural) else 0
            lines = np.empty((len(reps), 2 * n + 2 + width), dtype=np.uint8)
            lines[:, :n] = np.frombuffer(b"IXYZ", dtype=np.uint8)[letters]
            lines[:, n] = ord(" ")
            lines[:, n + 1 : 2 * n + 1] = bits + ord("0")
            lines[:, -1] = ord("\n")
            data = lines.ravel()
            if width:
                # ' <digits>' on plural rows, zero bytes (dropped below) elsewhere
                digits = reps[plural].astype(bytes)
                lines[:, 2 * n + 1 : -1] = 0
                lines[plural, 2 * n + 1] = ord(" ")
                lines[plural, 2 * n + 2 : -1] = digits.view(np.uint8).reshape(len(plural), -1)[:, : width - 1]
                data = data[data != 0]
            fh.write(data)


def builtin_hamiltonian(name: str) -> WeightedPauliSum:
    """Built-in 4-qubit models, periodic boundary conditions, every
    coefficient 1/4:

    lattice4: sum_i (Z_i Z_{i+1} + X_i Y_{i+1} + Y_i Z_{i+1} + X_i Z_{i+1} + X_i) / 4
    cluster4: sum_i (Z_i X_{i+1} Z_{i+2} + X_i + Y_i Y_{i+1}) / 4
    """
    if name == "lattice4":
        n = 4
        terms = []
        for i in range(n):
            j = (i + 1) % n
            for a, b in ((3, 3), (1, 2), (2, 3), (1, 3)):
                codes = [0] * n
                codes[i], codes[j] = a, b
                terms.append((0.25, PauliString.from_codes(codes)))
        for i in range(n):
            codes = [0] * n
            codes[i] = 1
            terms.append((0.25, PauliString.from_codes(codes)))
        return WeightedPauliSum.from_terms(n, terms)
    if name == "cluster4":
        n = 4
        terms = []
        for i in range(n):
            codes = [0] * n
            codes[i] = 3
            codes[(i + 1) % n] = 1
            codes[(i + 2) % n] = 3
            terms.append((0.25, PauliString.from_codes(codes)))
        for i in range(n):
            codes = [0] * n
            codes[i] = 1
            terms.append((0.25, PauliString.from_codes(codes)))
        for i in range(n):
            codes = [0] * n
            codes[i] = 2
            codes[(i + 1) % n] = 2
            terms.append((0.25, PauliString.from_codes(codes)))
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from None
    try:
        return plan_from_dict(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad plan file ({exc})") from None
