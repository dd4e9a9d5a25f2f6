"""File formats: Hamiltonians, shot records, plan JSON, built-in models."""

import os
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from enumtools import parse_records_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimeter import formats
from paulimeter.errors import EmptyInput, FormatError
from paulimeter.estimators import ShotBatch, estimate
from paulimeter.experiments import _cell_records
from paulimeter.formats import (
    _separators,
    builtin_hamiltonian,
    load_hamiltonian,
    parse_hamiltonian,
    parse_records,
    plan_from_dict,
    plan_to_dict,
    read_plan,
    write_hamiltonian,
    write_plan,
    write_records,
)
from paulimeter.paulis import PauliString, WeightedPauliSum
from paulimeter.schemes import (
    plan_derandomized,
    plan_l1,
    plan_lbcs,
    plan_ldf,
    plan_uniform_cs,
)
from paulimeter.states import admix_white_noise, ghz

P = PauliString.from_text


def test_hamiltonian_round_trip_exact(tmp_path):
    rng = np.random.default_rng(4)
    terms = []
    seen = set()
    while len(terms) < 12:
        codes = tuple(int(c) for c in rng.integers(0, 4, size=3))
        if codes in seen:
            continue
        seen.add(codes)
        terms.append((float(rng.normal()), PauliString.from_codes(codes)))
    o = WeightedPauliSum(3, terms)
    path = tmp_path / "h.ham"
    write_hamiltonian(str(path), o, comment="round trip\nsecond line")
    back = parse_hamiltonian(str(path))
    assert back.n == 3
    assert back.paulis == o.paulis
    assert back.coeffs == o.coeffs  # repr round-trip keeps floats bit-exact


def test_hamiltonian_drops_zero_coefficients(tmp_path):
    path = tmp_path / "h.ham"
    path.write_text("n 2\n0.5 ZZ\n0.0 XX\n")
    o = parse_hamiltonian(str(path))
    assert len(o) == 1
    assert o.paulis == (P("ZZ"),)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("n 2\n0.5 ZZ\n0.25 ZZ\n", "duplicate"),
        ("n 2\nn 2\n", "second 'n'"),
        ("0.5 ZZ\n", "before the 'n"),
        ("n 2\nx ZZ\n", "bad coefficient"),
        ("n 2\n0.5 ZQ\n", "letter"),
        ("n 2\n0.5 ZZZ\n", "does not fit"),
        ("n x\n", "bad qubit count"),
        ("n 0\n", ">= 1"),
        ("n 2 3\n", "header"),
        ("n 2\n0.5\n", "term lines"),
        ("n 2\nnan ZZ\n0.5 XX\n", "bad.ham:2: coefficient 'nan' is not finite"),
        ("n 2\n0.5 XX\n-inf ZZ\n", "bad.ham:3: coefficient '-inf' is not finite"),
    ],
)
def test_hamiltonian_parse_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.ham"
    path.write_text(content)
    with pytest.raises(FormatError) as err:
        parse_hamiltonian(str(path))
    assert fragment in str(err.value)


def test_hamiltonian_missing_header(tmp_path):
    path = tmp_path / "empty.ham"
    path.write_text("# nothing here\n")
    with pytest.raises(FormatError, match="missing 'n"):
        parse_hamiltonian(str(path))


def test_records_round_trip_large(tmp_path):
    rng = np.random.default_rng(8)
    records = ShotBatch(rng.integers(1, 4, size=(10_000, 3)), rng.integers(0, 2, size=(10_000, 3)),
                        rng.integers(1, 4, size=10_000))
    path = tmp_path / "r.rec"
    write_records(str(path), records)
    assert parse_records(str(path)) == records


def test_records_reps_default(tmp_path):
    path = tmp_path / "r.rec"
    path.write_text("# shots\nXZY 010\nXZY 010 5\n")
    back = parse_records(str(path))
    assert back.reps.tolist() == [1, 5] and back.bits.tolist() == [[0, 1, 0], [0, 1, 0]]


@st.composite
def shot_batches(draw):
    n = draw(st.integers(1, 6))
    row = st.tuples(
        st.lists(st.integers(1, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.integers(1, (2 ** 53 - 1) // 20),  # 20 rows stay below 2^53 shots
    )
    letters, bits, reps = zip(*draw(st.lists(row, min_size=1, max_size=20)))
    # unit reps everywhere leave the reps column out of the whole file
    return ShotBatch(letters, bits, None if draw(st.booleans()) else reps)


@settings(max_examples=60, deadline=None)
@given(shot_batches())
def test_records_round_trip_property(batch):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/r.rec"
        write_records(path, batch)
        assert parse_records(path) == batch


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("XZY 02Y\n", "0/1"),
        ("XZY 01\n", "0/1"),
        ("XZY 010 0\n", ">= 1"),
        ("XZY 010 x\n", "bad reps"),
        ("XZY 010 1 9\n", "record lines"),
        ("XZY 010\nXZ 01\n", "does not fit"),
        ("XQY 010\n", "letter"),
        ("XIY 010\n", "identity"),
    ],
)
def test_records_parse_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.rec"
    path.write_text(content)
    with pytest.raises(FormatError) as err:
        parse_records(str(path))
    assert fragment in str(err.value)


def test_records_of_2_to_the_53_shots_or_more_name_the_file(tmp_path):
    # 2 x 2^62 shots wrap an int64 total to -2^63
    path = tmp_path / "r.rec"
    path.write_text(f"XZ 01 {2 ** 62}\nZZ 00 {2 ** 62}\n")
    with pytest.raises(FormatError) as err:
        parse_records(str(path))
    assert str(err.value) == f"{path}:1: reps add up to 2^53 shots or more"
    path.write_text(f"XZ 01 {2 ** 52}\nZZ 00 {2 ** 52 - 1}\n")
    assert parse_records(str(path)).shots == 2 ** 53 - 1


def test_write_records_bytes_are_the_line_format():
    batch = ShotBatch([[1, 2, 3], [3, 3, 1], [2, 1, 1]], [[0, 1, 0], [1, 1, 1], [0, 0, 1]],
                      [1, 12, 2 ** 53 - 14])  # 2^53 - 1 shots in all, the most a batch holds
    with tempfile.TemporaryDirectory() as tmp:
        for rows in (batch, ShotBatch(batch.letters, batch.bits)):
            write_records(f"{tmp}/r.rec", rows)
            with open(f"{tmp}/r.rec", "rb") as fh:
                assert fh.read().decode() == "".join(
                    f"{PauliString.from_codes(codes)} {''.join(map(str, bits))}"
                    f"{f' {reps}' if reps > 1 else ''}\n"
                    for codes, bits, reps in zip(rows.letters, rows.bits, rows.reps))


def test_record_separators_are_the_ascii_isspace_set():
    codes = np.arange(256, dtype=np.uint8)
    np.testing.assert_array_equal(_separators(codes), [c < 128 and chr(c).isspace() for c in range(256)])


def test_records_non_ascii_comment_is_accepted(tmp_path):
    path = tmp_path / "r.rec"
    path.write_text("# café, ψ and a non-breaking\u00a0space\n  #\u2003indented\nXZ 01\n#é\n")
    assert parse_records(str(path)) == ShotBatch([[1, 3]], [[0, 1]])


@pytest.mark.parametrize("line", ["XZ\u00a001", "XZ 0é", "\u2003XZ 01", "\u2003# not a comment"])
def test_records_non_ascii_record_line_names_its_line(tmp_path, line):
    path = tmp_path / "r.rec"
    path.write_text(f"# header\nXZ 01 3\n{line}\nXZ Q1\n")
    with pytest.raises(FormatError) as err:
        parse_records(str(path))
    assert str(err.value) == f"{path}:3: record lines must be ASCII"


# read sizes for the chunked parser: tiny ones put chunk edges inside every
# kind of line and between the bytes of a \r\n
_CHUNK_SIZES = (1, 2, 3, 5, formats._CHUNK_BYTES)
# the ASCII characters str.isspace() accepts, less the line endings \n and \r
_GAPS = " \t\v\f\x1c\x1d\x1e\x1f"
_CORRUPTIONS = ("none", "count", "reps", "range", "empty", "length", "letter", "identity",
                "bits-length", "bits")


@st.composite
def record_files(draw, kind):
    """Record file text mixing every separator, line ending, blank and
    comment form and reps spelling, with a record line corrupted as `kind`
    says and perhaps a second one in another way."""
    n = draw(st.integers(1, 5))
    word = lambda alphabet, size: draw(st.text(alphabet=alphabet, min_size=size, max_size=size))
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        form = draw(st.sampled_from(("record", "record", "record", "blank", "comment")))
        if form == "record":
            tokens = [word("XYZ", n), word("01", n)]
            tokens += draw(st.sampled_from(([], [], ["1"], ["3"], ["+5"], ["5_0"], ["007"],
                                            [str(2 ** 63 - 1)])))
        elif form == "blank":
            tokens = []
        else:
            tokens = draw(st.sampled_from((["#"], ["#", "XZ", "01"], ["#XZ", "01"], ["#x"],
                                           ["#é", "ψ\u00a0\u2028"], ["##", "0"])))
        lines.append(tokens)
    records = [k for k, tokens in enumerate(lines) if tokens and tokens[0][0] != "#"]
    if kind == "empty":
        lines = [tokens for k, tokens in enumerate(lines) if k not in records]
    elif kind != "none":
        if not records:
            lines.append([word("XYZ", n), word("01", n)])
            records = [len(lines) - 1]
        # a count corruption may drop tokens, so it is never followed by another
        extra = st.sampled_from(_CORRUPTIONS[2:4] + _CORRUPTIONS[5:])
        for kind in draw(st.lists(extra, max_size=2)) + [kind]:
            tokens = lines[draw(st.sampled_from(records))]
            at = draw(st.integers(0, n - 1))
            if kind == "count":
                tokens[:] = draw(st.sampled_from((tokens[:1], tokens[:2] + ["2", "9"])))
            elif kind in ("reps", "range"):
                tokens[2:] = [draw(st.sampled_from(
                    ("x", "2**63", "1.0", "0x10", "#c", "--1") if kind == "reps"
                    else ("0", "-3", "+0", "-0", str(2 ** 63), "9" * 30)))]
            elif kind == "length":
                tokens[0] = draw(st.sampled_from((tokens[0] + "X", tokens[0][1:] or "XY")))
            elif kind in ("letter", "identity"):
                bad = "I" if kind == "identity" else draw(st.sampled_from("Qxi0\x00\x7f"))
                tokens[0] = tokens[0][:at] + bad + tokens[0][at + 1:]
            elif kind == "bits-length":
                tokens[1] = draw(st.sampled_from((tokens[1] + "0", tokens[1][1:] or "01")))
            else:
                bad = draw(st.sampled_from("2a/\x00"))
                tokens[1] = tokens[1][:at] + bad + tokens[1][at + 1:]
    gap = st.text(alphabet=_GAPS, min_size=1, max_size=3)
    pad = st.text(alphabet=_GAPS, max_size=2)
    text = ""
    for tokens in lines:
        text += draw(pad) + "".join(t + draw(gap) for t in tokens[:-1]) + "".join(tokens[-1:])
        text += draw(pad) + draw(st.sampled_from(("\n", "\r\n", "\r")))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def _parse_outcome(parse, path):
    try:
        return parse(path)
    except (FormatError, EmptyInput) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("content,lineno,fragment", [
    ("XZ 01 1 9\nXZ 01 x\n", 1, "record lines"),
    ("XZ 01 x\nXZ\n", 1, "bad reps"),
    ("XZ 01 0\nXZ 01 x\n", 1, ">= 1"),
    ("XZ\u00a001\nXZ 01 x\n", 1, "ASCII"),
    ("XZ 01 x\nXZ\u00a001\n", 1, "bad reps"),
    ("XZ\nXZ 01 1 9\n", 1, "record lines"),
    ("XZ 01\nXZ 01 1 9\nXQ 01\nXZ 01 x\n", 2, "record lines"),
    ("XZ 0\nXI 01\nXQ 01\nXYZ 01\n", 4, "does not fit"),
    ("XZ 0\nXI 01\nXQ 01\n", 3, "letter"),
    ("XZ 02\nXZ 0\nXI 01\n", 3, "identity"),
    ("XZ 02\nXZ 0\n", 2, "0/1"),
    ("XQ 01\nXZ 0\nXZ 01\nXZ 01 x\n", 4, "bad reps"),
    ("XZ 01\nXZ 0\nXQ 01\n\nXZ 01\nZI 01\n", 3, "letter"),
])
def test_parse_records_reports_the_first_error_in_order(tmp_path, content, lineno, fragment):
    # at chunks of a few bytes every line is read in pieces, and an error
    # held from one chunk meets the errors of the chunks after it
    path = tmp_path / "bad.rec"
    path.write_text(content)
    for chunk in _CHUNK_SIZES:
        with pytest.raises(FormatError) as err, pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_CHUNK_BYTES", chunk)
            parse_records(str(path))
        assert str(err.value).startswith(f"{path}:{lineno}: ") and fragment in str(err.value)
        if "ASCII" not in fragment:
            assert _parse_outcome(parse_records_loop, str(path)) == (FormatError, str(err.value))


@pytest.mark.parametrize("kind", _CORRUPTIONS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), chunk=st.sampled_from(_CHUNK_SIZES))
def test_parse_records_matches_the_line_loop(kind, data, chunk):
    text = data.draw(record_files(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/r.rec"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_CHUNK_BYTES", chunk)
            got = _parse_outcome(parse_records, path)
        want = _parse_outcome(parse_records_loop, path)
    assert got == want
    if kind == "empty":
        assert want == (EmptyInput, f"{path}: no record lines")


@pytest.mark.parametrize("chunk", _CHUNK_SIZES)
def test_chunk_edges_inside_lines_and_line_ends(tmp_path, chunk):
    # line ends of every kind, a \r\n on each byte offset, a comment longer
    # than a chunk, and a last line with no line end
    lines = ["# " + "c" * 40, "XZY 010", "", "YYX 111 12", "\t# x", "ZZZ 000 3", "XXY 101"]
    for end in ("\n", "\r\n", "\r"):
        text = "".join(line + end for line in lines[:-1]) + lines[-1]
        path = tmp_path / "r.rec"
        path.write_bytes(text.encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(formats, "_CHUNK_BYTES", chunk)
            got = parse_records(str(path))
        assert got == parse_records_loop(str(path))
        assert got.reps.tolist() == [1, 12, 3, 1]
    # a bits error held from line 2 gives way to a letter error on line 3
    path.write_bytes(b"XZY 010\r\nXZY 0" + b"\r\nXQY 010" * 3)
    with pytest.raises(FormatError, match=r":3: invalid Pauli letter in 'XQY'$"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_CHUNK_BYTES", chunk)
        parse_records(str(path))


def test_parsed_arrays_fit_the_rows(tmp_path):
    # the length bound over-reserves for comments and reps columns; the
    # batch keeps exactly its rows
    path = tmp_path / "r.rec"
    path.write_text("# " + "x" * 500 + "\nXZ 01 7\nZZ 11\n")
    batch = parse_records(str(path))
    assert batch.letters.shape == batch.bits.shape == (2, 2) and batch.reps.shape == (2,)
    assert batch.reps.tolist() == [7, 1] and not batch.letters.flags.writeable


def test_records_from_a_pipe_grow_their_arrays(tmp_path):
    # a pipe reports no length, so the arrays start empty and grow
    path = tmp_path / "r.fifo"
    os.mkfifo(path)
    text = "".join(f"XZ {k % 2}{k // 2 % 2}\n" for k in range(5000))

    def write():
        with open(path, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        got = parse_records(str(path))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    expected = tmp_path / "r.rec"
    expected.write_text(text)
    assert got == parse_records(str(expected)) and len(got) == 5000


def test_parse_and_estimate_memory_is_bounded(tmp_path):
    # 200,000 records of 10 bytes; the batch holds 16 bytes per row, and the
    # whole-file tokenizer peaked at 12x the file
    h = builtin_hamiltonian("lattice4")
    plan = plan_ldf(h)
    rho = admix_white_noise(ghz(4), 0.1)
    path = str(tmp_path / "r.rec")
    write_records(path, _cell_records(rho, plan, 40_000, 5, np.random.SeedSequence(8)))
    size = os.path.getsize(path)
    assert size == 2_000_000
    tracemalloc.start()
    try:
        report = estimate(parse_records(path), plan, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_samples == 200_000 and peak <= 3 * size


def test_undecodable_bytes_in_comments_and_record_lines(tmp_path):
    path = tmp_path / "r.rec"
    path.write_bytes(b"# caf\xe9 \xff\xfe\nXZ 01\n#\xe9\n")
    assert parse_records(str(path)) == ShotBatch([[1, 3]], [[0, 1]])
    path.write_bytes(b"# caf\xe9\nXZ 01\nXZ 0\xe9\n")
    with pytest.raises(FormatError) as err:
        parse_records(str(path))
    assert str(err.value) == f"{path}:3: record lines must be ASCII"


def test_undecodable_bytes_in_hamiltonian_and_plan_files(tmp_path):
    ham = tmp_path / "h.ham"
    ham.write_bytes(b"n 2\n# caf\xe9\n1.0 XZ\n")
    with pytest.raises(FormatError) as err:
        parse_hamiltonian(str(ham))
    assert str(err.value) == f"{ham}:2: undecodable byte 0xe9"
    plan = tmp_path / "p.json"
    plan.write_bytes(b'{"scheme": "caf\xe9"}')
    with pytest.raises(FormatError) as err:
        read_plan(str(plan))
    assert str(err.value).startswith(f"{plan}: ")


def test_builtin_lattice4_structure():
    lat = builtin_hamiltonian("lattice4")
    assert lat.n == 4
    assert len(lat) == 20
    assert lat.l1_norm == pytest.approx(5.0)
    # spot-check the bond structure: a ZZ bond on sites (0, 1) and wraparound
    assert P("ZZII") in lat.paulis
    assert P("YIIZ") in lat.paulis or P("ZIIY") in lat.paulis
    assert P("XIII") in lat.paulis


def test_builtin_cluster4_structure():
    clu = builtin_hamiltonian("cluster4")
    assert clu.n == 4
    assert len(clu) == 12
    assert P("ZXZI") in clu.paulis
    assert P("YYII") in clu.paulis
    with pytest.raises(ValueError):
        builtin_hamiltonian("ring5")


def test_hydrogen_builtins_share_a_spectrum():
    spectra = {}
    for name in ("h2_jw", "h2_parity", "h2_bk"):
        h = load_hamiltonian(f"builtin:{name}")
        assert h.n == 4
        assert len(h) == 15
        spectra[name] = np.linalg.eigvalsh(h.to_matrix())
    for name in ("h2_parity", "h2_bk"):
        np.testing.assert_allclose(spectra[name], spectra["h2_jw"], atol=1e-8)
    # electronic ground state energy; identity carries no nuclear repulsion
    assert spectra["h2_jw"][0] == pytest.approx(-1.851046, abs=2e-5)
    jw = load_hamiltonian("builtin:h2_jw")
    idx = jw.paulis.index(P("IIII"))
    assert jw.coeffs[idx] == pytest.approx(-0.81261, abs=1e-8)


def test_load_hamiltonian_sources(tmp_path):
    with pytest.raises(ValueError):
        load_hamiltonian("builtin:unknown")
    with pytest.raises(OSError):
        load_hamiltonian(str(tmp_path / "missing.ham"))
    path = tmp_path / "h.ham"
    write_hamiltonian(str(path), builtin_hamiltonian("cluster4"))
    assert load_hamiltonian(str(path)).paulis == builtin_hamiltonian("cluster4").paulis


def plans_for_round_trip():
    o = WeightedPauliSum(
        2, [(0.6, P("ZX")), (-0.4, P("XI")), (0.3, P("YY"))]
    )
    return [
        plan_l1(o),
        plan_ldf(o),
        plan_uniform_cs(2),
        plan_lbcs(o),
        plan_derandomized(o, 5),
    ]


@pytest.mark.parametrize("plan", plans_for_round_trip(), ids=lambda p: p.scheme)
def test_plan_json_round_trip(tmp_path, plan):
    path = tmp_path / "plan.json"
    write_plan(str(path), plan)
    back = read_plan(str(path))
    assert back.scheme == plan.scheme
    assert back.n == plan.n
    assert back.terms == plan.terms
    assert back.members == plan.members
    assert back.fixed_bases == plan.fixed_bases
    assert back.converged == plan.converged
    assert back.unhit_terms == plan.unhit_terms
    if plan.distribution is None:
        assert back.distribution is None
    elif plan.distribution.kind == "explicit":
        assert back.distribution.explicit == plan.distribution.explicit
    else:
        np.testing.assert_array_equal(
            back.distribution.product, plan.distribution.product
        )


def test_plan_dict_survives_json_floats():
    plan = plan_lbcs(WeightedPauliSum(2, [(1.0, P("ZX")), (0.3, P("XZ"))]))
    d = plan_to_dict(plan)
    back = plan_from_dict(d)
    np.testing.assert_array_equal(back.distribution.product, plan.distribution.product)


def test_read_plan_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        read_plan(str(bad))
    missing = tmp_path / "missing_key.json"
    missing.write_text('{"scheme": "l1"}')
    with pytest.raises(FormatError, match="bad plan file"):
        read_plan(str(missing))


@st.composite
def observables(draw):
    """Random observables on n = 1..5 qubits: distinct non-identity terms
    with coefficients of either sign."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any),
                         min_size=1, max_size=8, unique_by=tuple))
    coeffs = draw(st.lists(st.floats(0.01, 2.0), min_size=len(rows), max_size=len(rows)))
    signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=len(rows), max_size=len(rows)))
    return WeightedPauliSum(n, [(s * c, PauliString.from_codes(r))
                                for s, c, r in zip(signs, coeffs, rows)])


@settings(max_examples=40, deadline=None)
@given(observables(), st.sampled_from(("l1", "ldf", "cs", "lbcs", "derand")), st.integers(1, 6))
def test_plan_round_trip_property(o, scheme, ns):
    plan = {"l1": lambda: plan_l1(o), "ldf": lambda: plan_ldf(o),
            "cs": lambda: plan_uniform_cs(o.n), "lbcs": lambda: plan_lbcs(o),
            "derand": lambda: plan_derandomized(o, ns)}[scheme]()
    with tempfile.TemporaryDirectory() as tmp:
        write_plan(f"{tmp}/plan.json", plan)
        back = read_plan(f"{tmp}/plan.json")
    for name in ("scheme", "n", "terms", "members", "fixed_bases", "converged", "unhit_terms"):
        assert getattr(back, name) == getattr(plan, name)
    np.testing.assert_array_equal(back.letters, plan.letters)
    assert back.letters.dtype == plan.letters.dtype
    if plan.distribution is None:
        assert back.distribution is None
    elif plan.distribution.kind == "explicit":
        assert back.distribution.explicit == plan.distribution.explicit
    else:
        np.testing.assert_array_equal(back.distribution.product, plan.distribution.product)


@settings(max_examples=60, deadline=None)
@given(observables(), st.lists(st.floats(allow_nan=False, allow_infinity=False).filter(bool),
                               min_size=8, max_size=8),
       st.text(alphabet="abc #\n", max_size=20))
def test_hamiltonian_round_trip_property(o, coeffs, comment):
    h = WeightedPauliSum(o.n, list(zip(coeffs, o.paulis)))
    with tempfile.TemporaryDirectory() as tmp:
        write_hamiltonian(f"{tmp}/h.ham", h, comment=comment)
        back = parse_hamiltonian(f"{tmp}/h.ham")
    assert (back.n, back.coeffs, back.paulis) == (h.n, h.coeffs, h.paulis)
    np.testing.assert_array_equal(back.letters, h.letters)
