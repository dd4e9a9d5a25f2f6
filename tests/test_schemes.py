"""Measurement-plan builders: worked examples and structural invariants."""

import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumtools import plan_derandomized_loop
from paulimeter import schemes
from paulimeter.errors import DegenerateObservable, PlanMismatch
from paulimeter.experiments import default_observable_pool
from paulimeter.paulis import PauliString, WeightedPauliSum, hits
from paulimeter.formats import builtin_hamiltonian, read_plan, write_plan
from paulimeter.schemes import (
    BasisDistribution,
    MeasurementPlan,
    derandomization_cost,
    draw_bases,
    draw_basis,
    plan_derandomized,
    plan_l1,
    plan_ldf,
    plan_lbcs,
    plan_uniform_cs,
)
P = PauliString.from_text


def entry_map(plan):
    return {str(b): p for b, p in plan.distribution.explicit}


def test_plan_l1_entries_and_probs():
    o = WeightedPauliSum(2, [(0.5, P("ZZ")), (0.25, P("XI")), (-0.25, P("YY"))])
    plan = plan_l1(o)
    assert plan.scheme == "l1"
    # XI is completed with the Z fill on its free site
    assert entry_map(plan) == pytest.approx({"ZZ": 0.5, "XZ": 0.25, "YY": 0.25})
    assert plan.members == ((0,), (1,), (2,))
    assert sum(p for _, p in plan.distribution.explicit) == pytest.approx(1.0)


def test_plan_l1_fill_collision_moves_to_next_fill():
    o = WeightedPauliSum(2, [(0.5, P("XZ")), (0.5, P("XI"))])
    plan = plan_l1(o)
    bases = [str(b) for b, _ in plan.distribution.explicit]
    assert bases == ["XZ", "XX"]
    assert plan.members == ((0,), (1,))


def test_plan_l1_exhausted_fills_merge_into_z_entry():
    o = WeightedPauliSum(
        1, [(0.4, P("Z")), (0.3, P("X")), (0.2, P("Y")), (0.1, P("I"))]
    )
    plan = plan_l1(o)
    assert entry_map(plan) == pytest.approx({"Z": 0.5, "X": 0.3, "Y": 0.2})
    assert plan.members == ((0, 3), (1,), (2,))


def test_plan_l1_rejects_empty():
    with pytest.raises(DegenerateObservable):
        plan_l1(WeightedPauliSum(2, []))


def test_plan_ldf_worked_example():
    o = WeightedPauliSum(
        2, [(1.0, P("ZZ")), (0.5, P("ZI")), (0.25, P("IZ")), (0.25, P("XX"))]
    )
    plan = plan_ldf(o)
    assert plan.scheme == "ldf"
    assert len(plan.members) == 2
    # XX has the highest incompatibility degree so it seeds the first group
    assert plan.members == ((3,), (0, 1, 2))
    assert [str(b) for b, _ in plan.distribution.explicit] == ["XX", "ZZ"]
    probs = [p for _, p in plan.distribution.explicit]
    assert probs == pytest.approx([0.25 / 2.0, 1.75 / 2.0])


def test_plan_ldf_single_group_when_all_compatible():
    o = WeightedPauliSum(2, [(1.0, P("ZI")), (0.5, P("IZ")), (0.25, P("ZZ"))])
    plan = plan_ldf(o)
    assert len(plan.members) == 1
    assert str(plan.distribution.explicit[0][0]) == "ZZ"
    assert plan.members == ((0, 1, 2),)
    assert [p for _, p in plan.distribution.explicit] == pytest.approx([1.0])


def test_plan_ldf_partition_and_hit_invariants():
    lat = builtin_hamiltonian("lattice4")
    plan = plan_ldf(lat)
    seen = sorted(i for grp in plan.members for i in grp)
    assert seen == list(range(len(lat)))
    for grp, (basis, _) in zip(plan.members, plan.distribution.explicit):
        for idx in grp:
            assert hits(basis, lat.paulis[idx])
    assert len(plan.members) < len(lat)


def test_plan_uniform_cs():
    plan = plan_uniform_cs(3)
    assert plan.scheme == "cs"
    assert plan.distribution.kind == "product"
    np.testing.assert_allclose(plan.distribution.product, np.full((3, 3), 1.0 / 3.0))


def test_plan_lbcs_single_term_concentrates():
    o = WeightedPauliSum(2, [(1.0, P("XX"))])
    plan = plan_lbcs(o)
    assert plan.scheme == "lbcs"
    assert plan.converged is True
    q = plan.distribution.product
    # the optimizer keeps a tiny floor on unused letters
    np.testing.assert_allclose(q[:, 0], [1.0, 1.0], atol=1e-5)  # X column
    np.testing.assert_allclose(q.sum(axis=1), [1.0, 1.0], atol=1e-12)


def diagonal_cost(q, o):
    # single-shot second moment at the maximally mixed state
    total = 0.0
    for c, term in o:
        f = c * c
        for i in term.support:
            f /= q[i, term.code(i) - 1]
        total += f
    return total


def test_plan_lbcs_beats_uniform_on_lattice():
    lat = builtin_hamiltonian("lattice4")
    plan = plan_lbcs(lat)
    q = plan.distribution.product
    np.testing.assert_allclose(q.sum(axis=1), np.ones(4), atol=1e-10)
    assert np.all(q >= -1e-15)
    uniform = np.full((4, 3), 1.0 / 3.0)
    assert diagonal_cost(q, lat) <= diagonal_cost(uniform, lat) + 1e-9


def test_plan_lbcs_sweep_limit_flag(monkeypatch):
    lat = builtin_hamiltonian("lattice4")
    assert plan_lbcs(lat).converged is True
    monkeypatch.setattr(schemes, "_LBCS_SWEEPS", 1)
    assert plan_lbcs(lat).converged is False


def test_plan_derandomized_balanced_pair():
    o = WeightedPauliSum(2, [(1.0, P("ZZ")), (1.0, P("XX"))])
    plan = plan_derandomized(o, 6)
    assert plan.scheme == "derand"
    assert plan.unhit_terms == ()
    counts = collections.Counter(str(b) for b in plan.fixed_bases)
    assert set(counts) == {"ZZ", "XX"}
    assert counts["ZZ"] == counts["XX"] == 3


def test_plan_derandomized_single_term_and_free_site():
    o = WeightedPauliSum(3, [(1.0, P("XYZ"))])
    plan = plan_derandomized(o, 3)
    assert [str(b) for b in plan.fixed_bases] == ["XYZ", "XYZ", "XYZ"]
    o2 = WeightedPauliSum(2, [(1.0, P("ZI"))])
    plan2 = plan_derandomized(o2, 2)
    for b in plan2.fixed_bases:
        assert hits(b, P("ZI"))
    assert plan2.unhit_terms == ()


def test_plan_derandomized_covers_lattice():
    lat = builtin_hamiltonian("lattice4")
    plan = plan_derandomized(lat, 50)
    assert len(plan.fixed_bases) == 50
    assert plan.unhit_terms == ()


def test_derandomization_cost_nonincreasing_along_greedy_prefix():
    lat = builtin_hamiltonian("lattice4")
    ns = 30
    plan = plan_derandomized(lat, ns)
    costs = [
        derandomization_cost(lat, 0.9, ns, list(plan.fixed_bases[:j]))
        for j in range(ns + 1)
    ]
    for before, after in zip(costs, costs[1:]):
        assert after <= before + 1e-12


def test_plan_derandomized_validation():
    o = WeightedPauliSum(2, [(1.0, P("ZZ"))])
    with pytest.raises(ValueError):
        plan_derandomized(o, 0)
    with_id = WeightedPauliSum(2, [(1.0, P("ZZ")), (0.5, P("II"))])
    with pytest.raises(DegenerateObservable):
        plan_derandomized(with_id, 4)


def test_draw_bases_deterministic_and_distributed():
    o = WeightedPauliSum(2, [(0.5, P("ZZ")), (0.25, P("XI")), (-0.25, P("YY"))])
    plan = plan_l1(o)
    a = draw_bases(plan, 4000, 7)
    b = draw_bases(plan, 4000, 7)
    np.testing.assert_array_equal(a, b)
    counts = collections.Counter(str(PauliString.from_codes(x)) for x in a)
    for basis, prob in entry_map(plan).items():
        sigma = np.sqrt(prob * (1 - prob) * 4000)
        assert abs(counts[basis] - 4000 * prob) < 5 * sigma


def test_draw_bases_product_distribution():
    plan = plan_uniform_cs(2)
    drawn = draw_bases(plan, 9000, 3)
    counts = collections.Counter(str(PauliString.from_codes(x)) for x in drawn)
    assert len(counts) == 9
    for c in counts.values():
        assert abs(c - 1000) < 5 * np.sqrt(1000 * (1 - 1.0 / 9.0))


def test_draw_bases_derandomized_alignment():
    o = WeightedPauliSum(2, [(1.0, P("ZZ")), (1.0, P("XX"))])
    plan = plan_derandomized(o, 4)
    assert [PauliString.from_codes(x) for x in draw_bases(plan, 4, 0)] == list(plan.fixed_bases)
    with pytest.raises(PlanMismatch):
        draw_bases(plan, 5, 0)
    assert draw_basis(plan, 2) == plan.fixed_bases[2]
    with pytest.raises(PlanMismatch):
        draw_basis(plan, 4)


def test_basis_distribution_validation():
    with pytest.raises(ValueError):
        BasisDistribution("explicit", explicit=((P("ZI"), 1.0),))
    with pytest.raises(ValueError):
        BasisDistribution("explicit", explicit=((P("ZZ"), 0.5),))
    with pytest.raises(ValueError):
        BasisDistribution("product", product=np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        BasisDistribution("other")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_basis_distribution_rejects_non_finite_probabilities(bad):
    # NaN passes both a sign test and a sum test, as every comparison with it is false
    with pytest.raises(ValueError, match="finite"):
        BasisDistribution("explicit", explicit=((P("ZZ"), bad), (P("XX"), 0.5)))
    with pytest.raises(ValueError, match="finite"):
        BasisDistribution("product", product=np.array([[bad, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]]))


@pytest.mark.parametrize("name", ["lattice4", "pool"])
def test_derandomized_letters_minimize_the_oracle_cost(name):
    if name == "lattice4":
        o = builtin_hamiltonian("lattice4")
    else:
        rng = np.random.default_rng(5)
        pool = default_observable_pool(5, count=24, seed=2)
        o = WeightedPauliSum(5, [(float(rng.normal()), p) for p in pool])
    ns, eps = 30, 0.9
    plan = plan_derandomized(o, ns, eps)
    for j, basis in enumerate(plan.fixed_bases):
        done = list(plan.fixed_bases[:j])
        for i in range(o.n):
            partial = {k: basis.code(k) for k in range(i)}
            costs = {w: derandomization_cost(o, eps, ns, done, {**partial, i: w}) for w in (1, 2, 3)}
            assert costs[basis.code(i)] <= min(costs.values()) + 1e-12, (j, i, costs)


def test_measurement_plan_checks_its_fields():
    terms = (P("ZZ"), P("XI"))
    explicit = BasisDistribution("explicit", explicit=((P("ZZ"), 0.5), (P("XZ"), 0.5)))
    product = BasisDistribution("product", product=np.full((2, 3), 1 / 3))
    # explicit plans built in code may leave out members
    MeasurementPlan(scheme="l1", n=2, terms=terms, distribution=explicit)
    bad = [
        dict(scheme="bogus", distribution=product),
        dict(scheme="derand"),
        dict(scheme="derand", fixed_bases=(P("ZZ"),), distribution=product),
        dict(scheme="cs"),
        dict(scheme="lbcs", distribution=BasisDistribution("product", product=np.full((3, 3), 1 / 3))),
        dict(scheme="derand", fixed_bases=(P("ZZZ"),)),
        dict(scheme="l1", distribution=BasisDistribution("explicit", explicit=((P("ZZZ"), 1.0),))),
        dict(scheme="l1", distribution=explicit, members=((0,), (2,))),
    ]
    for fields in bad:
        with pytest.raises(ValueError):
            MeasurementPlan(**{"n": 2, "terms": terms, **fields})
    with pytest.raises(ValueError):
        MeasurementPlan(scheme="cs", n=2, terms=(P("ZZZ"),), distribution=product)
    with pytest.raises(ValueError):
        MeasurementPlan(scheme="cs", n=0, distribution=product)


def test_draw_bases_rejects_an_empty_count():
    with pytest.raises(ValueError, match="ns must be >= 1"):
        draw_bases(plan_uniform_cs(2), 0, 1)


def letter_test_plans():
    o = WeightedPauliSum(3, [(0.5, P("ZZI")), (0.25, P("XIY")), (-0.25, P("IYY"))])
    return [plan_l1(o), plan_ldf(o), plan_uniform_cs(3), plan_lbcs(o), plan_derandomized(o, 4)]


@pytest.mark.parametrize("plan", letter_test_plans(), ids=lambda p: p.scheme)
def test_plan_letters_stack_the_plan_bases(plan):
    from paulimeter.formats import plan_to_dict

    if plan.scheme == "derand":
        bases = plan.fixed_bases
    elif plan.distribution.kind == "explicit":
        bases = [b for b, _ in plan.distribution.explicit]
    else:
        bases = []
    assert plan.letters.dtype == np.int8 and plan.letters.shape == (len(bases), 3)
    np.testing.assert_array_equal(plan.letters, np.array([b.codes() for b in bases]).reshape(-1, 3))
    with pytest.raises(ValueError):
        plan.letters[...] = 1
    assert "letters" not in repr(plan) and "letters" not in plan_to_dict(plan)
    if plan.scheme == "derand":
        # an array field in == would raise on the ambiguous truth value
        rebuilt = MeasurementPlan("derand", 3, plan.terms, fixed_bases=plan.fixed_bases,
                                  unhit_terms=plan.unhit_terms)
        assert rebuilt == plan


@pytest.mark.parametrize("plan", letter_test_plans(), ids=lambda p: p.scheme)
def test_draw_bases_returns_a_letter_array(plan):
    count = 4
    drawn = draw_bases(plan, count, 11)
    assert drawn.dtype == np.int8 and drawn.shape == (count, 3)
    if plan.scheme == "derand":
        np.testing.assert_array_equal(drawn, plan.letters)
    elif plan.distribution.kind == "explicit":
        assert all(any((row == e).all() for e in plan.letters) for row in drawn)
    else:
        assert set(np.unique(drawn)) <= {1, 2, 3}


@st.composite
def derand_inputs(draw):
    """An observable on n = 1..8 qubits with 1..40 distinct terms of weight
    1..n, one site left to no term when ``free`` is drawn and n > 1."""
    n = draw(st.integers(1, 8))
    free = draw(st.none() | st.integers(0, n - 1)) if n > 1 else None
    sites = [i for i in range(n) if i != free]
    term = st.builds(lambda supp, letters: tuple(letters[i] if i in supp else 0 for i in range(n)),
                     st.sets(st.sampled_from(sites), min_size=1),
                     st.fixed_dictionaries({i: st.integers(1, 3) for i in sites}))
    rows = draw(st.lists(term, min_size=1, max_size=40, unique=True))
    return WeightedPauliSum(n, [(1.0, PauliString.from_codes(r)) for r in rows])


@settings(max_examples=60, deadline=None)
@given(derand_inputs(), st.integers(1, 300), st.sampled_from((0.3, 0.9, 2.0)))
@example(WeightedPauliSum(3, [(1.0, P("XIZ")), (1.0, P("YIZ")), (1.0, P("ZII"))]), 7, 0.9)
def test_plan_derandomized_equals_the_per_site_loop(o, ns, eps):
    plan = plan_derandomized(o, ns, eps)
    want = plan_derandomized_loop(o, ns, eps)
    assert plan.letters.tobytes() == want.letters.tobytes()
    assert plan.fixed_bases == want.fixed_bases
    assert plan.unhit_terms == want.unhit_terms


def letter_rows_observable(n):
    """Terms on n qubits that put every letter on the top site n - 1."""
    rows = [[0] * (n - 1) + [c] for c in (1, 2, 3)]
    if n > 1:
        rows += [[1 + (i + k) % 3 for i in range(n)] for k in range(3)]
    return WeightedPauliSum(n, [(0.5 + k, PauliString.from_codes(r)) for k, r in enumerate(rows)])


@pytest.mark.parametrize("n", [1, 4, 16])
def test_plan_letters_decode_the_bases_bit_planes(n, tmp_path):
    o = letter_rows_observable(n)
    plans = [plan_l1(o), plan_ldf(o), plan_uniform_cs(n), plan_lbcs(o), plan_derandomized(o, 9)]
    for plan in plans:
        write_plan(str(tmp_path / "plan.json"), plan)
        for p in (plan, read_plan(str(tmp_path / "plan.json"))):
            if p.scheme == "derand":
                bases = p.fixed_bases
            elif p.distribution.kind == "explicit":
                bases = [b for b, _ in p.distribution.explicit]
            else:
                bases = []
            assert p.letters.dtype == np.int8 and p.letters.shape == (len(bases), n)
            for row, basis in zip(p.letters, bases):
                np.testing.assert_array_equal(row, basis.codes())
                assert "".join("IXYZ"[c] for c in row) == basis.letters
    assert {row[-1] for p in plans for row in p.letters} == {1, 2, 3}
