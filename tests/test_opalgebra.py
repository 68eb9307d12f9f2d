import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import naive_normal_order
from spinstat.fockspace import build_basis, matrix_of
from spinstat.modes import Lattice, Mode, ModeSpace, SpinQuantum
from spinstat.opalgebra import (
    LadderOp,
    OperatorExpr,
    OperatorTerm,
    create,
    destroy,
    expr_equal,
    normal_order,
    parse_expr,
    sigma_commutator,
    vacuum_expectation,
)

SPACE = ModeSpace(Lattice.ring(2), SpinQuantum(1))
MODES = SPACE.modes

ladder_strings = st.lists(
    st.tuples(st.integers(0, len(MODES) - 1), st.booleans()),
    min_size=0,
    max_size=6,
).map(lambda pairs: tuple(LadderOp(MODES[i], dag) for i, dag in pairs))


@pytest.mark.parametrize("sigma", [1, -1])
def test_mixed_commutator_same_mode(sigma):
    x = MODES[0]
    comm = sigma_commutator(destroy(x, sigma), create(x, sigma))
    assert expr_equal(comm, OperatorExpr.identity(sigma))


@pytest.mark.parametrize("sigma", [1, -1])
def test_mixed_commutator_different_modes(sigma):
    x, y = MODES[0], MODES[1]
    comm = sigma_commutator(destroy(x, sigma), create(y, sigma))
    assert expr_equal(comm, OperatorExpr.zero(sigma))


@pytest.mark.parametrize("sigma", [1, -1])
def test_creator_commutator_vanishes(sigma):
    x = MODES[0]
    comm = sigma_commutator(create(x, sigma), create(x, sigma))
    assert expr_equal(comm, OperatorExpr.zero(sigma))


def test_fermionic_square_vanishes():
    x = MODES[0]
    # [a, a]_{-1} = 2 a a must canonicalize to zero, i.e. a(x)^2 = 0
    comm = sigma_commutator(destroy(x, -1), destroy(x, -1))
    assert normal_order(comm).terms == ()
    assert normal_order(destroy(x, -1) * destroy(x, -1)).terms == ()


def test_bosonic_square_survives():
    x = MODES[0]
    assert not expr_equal(create(x, 1) * create(x, 1), OperatorExpr.zero(1))
    assert expr_equal(create(x, -1) * create(x, -1), OperatorExpr.zero(-1))


@pytest.mark.parametrize("sigma", [1, -1])
def test_normal_order_mixed_pair(sigma):
    x, y = MODES[0], MODES[1]
    # a(x) a+(y) -> delta(x,y) + sigma a+(y) a(x)
    canon = normal_order(destroy(x, sigma) * create(y, sigma))
    expected = float(sigma) * (create(y, sigma) * destroy(x, sigma))
    assert expr_equal(canon, expected)
    canon_same = normal_order(destroy(x, sigma) * create(x, sigma))
    expected_same = OperatorExpr.identity(sigma) + float(sigma) * (
        create(x, sigma) * destroy(x, sigma)
    )
    assert expr_equal(canon_same, expected_same)


def test_normal_order_sorts_creator_block_with_sign():
    early, late = MODES[0], MODES[2]
    swapped = create(late, -1) * create(early, -1)
    canon = normal_order(swapped)
    assert len(canon.terms) == 1
    term = canon.terms[0]
    assert term.coeff == -1
    assert term.factors == (LadderOp(early, True), LadderOp(late, True))


def test_normal_order_identity_unchanged():
    e = OperatorExpr.identity(1, 2.5 + 1j)
    assert normal_order(e).terms == e.terms


def test_normal_order_keeps_grade():
    x, y = MODES[0], MODES[1]
    for sigma in (1, -1):
        canon = normal_order(destroy(x, sigma) * create(y, sigma) * destroy(y, sigma))
        assert canon.sigma == sigma


def test_vacuum_expectation_identity():
    assert vacuum_expectation(OperatorExpr.identity(1)) == 1
    assert vacuum_expectation(OperatorExpr.identity(-1, 3j)) == 3j


@pytest.mark.parametrize("sigma", [1, -1])
def test_vacuum_expectation_number_like(sigma):
    x = MODES[0]
    assert vacuum_expectation(create(x, sigma) * destroy(x, sigma)) == 0


@pytest.mark.parametrize("sigma", [1, -1])
def test_vacuum_expectation_two_body(sigma):
    # <0| a(x2) a(x1) a+(y1) a+(y2) |0> = d(x1,y1) d(x2,y2) + sigma d(x1,y2) d(x2,y1)
    def delta(a, b):
        return 1.0 if a == b else 0.0

    for x1 in MODES[:3]:
        for x2 in MODES[:3]:
            for y1 in MODES[:3]:
                for y2 in MODES[:3]:
                    e = (
                        destroy(x2, sigma)
                        * destroy(x1, sigma)
                        * create(y1, sigma)
                        * create(y2, sigma)
                    )
                    want = delta(x1, y1) * delta(x2, y2) + sigma * delta(x1, y2) * delta(x2, y1)
                    assert vacuum_expectation(e) == pytest.approx(want)


def test_expr_equal_grade_mismatch():
    with pytest.raises(ValueError):
        expr_equal(OperatorExpr.identity(1), OperatorExpr.identity(-1))
    with pytest.raises(ValueError):
        sigma_commutator(OperatorExpr.identity(1), OperatorExpr.identity(-1))


def test_expr_equal_tolerance():
    a = OperatorExpr.identity(1, 1.0)
    b = OperatorExpr.identity(1, 1.0 + 5e-13)
    assert expr_equal(a, b)
    assert not expr_equal(a, OperatorExpr.identity(1, 1.0 + 1e-9))


def test_adjoint_reverses_and_conjugates():
    x, y = MODES[0], MODES[1]
    e = (2j) * (create(x, -1) * destroy(y, -1))
    dag = e.dagger()
    assert dag.terms[0].coeff == -2j
    assert dag.terms[0].factors == (LadderOp(y, True), LadderOp(x, False))
    assert expr_equal(dag.dagger(), e)


def test_sum_of_keeps_term_order():
    x, y = MODES[0], MODES[1]
    parts = [create(x, 1), 2.0 * destroy(y, 1), create(y, 1) * destroy(x, 1)]
    total = OperatorExpr.sum_of(1, parts)
    assert total.terms == (parts[0] + parts[1] + parts[2]).terms
    assert OperatorExpr.sum_of(1, []).terms == ()
    with pytest.raises(ValueError):
        OperatorExpr.sum_of(-1, parts)


def test_particle_shift():
    x = MODES[0]
    assert (create(x, 1) * destroy(x, 1)).particle_shift() == 0
    assert create(x, 1).particle_shift() == 1
    mixed = create(x, 1) + OperatorExpr.identity(1)
    assert mixed.particle_shift() is None


@pytest.mark.parametrize("sigma", [1, -1])
@given(factors=ladder_strings)
def test_confluence_against_naive_rewriter(sigma, factors):
    expr = OperatorExpr(sigma, (OperatorTerm(1.0 + 0.5j, factors),))
    ours = {t.factors: t.coeff for t in normal_order(expr).terms}
    oracle = naive_normal_order(expr)
    assert set(ours) == set(oracle)
    for key, coeff in oracle.items():
        assert ours[key] == pytest.approx(coeff)


@pytest.mark.parametrize("sigma", [1, -1])
@given(factors=ladder_strings)
def test_vacuum_expectation_matches_matrix_element(sigma, factors):
    expr = OperatorExpr(sigma, (OperatorTerm(1.0, factors),))
    symbolic = vacuum_expectation(expr)
    shift = expr.particle_shift()
    if shift != 0:
        assert symbolic == 0
        return
    vac = build_basis(SPACE, 0, sigma)
    mat = matrix_of(expr, vac, vac).matrix
    assert symbolic == pytest.approx(complex(mat[0, 0]), abs=1e-12)


def test_parse_round_trip():
    text = "a+(0,1) * a-(1,-1)"
    for sigma in (1, -1):
        expr = parse_expr(text, sigma)
        want = create(Mode(0, 1), sigma) * destroy(Mode(1, -1), sigma)
        assert expr_equal(expr, want)


def test_parse_coefficients_and_sums():
    expr = parse_expr("2 * a+(0,1) - (1+2j) * a-(1,-1) + 0.5", 1)
    want = (
        2.0 * create(Mode(0, 1), 1)
        - (1 + 2j) * destroy(Mode(1, -1), 1)
        + OperatorExpr.identity(1, 0.5)
    )
    assert expr_equal(expr, want)


def test_parse_unary_minus_and_phase():
    expr = parse_expr("-1j * a-(0,-1)", -1)
    want = (-1j) * destroy(Mode(0, -1), -1)
    assert expr_equal(expr, want)


def test_parse_rejects_garbage():
    for text in ("", "a+(0,1) a-(0,1)", "a+(0)", "* a-(0,1)", "a-(0,1) *", "2 +", "a?(0,1)"):
        with pytest.raises(ValueError):
            parse_expr(text, 1)
