import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit import (
    ExtensionSpec,
    HermitianOperator,
    LayoutError,
    SystemLayout,
    certify_indecomposable,
    certify_witness,
    choi_detected_ppt_state,
    choi_witness,
    collect_zero_set,
    expectation,
    extend_witness,
    extended_zero_set,
    has_spanning_property,
    is_psd,
    maximally_entangled_vector,
    min_product_expectation,
    partial_transpose,
    projector,
    random_density,
    random_psd,
    rng_from,
    span_rank,
    swap_witness,
)
import entwit.witness as witness_module
from integer_args import check_integer_case, integer_cases
from oracle_utils import (
    draw_separable,
    draw_unitary,
    min_product_expectation_bloch,
    min_product_reference,
    mixture_density,
    zero_harvest_reference,
    zero_harvest_stacked,
)


def _random_hermitian_22(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return HermitianOperator((g + g.conj().T) / 2, SystemLayout((2, 2), 1))


def test_expectation_matches_trace():
    op = _random_hermitian_22(0)
    rho = random_density(4, seed=1)
    rho = HermitianOperator(rho.mat, SystemLayout((2, 2), 1))
    assert expectation(op, rho) == pytest.approx(
        np.trace(op.mat @ rho.mat).real, abs=1e-13
    )


def test_expectation_rejects_stray_imaginary_part():
    op = _random_hermitian_22(2)
    crooked = np.array(
        [[1.0, 0.3], [0.8j, 1.0]], dtype=complex
    )
    big = np.kron(crooked, np.eye(2))
    with pytest.raises(Exception):
        expectation(op, big)


def test_seesaw_agrees_with_bloch_grid_oracle():
    for seed in range(3):
        op = _random_hermitian_22(100 + seed)
        report = min_product_expectation(op, restarts=24, seed=seed)
        oracle = min_product_expectation_bloch(op.mat)
        assert report.best_value == pytest.approx(oracle, abs=1e-6)


def test_seesaw_traces_are_monotone():
    op = _random_hermitian_22(55)
    report = min_product_expectation(op, restarts=8, seed=0)
    for trace in report.value_traces:
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-10)
        assert len(trace) % 2 == 0
    assert all(report.converged)
    assert len(report.restart_values) == 8
    assert report.best_value == pytest.approx(min(report.restart_values), abs=0.0)


def _assert_matches_reference(report, reference, op):
    tol = 1e-12 * np.linalg.norm(op.mat)
    ref_values = np.array([r[0] for r in reference])
    assert np.abs(np.array(report.restart_values) - ref_values).max() <= tol
    assert report.converged == tuple(r[4] for r in reference)
    assert [len(t) for t in report.value_traces] == [len(r[3]) for r in reference]
    for trace, ref in zip(report.value_traces, reference):
        assert np.abs(np.array(trace) - np.array(ref[3])).max() <= tol
    # several restarts reach the same minimum, so the lowest index only
    # agrees up to ties at the rounding level: each side's best restart
    # must be a best restart of the other
    best = int(np.argmin(report.restart_values))
    assert ref_values[best] <= ref_values.min() + tol
    assert report.restart_values[int(np.argmin(ref_values))] <= report.best_value + tol


@pytest.mark.parametrize("name", ["choi", "swap", "capped-choi"])
def test_lockstep_seesaw_matches_reference_descents(name, choi, swap, capped_choi):
    op = {"choi": choi, "swap": swap, "capped-choi": capped_choi}[name]
    report = min_product_expectation(op, seed=42)
    reference = min_product_reference(
        op.mat, *op.layout.parties, report.restarts, 42,
        abandon_tol=witness_module.ABANDON_FLOOR,
    )
    _assert_matches_reference(report, reference, op)


def test_capped_choi_restarts_stop_before_the_budget(capped_choi):
    # the minimum is reached on a continuum of product zeros, where the
    # vectors drift on long after the value is reached
    report = min_product_expectation(capped_choi, seed=42)
    assert sum(report.converged) >= 32
    assert sum(report.iterations) <= 32000 / 3
    assert [len(t) for t in report.value_traces] == [2 * k for k in report.iterations]


def _random_hermitian(dims, seed):
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


@pytest.mark.parametrize("shifted", [False, True], ids=["raw", "shifted"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "3x3"])
def test_abandonment_keeps_the_strict_product_minimum(dims, shifted):
    # the lock-step see-saw, abandonment included, keeps the product minimum
    # of strict descents that run until they settle; shifting by the product
    # minimum puts it at 0, where verdicts are made
    for seed in range(4):
        mat = _random_hermitian(dims, 300 + seed)
        if shifted:
            strict = min_product_reference(mat, *dims, 16, seed)
            mat = mat - min(r[0] for r in strict) * np.eye(len(mat))
        op = HermitianOperator(mat, SystemLayout(dims, 1))
        report = min_product_expectation(op, restarts=16, seed=seed)
        strict = min_product_reference(mat, *dims, 16, seed)
        gap = abs(report.best_value - min(r[0] for r in strict))
        assert gap <= 1e-11 * np.linalg.norm(mat)


def test_abandonment_leaves_restarts_settling_above_the_band_alone():
    # A strict witness whose product minimum sits 1e-2 ||W||_F above zero:
    # its restarts contract onto minima above the zero band, which the
    # abandonment rule must not take for a creep, so their flags, values and
    # traces are those of descents that are never abandoned.
    dims = (3, 3)
    mat = _random_hermitian(dims, [7, 3, 3, 10])
    shift = min(r[0] for r in min_product_reference(mat, *dims, 16, 0))
    mat = mat - (shift - 1e-2 * np.linalg.norm(mat)) * np.eye(len(mat))
    op = HermitianOperator(mat, SystemLayout(dims, 1))
    report = min_product_expectation(op, restarts=16, seed=42)
    assert min(report.iterations) >= witness_module.ABANDON_AFTER
    assert "abandoned" not in report.stops
    _assert_matches_reference(report, min_product_reference(mat, *dims, 16, 42), op)


def _harvest_case(name, target_count, max_descents, restarts=None):
    case_id = f"{name}-{target_count}-{max_descents}"
    if restarts is not None:
        case_id += f"-seesaw{restarts}"
    return pytest.param(name, target_count, max_descents, restarts, id=case_id)


@pytest.mark.parametrize(
    "name, target_count, max_descents, restarts",
    [
        _harvest_case("swap", 5, 7),
        _harvest_case("swap-gamma", 5, 7),
        _harvest_case("choi", 5, 7),
        _harvest_case("choi", 8, 7),
        # a see-saw report's restarts stand in for the first descents
        _harvest_case("swap", 5, 7, restarts=4),
        _harvest_case("choi", 5, 7, restarts=4),
        _harvest_case("choi", 8, 7, restarts=64),
        _harvest_case("swap", 16, 80, restarts=64),
        _harvest_case("choi", 36, 180, restarts=64),
    ],
)
def test_chunked_harvest_matches_sequential_reference(
    name, target_count, max_descents, restarts, choi, swap, monkeypatch
):
    op = {"swap": swap, "swap-gamma": partial_transpose(swap), "choi": choi}[name]
    seesaw = None if restarts is None else min_product_expectation(op, restarts, seed=42)
    started = []
    rng_from = witness_module.rng_from

    def recording_rng_from(seed, *key):
        started.append(key)
        return rng_from(seed, *key)

    monkeypatch.setattr(witness_module, "rng_from", recording_rng_from)
    zeros = collect_zero_set(
        op, target_count=target_count, max_descents=max_descents, seed=42, seesaw=seesaw
    )
    reference, descents_run = zero_harvest_reference(
        op.mat, *op.layout.parties, target_count, max_descents, 42,
        abandon_tol=witness_module.ABANDON_FLOOR,
    )
    assert len(zeros.vectors) == len(reference)
    for kept, ref in zip(zeros.vectors, reference):
        np.testing.assert_allclose(kept, ref, atol=1e-9)
    if zeros.span_rank == op.layout.total_dim > zeros.conjugated_rank:
        # the kept zeros span and their conjugates on B never do (swap's
        # partial transpose has zeros of rank 3 of 4), so the harvest goes on
        # along the same stream as a sequential harvest of 2 * target_count
        _, descents_run = zero_harvest_reference(
            op.mat, *op.layout.parties, 2 * target_count,
            max_descents, 42, abandon_tol=witness_module.ABANDON_FLOOR,
        )
    # each descent starts once, in order, and only those the sequential
    # harvest runs: never an index at or past the budget, and none that the
    # see-saw report already holds
    assert [key[0] for key in started] == list(range(restarts or 0, descents_run))
    assert all(key[0] < max_descents for key in started)
    if restarts is not None:
        other = min_product_expectation(op, restarts, seed=43)
        with pytest.raises(ValueError):
            collect_zero_set(op, target_count=target_count, seed=42, seesaw=other)


def test_harvest_seed_defaults_to_the_report_seed(swap):
    report = min_product_expectation(swap, restarts=8, seed=5)
    implied = collect_zero_set(swap, target_count=6, seesaw=report)
    explicit = collect_zero_set(swap, target_count=6, seed=5, seesaw=report)
    fresh = collect_zero_set(swap, target_count=6)
    zero = collect_zero_set(swap, target_count=6, seed=0)
    for a, b in ((implied, explicit), (fresh, zero)):
        assert len(a.vectors) == len(b.vectors) > 0
        for u, v in zip(a.vectors, b.vectors):
            np.testing.assert_array_equal(u, v)


def test_harvest_keeps_a_repeated_zero_once():
    # I - |00><00| vanishes on one product vector, |0>|0>: every descent
    # that ends at a zero ends there, so the harvest keeps it once however
    # many zeros it is asked for, as the sequential reference does
    mat = np.eye(4, dtype=complex)
    mat[0, 0] = 0.0
    op = HermitianOperator(mat, SystemLayout((2, 2), 1))
    zeros = collect_zero_set(op, target_count=3, max_descents=12, seed=0)
    reference, descents_run = zero_harvest_reference(
        mat, 2, 2, 3, 12, 0, zero_tol=witness_module.ZERO_TOL * np.linalg.norm(mat)
    )
    assert len(zeros.vectors) == len(reference) == 1
    assert descents_run == 12
    assert zeros.span_rank == 1
    np.testing.assert_allclose(zeros.vectors[0], np.eye(4)[0], atol=1e-9)


@pytest.mark.parametrize("target_count, max_descents", [(5, 7), (16, 64)])
def test_harvest_from_the_report_keeps_what_a_fresh_harvest_keeps(
    target_count, max_descents, capped_choi
):
    # The harvest reads the see-saw report's restarts as they ended: they
    # are the descents a fresh harvest runs from the same starts, so both
    # keep the same vectors, bit for bit, and those of the sequential
    # reference up to rounding.
    op = capped_choi
    report = min_product_expectation(op, seed=42)
    from_report = collect_zero_set(
        op, target_count=target_count, max_descents=max_descents, seed=42, seesaw=report
    )
    fresh = collect_zero_set(
        op, target_count=target_count, max_descents=max_descents, seed=42
    )
    assert len(from_report.vectors) == len(fresh.vectors)
    for kept, strict in zip(from_report.vectors, fresh.vectors):
        np.testing.assert_array_equal(kept, strict)
    reference, _ = zero_harvest_reference(
        op.mat, *op.layout.parties, target_count, max_descents, 42,
        abandon_tol=witness_module.ABANDON_FLOOR,
    )
    assert len(from_report.vectors) == len(reference)
    for kept, ref in zip(from_report.vectors, reference):
        np.testing.assert_allclose(kept, ref, atol=1e-9)


@pytest.mark.parametrize("name, target_count, max_descents", [
    ("choi", None, None), ("capped-choi", 16, 64),
])
def test_harvest_reads_only_the_reports_vectors(
    name, target_count, max_descents, choi, capped_choi
):
    # The harvest takes each candidate's value on W itself: of the report it
    # reads the vectors only.  A report with its values and traces emptied
    # harvests the same zeros, bit for bit.
    op = {"choi": choi, "capped-choi": capped_choi}[name]
    report = min_product_expectation(op, seed=42)
    budget = {"target_count": target_count, "max_descents": max_descents}
    traced = collect_zero_set(op, seesaw=report, **budget)
    blind = report._replace(
        restart_values=(np.nan,) * report.restarts, value_traces=((),) * report.restarts
    )
    untraced = collect_zero_set(op, seesaw=blind, **budget)
    assert untraced.span_rank == traced.span_rank
    assert len(untraced.vectors) == len(traced.vectors) > 0
    for got, want in zip(untraced.vectors, traced.vectors):
        np.testing.assert_array_equal(got, want)


def _haar_rotated(op, seed):
    rng = rng_from(seed)
    u = np.kron(*(draw_unitary(d, rng) for d in op.layout.parties))
    m = u @ op.mat @ u.conj().T
    return HermitianOperator((m + m.conj().T) / 2, op.layout)


@pytest.mark.parametrize(
    "name", ["choi", "choi-rot1", "choi-rot2", "choi-rot3", "swap", "swap-gamma", "capped-choi"]
)
def test_abandoned_descents_drop_no_zero(name, choi, swap, capped_choi):
    # The harvest keeps what a sequential harvest that runs every unsettled
    # descent to the budget keeps: abandoning a descent never loses a zero.
    # Witnesses are harvested from their see-saw report, as certify does;
    # the partial transpose from fresh descents, as the exact-rank table does.
    ops = {
        "choi": choi, "swap": swap, "swap-gamma": partial_transpose(swap),
        "capped-choi": capped_choi,
    }
    op = ops[name] if name in ops else _haar_rotated(choi, int(name[-1]))
    seesaw = None if name == "swap-gamma" else min_product_expectation(op, seed=42)
    zeros = collect_zero_set(op, seed=42, seesaw=seesaw)
    dim = op.layout.total_dim
    # the stacked reference keeps what the sequential one keeps (pinned on
    # every case but the capped one, where the sequential takes ~1.6 s)
    reference, _ = zero_harvest_stacked(
        op.mat, *op.layout.parties, 4 * dim, 20 * dim, 42,
        zero_tol=witness_module.ZERO_TOL * np.linalg.norm(op.mat),
    )
    assert len(zeros.vectors) == len(reference) > 0
    assert zeros.span_rank == span_rank(reference)
    if name == "capped-choi":
        # positive-definite caps lift a zero span of rank r to r * d_A' * d_B':
        # choi's 7 (6 for its partial transpose) under (2, 2) caps
        assert zeros.span_rank == 7 * 2 * 2
        assert collect_zero_set(partial_transpose(op), seed=42).span_rank == 6 * 2 * 2
    for kept, ref in zip(zeros.vectors, reference):
        np.testing.assert_allclose(kept, ref, atol=1e-9)


@pytest.mark.parametrize(
    "name", ["choi", "choi-rot1", "choi-rot2", "choi-rot3", "swap", "swap-gamma"]
)
def test_stacked_harvest_reference_matches_the_sequential_one(name, choi, swap):
    # the stacked oracle runs every unsettled descent to the budget, as the
    # sequential one does without an abandonment band
    ops = {"choi": choi, "swap": swap, "swap-gamma": partial_transpose(swap)}
    op = ops[name] if name in ops else _haar_rotated(choi, int(name[-1]))
    dim = op.layout.total_dim
    args = (op.mat, *op.layout.parties, 4 * dim, 20 * dim, 42)
    zero_tol = witness_module.ZERO_TOL * np.linalg.norm(op.mat)
    stacked, stacked_run = zero_harvest_stacked(*args, zero_tol=zero_tol)
    sequential, sequential_run = zero_harvest_reference(*args, zero_tol=zero_tol)
    assert stacked_run == sequential_run
    assert len(stacked) == len(sequential) > 0
    for got, want in zip(stacked, sequential):
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_certifying_choi_abandons_its_creeping_restarts(choi):
    # 17 restarts at seed 42 creep like C / k^2 toward values above the zero
    # band; they stop within tens of iterations instead of at the budget
    cert = certify_witness(choi, seed=42)
    report = cert.min_product
    assert report.stops.count("abandoned") == 17
    assert report.stops.count("settled") == 47
    band = witness_module.ZERO_TOL * np.linalg.norm(choi.mat)
    assert all(
        v > band for v, s in zip(report.restart_values, report.stops) if s == "abandoned"
    )
    assert max(report.iterations) <= 40
    assert has_spanning_property(choi, cert).span_rank == 7


def test_certifying_capped_choi_abandons_its_creeping_restarts(capped_choi):
    # 10 restarts at seed 42 creep like C / k^2 and would end near
    # 1e-9 ||W||_F at the budget, far above the zero band: they stop within
    # tens of iterations, and the best value is that of a see-saw that
    # abandons nothing
    op = capped_choi
    report = min_product_expectation(op, seed=42)
    assert report.stops.count("abandoned") == 10
    assert max(report.iterations) <= 40
    reference = min_product_reference(
        op.mat, *op.layout.parties, report.restarts, 42
    )
    gap = abs(report.best_value - min(r[0] for r in reference))
    assert gap <= 1e-11 * np.linalg.norm(op.mat)


def _generalized_choi(a):
    """Cho-Kye-Lee's Phi[a, b, c] on the curve a + b + c = 2, bc = (1 - a)^2,
    with b >= c: a |ii><ii| + b |i,i+1><i,i+1| + c |i,i-1><i,i-1| summed over
    i, minus |ii><jj| for every i != j."""
    disc = np.sqrt((2 - a) ** 2 - 4 * (1 - a) ** 2)
    b, c = (2 - a + disc) / 2, (2 - a - disc) / 2
    mat = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            mat[3 * i + i, 3 * j + j] = a if i == j else -1.0
        mat[3 * i + (i + 1) % 3, 3 * i + (i + 1) % 3] = b
        mat[3 * i + (i - 1) % 3, 3 * i + (i - 1) % 3] = c
    return HermitianOperator(mat, SystemLayout((3, 3), 1))


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5])
def test_generalized_choi_keeps_its_spanning_zeros(a):
    # Phi[a]'s descents near its zeros contract geometrically, however
    # slowly; the abandonment rule must not take them for creeps, or the
    # harvest loses zeros (at a = 0.1 a 10% steadiness test abandoned 56 of
    # 64 restarts and left rank 7 and partial-transpose rank 6)
    op = _generalized_choi(a)
    cert = certify_witness(op, seed=42)
    assert cert.is_witness_numeric
    zeros = has_spanning_property(op, cert)
    assert zeros.span_rank == 9
    assert zeros.nd_spanning


def _lifted_rank(d_a, d_b, d_ap, d_bp, rank_l, rank_r, r):
    """Span rank of the product zeros of cap_l (x) W (x) cap_r, for W on
    d_a x d_b with zero-span rank r and caps of ranks rank_l and rank_r on
    d_ap and d_bp: a product vector is a zero iff each of its components
    along the caps' ranges is a zero of W, so every product vector with a
    factor in a cap's kernel is a zero."""
    return d_a * d_b * (d_ap * d_bp - rank_l * rank_r) + rank_l * rank_r * r


def _capped(build, dims, rank):
    """``build`` under caps G G^H on sides of ``dims``, each G a d x ``rank``
    complex Gaussian from the test's stream, the left one first."""
    def capped(rng):
        gs = [rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank)) for d in dims]
        return extend_witness(build(rng), ExtensionSpec(*(g @ g.conj().T for g in gs)))
    return capped


# The exact spanning ranks of W's product zeros and of Gamma(W)'s, in closed
# form; local unitaries U_A (x) U_B leave both unchanged (Lewenstein, Kraus,
# Cirac and Horodecki, PRA 62, 052310 (2000)).  Each builder takes the
# test's stream.
EXACT_RANKS = {
    "choi": (lambda rng: choi_witness(), 7, 6),
    "swap": (lambda rng: swap_witness(), 4, 3),
    "phi-half": (lambda rng: _generalized_choi(0.5), 9, 9),
    "phi-quarter": (lambda rng: _generalized_choi(0.25), 9, 9),
    "phi-tenth": (lambda rng: _generalized_choi(0.1), 9, 9),
    "swap-3": (lambda rng: swap_witness(3), 9, 8),
    "swap-rank-one-caps": (
        _capped(lambda rng: swap_witness(), (2, 2), 1),
        _lifted_rank(2, 2, 2, 2, 1, 1, 4),
        _lifted_rank(2, 2, 2, 2, 1, 1, 3),
    ),
    "choi-caps-2-2": (
        _capped(lambda rng: choi_witness(), (2, 2), 2),
        _lifted_rank(3, 3, 2, 2, 2, 2, 7),
        _lifted_rank(3, 3, 2, 2, 2, 2, 6),
    ),
    "swap-caps-2-3": (
        _capped(lambda rng: swap_witness(), (2, 3), 3),
        _lifted_rank(2, 2, 2, 3, 2, 3, 4),
        _lifted_rank(2, 2, 2, 3, 2, 3, 3),
    ),
    "swap-3-caps-2-3": (
        _capped(lambda rng: swap_witness(3), (2, 3), 3),
        _lifted_rank(3, 3, 2, 3, 2, 3, 9),
        _lifted_rank(3, 3, 2, 3, 2, 3, 8),
    ),
    "swap-3-rank-one-caps": (
        _capped(lambda rng: swap_witness(3), (2, 2), 1),
        _lifted_rank(3, 3, 2, 2, 1, 1, 9),
        _lifted_rank(3, 3, 2, 2, 1, 1, 8),
    ),
    "choi-rank-one-caps": (
        _capped(lambda rng: choi_witness(), (2, 2), 1),
        _lifted_rank(3, 3, 2, 2, 1, 1, 7),
        _lifted_rank(3, 3, 2, 2, 1, 1, 6),
    ),
}


def _exact_rank_operator(name, rotated, seed):
    """The operator of ``EXACT_RANKS[name]`` from the stream ``rng_from(seed)``,
    after a Haar local unitary from the same stream when ``rotated``."""
    rng = rng_from(seed)
    op = EXACT_RANKS[name][0](rng)
    if rotated:
        d_left, d_right = op.layout.parties
        u = np.kron(draw_unitary(d_left, rng), draw_unitary(d_right, rng))
        m = u @ op.mat @ u.conj().T
        op = HermitianOperator((m + m.conj().T) / 2, op.layout)
    return op


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("name, rotated", [
    ("choi", False), ("choi", True), ("swap", False), ("swap", True),
    ("phi-half", False), ("phi-half", True), ("phi-quarter", False), ("phi-quarter", True),
    ("phi-tenth", False), ("phi-tenth", True), ("swap-3", False), ("swap-3", True),
    ("swap-rank-one-caps", False), ("swap-rank-one-caps", True),
    ("choi-caps-2-2", False), ("choi-caps-2-2", True),
    ("swap-caps-2-3", False), ("swap-caps-2-3", True),
    ("swap-3-caps-2-3", False), ("swap-3-caps-2-3", True),
    ("swap-3-rank-one-caps", False), ("swap-3-rank-one-caps", True),
    pytest.param("choi-rank-one-caps", False, marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 18: harvests on rank-deficient extensions see one zero "
        "family (the caps' kernel family reads 18 and 18)",
    )),
])
def test_spanning_ranks_are_the_exact_ranks(name, rotated, seed):
    _, rank, gamma_rank = EXACT_RANKS[name]
    op = _exact_rank_operator(name, rotated, seed)
    cert = certify_witness(op, seed=seed)
    assert cert.is_witness_numeric
    span = has_spanning_property(op, cert)
    assert span.span_rank == rank
    # W's zeros with their B factor conjugated are the partial transpose's;
    # a harvest of the partial transpose itself cross-checks their rank
    assert span.conjugated_rank == gamma_rank
    assert collect_zero_set(partial_transpose(op), seed=seed).span_rank == gamma_rank


@pytest.mark.parametrize("name, dims, ranks, verdicts", [
    ("swap-3", (2, 3), (54, 54, 48), (True, False)),
    ("phi-half", (2, 2), (36, 36, 36), (True, True)),
], ids=["swap-3-caps-2-3", "phi-half-caps-2-2"])
def test_the_lift_carries_both_verdicts(name, dims, ranks, verdicts):
    # the paper's claim through its one record: W's zeros lifted by
    # positive-definite caps have the lifted-rank formula's ranks and the
    # verdicts of the extension's own harvest
    build, rank, gamma_rank = EXACT_RANKS[name]
    w = build(None)
    lifted = extended_zero_set(has_spanning_property(w, certify_witness(w, seed=1)), *dims)
    assert (lifted.span_rank, lifted.dim, lifted.conjugated_rank) == ranks
    assert ranks == (
        _lifted_rank(3, 3, *dims, *dims, rank), w.dim * dims[0] * dims[1],
        _lifted_rank(3, 3, *dims, *dims, gamma_rank),
    )
    ext = _capped(build, dims, max(dims))(rng_from(1))
    cert = certify_witness(ext, seed=1)
    assert cert.is_witness_numeric
    direct = has_spanning_property(ext, cert)
    assert (lifted.spanning, lifted.nd_spanning) == (direct.spanning, direct.nd_spanning)
    assert (direct.spanning, direct.nd_spanning) == verdicts


def test_conjugated_span_fills_after_the_kept_zeros():
    # rotated Phi[1/2] at seed 1: its 36 kept zeros span all 9 dimensions,
    # but their conjugates on B only 8; the harvest goes on along the same
    # descents until the conjugates span, so nd-spanning is still confirmed
    op = _exact_rank_operator("phi-half", True, 1)
    cert = certify_witness(op, seed=1)
    zeros = collect_zero_set(op, seesaw=cert.min_product)
    assert len(zeros.vectors) == 4 * 9
    assert zeros.span_rank == 9
    conjugates = []
    for v in zeros.vectors:  # phi (x) psi -> phi (x) conj(psi), up to a phase
        u, _, vh = np.linalg.svd(v.reshape(3, 3))
        conjugates.append(np.kron(u[:, 0], vh[0].conj()))
    assert span_rank(np.array(conjugates)) == 8
    assert zeros.conjugated_rank == 9
    span = has_spanning_property(op, cert)
    assert (span.span_rank, span.conjugated_rank) == (9, 9)
    assert span.nd_spanning


def test_harvest_rejects_a_report_of_another_layout():
    # a report of the 2x2 swap cannot seed a harvest of the 3x3 one
    cert = certify_witness(swap_witness(), seed=1)
    for call in (
        lambda: has_spanning_property(swap_witness(3), cert),
        lambda: collect_zero_set(swap_witness(3), seesaw=cert.min_product),
    ):
        with pytest.raises(LayoutError, match=r"\(2, 2\).*\(3, 3\)"):
            call()


# the rank-one cap |v><v| for v = (1, 0.5 + 0.25i): its entries are exact in
# binary, but its kernel is no coordinate axis, so the extension's entries do
# not cancel exactly there and its reduced operators on it are rounding noise
RANK_ONE_CAP = np.outer([1, 0.5 + 0.25j], [1, 0.5 - 0.25j])
POSITIVE_DEFINITE_CAP = np.array([[2, 0.5 - 0.5j], [0.5 + 0.5j, 1]])


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("cap_right", [RANK_ONE_CAP, POSITIVE_DEFINITE_CAP],
                         ids=["rank-one", "positive-definite"])
def test_rank_deficient_caps_settle_every_restart(cap_right, seed, choi):
    # Under a rank-deficient cap many reduced operators are rounding noise
    # of size ~1e-16 ||W||_F.  Their whole spectrum lies in the tie window,
    # so a step takes the descent's reference and the descent settles
    # instead of chasing eigenvectors of the noise to the budget.
    op = extend_witness(choi, ExtensionSpec(RANK_ONE_CAP, cap_right))
    report = certify_witness(op, seed=seed).min_product
    assert report.stops == ("settled",) * report.restarts
    assert max(report.iterations) <= 3


def test_rounding_noise_moves_no_stop_and_no_rank(choi):
    # choi under all-ones caps, and the same operator plus a Hermitian
    # perturbation of 1e-16: the noise lies in the tie window, so both
    # certifications stop alike and harvest zeros of the same rank
    ones = np.ones((2, 2))
    op = extend_witness(choi, ExtensionSpec(ones, ones))
    g = _random_hermitian((6, 6), 16)
    noisy = HermitianOperator(op.mat + 1e-16 * g, op.layout)
    assert not np.array_equal(noisy.mat, op.mat)
    certs = [certify_witness(w, seed=42) for w in (op, noisy)]
    assert certs[0].min_product.stops == certs[1].min_product.stops
    assert certs[0].min_product.stops == ("settled",) * certs[0].min_product.restarts
    ranks = [has_spanning_property(w, c).span_rank for w, c in zip((op, noisy), certs)]
    assert ranks[0] == ranks[1]


def test_min_eigvecs_projects_the_reference_on_degenerate_minima():
    # Rows 1 and 3 have a twofold and a threefold least eigenvalue: each
    # returns its reference projected onto that eigenspace, normalized,
    # whatever basis the eigensolver picks there.  Row 4's whole spectrum
    # lies within the window, as on a reduced operator of rounding noise, so
    # it returns its reference, normalized.  Rows 0 and 2 have a single
    # least eigenvalue and return LAPACK's eigenvector with its largest
    # entry rotated to the positive real axis, bit for bit.
    rng = rng_from(5)
    u = np.array([draw_unitary(4, rng) for _ in range(4)])
    spectra = np.array([
        [-1.0, 0.5, 1.0, 2.0], [-1.0, -1.0, 0.5, 3.0],
        [0.3, 0.7, 1.1, 4.0], [-2.0, -2.0, -2.0, 1.0],
    ])
    mats = (u * spectra[:, None, :]) @ u.conj().transpose(0, 2, 1)
    noise = 1e-20 * _random_hermitian((2, 2), 6)
    mats = np.concatenate([(mats + mats.conj().transpose(0, 2, 1)) / 2, noise[None]])
    refs = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    vals, vecs = witness_module._min_eigvecs(mats, refs, 1e-14)
    np.testing.assert_allclose(vals[:4], spectra.min(axis=1), atol=1e-12)
    assert abs(vals[4]) <= 1e-18
    for n, k in ((1, 2), (3, 3)):
        proj = u[n][:, :k] @ (u[n][:, :k].conj().T @ refs[n])
        np.testing.assert_allclose(vecs[n], proj / np.linalg.norm(proj), atol=1e-12)
    np.testing.assert_allclose(vecs[4], refs[4] / np.linalg.norm(refs[4]), atol=1e-12)
    least = np.linalg.eigh(mats)[1][:, :, 0]
    pivot = least[np.arange(5), np.argmax(np.abs(least), axis=1)]
    fixed = least * (pivot.conj() / np.abs(pivot))[:, None]
    for n in (0, 2):
        assert vecs[n].tobytes() == fixed[n].tobytes()


def test_seesaw_report_holds_the_kernel_stacks(choi):
    # the report keeps the lock-step kernel's left and right stacks as they
    # come, frozen: no per-restart objects, no copies
    report = min_product_expectation(choi, restarts=8, seed=3)
    kernel = witness_module._lockstep_descents(choi, 3, range(8))[1:3]
    assert len(report.restart_vectors) == 2
    for held, direct, d in zip(report.restart_vectors, kernel, (3, 3)):
        assert held.shape == direct.shape == (8, d) and held.dtype == complex
        assert held.tobytes() == direct.tobytes()
        assert not held.flags.writeable


def test_certify_choi(choi):
    cert = certify_witness(choi, restarts=32, seed=0)
    assert cert.is_witness_numeric
    assert cert.min_eigenvalue == pytest.approx(-1.0, abs=1e-10)
    assert -1e-8 <= cert.min_product.best_value <= 1e-6
    assert cert.detection_value == pytest.approx(-1.0, abs=1e-10)
    psi = maximally_entangled_vector(3)
    overlap = np.real(psi.conj() @ cert.detection_state.mat @ psi)
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_catalogued_witnesses_detect_strongly(choi, swap):
    for w in (choi, swap):
        cert = certify_witness(w, restarts=16, seed=0)
        assert cert.is_witness_numeric
        assert cert.detection_value <= -0.5


def test_certify_rejects_psd_operator():
    op = random_psd(4, seed=8)
    op = HermitianOperator(op.mat, SystemLayout((2, 2), 1))
    cert = certify_witness(op, restarts=8, seed=0)
    assert not cert.is_witness_numeric
    assert cert.detection_state is None
    assert cert.detection_value is None


def test_certify_rejects_entangled_negativity_without_block_positivity():
    # globally negative directions exist on product states too, so not a witness
    psi = maximally_entangled_vector(2)
    op = HermitianOperator(
        np.eye(4) / 4.0 - projector(psi), SystemLayout((2, 2), 1)
    )
    cert = certify_witness(op, restarts=16, seed=0)
    assert not cert.is_witness_numeric


def test_zero_set_ranks_are_stable(choi, swap):
    for seed in (0, 17):
        zc = collect_zero_set(choi, seed=seed)
        assert zc.span_rank == 7
        zs = collect_zero_set(swap, seed=seed)
        assert zs.span_rank == 4
    for full in zc.vectors:
        assert abs(np.real(full.conj() @ choi.mat @ full)) <= 1e-8


def test_zero_set_is_one_read_only_stack(choi):
    # one row per kept zero, from fresh descents and from a see-saw report
    for seesaw in (None, min_product_expectation(choi, seed=0)):
        zeros = collect_zero_set(choi, seed=0, seesaw=seesaw)
        assert zeros.vectors.shape == (len(zeros.vectors), 9) and len(zeros.vectors) > 0
        assert zeros.vectors.dtype == complex and not zeros.vectors.flags.writeable
        assert span_rank(zeros.vectors) == zeros.span_rank == 7
    empty = collect_zero_set(choi, target_count=0)
    assert empty.vectors.shape == (0, 9) and not empty.vectors.flags.writeable
    assert span_rank(empty.vectors) == empty.span_rank == 0


def test_transposed_swap_zero_rank_is_three(swap):
    flipped = partial_transpose(swap)
    zeros = collect_zero_set(flipped, seed=0)
    assert zeros.span_rank == 3


def test_spanning_verdicts(choi, swap):
    s = has_spanning_property(swap, certify_witness(swap, restarts=16, seed=0))
    assert s.spanning
    assert (s.span_rank, s.dim) == (4, 4)
    c = has_spanning_property(choi, certify_witness(choi, restarts=16, seed=0))
    assert not c.spanning and not c.nd_spanning
    assert (c.span_rank, c.dim) == (7, 9)


def test_spanning_requires_a_witness():
    op = HermitianOperator(np.eye(4), SystemLayout((2, 2), 1))
    with pytest.raises(ValueError):
        has_spanning_property(op, certify_witness(op, restarts=4, seed=0))


def test_zeros_are_read_on_the_operator_not_on_the_certificate(swap):
    # Another operator's certificate supplies candidate vectors, never zeros:
    # the identity has no product zero, and swap + I/2 is at least 1/2 on
    # every product vector, whatever report the harvest starts from.
    identity = HermitianOperator(np.eye(4), SystemLayout((2, 2), 1))
    cert = certify_witness(swap, seed=1)
    report = has_spanning_property(identity, cert)
    assert (report.span_rank, report.spanning, report.nd_spanning) == (0, False, False)
    shifted = HermitianOperator(swap.mat + 0.5 * np.eye(4), swap.layout)
    assert collect_zero_set(shifted, seesaw=cert.min_product).span_rank == 0
    assert collect_zero_set(shifted, seed=1).span_rank == 0


def test_nd_spanning_swap_fails_on_transposed_side(swap):
    zeros = has_spanning_property(swap, certify_witness(swap, restarts=16, seed=0))
    assert zeros.spanning
    assert not zeros.nd_spanning


def test_span_rank_basics():
    basis = [np.eye(3)[i] for i in range(3)]
    assert span_rank(basis) == 3
    assert span_rank([basis[0], basis[0] * 1j]) == 1


def test_certify_indecomposable_choi_pair(choi):
    state = choi_detected_ppt_state()
    assert certify_indecomposable(choi, state)


def test_certify_indecomposable_rejects_decomposable_witness(swap):
    layout = SystemLayout((2, 2), 1)
    for seed in range(10):
        mix = mixture_density(*draw_separable((2, 2), 3, rng_from(seed)))
        rho = HermitianOperator(mix, layout)
        assert not certify_indecomposable(swap, rho)


@pytest.mark.parametrize("scale", [1e-12, 1e-8, 1.0, 1e8])
def test_certify_indecomposable_does_not_depend_on_scale(scale, choi):
    state = choi_detected_ppt_state()
    scaled = HermitianOperator(scale * choi.mat, choi.layout)
    assert certify_indecomposable(scaled, state)
    scaled_state = HermitianOperator(scale * state.mat, state.layout)
    assert certify_indecomposable(choi, scaled_state)


def test_certify_indecomposable_needs_a_ppt_state(choi):
    # both candidates have Tr(W rho) < 0, and each fails one state check
    # only: the partial transpose of an entangled pure state, whose own
    # partial transpose is that state, and the maximally entangled state
    v = (np.eye(9)[1] + np.eye(9)[3]) / np.sqrt(2)  # (|0, 1> + |1, 0>) / sqrt 2
    not_psd = partial_transpose(HermitianOperator(projector(v), choi.layout))
    not_ppt = HermitianOperator(projector(maximally_entangled_vector(3)), choi.layout)
    assert not is_psd(not_psd) and is_psd(partial_transpose(not_psd))
    assert is_psd(not_ppt) and not is_psd(partial_transpose(not_ppt))
    for rho in (not_psd, not_ppt):
        assert expectation(choi, rho) < 0
        assert not certify_indecomposable(choi, rho)


def test_certify_indecomposable_dimension_mismatch(choi):
    with pytest.raises(Exception):
        certify_indecomposable(choi, random_density(4, seed=0))


def test_certify_indecomposable_reads_ppt_across_the_witness_cut():
    # W = Gamma(|psi><psi|), psi = (|00> + |11>) / sqrt 2 on 2 (x) 3, is
    # decomposable.  phi = (|01> - |10>) / sqrt 2 is entangled on (2, 3), but
    # read on (3, 2) the same vector is the product (|0> - |1>) / sqrt 2 (x) |1>:
    # PPT on its own cut, with Tr(W rho) = -1/2.  Equal total dimensions do
    # not make equal parties, so that state is refused rather than certified.
    e = np.eye(6)
    layout = SystemLayout((2, 3), 1)
    W = partial_transpose(HermitianOperator(projector((e[0] + e[4]) / np.sqrt(2)), layout))
    rho = projector((e[1] - e[3]) / np.sqrt(2))
    swapped = HermitianOperator(rho, SystemLayout((3, 2), 1))
    assert is_psd(partial_transpose(swapped))
    assert expectation(W, swapped) == pytest.approx(-0.5, abs=1e-15)
    with pytest.raises(LayoutError) as err:
        certify_indecomposable(W, swapped)
    assert str(err.value) == "state parties (3, 2) do not match W's (2, 3)"
    assert certify_indecomposable(W, HermitianOperator(rho, layout)) is False

    # parties are products: a state on (2, 2, 3) with cut 1 has W's parties
    # (2, 6), and its verdict is that of the same matrix on (2, 6)
    e = np.eye(12)
    wide = SystemLayout((2, 6), 1)
    W = partial_transpose(HermitianOperator(projector((e[0] + e[7]) / np.sqrt(2)), wide))
    separable = mixture_density(*draw_separable((2, 6), 3, rng_from(5)))
    for rho in (projector((e[1] - e[6]) / np.sqrt(2)), separable):
        verdict = certify_indecomposable(W, HermitianOperator(rho, wide))
        state = HermitianOperator(rho, SystemLayout((2, 2, 3), 1))
        assert certify_indecomposable(W, state) is verdict


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e-12, 1e-8, 1.0, 1e6, 1e8, 1e160, 1e300])
def test_certify_and_spanning_verdicts_do_not_depend_on_scale(
    scale, choi, swap, rotated_choi
):
    identity = HermitianOperator(np.eye(9), choi.layout)
    for op, rank in ((choi, 7), (swap, 4), (rotated_choi, 7), (identity, None)):
        scaled = HermitianOperator(scale * op.mat, op.layout)
        cert = certify_witness(scaled, seed=42)
        assert cert.is_witness_numeric is (rank is not None)
        if rank is not None:
            span = has_spanning_property(scaled, cert)
            assert span.span_rank == rank


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_seesaw_does_not_depend_on_scale(choi, swap, capped_choi):
    # the settle rule's value test is relative to ||W||_F, so under W -> 2^k W
    # (exact in binary) every descent stops where it stops at k = 0
    def run(op, c, max_descents):
        scaled = HermitianOperator(c * op.mat, op.layout)
        report = min_product_expectation(scaled, seed=42)
        zeros = collect_zero_set(scaled, max_descents=max_descents, seesaw=report)
        return report.iterations, report.stops, len(zeros.vectors), zeros.span_rank

    for op, max_descents in ((swap, None), (choi, None), (capped_choi, 8)):
        base = run(op, 1.0, max_descents)
        for k in (-600, -40, 40, 600):
            assert run(op, 2.0**k, max_descents) == base, (op.layout.dims, k)
    # a zero W settles too: the value test needs no division by ||W||_F
    report = min_product_expectation(HermitianOperator(0 * swap.mat, swap.layout), seed=42)
    assert set(report.stops) == {"settled"} and report.best_value == 0.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["choi", "swap", "identity"]),
    exponent=st.floats(-200, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_certify_verdict_is_invariant_under_scale_and_local_unitaries(
    name, exponent, seed, choi, swap
):
    # witness-hood is a property of the ray of W and of its local-unitary orbit
    op = {"choi": choi, "swap": swap, "identity": HermitianOperator(np.eye(9), choi.layout)}[name]
    d_a, d_b = op.layout.parties
    rng = rng_from(seed)
    u = np.kron(draw_unitary(d_a, rng), draw_unitary(d_b, rng))
    m = u @ op.mat @ u.conj().T
    moved = HermitianOperator(10.0**exponent * (m + m.conj().T) / 2, op.layout)
    verdict = certify_witness(op, restarts=16).is_witness_numeric
    assert certify_witness(moved, restarts=16).is_witness_numeric is verdict
    assert verdict is (name != "identity")


def test_certify_large_scale_witness_does_not_raise(choi):
    big = HermitianOperator(1e6 * choi.mat, choi.layout)
    cert = certify_witness(big)
    assert cert.min_eigenvalue == pytest.approx(-1e6, rel=1e-12)


@pytest.mark.parametrize("call, value, message", integer_cases({
    "restarts": (lambda x: min_product_expectation(swap_witness(), restarts=x), "restarts", 1),
    "target_count": (
        lambda x: collect_zero_set(swap_witness(), target_count=x), "target_count", 0,
    ),
    "max_descents": (
        lambda x: collect_zero_set(swap_witness(), max_descents=x), "max_descents", 0,
    ),
}, own="restarts"))
def test_restarts_are_checked_not_coerced(call, value, message):
    # so are the harvest's counts; 0 of either harvests nothing
    check_integer_case(call, value, message)
