import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit import (
    HermitianOperator,
    SystemLayout,
    certify_indecomposable,
    certify_witness,
    choi_detected_ppt_state,
    collect_zero_set,
    expectation,
    has_spanning_property,
    is_psd,
    maximally_entangled_vector,
    min_product_expectation,
    nd_spanning,
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
    abandonment_holds,
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
        op.mat, op.layout.left_dim, op.layout.right_dim, report.restarts, 42,
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
def test_stall_stop_keeps_the_strict_product_minimum(dims, shifted):
    # shifting by the product minimum puts it at 0, where verdicts are made
    for seed in range(4):
        mat = _random_hermitian(dims, 300 + seed)
        if shifted:
            strict = min_product_reference(mat, *dims, 16, seed, stall_tol=None)
            mat = mat - min(r[0] for r in strict) * np.eye(len(mat))
        op = HermitianOperator(mat, SystemLayout(dims, 1))
        report = min_product_expectation(op, restarts=16, seed=seed)
        strict = min_product_reference(mat, *dims, 16, seed, stall_tol=None)
        gap = abs(report.best_value - min(r[0] for r in strict))
        assert gap <= 1e-11 * np.linalg.norm(mat)


def test_abandonment_leaves_restarts_settling_above_the_band_alone():
    # A strict witness whose product minimum sits 1e-2 ||W||_F above zero:
    # its restarts contract onto minima above the zero band, which the
    # abandonment rule must not take for a creep, so their flags, values and
    # traces are those of descents that are never abandoned.
    dims = (3, 3)
    mat = _random_hermitian(dims, [7, 3, 3, 10])
    shift = min(r[0] for r in min_product_reference(mat, *dims, 16, 0, stall_tol=None))
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
        op.mat, op.layout.left_dim, op.layout.right_dim, target_count, max_descents, 42,
        abandon_tol=witness_module.ABANDON_FLOOR,
    )
    assert len(zeros.vectors) == len(reference)
    for kept, ref in zip(zeros.vectors, reference):
        np.testing.assert_allclose(kept.full(), ref, atol=1e-9)
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
            np.testing.assert_array_equal(u.full(), v.full())


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
    np.testing.assert_allclose(zeros.vectors[0].full(), np.eye(4)[0], atol=1e-9)


@pytest.mark.parametrize("target_count, max_descents", [(5, 7), (16, 64)])
def test_harvest_runs_stalled_restarts_on_as_uninterrupted_descents(
    target_count, max_descents, capped_choi
):
    # On the capped Choi extension the restarts stop on a stalled value while
    # their vectors still drift along a continuum of zeros.  The drift turns
    # last-bit differences between the lock step and the sequential reference
    # into different end points, so the kept vectors are checked against
    # fresh strict lock-step descents from the same starts, and only their
    # count against the reference.
    op = capped_choi
    report = min_product_expectation(op, seed=42)
    stalled = [s == "stalled" for s in report.stops]
    assert any(stalled[:max_descents])
    resumed = collect_zero_set(
        op, target_count=target_count, max_descents=max_descents, seed=42, seesaw=report
    )
    fresh = collect_zero_set(
        op, target_count=target_count, max_descents=max_descents, seed=42
    )
    assert len(resumed.vectors) == len(fresh.vectors)
    for kept, strict in zip(resumed.vectors, fresh.vectors):
        np.testing.assert_array_equal(kept.full(), strict.full())
    reference, _ = zero_harvest_reference(
        op.mat, op.layout.left_dim, op.layout.right_dim, target_count, max_descents, 42,
        abandon_tol=witness_module.ABANDON_FLOOR,
    )
    assert len(resumed.vectors) == len(reference)


@pytest.mark.parametrize("stall_tol", [None, 5e-6], ids=["default", "stall-at-20"])
def test_harvest_resumes_restarts_as_uninterrupted_strict_descents(
    stall_tol, choi, monkeypatch
):
    # Every descent the harvest reads from a see-saw report ends bit for bit
    # where a strict descent from the same start ends.  Stalling at 5e-6 on
    # choi stops restarts at iteration 20, where some of them meet the
    # abandonment rule too: those are abandoned, as a strict descent is, so
    # no restart reported as stalled meets the rule at its stop.
    if stall_tol is not None:
        monkeypatch.setattr(witness_module, "STALL_TOL", stall_tol)
    report = min_product_expectation(choi, seed=42)
    norm = np.linalg.norm(choi.mat)
    floor, stall = witness_module.ABANDON_FLOOR * norm, witness_module.STALL_TOL * norm
    stalled = [s == "stalled" for s in report.stops]
    assert any(stalled)
    for s, k, trace in zip(stalled, report.iterations, report.value_traces):
        assert not (s and abandonment_holds(trace, k, floor))
    both = [
        k >= 20 and abs(t[39] - t[37]) <= stall and abandonment_holds(t, 20, floor)
        for k, t in zip(report.iterations, report.value_traces)
    ]
    assert any(both) == (stall_tol is not None)
    for b, s, k in zip(both, report.stops, report.iterations):
        assert not b or (s == "abandoned" and k == 20)
    lockstep = witness_module._lockstep_descents
    runs = []

    def recording_lockstep(*args, **kwargs):
        runs.append(lockstep(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(witness_module, "_lockstep_descents", recording_lockstep)
    collect_zero_set(choi, seed=42, seesaw=report)
    starts = witness_module._start_vectors(42, range(report.restarts), choi.layout.right_dim)
    strict = lockstep(choi, starts)
    for resumed, uninterrupted in zip(runs[0][:3], strict[:3]):
        np.testing.assert_array_equal(resumed, uninterrupted)


@pytest.mark.parametrize("name, target_count, max_descents", [
    ("choi", None, None), ("capped-choi", 16, 64),
])
def test_harvest_resumes_from_the_report_without_its_traces(
    name, target_count, max_descents, choi, capped_choi
):
    # The see-saw report keeps each restart's next-to-last value, which the
    # harvest's abandonment rule reads on resuming a stalled restart; the
    # value traces are for observation only.  A report with its traces
    # emptied harvests the same zeros, bit for bit.
    op = {"choi": choi, "capped-choi": capped_choi}[name]
    report = min_product_expectation(op, seed=42)
    assert "stalled" in report.stops
    budget = {"target_count": target_count, "max_descents": max_descents}
    traced = collect_zero_set(op, seesaw=report, **budget)
    blind = report._replace(value_traces=((),) * report.restarts)
    untraced = collect_zero_set(op, seesaw=blind, **budget)
    assert untraced.span_rank == traced.span_rank
    assert len(untraced.vectors) == len(traced.vectors) > 0
    for got, want in zip(untraced.vectors, traced.vectors):
        for f, g in zip(got.factors, want.factors):
            np.testing.assert_array_equal(f, g)
    for prev, k, trace in zip(report.previous_values, report.iterations, report.value_traces):
        assert prev == trace[2 * k - 3]


def test_resumed_descents_stop_at_the_budget(choi):
    # A descent resumed with its whole budget spent comes back as it went in,
    # with stop "budget"; one with one iteration left runs exactly that one,
    # the first iteration of a two-iteration run from the same state.  The
    # states are those of stalled see-saw restarts, still drifting in the
    # zero band, given counts at the end of the budget.
    budget = witness_module.DEFAULT_MAX_ITERS
    lockstep = witness_module._lockstep_descents
    report = min_product_expectation(choi, seed=42)
    rows = [r for r, s in enumerate(report.stops) if s == "stalled"][:6]
    assert len(rows) == 6
    value = np.array([report.restart_values[r] for r in rows])
    before = np.array([report.value_traces[r][-3] for r in rows])
    phi, psi = (np.array([report.restart_vectors[r].factors[i] for r in rows]) for i in (0, 1))
    spent = np.arange(6) % 2 == 0
    out = lockstep(choi, psi, resume=(value, before, phi, np.where(spent, budget, budget - 1)))
    for got, held in zip(out[:3], (value, phi, psi)):
        np.testing.assert_array_equal(got[spent], held[spent])
    assert (out[4] == budget).all() and (out[5] == "budget").all()
    left = ~spent
    two = lockstep(
        choi, psi[left], resume=(value[left], before[left], phi[left], [budget - 2] * 3)
    )
    assert (two[4] == budget).all() and (two[5] == "budget").all()
    np.testing.assert_array_equal(out[3][left, :2], two[3][:, :2])
    np.testing.assert_array_equal(out[0][left], two[3][:, 1])
    last = lockstep(
        choi, out[2][left], resume=(out[0][left], value[left], out[1][left], [budget - 1] * 3)
    )
    for got, whole in zip(last[:3], two[:3]):
        np.testing.assert_array_equal(got, whole)


def _haar_rotated(op, seed):
    rng = rng_from(seed)
    u = np.kron(draw_unitary(op.layout.left_dim, rng), draw_unitary(op.layout.right_dim, rng))
    m = u @ op.mat @ u.conj().T
    return HermitianOperator((m + m.conj().T) / 2, op.layout)


@pytest.mark.parametrize(
    "name", ["choi", "choi-rot1", "choi-rot2", "choi-rot3", "swap", "swap-gamma", "capped-choi"]
)
def test_abandoned_descents_drop_no_zero(name, choi, swap, capped_choi):
    # The harvest keeps what a sequential harvest that runs every unsettled
    # descent to the budget keeps: abandoning a descent never loses a zero.
    # Witnesses are harvested from their see-saw report, as certify does;
    # the partial transpose from fresh descents, as nd_spanning does.
    ops = {
        "choi": choi, "swap": swap, "swap-gamma": partial_transpose(swap),
        "capped-choi": capped_choi,
    }
    op = ops[name] if name in ops else _haar_rotated(choi, int(name[-1]))
    seesaw = None if name == "swap-gamma" else min_product_expectation(op, seed=42)
    zeros = collect_zero_set(op, seed=42, seesaw=seesaw)
    dim = op.layout.total_dim
    # the stacked reference keeps what the sequential one keeps (pinned on
    # every case but the capped one, where the sequential takes ~10 s)
    reference, _ = zero_harvest_stacked(
        op.mat, op.layout.left_dim, op.layout.right_dim, 4 * dim, 20 * dim, 42,
        zero_tol=witness_module.ZERO_TOL * np.linalg.norm(op.mat),
    )
    assert len(zeros.vectors) == len(reference) > 0
    assert zeros.span_rank == span_rank(reference)
    if name == "capped-choi":
        # positive-definite caps lift a zero span of rank r to r * d_A' * d_B':
        # choi's 7 (6 for its partial transpose) under (2, 2) caps
        assert zeros.span_rank == 7 * 2 * 2
        assert collect_zero_set(partial_transpose(op), seed=42).span_rank == 6 * 2 * 2
        return  # kept vectors fixed by rounding on a continuum: count and rank only
    for kept, ref in zip(zeros.vectors, reference):
        np.testing.assert_allclose(kept.full(), ref, atol=1e-9)


@pytest.mark.parametrize(
    "name", ["choi", "choi-rot1", "choi-rot2", "choi-rot3", "swap", "swap-gamma"]
)
def test_stacked_harvest_reference_matches_the_sequential_one(name, choi, swap):
    # the stacked oracle runs every unsettled descent to the budget, as the
    # sequential one does without an abandonment band
    ops = {"choi": choi, "swap": swap, "swap-gamma": partial_transpose(swap)}
    op = ops[name] if name in ops else _haar_rotated(choi, int(name[-1]))
    dim = op.layout.total_dim
    args = (op.mat, op.layout.left_dim, op.layout.right_dim, 4 * dim, 20 * dim, 42)
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
    assert report.stops.count("stalled") == 47
    band = witness_module.ZERO_TOL * np.linalg.norm(choi.mat)
    assert all(
        v > band for v, s in zip(report.restart_values, report.stops) if s == "abandoned"
    )
    assert max(report.iterations) <= 40
    assert has_spanning_property(choi, cert).rank == 7


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
        op.mat, op.layout.left_dim, op.layout.right_dim, report.restarts, 42
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
    primal = has_spanning_property(op, cert)
    assert primal.rank == 9
    assert nd_spanning(op, primal, seed=42)


def test_seesaw_best_vector_reproduces_best_value(swap):
    report = min_product_expectation(swap, restarts=8, seed=3)
    v = report.best_vector.full()
    val = float(np.real(v.conj() @ swap.mat @ v))
    assert val == pytest.approx(report.best_value, abs=1e-12)


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
    for v in zc.vectors:
        full = v.full()
        assert abs(np.real(full.conj() @ choi.mat @ full)) <= 1e-8


def test_transposed_swap_zero_rank_is_three(swap):
    flipped = partial_transpose(swap)
    zeros = collect_zero_set(flipped, seed=0)
    assert zeros.span_rank == 3


def test_spanning_verdicts(choi, swap):
    s = has_spanning_property(swap, certify_witness(swap, restarts=16, seed=0))
    assert s.spanning
    assert s.verdict == "confirmed"
    assert (s.rank, s.dim) == (4, 4)
    c = has_spanning_property(choi, certify_witness(choi, restarts=16, seed=0))
    assert not c.spanning
    assert c.verdict == "not-found-at-budget"
    assert (c.rank, c.dim) == (7, 9)
    assert c.note != ""


def test_spanning_requires_a_witness():
    op = HermitianOperator(np.eye(4), SystemLayout((2, 2), 1))
    with pytest.raises(ValueError):
        has_spanning_property(op, certify_witness(op, restarts=4, seed=0))


def test_nd_spanning_swap_fails_on_transposed_side(swap):
    primal = has_spanning_property(swap, certify_witness(swap, restarts=16, seed=0))
    assert primal.spanning
    assert not nd_spanning(swap, primal, seed=0)


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
            assert span.rank == rank


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
    d_a, d_b = op.layout.left_dim, op.layout.right_dim
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
