"""Tests for the filtering rounds and the protocol driver."""

import dataclasses
import math
import re

import numpy as np
import pytest

from oracles import split_step_sweep
from twirlsim import (
    AdiabaticSchedule,
    Backend,
    PauliSum,
    PauliTerm,
    PostSelectionError,
    RoundSpec,
    TauMode,
    TwirlConfig,
    ZeroEnergyError,
    adiabatic_prepare,
    choose_tau,
    eigendecompose,
    evolve_exact,
    evolve_trotter,
    expectation,
    keep_probability,
    named_observable,
    run_protocol,
    sample_shots,
    schwinger_hamiltonian,
    single_z,
    staggered_start,
    stream_starts,
    trotter_error,
    twirl_round,
)
from twirlsim import spectral
from twirlsim.state import NORM_TOL, StateVector

ROOT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# period selection


def test_choose_tau_quarter_and_full():
    tau, prefactor = choose_tau(2.0, TauMode.QUARTER)
    assert tau == pytest.approx(math.pi / 4.0)
    assert prefactor == 1.0j
    tau, prefactor = choose_tau(4.0, TauMode.FULL)
    assert tau == pytest.approx(math.pi / 2.0)
    assert prefactor == 1.0 + 0.0j
    tau, _ = choose_tau(-2.0, TauMode.QUARTER)
    assert tau == pytest.approx(-math.pi / 4.0)
    # twice 1e308 is beyond float range, a quarter period of it is not
    assert choose_tau(1e308, TauMode.QUARTER) == (1.5707963267948964e-308, 1.0j)
    assert choose_tau(-1e308, TauMode.QUARTER) == (-1.5707963267948964e-308, 1.0j)


def test_choose_tau_quarter_keeps_the_bits_of_one_division():
    rng = np.random.default_rng(2029)
    energies = np.exp(rng.uniform(math.log(1e-11), math.log(1e300), 20_000))
    for energy in (energies * rng.choice([-1.0, 1.0], energies.size)).tolist():
        assert choose_tau(energy, TauMode.QUARTER)[0] == math.pi / (2.0 * energy)


_CHAIN = schwinger_hamiltonian(3, 1.3)
_START = StateVector.basis("101")
# each entry point that takes a time or an energy, as a function of that real
_REAL_ENTRY_POINTS = {
    "choose_tau": lambda x: choose_tau(x, TauMode.QUARTER)[0],
    "evolve_trotter": lambda x: evolve_trotter(_START.amplitudes, _CHAIN, x, 16),
    "evolve_exact": lambda x: evolve_exact(_START.amplitudes, _CHAIN, x),
    "trotter_error": lambda x: trotter_error(_CHAIN, x, 4),
    "keep_probability": lambda x: keep_probability(_START, _CHAIN, x, 1.0j, 2),
    "exact-ramp": lambda x: adiabatic_prepare(
        _START, staggered_start(3), _CHAIN, AdiabaticSchedule(x, 7)
    ).amplitudes,
    "split-step-ramp": lambda x: adiabatic_prepare(
        _START, staggered_start(3), _CHAIN, AdiabaticSchedule(x, 7), Backend(4)
    ).amplitudes,
}


@pytest.mark.parametrize("entry", sorted(_REAL_ENTRY_POINTS))
def test_float32_reals_compute_as_their_float_values(entry):
    call = _REAL_ENTRY_POINTS[entry]
    value = np.float32(0.7)
    # tobytes also tells a float32 result from a float64 one
    assert np.asarray(call(value)).tobytes() == np.asarray(call(float(value))).tobytes()


def test_choose_tau_rejects_zero_and_junk():
    with pytest.raises(ZeroEnergyError, match="energy_override"):
        choose_tau(0.0, TauMode.QUARTER)
    with pytest.raises(ZeroEnergyError):
        choose_tau(1e-13, TauMode.FULL)
    with pytest.raises(ValueError, match="finite"):
        choose_tau(float("nan"), TauMode.QUARTER)
    with pytest.raises(ValueError, match="finite"):
        choose_tau("2", TauMode.QUARTER)
    for energy in (True, 1j, 10**400):
        with pytest.raises(ValueError, match=f"estimate {energy!r} must be a finite real number"):
            choose_tau(energy, TauMode.QUARTER)
    assert choose_tau(np.float64(2.0), TauMode.QUARTER) == choose_tau(2.0, TauMode.QUARTER)


# ---------------------------------------------------------------------------
# predicted keep probability


def test_keep_probability_on_flat_superposition():
    # J=0 chain has levels -1 and +1; |0> splits evenly between them, and
    # tau = pi/2 with phi = i puts them at angles pi (blocked) and 0 (passed)
    op = schwinger_hamiltonian(1, 0.0)
    state = StateVector.basis("0")
    assert keep_probability(state, op, math.pi / 2.0, 1.0j) == pytest.approx(0.5)
    assert keep_probability(state, op, math.pi / 2.0, 1.0j, ancillas=3) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="positive"):
        keep_probability(state, op, math.pi / 2.0, 1.0j, ancillas=0)
    for tau in (True, "1", 1j, float("nan")):
        with pytest.raises(ValueError, match=f"time {tau!r} must be a finite real number"):
            keep_probability(state, op, tau, 1.0j)


def test_keep_probability_at_theta_pi():
    # tau = pi with phi = 1 puts the levels at theta = +pi and -pi: both blocked
    op = schwinger_hamiltonian(1, 0.0)
    assert keep_probability(StateVector.basis("0"), op, math.pi, 1.0 + 0.0j) == pytest.approx(
        0.0, abs=1e-15
    )


@pytest.mark.parametrize("tau", [1000.3, -7.5e4])
def test_keep_probability_at_large_angles(tau):
    # tau * e far beyond 2 pi, against the unwrapped formula of acceptance
    # criterion 02 and against the round itself
    op = schwinger_hamiltonian(1, 1.0)
    state = StateVector.basis("0")
    w_minus = 1.0 / (1.0 + (1.0 + ROOT2) ** 2)
    theta_plus = math.pi / 2.0 - tau * ROOT2
    theta_minus = math.pi / 2.0 + tau * ROOT2
    for ancillas in (1, 2):
        oracle = (1.0 - w_minus) * math.cos(theta_plus / 2.0) ** (2 * ancillas) + (
            w_minus * math.cos(theta_minus / 2.0) ** (2 * ancillas)
        )
        predicted = keep_probability(state, op, tau, 1.0j, ancillas)
        assert abs(predicted - oracle) < 1e-10
        _, p = twirl_round(state, op, tau, 1.0j, ancillas)
        assert abs(predicted - p) < 1e-10


# ---------------------------------------------------------------------------
# single rounds


def test_eigenstate_is_a_fixed_point():
    op = schwinger_hamiltonian(1, 1.0)
    ground = eigendecompose(op).eigenstate(0)
    tau, prefactor = choose_tau(-ROOT2, TauMode.QUARTER)
    posterior, p = twirl_round(ground, op, tau, prefactor)
    assert p == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(posterior.amplitudes, ground.amplitudes, atol=1e-10)


def test_keep_probability_matches_twirl_round():
    op = schwinger_hamiltonian(3, 1.0)
    state = StateVector.basis("101")
    energy = expectation(state, op)
    assert energy == pytest.approx(-2.0)
    tau, prefactor = choose_tau(energy, TauMode.QUARTER)
    for ancillas in (1, 2, 4):
        _, p = twirl_round(state, op, tau, prefactor, ancillas=ancillas)
        predicted = keep_probability(state, op, tau, prefactor, ancillas)
        assert p == pytest.approx(predicted, abs=1e-10)


def test_four_ancilla_round_reference_probability():
    # frozen reference for the ground-suite first round
    op = schwinger_hamiltonian(3, 1.0)
    state = StateVector.basis("101")
    tau, prefactor = choose_tau(-2.0, TauMode.QUARTER)
    _, p = twirl_round(state, op, tau, prefactor, ancillas=4)
    assert p == pytest.approx(0.564614, abs=1e-6)


def test_full_extinction_raises():
    # tau = pi on the J=0 chain sends |0> to minus itself
    op = schwinger_hamiltonian(1, 0.0)
    with pytest.raises(PostSelectionError, match="no support"):
        twirl_round(StateVector.basis("0"), op, math.pi, 1.0 + 0.0j)


def test_round_argument_validation():
    op = schwinger_hamiltonian(1, 1.0)
    state = StateVector.basis("0")
    # the predicted keep probability refuses what the round refuses, NaN included
    for prefactor in (0.5j, complex("nan"), complex("nan+1j"), complex("inf")):
        message = re.escape(f"prefactor {prefactor!r} must have unit modulus")
        with pytest.raises(ValueError, match=message):
            twirl_round(state, op, 1.0, prefactor)
        with pytest.raises(ValueError, match=message):
            keep_probability(state, op, 1.0, prefactor)
    with pytest.raises(ValueError, match="positive"):
        twirl_round(state, op, 1.0, 1.0j, ancillas=0)
    # tau * e is 1e400, so the phases, and with them the keep probability, would be NaN
    op = PauliSum(1, (PauliTerm(1e200, "Z"),))
    message = re.escape("evolution time 1e+200 times summed |coefficient| 1e+200 overflows")
    with pytest.raises(ValueError, match=message):
        twirl_round(state, op, 1e200, 1j)
    with pytest.raises(ValueError, match=message):
        keep_probability(state, op, 1e200, 1j)
    # split-step: the rotation angle c * tau / (2 steps) would overflow before any cos
    with pytest.raises(ValueError, match=message):
        twirl_round(state, op, 1e200, 1j, backend=Backend(4))


def test_large_finite_time_still_evolves():
    # |tau| * sum |c| is 1e300, far from the float range's edge
    op = schwinger_hamiltonian(1, 0.0)
    state = StateVector.basis("0")
    for evolved in (
        evolve_exact(state.amplitudes, op, 1e300),
        evolve_trotter(state.amplitudes, op, 1e300, 4),
    ):
        assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12
    assert math.isfinite(keep_probability(state, op, 1e300, 1j))


_BIG_Z = PauliSum(1, (PauliTerm(1e200, "Z"),))
_ZERO = StateVector.basis("0")
# each evolution entry point at a time whose product with the summed |coefficient| overflows
_OVERFLOW_ENTRY_POINTS = {
    "evolve_exact": lambda: evolve_exact(_ZERO.amplitudes, _BIG_Z, 1e200),
    "evolve_trotter": lambda: evolve_trotter(_ZERO.amplitudes, _BIG_Z, 1e200, 4),
    "trotter_error": lambda: trotter_error(_BIG_Z, 1e200, 4),
    "keep_probability": lambda: keep_probability(_ZERO, _BIG_Z, 1e200, 1j),
    "twirl_round-exact": lambda: twirl_round(_ZERO, _BIG_Z, 1e200, 1j),
    "twirl_round-trotter": lambda: twirl_round(_ZERO, _BIG_Z, 1e200, 1j, backend=Backend(4)),
    "adiabatic-start": lambda: adiabatic_prepare(
        _ZERO, _BIG_Z, single_z(1, 0), AdiabaticSchedule(1e200, 1)
    ),
    "adiabatic-target": lambda: adiabatic_prepare(
        _ZERO, single_z(1, 0), _BIG_Z, AdiabaticSchedule(1e200, 1), Backend(4)
    ),
}


@pytest.mark.parametrize("entry", sorted(_OVERFLOW_ENTRY_POINTS))
def test_every_evolution_refuses_an_overflowing_time(entry):
    # |tau| * sum |c| is 1e400; a warning would fail the test, as pytest turns it into an error
    message = re.escape("evolution time 1e+200 times summed |coefficient| 1e+200 overflows")
    with pytest.raises(ValueError, match=f"^{message}$"):
        _OVERFLOW_ENTRY_POINTS[entry]()


# ---------------------------------------------------------------------------
# loop oracle: a validated state around every evolution, one per ancilla


def _oracle_evolve(state, op, tau, steps):
    if steps is None:
        dec = spectral._eigensystem(op)
        values, vectors = dec.eigenvalues, dec.eigenvectors
        amps = vectors @ ((vectors.conj().T @ state.amplitudes) * np.exp(-1j * tau * values))
    else:
        amps = split_step_sweep(state.amplitudes, op, tau, steps)
    return StateVector(state.n_qubits, amps)


def _oracle_round(state, op, tau, prefactor, ancillas, steps):
    current, probability = state, 1.0
    for _ in range(ancillas):
        evolved = _oracle_evolve(current, op, tau, steps)
        mixed = 0.5 * (current.amplitudes + prefactor * evolved.amplitudes)
        kept = float(np.vdot(mixed, mixed).real)
        current = StateVector(state.n_qubits, mixed / math.sqrt(kept))
        probability *= kept
    return current, probability


def _random_op(rng, n_qubits):
    terms = []
    for _ in range(int(rng.integers(1, 6))):
        axes = "".join(rng.choice(list("IXYZ"), n_qubits))
        coeff = float(rng.choice([0.5, 1.0, -1.0])) if rng.random() < 0.5 else float(rng.normal())
        terms.append(PauliTerm(coeff, axes))
    return PauliSum(n_qubits, tuple(terms))


def _random_state(rng, n_qubits):
    raw = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return StateVector.from_amplitudes(raw)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_rounds_match_state_per_ancilla_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n_qubits = int(rng.integers(1, 6))
        op = _random_op(rng, n_qubits)
        state = _random_state(rng, n_qubits)
        tau = float(rng.uniform(-4.0, 4.0))
        prefactor = 1.0j if rng.random() < 0.5 else 1.0 + 0.0j
        ancillas = int(rng.integers(1, 6))
        steps = None if rng.random() < 0.5 else int(rng.integers(1, 9))
        backend = Backend(steps)
        expected, p_expected = _oracle_round(state, op, tau, prefactor, ancillas, steps)
        posterior, p = twirl_round(state, op, tau, prefactor, ancillas, backend)
        assert posterior.amplitudes.tobytes() == expected.amplitudes.tobytes()
        assert np.float64(p).tobytes() == np.float64(p_expected).tobytes()
    for n_qubits in (1, 2, 3):
        op = schwinger_hamiltonian(n_qubits, 1.0)
        state = StateVector.basis(("10" * n_qubits)[:n_qubits])
        for steps in (None, 16):
            backend = Backend(steps)
            for prefactor, tau in ((1.0j, -0.75), (1.0 + 0.0j, 2.5)):
                expected, p_expected = _oracle_round(state, op, tau, prefactor, 4, steps)
                posterior, p = twirl_round(state, op, tau, prefactor, 4, backend)
                assert posterior.amplitudes.tobytes() == expected.amplitudes.tobytes()
                assert np.float64(p).tobytes() == np.float64(p_expected).tobytes()


@pytest.mark.parametrize("backend", [Backend(), Backend(4)], ids=["exact", "trotter:4"])
def test_posterior_is_frozen_and_normalized(backend):
    op = schwinger_hamiltonian(3, 1.3)
    posterior, _ = twirl_round(StateVector.basis("101"), op, 0.9, 1.0j, 2, backend)
    assert not posterior.amplitudes.flags.writeable
    assert abs(np.linalg.norm(posterior.amplitudes) - 1.0) <= NORM_TOL
    assert posterior.amplitudes.dtype == complex and posterior.n_qubits == 3


@pytest.mark.parametrize("seed", [1, 2])
def test_split_step_ramp_matches_state_per_slice_oracle(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(20):
        n_qubits = int(rng.integers(1, 6))
        start, target = _random_op(rng, n_qubits), _random_op(rng, n_qubits)
        cases.append((_random_state(rng, n_qubits), start, target))
    for n_qubits in (1, 2, 3):
        label = ("10" * n_qubits)[:n_qubits]
        cases.append((label, staggered_start(n_qubits), schwinger_hamiltonian(n_qubits, 1.0)))
    for initial, start, target in cases:
        steps = int(rng.integers(1, 5))
        schedule = AdiabaticSchedule(float(rng.uniform(0.1, 10.0)), int(rng.integers(1, 30)))
        expected = StateVector.basis(initial) if isinstance(initial, str) else initial
        dt = schedule.total_time / schedule.steps
        for k in range(schedule.steps):
            s = (k + 0.5) / schedule.steps
            amps = split_step_sweep(expected.amplitudes, (1.0 - s) * start + s * target, dt, steps)
            expected = StateVector(expected.n_qubits, amps)
        prepared = adiabatic_prepare(initial, start, target, schedule, Backend(steps))
        assert prepared.amplitudes.tobytes() == expected.amplitudes.tobytes()


# ---------------------------------------------------------------------------
# configuration containers


def test_backend_parse_and_label():
    assert Backend.parse("exact") == Backend()
    assert Backend.parse("trotter:64") == Backend(64)
    assert Backend.parse("trotter:64").label() == "trotter:64"
    assert Backend().label() == "exact"
    with pytest.raises(ValueError, match="unknown backend"):
        Backend.parse("trotter:lots")
    with pytest.raises(ValueError, match="unknown backend"):
        Backend.parse("magic")
    with pytest.raises(ValueError, match="positive integer"):
        Backend(0)
    # the step count alone says which route: None is exact
    assert [field.name for field in dataclasses.fields(Backend)] == ["steps"]


def test_round_spec_validation():
    with pytest.raises(ValueError, match="TauMode"):
        RoundSpec("quarter")
    with pytest.raises(ValueError, match="finite"):
        RoundSpec(TauMode.FULL, energy_override=float("inf"))
    for energy in (True, "1", 1j):
        with pytest.raises(ValueError, match=f"override {energy!r} must be a finite real number"):
            RoundSpec(TauMode.FULL, energy_override=energy)
    assert RoundSpec(TauMode.FULL, energy_override=np.float64(0.5)).energy_override == 0.5
    with pytest.raises(ValueError, match="positive integer"):
        RoundSpec(TauMode.QUARTER, ancillas=0)


def test_config_validation():
    quarter = RoundSpec(TauMode.QUARTER)
    with pytest.raises(ValueError, match="at least one round"):
        TwirlConfig(rounds=())
    with pytest.raises(ValueError, match="shot count"):
        TwirlConfig(rounds=(quarter,), shots=0)
    with pytest.raises(ValueError, match="at least one observable"):
        TwirlConfig(rounds=(quarter,), observables=())
    with pytest.raises(ValueError, match="noisy_energy"):
        TwirlConfig(rounds=(quarter,), noisy_energy=True)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwirlConfig(rounds=(RoundSpec(TauMode.QUARTER),), shots=True),
        lambda: Backend(True),
        lambda: RoundSpec(TauMode.QUARTER, ancillas=True),
        lambda: twirl_round(StateVector.basis("0"), schwinger_hamiltonian(1, 1.0), 1.0, 1.0j,
                            ancillas=True),
        lambda: twirl_round(StateVector.basis("0"), schwinger_hamiltonian(1, 1.0), 1.0, 1.0j,
                            ancillas=2.0),
        lambda: keep_probability(StateVector.basis("0"), schwinger_hamiltonian(1, 1.0), 1.0, 1.0j,
                                 ancillas=True),
        lambda: keep_probability(StateVector.basis("0"), schwinger_hamiltonian(1, 1.0), 1.0, 1.0j,
                                 ancillas=1.5),
        lambda: AdiabaticSchedule(steps=True),
        lambda: evolve_trotter(StateVector.basis("0").amplitudes, schwinger_hamiltonian(1, 1.0),
                               1.0, True),
        lambda: trotter_error(schwinger_hamiltonian(1, 1.0), 1.0, True),
        lambda: sample_shots(StateVector.basis("0"), [("Z", single_z(1, 0))], True,
                             stream_starts(1, 3, 2)[2][1:]),
        lambda: sample_shots(StateVector.basis("0"), [("Z", single_z(1, 0))], 10.5,
                             stream_starts(1, 3, 2)[2][1:]),
        lambda: PauliSum(True, (PauliTerm(1.0, "X"),)),
        lambda: PauliSum(2.0, (PauliTerm(1.0, "XX"),)),
        lambda: StateVector(1.0, [1.0, 0.0]),
        lambda: schwinger_hamiltonian(2.0, 1.0),
        lambda: single_z(2.0, 1),
        lambda: staggered_start(2.0),
    ],
    ids=[
        "shots", "backend-steps", "ancillas", "round-ancillas", "round-float-ancillas",
        "profile-ancillas", "profile-float-ancillas", "ramp-steps", "evolve-steps", "error-steps",
        "active", "float-active", "operator-qubits", "operator-float-qubits",
        "state-float-qubits", "hamiltonian-float-qubits", "z-float-qubits",
        "staggered-float-qubits",
    ],
)
def test_counts_reject_booleans(build):
    # a bool is an int and 2.0 compares equal to 2, but neither is a count
    # the message names the rule and ends with the value refused
    with pytest.raises(ValueError, match=r"(positive|non-negative) integer.*, got (True|\d+\.\d)$"):
        build()


# ---------------------------------------------------------------------------
# full protocol runs


def test_protocol_record_structure():
    op = schwinger_hamiltonian(1, 1.0)
    config = TwirlConfig(rounds=(RoundSpec(TauMode.QUARTER),) * 3, observables=("H", "Z"))
    records = run_protocol("0", op, config)
    assert len(records) == 4
    first = records[0]
    assert first.round_index == 0
    assert first.energy_used is None and first.tau is None and first.prefactor is None
    assert first.p_round == 1.0 and first.p_cumulative == 1.0
    assert first.active_count is None
    assert list(first.expectations) == ["H", "Z"]
    assert first.expectations["H"] == pytest.approx(1.0)
    assert records[1].energy_used == pytest.approx(1.0)
    assert records[1].tau == pytest.approx(math.pi / 2.0)
    assert records[1].prefactor == 1.0j
    assert records[1].p_round == pytest.approx(0.7813200, abs=1e-6)
    running = 1.0
    for record in records[1:]:
        running *= record.p_round
        assert record.p_cumulative == pytest.approx(running, abs=1e-12)


def test_protocol_converges_toward_nearest_level():
    op = schwinger_hamiltonian(1, 1.0)
    config = TwirlConfig(rounds=(RoundSpec(TauMode.QUARTER),) * 3)
    up = run_protocol("0", op, config)
    down = run_protocol("1", op, config)
    assert up[-1].expectations["H"] == pytest.approx(ROOT2, abs=1e-3)
    assert down[-1].expectations["H"] == pytest.approx(-ROOT2, abs=1e-3)


def test_protocol_replay_is_consistent():
    # replaying the recorded taus reproduces every probability and value
    op = schwinger_hamiltonian(3, 1.0)
    config = TwirlConfig(
        rounds=(RoundSpec(TauMode.QUARTER, ancillas=2),) * 3, observables=("H", "Zbar")
    )
    records = run_protocol("001", op, config)
    state = StateVector.basis("001")
    for record in records[1:]:
        state, p = twirl_round(state, op, record.tau, record.prefactor, ancillas=2)
        assert p == pytest.approx(record.p_round, abs=1e-12)
        assert expectation(state, op) == pytest.approx(record.expectations["H"], abs=1e-12)


def test_exact_protocol_without_h_matches_a_round_by_round_replay():
    # no record lists H, so each estimated round computes <H> itself; the
    # overrides between them take no estimate
    op = schwinger_hamiltonian(3, 1.3)
    rounds = (
        RoundSpec(TauMode.QUARTER, ancillas=2),
        RoundSpec(TauMode.FULL, energy_override=2.2),
        RoundSpec(TauMode.QUARTER),
        RoundSpec(TauMode.QUARTER, energy_override=-0.9, ancillas=3),
        RoundSpec(TauMode.QUARTER),
    )
    observables = {name: named_observable(name, 3) for name in ("Z0", "Zbar")}
    config = TwirlConfig(rounds=rounds, observables=tuple(observables))
    records = run_protocol("100", op, config)
    state = StateVector.basis("100")
    want = [(0, None, None, None, 1.0, 1.0)]
    p_cumulative = 1.0
    for index, spec in enumerate(rounds, start=1):
        energy = expectation(state, op) if spec.energy_override is None else spec.energy_override
        tau, prefactor = choose_tau(energy, spec.mode)
        state, p_round = twirl_round(state, op, tau, prefactor, spec.ancillas)
        p_cumulative *= p_round
        want.append((index, energy, tau, prefactor, p_round, p_cumulative))
        assert records[index].expectations == {
            name: expectation(state, obs) for name, obs in observables.items()
        }, index
    got = [
        (r.round_index, r.energy_used, r.tau, r.prefactor, r.p_round, r.p_cumulative)
        for r in records
    ]
    assert got == want
    assert all(r.active_count is None for r in records)


def test_energy_override_takes_precedence():
    op = schwinger_hamiltonian(3, 1.0)
    config = TwirlConfig(rounds=(RoundSpec(TauMode.FULL, energy_override=-0.2),))
    records = run_protocol("111", op, config)
    assert records[1].energy_used == pytest.approx(-0.2)
    assert records[1].tau == pytest.approx(2.0 * math.pi / -0.2)
    # |111> is a zero mode, so the full-period filter keeps it intact
    assert records[1].p_round == pytest.approx(1.0, abs=1e-12)
    assert records[1].expectations["H"] == pytest.approx(0.0, abs=1e-12)


def test_zero_energy_estimate_names_the_round():
    op = schwinger_hamiltonian(3, 1.0)
    config = TwirlConfig(rounds=(RoundSpec(TauMode.QUARTER),))
    with pytest.raises(ZeroEnergyError, match="round 1: energy estimate is zero"):
        run_protocol("010", op, config)


def test_extinction_in_a_protocol_names_the_round():
    # E=2 gives tau = pi on the J=0 chain, which sends |0> to minus itself
    op = schwinger_hamiltonian(1, 0.0)
    config = TwirlConfig(rounds=(RoundSpec(TauMode.FULL, energy_override=2.0),))
    with pytest.raises(PostSelectionError, match="^round 1: post-selection probability collapsed"):
        run_protocol("0", op, config)


def test_trotter_backend_tracks_exact_at_high_steps():
    op = schwinger_hamiltonian(1, 1.0)
    rounds = (RoundSpec(TauMode.QUARTER),) * 2
    exact = run_protocol("0", op, TwirlConfig(rounds=rounds))
    split = run_protocol("0", op, TwirlConfig(rounds=rounds, backend=Backend(1024)))
    assert split[-1].expectations["H"] == pytest.approx(exact[-1].expectations["H"], abs=1e-6)
    assert split[-1].p_cumulative == pytest.approx(exact[-1].p_cumulative, abs=1e-6)


def test_protocol_register_mismatch():
    op = schwinger_hamiltonian(2, 1.0)
    config = TwirlConfig(rounds=(RoundSpec(TauMode.QUARTER),))
    with pytest.raises(ValueError, match="different registers"):
        run_protocol("0", op, config)
