"""Acceptance suite: one test per shipping criterion.

Each test wraps its body in the ``criterion`` context manager, which
prints a single "acceptance NN label: PASS/FAIL" line (visible with
``pytest -s``; the per-test verdict of ``pytest -v`` carries the same
information). Expected numbers are computed in-test from closed forms
wherever a closed form exists; simulation output is never its own
oracle.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import scipy.stats

from oracles import group_slices, projector
from test_properties import run_pauli_cases, run_spectral_cases, run_twirl_cases
from twirlsim import (
    RoundSpec,
    TauMode,
    TwirlConfig,
    closed_form_spectrum,
    eigendecompose,
    expectation,
    load_manifest,
    run_protocol,
    schwinger_hamiltonian,
    trotter_error,
    twirl_round,
)
from twirlsim.cli import execute_manifest
from twirlsim.pauli import apply_axes, single_z
from twirlsim.spectral import _eigensystem
from twirlsim.state import StateVector

ROOT2 = math.sqrt(2.0)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"acceptance {label}: FAIL")
        raise
    print(f"acceptance {label}: PASS")


def test_criterion_01_spectrum_oracle():
    with criterion("01 spectrum-oracle"):
        _eigensystem.cache_clear()
        start = time.perf_counter()
        for n in (1, 2, 3):
            for j in (0.0, 0.5, 1.0, 2.0, 3.7):
                numeric = eigendecompose(schwinger_hamiltonian(n, j))
                closed = closed_form_spectrum(n, j)
                assert (
                    float(np.max(np.abs(numeric.eigenvalues - closed.eigenvalues)))
                    < 1e-10
                )
                for block in group_slices(closed.eigenvalues):
                    delta = projector(numeric.eigenvectors, block) - projector(
                        closed.eigenvectors, block
                    )
                    assert float(np.max(np.abs(delta))) < 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_02_one_qubit_quarter_filter():
    with criterion("02 one-qubit-quarter-filter"):
        op = schwinger_hamiltonian(1, 1.0)
        config = TwirlConfig(
            rounds=(RoundSpec(TauMode.QUARTER),) * 5, observables=("H", "Z")
        )
        up = run_protocol("0", op, config)
        down = run_protocol("1", op, config)
        assert abs(up[-1].expectations["H"] - 1.414214) <= 1e-3
        assert abs(up[-1].expectations["Z"] - 0.707107) <= 1e-3
        assert abs(down[-1].expectations["H"] + 1.414214) <= 1e-3
        assert abs(down[-1].expectations["Z"] + 0.707107) <= 1e-3
        # analytic round-1 keep probability: |0> weights the +-sqrt(2)
        # levels 1/(1+(1+sqrt 2)^2) apart, and tau = pi/2 sets the angles
        w_minus = 1.0 / (1.0 + (1.0 + ROOT2) ** 2)
        w_plus = 1.0 - w_minus
        theta_plus = (math.pi / 2.0) * (1.0 - ROOT2)
        theta_minus = (math.pi / 2.0) * (1.0 + ROOT2)
        p_oracle = (
            w_plus * math.cos(theta_plus / 2.0) ** 2
            + w_minus * math.cos(theta_minus / 2.0) ** 2
        )
        assert abs(p_oracle - 0.7813200) <= 1e-6
        assert abs(up[1].p_round - p_oracle) <= 1e-6


def test_criterion_03_two_qubit_quarter_filter():
    with criterion("03 two-qubit-quarter-filter"):
        op = schwinger_hamiltonian(2, 1.0)
        config = TwirlConfig(
            rounds=(RoundSpec(TauMode.QUARTER, ancillas=2),) * 5,
            observables=("H", "Z0"),
        )
        up = run_protocol("01", op, config)
        down = run_protocol("10", op, config)
        assert abs(up[-1].expectations["H"] - 1.414214) <= 1e-3
        assert abs(up[-1].expectations["Z0"] - 0.707107) <= 1e-3
        assert abs(down[-1].expectations["H"] + 1.414214) <= 1e-3
        assert abs(down[-1].expectations["Z0"] + 0.707107) <= 1e-3
        # |01> weights mirror the one-qubit case and the corners get
        # nothing; two ancillas square the per-component keep factor
        w_minus = 1.0 / (1.0 + (1.0 + ROOT2) ** 2)
        w_plus = 1.0 - w_minus
        theta_plus = (math.pi / 2.0) * (1.0 - ROOT2)
        theta_minus = (math.pi / 2.0) * (1.0 + ROOT2)
        p_oracle = (
            w_plus * math.cos(theta_plus / 2.0) ** 4
            + w_minus * math.cos(theta_minus / 2.0) ** 4
        )
        assert abs(p_oracle - 0.6896019) <= 1e-6
        assert abs(up[1].p_round - p_oracle) <= 1e-6
        # from |10> the roles of the two levels swap and p is unchanged
        assert abs(down[1].p_round - p_oracle) <= 1e-6


def test_criterion_04_three_qubit_convergence():
    with criterion("04 three-qubit-convergence"):
        expectations = [
            ("table-03", 2.44949, -0.11111),
            ("table-11", -2.44949, -0.11117),
            ("table-12", -2.73205, -0.71823),
        ]
        for name, h_target, zbar_target in expectations:
            manifest = load_manifest(name)
            assert len(manifest.config.rounds) <= 4
            assert manifest.config.backend.label() == "exact"
            start = time.perf_counter()
            result = execute_manifest(manifest)
            elapsed = time.perf_counter() - start
            final = result.records[-1].expectations
            assert abs(final["H"] - h_target) <= 5e-3
            assert abs(final["Zbar"] - zbar_target) <= 5e-3
            assert elapsed < 1.0


def test_criterion_05_zero_mode_override_schedule():
    with criterion("05 zero-mode-override-schedule"):
        result = execute_manifest(load_manifest("table-08"))
        overrides = [spec.energy_override for spec in result.manifest.config.rounds]
        assert overrides == [-1.0, 2.0, -3.0, 4.0]
        final = result.records[-1].expectations
        assert abs(final["H"] - 0.0) <= 1e-6
        assert abs(final["Zbar"] - 0.55556) <= 1e-3
        assert abs(final["Z0"] - 0.66667) <= 1e-3
        assert abs(final["Z1"] + 0.33333) <= 1e-3
        assert abs(final["Z2"] - 0.66667) <= 1e-3


def test_criterion_06_mixed_schedule_zero_mode():
    with criterion("06 mixed-schedule-zero-mode"):
        result = execute_manifest(load_manifest("table-09"))
        modes = [spec.mode for spec in result.manifest.config.rounds]
        assert modes == [TauMode.FULL, TauMode.QUARTER, TauMode.FULL, TauMode.FULL]
        # after the first full round the state's energy vanishes exactly
        # (the two damped levels share one filter angle and cancel), so
        # the quarter round cannot run from a measured estimate and the
        # manifest pins the reference run's reported value instead
        assert abs(result.records[1].expectations["H"]) < 1e-12
        final = result.records[-1].expectations
        assert abs(final["Z1"] + 1.0) <= 1e-3
        assert abs(final["H"] - 0.0) <= 1e-6


def test_criterion_07_eigenstate_fixed_points():
    with criterion("07 eigenstate-fixed-points"):
        for name in ("table-04", "table-10"):
            result = execute_manifest(load_manifest(name))
            before = result.records[0].expectations
            after = result.records[-1].expectations
            for record in result.records[1:]:
                assert abs(record.p_round - 1.0) <= 1e-12
            for key in before:
                assert abs(after[key] - before[key]) <= 1e-12


def test_criterion_08_shot_noise_soundness():
    with criterion("08 shot-noise-soundness"):
        op = schwinger_hamiltonian(1, 1.0)
        shots = 10**6
        rounds = (RoundSpec(TauMode.QUARTER),) * 5
        exact = run_protocol(
            "0", op, TwirlConfig(rounds=rounds, observables=("H", "Z"))
        )
        # replay the exact trajectory to get per-term outcome means
        states = [StateVector.basis("0")]
        for record in exact[1:]:
            advanced, _ = twirl_round(
                states[-1], op, record.tau, record.prefactor
            )
            states.append(advanced)
        resolved = [("H", op), ("Z", single_z(1, 0))]

        def bounds(state, observable, active):
            variance = 0.0
            for term in observable.terms:
                mean = float(
                    np.real(
                        np.vdot(
                            state.amplitudes, apply_axes(state.amplitudes, term.axes)
                        )
                    )
                )
                variance += term.coeff**2 * max(0.0, 1.0 - mean * mean) / active
            return 5.0 * math.sqrt(variance)

        chi_square = 0.0
        draws = 0
        for seed in range(20):
            sampled = run_protocol(
                "0",
                op,
                TwirlConfig(
                    rounds=rounds, shots=shots, seed=seed, observables=("H", "Z")
                ),
            )
            for k, record in enumerate(sampled):
                assert 0 < record.active_count <= shots
                for name, observable in resolved:
                    want = expectation(states[k], observable)
                    margin = bounds(states[k], observable, record.active_count)
                    assert abs(record.expectations[name] - want) <= margin + 1e-12
                if k >= 1:
                    p = record.p_cumulative
                    chi_square += (record.active_count - shots * p) ** 2 / (
                        shots * p * (1.0 - p)
                    )
                    draws += 1
        assert draws == 100
        assert scipy.stats.chi2.sf(chi_square, draws) > 0.001


def test_criterion_09_split_step_order():
    with criterion("09 split-step-order"):
        for n in (1, 2, 3):
            op = schwinger_hamiltonian(n, 1.0)
            errors = {
                steps: trotter_error(op, math.pi / 2.0, steps) for steps in (8, 16, 32)
            }
            for coarse, fine in ((8, 16), (16, 32)):
                ratio = errors[coarse] / errors[fine]
                assert 3.4 <= ratio <= 4.7


def test_criterion_10_ramp_then_filter():
    with criterion("10 ramp-then-filter"):
        result = execute_manifest(load_manifest("table-13"))
        assert result.manifest.prepare is not None
        assert result.manifest.prepare.total_time == 20.0
        assert result.manifest.prepare.steps == 400
        prepared = result.records[0].expectations["H"]
        assert abs(prepared + 2.73169) <= 0.005
        final = result.records[-1].expectations["H"]
        assert abs(final + 2.73205) <= 1e-3


def test_criterion_11_randomized_invariants():
    with criterion("11 randomized-invariants"):
        start = time.perf_counter()
        total = 0
        total += run_pauli_cases(340, seed=101)
        total += run_spectral_cases(330, seed=102)
        total += run_twirl_cases(330, seed=103)
        assert total == 1000
        assert time.perf_counter() - start < 60.0
