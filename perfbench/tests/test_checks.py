"""Each output check passes on a correct output and fails on a corrupted one.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
The first part feeds the checks plain numbers; the second runs a few real
estimates of two workloads, corrupts their recorded outputs and requires the
workload's own ``check()`` to report each corruption.
"""

from __future__ import annotations

import math
import struct
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (  # noqa: E402
    EXACT_TOLERANCE,
    CheckError,
    anytime_radius,
    check_close,
    check_identical,
    check_kappa,
    check_round_indices,
    hoeffding_radius,
    nme_kappa,
    noise_radius,
    parity_mean,
    statevector_expectation,
)


def _flip_last_bit(value: float) -> float:
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


# -- the reference statevector ------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2, 2.9])
def test_rotations_match_closed_forms(theta):
    assert statevector_expectation(1, [("ry", (0,), (theta,))], "Z") == pytest.approx(math.cos(theta))
    assert statevector_expectation(1, [("ry", (0,), (theta,))], "X") == pytest.approx(math.sin(theta))
    assert statevector_expectation(1, [("rx", (0,), (theta,))], "Y") == pytest.approx(-math.sin(theta))
    ops = [("h", (0,), ()), ("rz", (0,), (theta,))]
    assert statevector_expectation(1, ops, "X") == pytest.approx(math.cos(theta))


def test_ghz_and_reversed_cx():
    ghz = [("h", (0,), ()), ("cx", (0, 1), ()), ("cx", (1, 2), ())]
    assert statevector_expectation(3, ghz, "ZZI") == pytest.approx(1.0)
    assert statevector_expectation(3, ghz, "ZZZ") == pytest.approx(0.0)
    assert statevector_expectation(3, ghz, "XXX") == pytest.approx(1.0)
    reversed_cx = [("x", (1,), ()), ("cx", (1, 0), ())]
    assert statevector_expectation(2, reversed_cx, "ZI") == pytest.approx(-1.0)
    assert statevector_expectation(2, reversed_cx, "IZ") == pytest.approx(-1.0)


# -- corrupted outputs fail ---------------------------------------------------------------


def test_shifted_exact_value_fails():
    uncut = 0.2894397581191178
    check_close(uncut + 1e-12, uncut, EXACT_TOLERANCE, "exact")
    with pytest.raises(CheckError):
        check_close(uncut + 1e-8, uncut, EXACT_TOLERANCE, "exact")
    with pytest.raises(CheckError):
        check_close(float("nan"), uncut, EXACT_TOLERANCE, "exact")


def test_wrong_kappa_fails():
    check_kappa((2 / 0.75 - 1) ** 2, [nme_kappa(0.75)] * 2, "nme")
    check_kappa(27.0, [3.0] * 3, "harada")
    with pytest.raises(CheckError):
        check_kappa((2 / 0.75 - 1) ** 2 * (1 + 1e-9), [nme_kappa(0.75)] * 2, "nme")
    with pytest.raises(CheckError):
        check_kappa(nme_kappa(0.6) ** 2, [nme_kappa(0.75)] * 2, "nme at another overlap")
    with pytest.raises(CheckError):
        check_kappa(9.0, [3.0] * 3, "harada at three cuts")


def test_hoeffding_radius_and_shifted_estimate():
    coefficients, shots, delta = [1.0, -1.0, 1.0], [400, 400, 200], 1e-8
    radius = hoeffding_radius(coefficients, shots, delta)
    assert radius == pytest.approx(math.sqrt(2 * math.log(2 / delta) * (1 / 400 + 1 / 400 + 1 / 200)))
    check_close(0.3 + 0.99 * radius, 0.3, radius, "estimate")
    with pytest.raises(CheckError):
        check_close(0.3 + 1.01 * radius, 0.3, radius, "estimate")
    # A term without shots may bias the estimate by its whole coefficient.
    assert hoeffding_radius([1.0, 2.0], [100, 0], delta) == pytest.approx(
        math.sqrt(2 * math.log(2 / delta) / 100) + 2.0
    )


def test_anytime_radius_is_wider_and_catches_a_shift():
    coefficients, shots, delta = [0.8, -0.5, 0.4], [3000, 1500, 900], 1e-9
    fixed = hoeffding_radius(coefficients, shots, delta)
    anytime = anytime_radius(coefficients, shots, 20000, delta)
    assert anytime > fixed
    with pytest.raises(CheckError):
        check_close(-0.1 + 2 * anytime, -0.1, anytime, "adaptive estimate")


def test_hoeffding_holds_on_simulated_shots():
    rng = __import__("numpy").random.default_rng(7)
    coefficients, means, shots = [1.5, -0.5, 1.0], [0.2, -0.7, 0.9], [300, 120, 80]
    truth = sum(c * m for c, m in zip(coefficients, means))
    radius = hoeffding_radius(coefficients, shots, 0.01)
    misses = 0
    for _ in range(2000):
        estimate = sum(
            c * (2 * rng.binomial(n, (1 + m) / 2) / n - 1) for c, m, n in zip(coefficients, means, shots)
        )
        misses += abs(estimate - truth) > radius
    assert misses <= 20


@pytest.mark.parametrize(
    "indices",
    [[0, 2], [0, 1, 1, 2], [1, 0, 2], [0, 1, 2, 3], []],
    ids=["dropped", "repeated", "out-of-order", "extra", "missing"],
)
def test_bad_sse_rounds_fail(indices):
    check_round_indices([0, 1, 2], 3, "job")
    with pytest.raises(CheckError):
        check_round_indices(indices, 3, "job")


def test_flipped_bit_fails():
    payload = {"value": 0.123456789, "shots": [10, 20], "rounds": [{"means": [0.25, -0.5]}]}
    check_identical(payload, {"value": 0.123456789, "shots": [10, 20], "rounds": [{"means": [0.25, -0.5]}]}, "x")
    with pytest.raises(CheckError):
        check_identical(payload, {**payload, "value": _flip_last_bit(0.123456789)}, "x")
    with pytest.raises(CheckError):
        check_identical(payload, {**payload, "rounds": [{"means": [0.25, _flip_last_bit(-0.5)]}]}, "x")
    with pytest.raises(CheckError):
        check_identical({"value": 0.0}, {"value": -0.0}, "signed zero")


def test_noise_radius_and_shifted_fleet_value():
    noise = {"depolarizing_1q": 0.001, "depolarizing_2q": 0.01, "readout_p01": 0.01, "readout_p10": 0.02}
    radius = noise_radius([1, 2, 2, 1], 3, noise)
    assert radius == pytest.approx(2 * (0.001 + 0.01 + 0.01 + 0.001) + 2 * 3 * 0.02)
    assert noise_radius([1, 2], 2, {}) == 0.0
    assert noise_radius([2] * 500, 1, {"depolarizing_2q": 0.05}) == 2.0
    gamma = 0.01
    assert noise_radius([2], 0, {"amplitude_damping": gamma}) == pytest.approx(2 * (3 * gamma + gamma**2))
    with pytest.raises(CheckError):
        check_close(0.5 + 1.5 * radius, 0.5, radius, "fleet value")


def test_parity_mean_reads_bit_positions():
    distribution = {"00": 0.5, "11": 0.25, "10": 0.25}
    assert parity_mean(distribution, [0, 1]) == pytest.approx(0.5)
    assert parity_mean(distribution, [0]) == pytest.approx(0.0)
    assert parity_mean(distribution, [1]) == pytest.approx(0.5)


# -- corrupted outputs of real estimates fail in the workloads' own checks ----------------


def _run_rounds(workload, rounds):
    workload.setup()
    try:
        for index in range(rounds):
            workload.run_round(index, traced=False)
    finally:
        workload.teardown()
    assert workload.failed == 0


def test_chain_workload_reports_corruptions():
    from chain import Chain3Cut

    workload = Chain3Cut(seed=3, trace=False)
    _run_rounds(workload, 1)
    workload.check()
    assert workload.errors == []
    record = workload.records[0]
    record["exact"] += 1e-7
    workload.records[1]["kappa"] = 26.0
    workload.records[2]["value"] += 50.0
    workload.check()
    assert len(workload.errors) == 3
    assert "exact contraction" in workload.errors[0]
    assert "κ" in workload.errors[1]
    assert "sampled estimate" in workload.errors[2]


def test_fleet_workload_reports_a_flipped_bit():
    from fleet import AdaptiveFleet

    workload = AdaptiveFleet(seed=3, trace=False)
    _run_rounds(workload, 1)
    workload.check()
    assert workload.errors == []
    bits = workload.records[0]["bits"]
    bits["means"][0] = _flip_last_bit(bits["means"][0])
    workload.check()
    assert len(workload.errors) == 1
    assert "distributed vs in-process" in workload.errors[0]
