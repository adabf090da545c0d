"""Acceptance gate: one printed pass/fail line per criterion.

Run with pytest; each criterion prints a `[PASS]`/`[FAIL]` summary line
with the measured numbers next to the required bounds.
"""

import json
import os
import time

import numpy as np
import pytest

import test_inekf as inekf_suite
from tenseg.cli import main as cli_main
from tenseg.evaluate import drift_percent
from tenseg.inekf import ImuSample, correct_contact, propagate
from tenseg.liegroup import GroupElement, compose, embedding, inverse, sek3_exp, sek3_log, so3_exp
from tenseg.shape import (
    CableMeasurements,
    RobotShape,
    ShapeSolverConfig,
    asymmetric_stance,
    canonical_prism,
    check_constraints,
    reconstruct_shape,
)
from tenseg.simulator import SimConfig, corrupt, generate


def emit(capsys, ok, line):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {line}", flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: shape reconstruction accuracy and solve time


def _distance_rmse(cables, truth_vec, cfg, prior):
    errs = []
    times = []
    for meas in cables:
        t0 = time.perf_counter()
        prior = reconstruct_shape(meas, prior, cfg)
        times.append(time.perf_counter() - t0)
        errs.append(prior.cable_lengths() - truth_vec)
    return float(np.sqrt(np.mean(np.square(errs)))), float(np.mean(times))


def test_criterion_1_shape_rmse_and_runtime(capsys):
    cfg = ShapeSolverConfig()
    sim = generate(SimConfig(maneuver="forward", target_length=27.5))
    assert sim.frames[-1].timestamp >= 60.0
    truth_vec = RobotShape(0.0, sim.body_shape).cable_lengths()
    prior = RobotShape(0.0, sim.body_shape)

    rmse_clean, _ = _distance_rmse(sim.cables, truth_vec, cfg, prior)
    noisy = corrupt(sim, seed=11, cable_noise=0.005)
    rmse_noisy, mean_solve = _distance_rmse(noisy.cables, truth_vec, cfg, prior)

    ok = rmse_noisy <= 0.05 and rmse_clean <= 1e-3 and mean_solve <= 0.010
    emit(capsys, ok,
         "criterion 1: shape distance RMSE noisy %.4f m (<= 0.05), "
         "zero-noise %.2e m (<= 1e-3), mean solve %.2f ms (<= 10) "
         "over %d frames / %.0f s"
         % (rmse_noisy, rmse_clean, 1e3 * mean_solve, len(sim.cables),
            sim.frames[-1].timestamp))


# ---------------------------------------------------------------------------
# criterion 2: drift on the three maneuvers


@pytest.mark.parametrize("maneuver", ["forward", "backward", "right_turn"])
def test_criterion_2_drift(capsys, tmp_path, maneuver):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"maneuver = {maneuver}\ncable_noise = 0.005\n")
    assert cli_main(["pipeline", "--out-dir", str(tmp_path), "--seed", "42",
                     "--config", str(cfg_path), "--log-level", "ERROR"]) == 0
    wall = time.perf_counter() - t0
    report = json.loads((tmp_path / "metrics.json").read_text())
    ok = report["drift_pct"] <= 8.0 and wall < 60.0
    emit(capsys, ok,
         "criterion 2 (%s): drift %.2f%% (<= 8%%) over %.2f m, "
         "RPE %.4f m/m, wall %.1f s (< 60)"
         % (maneuver, report["drift_pct"], report["path_length_m"],
            report["rpe_rmse_m_per_m"], wall))


# ---------------------------------------------------------------------------
# criterion 3: filter micro-benchmarks


def test_criterion_3_runtimes(capsys):
    shape = RobotShape(0.0, asymmetric_stance(ShapeSolverConfig()))
    st, _ = inekf_suite.state_with_contact(3)
    imu = ImuSample(0.0, np.array([0.0, 0.0, 9.81]), np.zeros(3))
    n = 2000
    t0 = time.perf_counter()
    s = st
    for _ in range(n):
        s = propagate(s, imu, 0.005)
    t_prop = (time.perf_counter() - t0) / n
    t0 = time.perf_counter()
    for _ in range(n):
        correct_contact(st, 3, shape, inekf_suite.COV_FK)
    t_corr = (time.perf_counter() - t0) / n
    ok = t_prop < 100e-6 and t_corr < 200e-6
    emit(capsys, ok,
         "criterion 3: propagate %.1f us (< 100), correction %.1f us (< 200)"
         % (1e6 * t_prop, 1e6 * t_corr))


# ---------------------------------------------------------------------------
# criterion 4: property suites


def test_criterion_4a_lie_group_axioms(capsys):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        elems = [GroupElement(so3_exp(rng.normal(size=3)),
                              rng.normal(size=(3, 3))) for _ in range(3)]
        a, b, c = elems
        lhs = embedding(compose(compose(a, b), c))
        rhs = embedding(compose(a, compose(b, c)))
        worst = max(worst, np.max(np.abs(lhs - rhs)))
        e = compose(a, inverse(a))
        worst = max(worst, np.max(np.abs(embedding(e) - np.eye(6))))
        xi = rng.normal(size=12) * 0.5
        worst = max(worst, np.max(np.abs(sek3_log(sek3_exp(xi)) - xi)))
    ok = worst < 1e-9
    emit(capsys, ok,
         "criterion 4a: Lie group axioms / exp-log round trips, "
         "max residual %.2e (< 1e-9)" % worst)


def test_criterion_4b_linearization_order(capsys):
    inekf_suite.test_error_propagation_linearization_order()
    emit(capsys, True,
         "criterion 4b: invariant error linearization Richardson slope >= 1.9")


def test_criterion_4c_nees(capsys):
    inekf_suite.test_nees_consistency_monte_carlo()
    emit(capsys, True,
         "criterion 4c: NEES >= 80% of 50 seeded runs inside 95% chi2 bounds")


def test_criterion_4d_chirality(capsys):
    cfg = ShapeSolverConfig()
    rng = np.random.default_rng(4242)
    base = canonical_prism(cfg)
    prior = RobotShape(0.0, base)
    mirrors = 0
    n = 10_000
    for k in range(n):
        q = base.copy()
        q[2:] += rng.normal(scale=0.03, size=(4, 3))
        for i, j in ((2, 3), (4, 5)):
            m = (q[i] + q[j]) / 2.0
            u = q[i] - q[j]
            u /= np.linalg.norm(u)
            q[i], q[j] = m + cfg.L_rod / 2 * u, m - cfg.L_rod / 2 * u
        if not check_constraints(RobotShape(0.0, q), cfg).passed:
            continue
        vec = RobotShape(0.0, q).cable_lengths() + rng.normal(scale=0.005,
                                                              size=9)
        sol = reconstruct_shape(CableMeasurements(0.0, vec),
                                prior, cfg)
        if not check_constraints(sol, cfg).passed:
            mirrors += 1
        prior = sol
    ok = mirrors == 0
    emit(capsys, ok,
         "criterion 4d: chirality, %d of %d random-measurement solves "
         "returned a mirror solution (must be 0)" % (mirrors, n))


def test_criterion_4e_zero_innovation(capsys):
    st, shape = inekf_suite.state_with_contact(3)
    ok = True
    for _ in range(5):
        tr = np.trace(st.P)
        st2, info = correct_contact(st, 3, shape, inekf_suite.COV_FK)
        ok &= bool(np.allclose(info.innovation, 0.0, atol=1e-12))
        ok &= bool(np.allclose(st2.position, st.position, atol=1e-12))
        ok &= bool(np.allclose(st2.rotation, st.rotation, atol=1e-12))
        ok &= np.trace(st2.P) <= tr + 1e-15
        st = st2
    emit(capsys, ok,
         "criterion 4e: zero-innovation fixed point leaves mean unchanged, "
         "trace(P) non-increasing")


def test_criterion_4f_determinism(capsys, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("target_length = 2.0\ncable_noise = 0.002\n")
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        code = cli_main(["pipeline", "--out-dir", d, "--seed", "9",
                         "--config", str(cfg_path), "--log-level", "ERROR"])
        assert code == 0
    names = ["sensors.jsonl", "ground_truth.tum", "estimate.tum",
             "metrics.json", "errors.csv"]
    same = all(
        open(os.path.join(dirs[0], n), "rb").read()
        == open(os.path.join(dirs[1], n), "rb").read()
        for n in names)
    emit(capsys, same,
         "criterion 4f: identical config+seed give byte-identical pipeline "
         "outputs (%s)" % ", ".join(names))


# ---------------------------------------------------------------------------
# criterion 5: metrics oracle


def test_criterion_5_drift_arithmetic(capsys):
    val = drift_percent(0.3275, 7.50)
    ok = abs(val - 4.37) <= 0.01
    emit(capsys, ok,
         "criterion 5: drift_metrics arithmetic 0.3275/7.50 -> %.4f%% "
         "(4.37 +/- 0.01)" % val)
