import json
import logging
import os
import subprocess
import sys
from itertools import permutations, product

import numpy as np
import pytest

from tenseg.cli import main
from tenseg.inekf import ContactVector, ImuSample
from tenseg.liegroup import so3_exp
from tenseg.logio import (
    ConfigError,
    LogFormatError,
    _matrix_from_quat,
    _quat_from_matrix,
    config_get,
    read_config,
    read_sensor_log,
    read_trajectory,
    write_sensor_log,
    write_trajectory,
)
from tenseg.shape import CableMeasurements
from tenseg.simulator import SimConfig, corrupt, generate
from perfbench.workloads import WORKLOADS

RNG = np.random.default_rng(13)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# sensor log format


def sample_streams():
    imu = [ImuSample(0.005 * k, RNG.normal(size=3), RNG.normal(size=3))
           for k in range(1, 5)]
    cables = [CableMeasurements(0.01 * k, 1.0 + 0.1 * RNG.random(9))
              for k in range(3)]
    contacts = [ContactVector(0.01 * k, tuple(RNG.random(6) < 0.5))
                for k in range(3)]
    return imu, cables, contacts


def test_sensor_log_round_trip_exact(tmp_path):
    imu, cables, contacts = sample_streams()
    path = tmp_path / "sensors.jsonl"
    write_sensor_log(path, imu, cables, contacts, seed=7,
                     config={"maneuver": "forward"})
    header, events = read_sensor_log(path)
    assert header["seed"] == 7
    assert header["config"] == {"maneuver": "forward"}
    got_imu = [e for e in events if isinstance(e, ImuSample)]
    got_cab = [e for e in events if isinstance(e, CableMeasurements)]
    got_con = [e for e in events if isinstance(e, ContactVector)]
    for a, b in zip(imu, got_imu):
        assert a.timestamp == b.timestamp
        np.testing.assert_array_equal(a.accel, b.accel)
        np.testing.assert_array_equal(a.gyro, b.gyro)
    for a, b in zip(cables, got_cab):
        np.testing.assert_array_equal(a.lengths, b.lengths)
    for a, b in zip(contacts, got_con):
        assert a.flags == b.flags


def test_sensor_log_is_time_ordered(tmp_path):
    imu, cables, contacts = sample_streams()
    path = tmp_path / "sensors.jsonl"
    write_sensor_log(path, imu, cables, contacts, seed=0)
    _, events = read_sensor_log(path)
    times = [e.timestamp for e in events]
    assert times == sorted(times)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_sensor_log_written_again_from_its_events_is_identical(
        tmp_path, workload, seed):
    wl = WORKLOADS[workload]
    noisy = corrupt(generate(SimConfig(**wl.sim)), seed=seed,
                    cable_noise=wl.cable_noise, chatter=wl.chatter)
    first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
    write_sensor_log(first, noisy.imu, noisy.cables, noisy.contacts, seed,
                     wl.config)
    header, events = read_sensor_log(first)
    def of(kind):   # an iterator, which can be read once
        return (e for e in events if isinstance(e, kind))

    # the IMU samples as objects, not as the simulator's Stream
    write_sensor_log(again, of(ImuSample), of(CableMeasurements),
                     of(ContactVector), header["seed"], header["config"])
    assert again.read_bytes() == first.read_bytes()


def test_sensor_log_sorts_streams_out_of_time_order(tmp_path):
    noisy = corrupt(generate(SimConfig(target_length=0.3, dwell=0.5,
                                       final_dwell=0.2)), seed=2)
    rng = np.random.default_rng(4)
    # cable and contact records in random order, distinct records sharing
    # timestamps among them, and the IMU Stream reversed
    cables = [CableMeasurements(noisy.cables[k].timestamp,
                                noisy.cables[k].lengths + 1e-3 * j)
              for j, k in enumerate(rng.integers(len(noisy.cables), size=300))]
    contacts = [ContactVector(noisy.contacts[k].timestamp, rng.random(6) < 0.5)
                for k in rng.integers(len(noisy.contacts), size=300)]
    shuffled, ordered = tmp_path / "shuffled.jsonl", tmp_path / "ordered.jsonl"
    write_sensor_log(shuffled, noisy.imu[::-1], cables, contacts, 0)

    def by_time(records):
        return sorted(records, key=lambda r: r.timestamp)   # stable

    write_sensor_log(ordered, noisy.imu, by_time(cables), by_time(contacts), 0)
    assert shuffled.read_bytes() == ordered.read_bytes()


@pytest.mark.parametrize("stream", ["imu", "cable", "contact"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_timestamp_is_refused_before_writing(tmp_path, stream, bad):
    imu, cables, contacts = sample_streams()
    if stream == "imu":
        imu[1] = ImuSample(bad, imu[1].accel, imu[1].gyro)
    elif stream == "cable":
        cables[1] = CableMeasurements(bad, cables[1].lengths)
    else:
        contacts[1] = ContactVector(bad, contacts[1].flags)
    path = tmp_path / "sensors.jsonl"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=rf"^{stream} record 1 has a "
                                         rf"non-finite timestamp \({bad}\)$"):
        write_sensor_log(path, imu, cables, contacts, 0)
    assert path.read_text() == "kept\n"


def test_sensor_log_bad_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, ['{"type": "header", "version": "0", "seed": 0, '
                       '"config": {}}', "{not json"])
    with pytest.raises(LogFormatError, match="bad.jsonl:2"):
        read_sensor_log(path)


def test_sensor_log_missing_header(tmp_path):
    path = tmp_path / "nohdr.jsonl"
    write_lines(path, ['{"t": 0.1, "type": "imu", "a": [0,0,0], "w": [0,0,0]}'])
    with pytest.raises(LogFormatError, match="missing header"):
        read_sensor_log(path)


def test_sensor_log_backwards_time_rejected(tmp_path):
    path = tmp_path / "rev.jsonl"
    write_lines(path, [
        '{"type": "header", "version": "0", "seed": 0, "config": {}}',
        '{"t": 0.2, "type": "imu", "a": [0,0,0], "w": [0,0,0]}',
        '{"t": 0.1, "type": "imu", "a": [0,0,0], "w": [0,0,0]}',
    ])
    with pytest.raises(LogFormatError, match="rev.jsonl:3.*backwards"):
        read_sensor_log(path)


def test_sensor_log_unknown_type_rejected(tmp_path):
    path = tmp_path / "odd.jsonl"
    write_lines(path, [
        '{"type": "header", "version": "0", "seed": 0, "config": {}}',
        '{"t": 0.1, "type": "lidar", "x": 1}',
    ])
    with pytest.raises(LogFormatError, match="unknown record type"):
        read_sensor_log(path)


# ---------------------------------------------------------------------------
# trajectory format


def test_trajectory_round_trip(tmp_path):
    n = 20
    ts = np.arange(n) * 0.1
    ps = RNG.normal(size=(n, 3))
    Rs = np.array([so3_exp(RNG.normal(size=3)) for _ in range(n)])
    path = tmp_path / "traj.tum"
    write_trajectory(path, ts, ps, Rs)
    t2, p2, R2 = read_trajectory(path)
    np.testing.assert_array_equal(t2, ts)
    np.testing.assert_array_equal(p2, ps)
    np.testing.assert_allclose(R2, Rs, atol=1e-12)


def signed_permutation_rotations():
    """The 24 rotations of the cube: every tie between the diagonal
    entries and the trace that the quaternion case choice can meet."""
    out = []
    for perm in permutations(range(3)):
        for signs in product((1.0, -1.0), repeat=3):
            R = np.zeros((3, 3))
            R[range(3), perm] = signs
            if np.linalg.det(R) > 0:
                out.append(R)
    return np.array(out)


def test_quaternion_pair_matches_scipy_bitwise():
    # scipy is only a test oracle: the package writes and reads TUM
    # quaternions with its own functions, which must reproduce
    # scipy's Rotation to the last bit so that outputs do not change
    from scipy.spatial.transform import Rotation
    rng = np.random.default_rng(7)
    rotvecs = rng.normal(size=(6000, 3))
    rotvecs[:2000] *= 1e-6 / np.linalg.norm(rotvecs[:2000], axis=1)[:, None]
    rotvecs[2000:4000] *= (np.pi - 1e-7) / np.linalg.norm(
        rotvecs[2000:4000], axis=1)[:, None]
    Rs = np.concatenate([
        np.array([so3_exp(v) for v in rotvecs]),
        Rotation.random(5000, random_state=8).as_matrix(),
        signed_permutation_rotations(),
    ])
    ours = np.array([_quat_from_matrix(R) for R in Rs])
    assert np.array_equal(ours, Rotation.from_matrix(Rs).as_quat())

    quats = np.concatenate([rng.normal(size=(10000, 4)),
                            rng.normal(size=(500, 4)) * 1e-150,
                            rng.normal(size=(500, 4)) * 1e150, ours])
    ours = np.array([_matrix_from_quat(q) for q in quats.tolist()])
    assert np.array_equal(ours, Rotation.from_quat(quats).as_matrix())


def test_quaternion_round_trip_property():
    rng = np.random.default_rng(11)
    Rs = [so3_exp(v) for v in rng.normal(size=(2000, 3)) * 2.0]
    Rs += list(signed_permutation_rotations())
    for R in Rs:
        q = _quat_from_matrix(R)
        assert abs(np.linalg.norm(q) - 1.0) < 2e-15
        np.testing.assert_allclose(_matrix_from_quat(q), R, rtol=0, atol=2e-15)
        # q and -q are the same rotation
        q2 = np.array(_quat_from_matrix(_matrix_from_quat(
            [-v for v in q] if rng.random() < 0.5 else q)))
        assert min(np.max(np.abs(q2 - q)), np.max(np.abs(q2 + q))) < 2e-15


@pytest.mark.parametrize("quat", ["0 0 0 0", "nan 0 0 1", "0 inf 0 1"])
def test_trajectory_bad_quaternion(tmp_path, quat):
    path = tmp_path / "estimate.tum"
    write_lines(path, ["0.0 1 2 3 0 0 0 1", f"0.1 1 2 3 {quat}"])
    with pytest.raises(LogFormatError, match="estimate.tum:2"):
        read_trajectory(path)
    write_trajectory(tmp_path / "ground_truth.tum", [0.0, 0.1],
                     np.zeros((2, 3)), [np.eye(3)] * 2)
    assert main(["evaluate", "--out-dir", str(tmp_path),
                 "--log-level", "ERROR"]) == 2


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, tenseg.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={
                             **os.environ, "PYTHONPATH": os.pathsep.join(
                                 p for p in sys.path if p)})
    assert out.stdout.strip() == "[]"


def test_trajectory_bad_field_count(tmp_path):
    path = tmp_path / "short.tum"
    write_lines(path, ["0.0 1 2 3", "0.1 1 2 3 0 0 0 1"])
    with pytest.raises(LogFormatError, match="short.tum:1"):
        read_trajectory(path)


# ---------------------------------------------------------------------------
# config format


def test_config_parse(tmp_path):
    path = tmp_path / "run.cfg"
    write_lines(path, [
        "# run settings",
        "maneuver = forward",
        "target_length = 2.5   # short run",
        "chatter = 0.01",
    ])
    cfg = read_config(path)
    assert cfg == {"maneuver": "forward", "target_length": "2.5",
                   "chatter": "0.01"}
    assert config_get(cfg, "target_length", None, float) == 2.5
    assert config_get(cfg, "missing", 7, int) == 7


def test_config_rejects_duplicates_and_garbage(tmp_path):
    path = tmp_path / "dup.cfg"
    write_lines(path, ["a = 1", "a = 2"])
    with pytest.raises(ConfigError, match="duplicate"):
        read_config(path)
    write_lines(path, ["just some words"])
    with pytest.raises(ConfigError, match="key = value"):
        read_config(path)


def test_config_get_bad_cast():
    with pytest.raises(ConfigError):
        config_get({"x": "maybe"}, "x", 0, int)


# ---------------------------------------------------------------------------
# CLI verbs


def short_config(tmp_path):
    path = tmp_path / "short.cfg"
    write_lines(path, ["target_length = 2.0", "cable_noise = 0.002"])
    return str(path)


def test_pipeline_end_to_end(tmp_path):
    out = str(tmp_path / "run")
    code = main(["pipeline", "--out-dir", out, "--seed", "3",
                 "--config", short_config(tmp_path), "--log-level", "ERROR"])
    assert code == 0
    for name in ("sensors.jsonl", "ground_truth.tum", "sim_info.json",
                 "estimate.tum", "estimate_info.json", "metrics.json",
                 "errors.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["drift_pct"] < 8.0
    assert metrics["path_length_m"] > 1.5
    with open(os.path.join(out, "errors.csv")) as f:
        assert f.readline().strip() == "t,ex,ey,ez"
        assert len(f.readlines()) > 100


def test_simulate_deterministic_per_seed(tmp_path):
    cfg = short_config(tmp_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert main(["simulate", "--out-dir", out, "--seed", "5",
                     "--config", cfg, "--log-level", "ERROR"]) == 0
    for name in ("sensors.jsonl", "ground_truth.tum"):
        with open(os.path.join(a, name), "rb") as fa, \
             open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_estimate_deterministic(tmp_path):
    cfg = short_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["simulate", "--out-dir", out, "--seed", "2",
                 "--config", cfg, "--log-level", "ERROR"]) == 0
    assert main(["estimate", "--out-dir", out, "--log-level", "ERROR"]) == 0
    first = open(os.path.join(out, "estimate.tum"), "rb").read()
    assert main(["estimate", "--out-dir", out, "--log-level", "ERROR"]) == 0
    assert open(os.path.join(out, "estimate.tum"), "rb").read() == first


def test_unknown_config_key_is_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    write_lines(path, ["warp_speed = 9"])
    code = main(["simulate", "--out-dir", str(tmp_path / "x"),
                 "--config", str(path), "--log-level", "ERROR"])
    assert code == 2


@pytest.mark.parametrize("key", ["debounce_on", "debounce_off"])
def test_debounce_keys_are_unknown(tmp_path, key):
    # the debounce count is the constant tenseg.inekf.DEBOUNCE
    path = tmp_path / "old.cfg"
    write_lines(path, [f"{key} = 2"])
    code = main(["simulate", "--out-dir", str(tmp_path / "x"),
                 "--config", str(path), "--log-level", "ERROR"])
    assert code == 2


def test_missing_input_file_is_input_error(tmp_path):
    code = main(["estimate", "--out-dir", str(tmp_path),
                 "--log-level", "ERROR"])
    assert code == 2


def test_corrupt_trajectory_is_input_error(tmp_path):
    out = str(tmp_path)
    write_lines(tmp_path / "estimate.tum", ["0 1 2 3"])
    write_lines(tmp_path / "ground_truth.tum", ["0 1 2 3"])
    assert main(["evaluate", "--out-dir", out, "--log-level", "ERROR"]) == 2


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["simulate"])  # --out-dir is required
    assert err.value.code == 1


def test_estimate_accepts_one_second_calibration(tmp_path):
    imu = [ImuSample(k * 0.005, np.array([0.0, 0.0, 9.81]), np.zeros(3))
           for k in range(1, 301)]
    write_sensor_log(tmp_path / "sensors.jsonl", imu, [], [], seed=0)
    write_lines(tmp_path / "run.cfg", ["calibration_duration = 1.0"])
    assert main(["estimate", "--out-dir", str(tmp_path), "--log-level",
                 "ERROR", "--config", str(tmp_path / "run.cfg")]) == 0
    info = json.loads((tmp_path / "estimate_info.json").read_text())
    assert info["samples"] == 100


@pytest.mark.parametrize("duration", ["nan", "-1", "0", "inf"])
def test_bad_calibration_duration_is_config_error(tmp_path, duration, caplog):
    # estimate once reported these as a numerical failure (exit 3)
    imu = [ImuSample(k * 0.005, np.array([0.0, 0.0, 9.81]), np.zeros(3))
           for k in range(1, 601)]
    write_sensor_log(tmp_path / "sensors.jsonl", imu, [], [], seed=0)
    write_lines(tmp_path / "run.cfg", [f"calibration_duration = {duration}"])
    assert main(["estimate", "--out-dir", str(tmp_path), "--log-level",
                 "ERROR", "--config", str(tmp_path / "run.cfg")]) == 2
    assert "calibration_duration" in caplog.text
    assert not (tmp_path / "estimate.tum").exists()


def test_runtime_failure_exits_3(tmp_path):
    path = tmp_path / "far.cfg"
    write_lines(path, ["target_length = 500.0"])
    code = main(["simulate", "--out-dir", str(tmp_path / "x"),
                 "--config", str(path), "--log-level", "ERROR"])
    assert code == 3


@pytest.mark.parametrize("length", ["nan", "-1", "0", "inf"])
def test_bad_target_length_is_config_error(tmp_path, length):
    # simulate once wrote a stationary log for these, or failed with exit 3
    path = tmp_path / "bad.cfg"
    write_lines(path, [f"target_length = {length}"])
    for command in ("simulate", "pipeline"):
        out = tmp_path / command
        code = main([command, "--out-dir", str(out), "--config", str(path),
                     "--log-level", "ERROR"])
        assert code == 2
        assert not (out / "sensors.jsonl").exists()


@pytest.mark.parametrize("key,value", [
    ("cable_noise", "nan"), ("cable_noise", "-0.01"), ("cable_noise", "inf"),
    ("chatter", "1.5"), ("chatter", "-1"), ("chatter", "nan")])
def test_bad_noise_setting_is_input_error(tmp_path, caplog, key, value):
    # simulate once wrote exact cables for NaN or negative noise, and
    # flipped every contact flag for chatter = 1.5
    path = tmp_path / "bad.cfg"
    write_lines(path, ["target_length = 1.0", f"{key} = {value}"])
    out = tmp_path / "run"
    code = main(["simulate", "--out-dir", str(out), "--config", str(path),
                 "--log-level", "ERROR"])
    assert code == 2
    assert f"{key} must be" in caplog.text
    assert not (out / "sensors.jsonl").exists()


def test_sigma_fk_key_is_unknown(tmp_path, caplog):
    # the empirical FK noise is the constant tenseg.inekf.SIGMA_FK
    write_lines(tmp_path / "run.cfg", ["sigma_fk = 0.02"])
    code = main(["pipeline", "--out-dir", str(tmp_path), "--config",
                 str(tmp_path / "run.cfg"), "--log-level", "ERROR"])
    assert code == 2
    assert "sigma_fk" in caplog.text
    assert not (tmp_path / "sensors.jsonl").exists()


def test_bad_fk_covariance_mode_is_config_error(tmp_path, caplog):
    imu = [ImuSample(k * 0.005, np.array([0.0, 0.0, 9.81]), np.zeros(3))
           for k in range(1, 601)]
    write_sensor_log(tmp_path / "sensors.jsonl", imu, [], [], seed=0)
    write_lines(tmp_path / "run.cfg", ["fk_covariance_mode = exact"])
    assert main(["estimate", "--out-dir", str(tmp_path), "--log-level",
                 "ERROR", "--config", str(tmp_path / "run.cfg")]) == 2
    assert "fk_covariance_mode" in caplog.text
    assert not (tmp_path / "estimate.tum").exists()


@pytest.mark.parametrize("line", ["fk_covariance_mode = exact",
                                  "calibration_duration = nan"])
def test_pipeline_checks_estimate_options_before_simulating(tmp_path, line,
                                                            caplog):
    # the pipeline once simulated and wrote three files before estimate
    # refused the config
    cfg = tmp_path / "run.cfg"
    write_lines(cfg, ["target_length = 0.5", line])
    out = tmp_path / "run"
    assert main(["pipeline", "--out-dir", str(out), "--log-level", "ERROR",
                 "--config", str(cfg)]) == 2
    assert line.split()[0] in caplog.text
    assert list(out.iterdir()) == []


def level_run(tmp_path):
    """A small evaluate run: ground truth scored against itself."""
    t = np.arange(100) * 0.05
    p = np.column_stack([t, np.zeros(100), np.zeros(100)])
    write_trajectory(tmp_path / "ground_truth.tum", t, p, [np.eye(3)] * 100)
    write_trajectory(tmp_path / "estimate.tum", t, p, [np.eye(3)] * 100)
    return ["evaluate", "--out-dir", str(tmp_path)]


def test_log_level_applies_on_every_call(tmp_path, caplog, capsys):
    # logging.basicConfig configures once per process, so the level must
    # be set on the tenseg logger each time main runs
    argv = level_run(tmp_path)
    for level, info_lines in (("ERROR", 0), ("INFO", 1), ("WARNING", 0),
                              ("DEBUG", 1)):
        caplog.clear()
        assert main([*argv, "--log-level", level]) == 0
        assert logging.getLogger("tenseg").level == getattr(logging, level)
        assert sum(r.levelno == logging.INFO for r in caplog.records) == info_lines


def test_log_level_goes_after_the_command(tmp_path):
    # one --log-level flag: before the subcommand it is a usage error
    with pytest.raises(SystemExit) as err:
        main(["--log-level", "DEBUG", *level_run(tmp_path)])
    assert err.value.code == 1
