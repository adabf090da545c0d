"""Memory bounds of the pipeline's I/O and pose storage.

tracemalloc counts the bytes that Python and numpy allocate, so these
checks are deterministic, unlike the resident size of the process.
"""

import contextlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tenseg import cli, inekf, logio
from tenseg.simulator import SimConfig, corrupt, generate
from perfbench.workloads import WORKLOADS


@contextlib.contextmanager
def tracing():
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


def test_read_trajectory_peak_is_about_twice_its_result(tmp_path):
    n = 5000
    rng = np.random.default_rng(3)
    path = tmp_path / "long.tum"
    logio.write_trajectory(path, np.arange(n) * 0.005, rng.normal(size=(n, 3)),
                           logio._matrix_from_quat(rng.normal(size=(n, 4))))
    with tracing():
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = logio.read_trajectory(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    returned = sum(a.nbytes for a in result)
    # the converted blocks and their concatenation, plus one block's text;
    # holding every token of the file as a string takes about 9 times
    # the result
    assert peak <= 2 * returned + 256 * 1024


def test_estimate_keeps_poses_in_three_arrays(tmp_path, monkeypatch):
    sim = generate(SimConfig(target_length=0.5))
    noisy = corrupt(sim, seed=1)
    logio.write_sensor_log(tmp_path / "sensors.jsonl", noisy.imu, noisy.cables,
                           noisy.contacts, 1)
    seen = {}
    run = inekf.ContactAidedFilter.run

    def traced_run(self, events):
        seen["start"] = tracemalloc.get_traced_memory()[0]
        yield from run(self, events)

    def spy(path, ts, ps, Rs):
        seen["end"] = tracemalloc.get_traced_memory()[0]
        seen["poses"] = ts, ps, Rs
        logio.write_trajectory(path, ts, ps, Rs)

    monkeypatch.setattr(inekf.ContactAidedFilter, "run", traced_run)
    monkeypatch.setattr(cli, "write_trajectory", spy)
    with tracing():
        assert cli.main(["estimate", "--out-dir", str(tmp_path),
                         "--log-level", "ERROR"]) == 0
    ts, ps, Rs = seen["poses"]
    n = len(ts)
    assert n > 500
    assert [(type(a), a.shape) for a in (ts, ps, Rs)] == [
        (np.ndarray, (n,)), (np.ndarray, (n, 3)), (np.ndarray, (n, 3, 3))]
    # The filter's own state varies little over a run.  A rotation array
    # and a position view per pose, each view pinning that step's state,
    # would add over 600 bytes a pose.
    assert seen["end"] - seen["start"] < 64 * 1024


# the benchmark workload whose streams the bounds below are set on
TURN_IMU1K = WORKLOADS["turn_imu1k"]


def test_simulator_keeps_no_per_sample_objects():
    # 4801 ground-truth frames and two sets of 4800 IMU samples, about
    # 6.1 MB as objects, against about 0.6 MB of stacked arrays; a first
    # call pays for numpy.random's one-time allocations
    corrupt(generate(SimConfig(target_length=0.3)), seed=1, chatter=0.01)
    with tracing():
        base = tracemalloc.get_traced_memory()[0]
        sim = generate(SimConfig(**TURN_IMU1K.sim))
        noisy = corrupt(sim, seed=11, chatter=TURN_IMU1K.chatter)
        kept = tracemalloc.get_traced_memory()[0] - base
    assert len(sim.frames) == 4801 and len(noisy.imu) == 4800
    assert kept <= 2 * 2**20


@pytest.fixture(scope="module")
def turn_imu1k_log(tmp_path_factory):
    noisy = corrupt(generate(SimConfig(**TURN_IMU1K.sim)), seed=11,
                    chatter=TURN_IMU1K.chatter)
    path = tmp_path_factory.mktemp("turn_imu1k") / "sensors.jsonl"
    logio.write_sensor_log(path, noisy.imu, noisy.cables, noisy.contacts, 11)
    return noisy, path


def test_write_sensor_log_holds_no_line_per_record(turn_imu1k_log):
    # every record's line held at once, as a sorted list, takes about 2 MB
    noisy, path = turn_imu1k_log
    with tracing():
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        logio.write_sensor_log(path, noisy.imu, noisy.cables, noisy.contacts,
                               11)
        peak = tracemalloc.get_traced_memory()[1] - base
    assert peak <= 256 * 1024


def test_read_sensor_log_keeps_imu_records_in_one_array(turn_imu1k_log):
    # 4800 IMU records as ImuSample objects take about 1.6 MB; as rows of
    # one float array, 0.27 MB beside the 481 cable and 481 contact objects
    noisy, path = turn_imu1k_log
    with tracing():
        base = tracemalloc.get_traced_memory()[0]
        _, events = logio.read_sensor_log(path)
        kept = tracemalloc.get_traced_memory()[0] - base
    assert len(events) == 4800 + 481 + 481
    assert kept <= 0.6 * 2**20


def test_pipeline_leaves_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma, about 1 MB resident, on its first call
    cfg = tmp_path / "short.cfg"
    cfg.write_text("target_length = 0.5\n")
    code = ("import sys; from tenseg.cli import main; "
            f"rc = main(['pipeline', '--out-dir', {str(tmp_path)!r}, "
            f"'--config', {str(cfg)!r}, '--log-level', 'ERROR']); "
            "print(rc, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={
                             **os.environ, "PYTHONPATH": os.pathsep.join(
                                 p for p in sys.path if p)})
    assert out.stdout.splitlines()[-1] == "0 False"
