"""Bitwise checks of the array-at-once log I/O and noise overlay.

The reference functions below are the per-line and per-sample loops the
package used before its I/O worked on whole arrays.  Files written by
the package must equal theirs byte for byte, and parsed arrays must
equal theirs bit for bit, the sign bits of zeros included.
"""

import json
import math
from itertools import permutations, product

import numpy as np
import pytest

from tenseg import __version__
from tenseg.cli import main
from tenseg.evaluate import Trajectory, align_initial, drift_metrics
from tenseg.inekf import (
    SIGMA_ACCEL,
    SIGMA_ACCEL_BIAS,
    SIGMA_GYRO,
    SIGMA_GYRO_BIAS,
    ContactVector,
    ImuSample,
)
from tenseg.liegroup import so3_exp
from tenseg.logio import (
    BLOCK,
    LogFormatError,
    read_sensor_log,
    read_trajectory,
    write_errors,
    write_sensor_log,
    write_trajectory,
)
from tenseg.shape import (
    CABLE_PAIRS,
    CableMeasurements,
    MeasurementRejected,
    ShapeSolverConfig,
    reconstruct_shape,
)
from tenseg.simulator import (
    SimConfig,
    SimOutput,
    Stream,
    corrupt,
    generate,
)


# ---------------------------------------------------------------------------
# Reference implementations


def ref_quat_from_matrix(R):
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = \
        np.asarray(R, dtype=float).tolist()
    trace = m00 + m11 + m22
    decision = (m00, m11, m22, trace)
    choice = decision.index(max(decision))
    if choice == 0:
        x, y, z, w = 1 - trace + 2 * m00, m10 + m01, m20 + m02, m21 - m12
    elif choice == 1:
        x, y, z, w = m10 + m01, 1 - trace + 2 * m11, m21 + m12, m02 - m20
    elif choice == 2:
        x, y, z, w = m20 + m02, m21 + m12, 1 - trace + 2 * m22, m10 - m01
    else:
        x, y, z, w = m21 - m12, m02 - m20, m10 - m01, 1 + trace
    n = math.sqrt(x * x + y * y + z * z + w * w)
    return x / n, y / n, z / n, w / n


def ref_matrix_from_quat(q):
    x, y, z, w = q
    n = math.sqrt(x * x + y * y + z * z + w * w)
    if not 0.0 < n < math.inf:
        raise ValueError("quaternion is zero or not finite")
    x, y, z, w = x / n, y / n, z / n, w / n
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return [[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
            [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
            [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]]


def ref_write_trajectory(path, timestamps, positions, rotations):
    with open(path, "w") as f:
        for t, p, R in zip(timestamps, positions, rotations):
            vals = [t, p[0], p[1], p[2], *ref_quat_from_matrix(R)]
            f.write(" ".join(repr(float(v)) for v in vals) + "\n")


def ref_write_errors(path, timestamps, errors):
    with open(path, "w") as f:
        f.write("t,ex,ey,ez\n")
        for t, e in zip(timestamps, errors):
            f.write(",".join(repr(float(v)) for v in (t, *e)) + "\n")


def ref_read_trajectory(path):
    ts, ps, Rs = [], [], []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise LogFormatError(
                    f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
            try:
                vals = [float(x) for x in parts]
                Rs.append(ref_matrix_from_quat(vals[4:8]))
            except ValueError as err:
                raise LogFormatError(f"{path}:{lineno}: bad number ({err})")
            ts.append(vals[0])
            ps.append(vals[1:4])
    if len(ts) < 2:
        raise LogFormatError(f"{path}: trajectory needs at least two poses")
    return np.array(ts), np.array(ps), np.array(Rs)


def ref_write_sensor_log(path, imu, cables, contacts, seed, config=None):
    records = []
    for c in cables:
        lengths_by_pair = dict(zip(CABLE_PAIRS, c.lengths.tolist()))
        records.append((c.timestamp, 0, {
            "t": c.timestamp, "type": "cable",
            "l": {f"{i}-{j}": lengths_by_pair[i, j] for i, j in CABLE_PAIRS}}))
    for c in contacts:
        records.append((c.timestamp, 1, {
            "t": c.timestamp, "type": "contact", "c": list(c.flags)}))
    for s in imu:
        records.append((s.timestamp, 2, {
            "t": s.timestamp, "type": "imu",
            "a": list(s.accel), "w": list(s.gyro)}))
    records.sort(key=lambda r: (r[0], r[1]))
    header = {"type": "header", "version": __version__, "seed": seed,
              "config": dict(config or {})}
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for _, _, rec in records:
            f.write(json.dumps(rec) + "\n")


def cable_frame(t, lengths_by_pair):
    """The frame of lengths keyed by endcap pair, refused with the message
    the keyed frame type gave unless the keys are exactly CABLE_PAIRS."""
    keys = set(lengths_by_pair)
    expected = set(CABLE_PAIRS)
    if keys != expected:
        raise ValueError(
            f"cable set mismatch: missing {sorted(expected - keys)}, "
            f"unexpected {sorted(keys - expected)}"
        )
    return CableMeasurements(t, [lengths_by_pair[p] for p in CABLE_PAIRS])


def ref_read_sensor_log(path):
    header = None
    events = []
    last_t = -np.inf
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise LogFormatError(f"{path}:{lineno}: bad JSON ({err})")
            kind = rec.get("type")
            if kind == "header":
                if lineno != 1:
                    raise LogFormatError(
                        f"{path}:{lineno}: header must be the first record")
                header = rec
                continue
            if header is None:
                raise LogFormatError(f"{path}:1: missing header record")
            try:
                t = float(rec["t"])
                if t < last_t:
                    raise LogFormatError(
                        f"{path}:{lineno}: timestamp moved backwards")
                last_t = t
                if kind == "imu":
                    events.append(ImuSample(t, np.array(rec["a"], dtype=float),
                                            np.array(rec["w"], dtype=float)))
                elif kind == "cable":
                    lengths_by_pair = {}
                    for key, val in rec["l"].items():
                        i, j = key.split("-")
                        lengths_by_pair[int(i), int(j)] = float(val)
                    events.append(cable_frame(t, lengths_by_pair))
                elif kind == "contact":
                    events.append(ContactVector(t, rec["c"]))
                else:
                    raise LogFormatError(
                        f"{path}:{lineno}: unknown record type {kind!r}")
            except LogFormatError:
                raise
            except (KeyError, ValueError, TypeError) as err:
                raise LogFormatError(f"{path}:{lineno}: invalid record ({err})")
    if header is None:
        raise LogFormatError(f"{path}: empty log")
    return header, events


def ref_corrupt(sim, seed=0, cable_noise=0.0, chatter=0.0):
    rng = np.random.default_rng(seed)
    dt = 1.0 / sim.config.imu_rate
    root = 1.0 / np.sqrt(dt)
    bg = np.zeros(3)
    ba = np.zeros(3)
    imu = []
    for s in sim.imu:
        bg = bg + SIGMA_GYRO_BIAS * np.sqrt(dt) * rng.normal(size=3)
        ba = ba + SIGMA_ACCEL_BIAS * np.sqrt(dt) * rng.normal(size=3)
        imu.append(ImuSample(
            s.timestamp,
            s.accel + ba + SIGMA_ACCEL * root * rng.normal(size=3),
            s.gyro + bg + SIGMA_GYRO * root * rng.normal(size=3)))
    cables = sim.cables
    if cable_noise > 0.0:
        cables = tuple(
            CableMeasurements(
                c.timestamp,
                c.lengths + rng.normal(scale=cable_noise, size=9))
            for c in sim.cables)
    contacts = sim.contacts
    if chatter > 0.0:
        contacts = tuple(
            ContactVector(c.timestamp, tuple(
                (not f) if rng.random() < chatter else f for f in c.flags))
            for c in sim.contacts)
    return imu, cables, contacts


# ---------------------------------------------------------------------------
# Helpers


def bits(x):
    """Bytes of a float or array, so -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=float).tobytes()


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def assert_same_events(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert type(g.timestamp) is type(w.timestamp)
        assert bits(g.timestamp) == bits(w.timestamp)
        if isinstance(g, ImuSample):
            assert bits(g.accel) == bits(w.accel)
            assert bits(g.gyro) == bits(w.gyro)
            assert not g.accel.flags.writeable and not g.gyro.flags.writeable
        elif isinstance(g, CableMeasurements):
            assert bits(g.lengths) == bits(w.lengths)
            assert not g.lengths.flags.writeable
        else:
            assert g.flags == w.flags


def cube_rotations():
    out = []
    for perm in permutations(range(3)):
        for signs in product((1.0, -1.0), repeat=3):
            R = np.zeros((3, 3))
            R[range(3), perm] = signs
            if np.linalg.det(R) > 0:
                out.append(R)
    return out


def rotation_cases():
    rng = np.random.default_rng(5)
    quats = rng.normal(size=(3000, 4))
    Rs = [np.array(ref_matrix_from_quat(q)) for q in quats.tolist()]
    Rs += cube_rotations()
    axes = rng.normal(size=(500, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    Rs += [so3_exp((np.pi - d) * a) for a, d in
           zip(axes, 10.0 ** rng.uniform(-12, -3, size=500))]
    # signed zeros: negate every zero entry of the cube rotations
    Rs += [np.where(R == 0.0, -0.0, R) for R in cube_rotations()]
    return Rs


ROTATIONS = rotation_cases()


# ---------------------------------------------------------------------------
# TUM trajectories


def test_write_trajectory_matches_reference(tmp_path):
    rng = np.random.default_rng(17)
    n = len(ROTATIONS)
    ts = [np.float64(t) for t in np.cumsum(rng.uniform(0.001, 0.01, size=n))]
    ts[:3] = [0, 0.0, -0.0]
    ps = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-20, 20, size=(n, 1))
    ps[:8] = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [1e308, -1e-320, 5e-324],
                       [np.inf, -np.inf, np.nan], [1, 2, 3], [0.1, 0.2, 0.3],
                       [1e16, 1e-5, 1e-4], [123456789.0, -0.0, 2.5]])
    cases = [(ts, list(ps), ROTATIONS),
             (np.array(ts), ps, np.array(ROTATIONS)),
             ([], [], [])]
    # exactly one block, and one block plus one line
    cases += [(np.array(ts[:n]), ps[:n], np.array(ROTATIONS[:n]))
              for n in (BLOCK, BLOCK + 1)]
    for k, (t, p, R) in enumerate(cases):
        ours, ref = tmp_path / f"ours{k}.tum", tmp_path / f"ref{k}.tum"
        write_trajectory(ours, t, p, R)
        ref_write_trajectory(ref, t, p, R)
        assert ours.read_bytes() == ref.read_bytes()


# floats whose text needs care: non-finite, a signed zero, the smallest
# subnormal, and the two sides of repr's switch to exponent form
EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5]


def edge_rows(n, width, seed):
    """(n, width) random floats of many magnitudes, about a third of them
    replaced by EDGE_FLOATS."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, width)) * 10.0 ** rng.integers(
        -20, 20, size=(n, width))
    edge = rng.random(size=(n, width)) < 0.3
    rows[edge] = rng.choice(EDGE_FLOATS, size=int(edge.sum()))
    return rows


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_row_writers_at_block_edges_match_reference(tmp_path, n):
    rows = edge_rows(n, 4, seed=n)
    rows[:len(EDGE_FLOATS), 1] = EDGE_FLOATS[:n]   # each at least once
    Rs = np.array(ROTATIONS[:n]).reshape(n, 3, 3)
    for write, ref, args in (
            (write_trajectory, ref_write_trajectory,
             (rows[:, 0], rows[:, 1:], Rs)),
            (write_errors, ref_write_errors, (rows[:, 0], rows[:, 1:]))):
        ours, want = tmp_path / "ours.txt", tmp_path / "ref.txt"
        write(ours, *args)
        ref(want, *args)
        assert ours.read_bytes() == want.read_bytes()
        assert len(ours.read_text().splitlines()) == n + (write is write_errors)


def test_read_trajectory_matches_reference(tmp_path):
    rng = np.random.default_rng(19)
    n = len(ROTATIONS)
    path = tmp_path / "ref.tum"
    ref_write_trajectory(path, np.arange(n) * 0.005, rng.normal(size=(n, 3)),
                         ROTATIONS)
    lines = path.read_text().splitlines()
    quats = np.concatenate([rng.normal(size=(300, 4)),
                            rng.normal(size=(50, 4)) * 1e-150,
                            rng.normal(size=(50, 4)) * 1e150])
    lines += [f"{1e3 + k} 0 -0.0 -0 " + " ".join(map(repr, q))
              for k, q in enumerate(quats.tolist())]
    lines += ["# comment line", "   ", "", "  #indented comment 1 2 3",
              "\t2000.5\t1 2 3   0 -0.0 0 -1  ", "2001 1e-320 -1e308 inf 0 0 0 1",
              "2002 nan -nan 1_000 -0.0 -0.0 1.0 -0.0",
              "2003 +1 -2 .5 1e-150 0 0 1e-150", "2004 1 1 1 0 0 1e150 0"]
    path.write_text("\n".join(lines) + "\n")
    assert_same_arrays(read_trajectory(path), ref_read_trajectory(path))


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_read_trajectory_block_edges_match_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    path = tmp_path / "edge.tum"
    ref_write_trajectory(path, np.arange(n) * 0.005, rng.normal(size=(n, 3)),
                         ROTATIONS[:n])
    assert_same_arrays(read_trajectory(path), ref_read_trajectory(path))
    # comment and blank lines on both sides of the block edge
    lines = path.read_text().splitlines()
    lines[BLOCK - 2:BLOCK - 2] = ["# before the edge", "", "   "]
    lines[BLOCK + 2:BLOCK + 2] = ["#", "\t", "# after the edge"]
    path.write_text("\n".join(lines) + "\n")
    assert_same_arrays(read_trajectory(path), ref_read_trajectory(path))


def good_poses(n):
    """n well-formed TUM lines."""
    return [f"{0.01 * k} 1 2 3 0 0 0 1" for k in range(n)]


# (lines, expected message without the path prefix)
BAD_TRAJECTORIES = [
    (["0 1 2 3 0 0 0 1", "0.1 1 2 3 0 0 1"], ":2: expected 8 fields, got 7"),
    (["0 1 2 3 0 0 0 1 9"], ":1: expected 8 fields, got 9"),
    (["0 1 2 3 0 0 0 1", "0.1 1 x 3 0 0 0 1"],
     ":2: bad number (could not convert string to float: 'x')"),
    (["0 1 2 3 0 0 0 1", "0.1 1 2 3 0 0 0 0"],
     ":2: bad number (quaternion is zero or not finite)"),
    (["0 1 2 3 0 0 0 1", "0.1 1 2 3 nan 0 0 1"],
     ":2: bad number (quaternion is zero or not finite)"),
    (["0 1 2 3 0 0 0 1", "0.1 1 2 3 0 inf 0 1"],
     ":2: bad number (quaternion is zero or not finite)"),
    (["0 1 2 3 0 0 0 1", "0.1 1 2 3 0 1e200 0 1"],
     ":2: bad number (quaternion is zero or not finite)"),
    (["0 1 2 3 0 0 0 1", "0.1 1 2 3 0 1e-200 0 0"],
     ":2: bad number (quaternion is zero or not finite)"),
    # the first bad line wins, whatever each line's fault
    (["0 1 2 3 0 0 0 1", "0.1 1 2 3 0 0 0 0", "0.2 1 2"],
     ":2: bad number (quaternion is zero or not finite)"),
    (["0 1 2 3 0 0 0 1", "0.1 1 2", "0.2 1 2 3 0 0 0 0"],
     ":2: expected 8 fields, got 3"),
    (["0 1 2 3 0 0 0 0", "0.1 1 2 3 0 y 0 1"],
     ":1: bad number (quaternion is zero or not finite)"),
    (["0 1 2 3 0 0 0 1", "0.1 z 2 3 0 0 0 1", "0.2 1 2 3 0 0 0 0"],
     ":2: bad number (could not convert string to float: 'z')"),
    (["0 1 2 3 0 0 0 1"], ": trajectory needs at least two poses"),
    (["# only a comment", ""], ": trajectory needs at least two poses"),
    (["0 1 2 3 0 0 0 0"], ":1: bad number (quaternion is zero or not finite)"),
    # past the first block of BLOCK = 512 lines
    (good_poses(599) + ["9 1 x 3 0 0 0 1"],
     ":600: bad number (could not convert string to float: 'x')"),
    (good_poses(700) + ["9 1 2"], ":701: expected 8 fields, got 3"),
    (good_poses(700) + ["9 1 2 3 0 0 0 1 9"], ":701: expected 8 fields, got 9"),
    (good_poses(513) + ["9 1 2 3 0 0 0 0"],
     ":514: bad number (quaternion is zero or not finite)"),
    (good_poses(1024) + ["9 1 2 3 nan 0 0 1"],
     ":1025: bad number (quaternion is zero or not finite)"),
    # a bad quaternion in an earlier block than a later line's other fault
    (good_poses(100) + ["9 1 2 3 0 0 0 0"] + good_poses(600) + ["9 1 2"],
     ":101: bad number (quaternion is zero or not finite)"),
    (good_poses(100) + ["9 1 2 3 0 0 0 0"] + good_poses(600)
     + ["9 y 2 3 0 0 0 1"],
     ":101: bad number (quaternion is zero or not finite)"),
    # faults on the last line of a block and the first line of the next
    (good_poses(511) + ["9 1 2 3 0 0 0 0", "9 1 2"],
     ":512: bad number (quaternion is zero or not finite)"),
    (good_poses(512) + ["9 1 2 3 0 0 0 0", "9 1 2"],
     ":513: bad number (quaternion is zero or not finite)"),
    (good_poses(511) + ["9 1 2", "9 1 2 3 0 0 0 0"],
     ":512: expected 8 fields, got 3"),
    (good_poses(512) + ["9 1 z 3 0 0 0 1", "9 1 2 3 0 0 0 0"],
     ":513: bad number (could not convert string to float: 'z')"),
    # comment and blank lines across a block edge shift the line numbers
    (good_poses(300) + ["# c", "", "  "] + good_poses(300)
     + ["9 1 2 3 0 0 0 0"],
     ":604: bad number (quaternion is zero or not finite)"),
    (good_poses(511) + ["# c", "", "#"] + good_poses(1) + ["9 1 2"],
     ":516: expected 8 fields, got 3"),
]


@pytest.mark.parametrize("lines,message", BAD_TRAJECTORIES)
def test_read_trajectory_errors_match_reference(tmp_path, lines, message):
    path = tmp_path / "bad.tum"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogFormatError) as ours:
        read_trajectory(path)
    with pytest.raises(LogFormatError) as ref:
        ref_read_trajectory(path)
    assert str(ours.value) == str(ref.value) == f"{path}{message}"


# ---------------------------------------------------------------------------
# Sensor logs


def streams(rng, n=400):
    t_imu = np.arange(1, n + 1) * 0.005
    imu = [ImuSample(t, a, w) for t, a, w in zip(
        t_imu.tolist(), rng.normal(size=(n, 3)) * 10.0, rng.normal(size=(n, 3)))]
    imu[0] = ImuSample(np.float64(0.005), [0.0, -0.0, 1e-320],
                       [-0.0, 5e-324, 1e308])
    imu[1] = ImuSample(0.01, np.array([-0.0, 0.0, 0.0]), [1, 2, 3])
    lengths = rng.uniform(0.5, 1.5, size=(n // 2, 9))
    lengths[0] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 1.0, 2.0, 3.0]
    cables = [CableMeasurements(t, v)
              for t, v in zip((np.arange(n // 2) * 0.01).tolist(), lengths)]
    cables[1] = CableMeasurements(np.float64(0.01), lengths[1])
    cables[2] = CableMeasurements(0.02, range(9))   # stored as floats
    contacts = [ContactVector(t, rng.random(6) < 0.5)
                for t in (np.arange(n // 2) * 0.01).tolist()]
    contacts[3] = ContactVector(np.float64(0.03), (1, 0, 0, 1, 1, 0))
    return imu, cables, contacts


def test_write_sensor_log_matches_reference(tmp_path):
    imu, cables, contacts = streams(np.random.default_rng(23))
    config = {"chatter": "0.01", "maneuver": "right_turn"}
    for k, seed in enumerate((0, 7)):
        ours, ref = tmp_path / f"ours{k}.jsonl", tmp_path / f"ref{k}.jsonl"
        write_sensor_log(ours, imu, cables, contacts, seed, config)
        ref_write_sensor_log(ref, imu, cables, contacts, seed, config)
        assert ours.read_bytes() == ref.read_bytes()
    write_sensor_log(ours, [], [], [], 0)
    ref_write_sensor_log(ref, [], [], [], 0)
    assert ours.read_bytes() == ref.read_bytes()


def stacked(imu):
    """The columns of a Stream of the ImuSamples imu, as fresh arrays."""
    return (np.array([s.timestamp for s in imu]),
            np.array([s.accel for s in imu]), np.array([s.gyro for s in imu]))


def test_write_sensor_log_of_a_stream_matches_reference(tmp_path):
    # one block and one row of IMU samples, given as a Stream
    imu, cables, contacts = streams(np.random.default_rng(41), n=BLOCK + 1)
    t, accel, gyro = stacked(imu)
    accel[2:6] = gyro[6:10] = [[-0.0, 5e-324, 1e16], [1e-5, -1e-5, 1e-320],
                               [1e308, -1e308, 0.0], [1e15, 1e17, 1e-4]]
    stream = Stream(ImuSample._trusted, t, accel, gyro)
    # finite lengths whose sum overflows
    cables[5] = CableMeasurements(cables[5].timestamp, [1e308] * 9)
    ours, ref = tmp_path / "ours.jsonl", tmp_path / "ref.jsonl"
    write_sensor_log(ours, stream, cables, contacts, 5, {"imu_rate": "200"})
    ref_write_sensor_log(ref, stream, cables, contacts, 5, {"imu_rate": "200"})
    assert ours.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [1, 2])
def test_write_sensor_log_refuses_non_finite_imu_before_opening(
        tmp_path, bad, column):
    # the json text NaN or Infinity would be refused on reading, exit 2
    imu, cables, contacts = streams(np.random.default_rng(43))
    columns = stacked(imu)
    columns[column][7, 2] = bad
    path = tmp_path / "sensors.jsonl"
    with pytest.raises(ValueError,
                       match="imu record 7 has a non-finite reading"):
        write_sensor_log(path, Stream(ImuSample._trusted, *columns), cables,
                         contacts, 0)
    assert not path.exists()


def test_read_sensor_log_matches_reference(tmp_path):
    imu, cables, contacts = streams(np.random.default_rng(29))
    path = tmp_path / "sensors.jsonl"
    ref_write_sensor_log(path, imu, cables, contacts, 3)
    with open(path, "a") as f:
        f.write("\n   \n")
        f.write('{"t": 9, "type": "imu", "a": [1, -0.0, 2e-320], '
                '"w": [1, 0, 1e300]}\n')
        lengths = ", ".join(f'"{i}-{j}": "{k}"'
                            for k, (i, j) in enumerate(CABLE_PAIRS))
        f.write('{"type": "cable", "t": "9.5", "extra": 1, "l": {%s}}\n'
                % lengths)
        f.write('{"t": 10, "type": "contact", "c": [true, false, true, '
                'false, false, true]}\n')
    header, events = read_sensor_log(path)
    ref_header, ref_events = ref_read_sensor_log(path)
    assert header == ref_header
    assert_same_events(events, ref_events)


HEADER = json.dumps({"type": "header", "version": __version__, "seed": 0,
                     "config": {}})
IMU = '{"t": 0.1, "type": "imu", "a": [0, 0, 9.81], "w": [0, 0, 0]}'
CABLE = '{"t": 0.1, "type": "cable", "l": {%s}}' % ", ".join(
    f'"{i}-{j}": 1.0' for i, j in CABLE_PAIRS)

# (lines, expected message without the path prefix, same as the reference)
BAD_LOGS = [
    ([HEADER, "{not json"], ":2: bad JSON (Expecting property name enclosed "
     "in double quotes: line 1 column 2 (char 1))", True),
    ([IMU], ":1: missing header record", True),
    ([HEADER, HEADER], ":2: header must be the first record", True),
    (["", HEADER], ":2: header must be the first record", True),
    ([], ": empty log", True),
    ([HEADER, IMU, IMU.replace("0.1", "0.05", 1)],
     ":3: timestamp moved backwards", True),
    ([HEADER, '{"t": 0.1, "type": "gps"}'],
     ":2: unknown record type 'gps'", True),
    ([HEADER, '{"type": "imu", "a": [0, 0, 0], "w": [0, 0, 0]}'],
     ":2: invalid record ('t')", True),
    ([HEADER, '{"t": "soon", "type": "imu"}'],
     ":2: invalid record (could not convert string to float: 'soon')", True),
    ([HEADER, IMU.replace("9.81", "NaN")],
     ":2: invalid record (accel must be a finite 3-vector)", True),
    ([HEADER, IMU.replace('"w": [0, 0, 0]', '"w": [0, Infinity, 0]')],
     ":2: invalid record (gyro must be a finite 3-vector)", True),
    ([HEADER, IMU.replace('"w": [0, 0, 0]', '"w": [0, 0]')],
     ":2: invalid record (gyro must be a finite 3-vector)", True),
    ([HEADER, CABLE.replace('"0-4": 1.0, ', "")],
     ":2: invalid record (cable set mismatch: missing [(0, 4)], "
     "unexpected [])", True),
    ([HEADER, CABLE.replace('"0-4"', '"0_4"')],
     ":2: invalid record (not enough values to unpack (expected 2, got 1))",
     True),
    # contact flags: only a list of six JSON booleans
    ([HEADER, '{"t": 0.1, "type": "contact", "c": "tfffff"}'],
     ":2: invalid record (contact flags must be a list of six booleans)",
     False),
    ([HEADER, '{"t": 0.1, "type": "contact", "c": '
      '["false", false, false, false, false, false]}'],
     ":2: invalid record (contact flags must be a list of six booleans)",
     False),
    ([HEADER, '{"t": 0.1, "type": "contact", "c": [1, 0, 0, 0, 0, 0]}'],
     ":2: invalid record (contact flags must be a list of six booleans)",
     False),
    ([HEADER, '{"t": 0.1, "type": "contact", "c": [true, true]}'],
     ":2: invalid record (contact flags must be a list of six booleans)",
     False),
    # records the reference let through as uncaught exceptions
    ([HEADER, "[1, 2]"], ":2: invalid record (not a JSON object)", False),
    ([HEADER, '{"t": 0.1, "type": "cable", "l": []}'],
     ":2: invalid record (cable lengths must be a JSON object)", False),
    ([HEADER, '{"t": 1%s, "type": "imu"}' % ("0" * 400)],
     ":2: invalid record (int too large to convert to float)", False),
    ([HEADER, IMU.replace("9.81", "1" + "0" * 400)],
     ":2: invalid record (int too large to convert to float)", False),
    ([HEADER, "[" * 100000 + "]" * 100000],
     ":2: bad JSON (maximum recursion depth exceeded while decoding a JSON "
     "array from a unicode string)", False),
    # non-finite timestamps; after a NaN the backwards check never fired
    ([HEADER, IMU.replace("0.1", "NaN", 1)],
     ":2: invalid record (timestamp must be finite)", False),
    ([HEADER, IMU.replace("0.1", "0.5", 1), IMU.replace("0.1", "NaN", 1), IMU],
     ":3: invalid record (timestamp must be finite)", False),
    ([HEADER, IMU, IMU.replace("0.1", "Infinity", 1)],
     ":3: invalid record (timestamp must be finite)", False),
    ([HEADER, IMU.replace("0.1", "-Infinity", 1)],
     ":2: invalid record (timestamp must be finite)", False),
    # JSON booleans, which float() takes as 0.0 and 1.0
    ([HEADER, IMU.replace("0.1", "true", 1)],
     ":2: invalid record (timestamp must be a number, got true)", False),
    ([HEADER, CABLE.replace('"0-4": 1.0', '"0-4": false')],
     ":2: invalid record (cable length must be a number, got false)", False),
    ([HEADER, '{"t": 0.1, "type": "imu", "a": [true, false, 9.81], '
      '"w": [0, 0, 0]}'],
     ":2: invalid record (accel must be a finite 3-vector)", False),
    ([HEADER, '{"t": 0.1, "type": "imu", "a": [0, 0, 9.81], '
      '"w": [0, true, 0]}'],
     ":2: invalid record (gyro must be a finite 3-vector)", False),
    # cable keys naming a reversed or an extra pair
    ([HEADER, CABLE.replace('"0-4"', '"4-0"')],
     ":2: invalid record (cable set mismatch: missing [(0, 4)], "
     "unexpected [(4, 0)])", True),
    ([HEADER, CABLE.replace('"0-4": 1.0', '"0-4": 1.0, "0-1": 1.0')],
     ":2: invalid record (cable set mismatch: missing [], "
     "unexpected [(0, 1)])", True),
    # "00-4" names the pair (0, 4) too; the reference kept the later value
    ([HEADER, CABLE.replace('"0-4": 1.0', '"00-4": 5.0, "0-4": 1.0')],
     ":2: invalid record (cable pair (0, 4) named twice)", False),
    ([HEADER, IMU, CABLE.replace('"2-5": 1.0', '"2-5": 1.0, "2-05": 1.0')],
     ":3: invalid record (cable pair (2, 5) named twice)", False),
]


@pytest.mark.parametrize("lines,message,as_reference", BAD_LOGS)
def test_read_sensor_log_errors(tmp_path, lines, message, as_reference):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(LogFormatError) as ours:
        read_sensor_log(path)
    assert str(ours.value) == f"{path}{message}"
    if as_reference:
        with pytest.raises(LogFormatError) as ref:
            ref_read_sensor_log(path)
        assert str(ref.value) == str(ours.value)


def test_bad_contact_flags_exit_2(tmp_path):
    path = tmp_path / "sensors.jsonl"
    path.write_text("".join(line + "\n" for line in (
        HEADER, IMU, '{"t": 0.2, "type": "contact", "c": "tfffff"}')))
    assert main(["estimate", "--out-dir", str(tmp_path), "--sensors",
                 str(path), "--log-level", "ERROR"]) == 2


def test_reversed_cable_pair_exits_2(tmp_path):
    path = tmp_path / "sensors.jsonl"
    path.write_text("".join(line + "\n" for line in (
        HEADER, IMU, CABLE.replace("0.1", "0.2", 1).replace('"0-4"', '"4-0"'))))
    assert main(["estimate", "--out-dir", str(tmp_path), "--sensors",
                 str(path), "--log-level", "ERROR"]) == 2


def test_cable_keys_in_any_order_read_as_pair_ordered_vector(tmp_path):
    values = np.random.default_rng(5).uniform(0.5, 1.5, size=9).tolist()
    by_key = {f"{i}-{j}": v for (i, j), v in zip(CABLE_PAIRS, values)}
    keys = sorted(by_key, reverse=True)
    assert keys != list(by_key)
    record = {"t": 0.1, "type": "cable", "l": {k: by_key[k] for k in keys}}
    path = tmp_path / "sensors.jsonl"
    path.write_text(f"{HEADER}\n{json.dumps(record)}\n")
    (meas,) = read_sensor_log(path)[1]
    assert meas.lengths.tolist() == values
    assert not meas.lengths.flags.writeable


def test_first_bad_cable_of_a_record_is_named_in_pair_order(tmp_path):
    # keys in reverse CABLE_PAIRS order, (0, 3) and (1, 5) out of range
    lengths = {f"{i}-{j}": 1.0 for i, j in reversed(CABLE_PAIRS)}
    lengths["0-3"] = lengths["1-5"] = 3.5
    path = tmp_path / "sensors.jsonl"
    path.write_text(f"{HEADER}\n"
                    + json.dumps({"t": 0.1, "type": "cable", "l": lengths}) + "\n")
    (meas,) = read_sensor_log(path)[1]
    with pytest.raises(MeasurementRejected,
                       match=r"^cable \(1, 5\) length 3.5 outside \(0, 2\*L_rod\)$"):
        reconstruct_shape(meas, None, ShapeSolverConfig())


# ---------------------------------------------------------------------------
# Noise overlay and evaluation output


@pytest.fixture(scope="module")
def short_sim():
    return generate(SimConfig(maneuver="right_turn", target_length=0.3,
                              dwell=0.5, final_dwell=0.2, imu_rate=400.0))


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("cable_noise,chatter", [(0.0, 0.0), (0.002, 0.0),
                                                 (0.0, 0.05), (0.002, 0.3)])
def test_corrupt_matches_reference(short_sim, seed, cable_noise, chatter):
    noisy = corrupt(short_sim, seed=seed, cable_noise=cable_noise,
                    chatter=chatter)
    imu, cables, contacts = ref_corrupt(short_sim, seed=seed,
                                        cable_noise=cable_noise,
                                        chatter=chatter)
    assert_same_events(noisy.imu, imu)
    assert_same_events(noisy.cables, cables)
    assert_same_events(noisy.contacts, contacts)
    assert (noisy.cables is short_sim.cables) == (cable_noise == 0.0)
    assert (noisy.contacts is short_sim.contacts) == (chatter == 0.0)


def test_corrupt_non_finite_sample_raises_as_reference(short_sim):
    # one trusted sample with an infinite accel, which no constructor checked
    bad = Stream(ImuSample._trusted, np.array([0.01]),
                 np.array([[0.0, np.inf, 9.81]]), np.zeros((1, 3)))
    sim = SimOutput(short_sim.config, short_sim.body_shape, short_sim.frames,
                    bad, short_sim.cables, short_sim.contacts,
                    short_sim.path_length)
    with pytest.raises(ValueError, match="accel must be a finite 3-vector"):
        ref_corrupt(sim)
    with pytest.raises(ValueError, match="accel must be a finite 3-vector"):
        corrupt(sim)


def test_errors_csv_matches_reference(tmp_path):
    # more than one block, exactly one block, and one block plus one line
    for n in (600, BLOCK, BLOCK + 1):
        rng = np.random.default_rng(31)
        out = tmp_path / str(n)
        out.mkdir()
        t = np.arange(n) * 0.01
        truth = np.cumsum(rng.normal(scale=0.01, size=(n, 3)), axis=0)
        truth[:5] = 0.0
        est = truth + rng.normal(scale=1e-3, size=(n, 3))
        est[:5] = -0.0
        Rs = [so3_exp(v) for v in rng.normal(scale=0.1, size=(n, 3))]
        write_trajectory(out / "ground_truth.tum", t, truth, Rs)
        write_trajectory(out / "estimate.tum", t + 1e-4, est, Rs)
        assert main(["evaluate", "--out-dir", str(out),
                     "--log-level", "ERROR"]) == 0

        e = Trajectory(*read_trajectory(out / "estimate.tum"))
        r = Trajectory(*read_trajectory(out / "ground_truth.tum"))
        aligned, _, _ = align_initial(e, r)
        report = drift_metrics(aligned, r)
        lines = ["t,ex,ey,ez\n"]
        for ts, err in zip(report.timestamps, report.position_errors):
            lines.append("%s,%s,%s,%s\n" % tuple(
                repr(float(v)) for v in (ts, err[0], err[1], err[2])))
        assert (out / "errors.csv").read_text() == "".join(lines)
        assert len(lines) == n + 1
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics == report.as_dict()
