"""File formats: JSONL sensor logs, TUM trajectories, key=value configs.

Sensor logs are JSON-lines: one header record followed by time-ordered
sensor records.  Floats are serialized with repr precision so that a
write/read round trip is bit-exact.

    {"type": "header", "version": ..., "seed": ..., "config": {...}}
    {"t": 0.005, "type": "imu", "a": [...], "w": [...]}
    {"t": 0.01, "type": "cable", "l": {"0-4": 1.2, ...}}
    {"t": 0.01, "type": "contact", "c": [true, false, ...]}

Trajectories use the TUM format: one "t x y z qx qy qz qw" line per
pose.  Configs are flat "key = value" lines with '#' comments.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import __version__
from .inekf import ContactVector, ImuSample
from .shape import CABLE_PAIRS, CableMeasurements


class LogFormatError(Exception):
    pass


class ConfigError(Exception):
    pass


def write_sensor_log(path, imu, cables, contacts, seed, config=None):
    """Merge sensor streams into one time-ordered JSONL file.

    Records sharing a timestamp are ordered cable, contact, imu, which
    is the order a consumer should apply them in.
    """
    records = []
    for c in cables:
        records.append((c.timestamp, 0, {
            "t": c.timestamp, "type": "cable",
            "l": {f"{i}-{j}": c.lengths[(i, j)] for i, j in CABLE_PAIRS}}))
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


def read_sensor_log(path):
    """Parse a sensor log; returns (header, events).

    Events are ImuSample / CableMeasurements / ContactVector instances
    in file order.  Malformed lines and backwards timestamps raise
    LogFormatError with the offending line number.
    """
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
                    lengths = {}
                    for key, val in rec["l"].items():
                        i, j = key.split("-")
                        lengths[(int(i), int(j))] = float(val)
                    events.append(CableMeasurements(t, lengths))
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


def write_trajectory(path, timestamps, positions, rotations):
    """TUM format: t x y z qx qy qz qw, repr-precision floats."""
    with open(path, "w") as f:
        for t, p, R in zip(timestamps, positions, rotations):
            vals = [t, p[0], p[1], p[2], *_quat_from_matrix(R)]
            f.write(" ".join(repr(float(v)) for v in vals) + "\n")


def _quat_from_matrix(R):
    """Unit quaternion (x, y, z, w) of an orthonormal matrix by Shepperd's
    method.  It and _matrix_from_quat repeat scipy's Rotation operation for
    operation, so TUM files are bit-identical to ones written by scipy."""
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


def _matrix_from_quat(q):
    """Rotation matrix (nested lists) of the normalized quaternion q."""
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


def read_trajectory(path):
    """Parse a TUM file into (timestamps, positions, rotations) arrays."""
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
                Rs.append(_matrix_from_quat(vals[4:8]))
            except ValueError as err:
                raise LogFormatError(f"{path}:{lineno}: bad number ({err})")
            ts.append(vals[0])
            ps.append(vals[1:4])
    if len(ts) < 2:
        raise LogFormatError(f"{path}: trajectory needs at least two poses")
    return np.array(ts), np.array(ps), np.array(Rs)


def read_config(path):
    """Flat 'key = value' file; '#' starts a comment."""
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if not key or not val:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = val
    return out


def config_get(cfg, key, default, cast=str):
    """Typed lookup with default; bool accepts true/false/1/0."""
    if key not in cfg:
        return default
    raw = cfg[key]
    try:
        if cast is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except (ValueError, TypeError):
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}")
