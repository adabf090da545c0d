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
from itertools import islice

import numpy as np

from . import __version__
from .inekf import ContactVector, ImuSample
from .shape import CABLE_PAIRS, CableMeasurements


class LogFormatError(Exception):
    pass


class ConfigError(Exception):
    pass


def _json_float(v):
    """A number as json.dumps writes it: floats, np.float64 among them,
    through float.__repr__, and non-finite floats as NaN/Infinity."""
    if not isinstance(v, float):
        return json.dumps(v)
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return float.__repr__(v)


def _finite3(v, name):
    """A fresh float array of a JSON list of three finite numbers."""
    if len(v) != 3 or not all(map(math.isfinite, v)):
        raise ValueError(f"{name} must be a finite 3-vector")
    return np.array(v, dtype=float)


def write_sensor_log(path, imu, cables, contacts, seed, config=None):
    """Merge sensor streams into one time-ordered JSONL file.

    Records sharing a timestamp are ordered cable, contact, imu, which
    is the order a consumer should apply them in.  Each line is the
    bytes json.dumps writes for the record.
    """
    num = _json_float
    records = []
    for c in cables:
        lengths = ", ".join(f'"{i}-{j}": {num(c.lengths[(i, j)])}'
                            for i, j in CABLE_PAIRS)
        records.append((c.timestamp, 0, f'{{"t": {num(c.timestamp)}, '
                        f'"type": "cable", "l": {{{lengths}}}}}\n'))
    for c in contacts:
        flags = ", ".join("true" if f else "false" for f in c.flags)
        records.append((c.timestamp, 1, f'{{"t": {num(c.timestamp)}, '
                        f'"type": "contact", "c": [{flags}]}}\n'))
    for s in imu:
        a0, a1, a2 = map(num, s.accel.tolist())
        w0, w1, w2 = map(num, s.gyro.tolist())
        records.append((s.timestamp, 2, f'{{"t": {num(s.timestamp)}, '
                        f'"type": "imu", "a": [{a0}, {a1}, {a2}], '
                        f'"w": [{w0}, {w1}, {w2}]}}\n'))
    records.sort(key=lambda r: (r[0], r[1]))
    header = {"type": "header", "version": __version__, "seed": seed,
              "config": dict(config or {})}
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        f.writelines(line for _, _, line in records)


def read_sensor_log(path):
    """Parse a sensor log; returns (header, events).

    Events are ImuSample / CableMeasurements / ContactVector instances
    in file order.  IMU fields must be three finite numbers each and
    contact flags a list of six JSON booleans.  Malformed lines and
    backwards timestamps raise LogFormatError with the offending line
    number.
    """
    header = None
    events = []
    last_t = -math.inf
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as err:
                raise LogFormatError(f"{path}:{lineno}: bad JSON ({err})")
            if not isinstance(rec, dict):
                raise LogFormatError(
                    f"{path}:{lineno}: invalid record (not a JSON object)")
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
                    events.append(ImuSample._trusted(
                        t, _finite3(rec["a"], "accel"),
                        _finite3(rec["w"], "gyro")))
                elif kind == "cable":
                    if not isinstance(rec["l"], dict):
                        raise ValueError("cable lengths must be a JSON object")
                    lengths = {}
                    for key, val in rec["l"].items():
                        i, j = key.split("-")
                        lengths[(int(i), int(j))] = float(val)
                    events.append(CableMeasurements(t, lengths))
                elif kind == "contact":
                    c = rec["c"]
                    if type(c) is not list or len(c) != 6 or \
                            not all(type(x) is bool for x in c):
                        raise ValueError("contact flags must be a list of "
                                         "six booleans")
                    events.append(ContactVector(t, c))
                else:
                    raise LogFormatError(
                        f"{path}:{lineno}: unknown record type {kind!r}")
            except LogFormatError:
                raise
            except (KeyError, ValueError, TypeError, OverflowError) as err:
                raise LogFormatError(f"{path}:{lineno}: invalid record ({err})")
    if header is None:
        raise LogFormatError(f"{path}: empty log")
    return header, events


def write_trajectory(path, timestamps, positions, rotations):
    """TUM format: t x y z qx qy qz qw, repr-precision floats.

    Poses are converted and written a block at a time, which bounds the
    memory the conversion adds to the caller's pose lists.
    """
    poses = zip(timestamps, positions, rotations)
    with open(path, "w") as f:
        while block := list(islice(poses, 512)):
            t, p, R = zip(*block)
            rows = np.column_stack((
                np.asarray(t, dtype=float), np.asarray(p, dtype=float),
                _quat_from_matrix(np.asarray(R, dtype=float)))).tolist()
            f.writelines(" ".join(map(float.__repr__, row)) + "\n"
                         for row in rows)


def _quat_from_matrix(R):
    """Unit quaternions (..., 4) as (x, y, z, w) of orthonormal matrices
    (..., 3, 3) by Shepperd's method.  It and _matrix_from_quat repeat
    scipy's Rotation operation for operation, each element rounded as in
    scalar arithmetic, so TUM files are bit-identical to ones written by
    scipy."""
    R = np.asarray(R, dtype=float)
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = np.moveaxis(
        R.reshape(R.shape[:-2] + (9,)), -1, 0)
    trace = m00 + m11 + m22
    # argmax picks the first maximum, as scipy's does
    choice = np.argmax(np.stack((m00, m11, m22, trace), axis=-1), axis=-1)
    candidates = np.array((
        (1 - trace + 2 * m00, m10 + m01, m20 + m02, m21 - m12),
        (m10 + m01, 1 - trace + 2 * m11, m21 + m12, m02 - m20),
        (m20 + m02, m21 + m12, 1 - trace + 2 * m22, m10 - m01),
        (m21 - m12, m02 - m20, m10 - m01, 1 + trace)))
    x, y, z, w = np.take_along_axis(candidates, choice[None, None], 0)[0]
    n = np.sqrt(x * x + y * y + z * z + w * w)
    return np.stack((x / n, y / n, z / n, w / n), axis=-1)


def _matrix_from_quat(q):
    """Rotation matrices (..., 3, 3) of the normalized quaternions
    (..., 4); ValueError if any quaternion is zero or not finite."""
    x, y, z, w = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.sqrt(x * x + y * y + z * z + w * w)
    if not np.all((0.0 < n) & (n < math.inf)):
        raise ValueError("quaternion is zero or not finite")
    x, y, z, w = x / n, y / n, z / n, w / n
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.stack((x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw),
                     2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw),
                     2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2),
                    axis=-1).reshape(n.shape + (3, 3))


def _rotations(path, quats, linenos):
    """_matrix_from_quat of (N, 4) quaternions read from the given lines;
    the first bad one raises LogFormatError at its line."""
    try:
        return _matrix_from_quat(quats)
    except ValueError as err:
        for lineno, q in zip(linenos, quats):
            try:
                _matrix_from_quat(q)
            except ValueError:
                raise LogFormatError(f"{path}:{lineno}: bad number ({err})")
        raise


def _rows_before_bad_number(path, tokens, linenos):
    """The rows parsed before the first line holding a bad number, and
    the LogFormatError naming that line."""
    rows = []
    for k, lineno in enumerate(linenos):
        try:
            rows.append(list(map(float, tokens[8 * k:8 * k + 8])))
        except ValueError as err:
            return (np.array(rows).reshape(-1, 8),
                    LogFormatError(f"{path}:{lineno}: bad number ({err})"))
    raise AssertionError("no bad number in the tokens")


def read_trajectory(path):
    """Parse a TUM file into (timestamps, positions, rotations) arrays.

    Blank lines and lines starting with '#' are skipped; every other
    line needs 8 numbers and a nonzero finite quaternion.  The first
    malformed line raises LogFormatError with its line number.
    """
    tokens, linenos = [], []
    error = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != 8:
                error = LogFormatError(
                    f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
                break
            tokens += parts
            linenos.append(lineno)
    try:
        vals = np.array(list(map(float, tokens))).reshape(-1, 8)
    except ValueError:
        vals, error = _rows_before_bad_number(path, tokens, linenos)
    # a bad quaternion on a line before `error`'s is reported first
    R = _rotations(path, vals[:, 4:], linenos)
    if error is not None:
        raise error
    if len(vals) < 2:
        raise LogFormatError(f"{path}: trajectory needs at least two poses")
    return vals[:, 0].copy(), vals[:, 1:4].copy(), R


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
