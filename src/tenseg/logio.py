"""File formats: JSONL sensor logs, TUM trajectories, key=value configs.

Sensor logs are JSON-lines: one header record followed by time-ordered
sensor records.  Floats are serialized with repr precision so that a
write/read round trip is bit-exact.

    {"type": "header", "version": ..., "seed": ..., "config": {...}}
    {"t": 0.005, "type": "imu", "a": [...], "w": [...]}
    {"t": 0.01, "type": "cable", "l": {"0-4": 1.2, ...}}
    {"t": 0.01, "type": "contact", "c": [true, false, ...]}

A cable record's "l" needs exactly the "i-j" keys of the pairs (i, j) in
shape.CABLE_PAIRS, in any order ("4-0" is not "0-4").

Trajectories use the TUM format: one "t x y z qx qy qz qw" line per
pose.  Configs are flat "key = value" lines with '#' comments.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from . import __version__
from .inekf import ContactVector, ImuSample, Stream
from .shape import CABLE_PAIRS, CableMeasurements


# Lines converted at a time by the TUM and CSV readers and writers
BLOCK = 512


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


def _number(v, name):
    """float(v) of a JSON number or numeric string; JSON booleans, which
    float() would take as 0.0 and 1.0, are refused."""
    if type(v) is bool:
        raise ValueError(f"{name} must be a number, got {json.dumps(v)}")
    return float(v)


def _finite3(v, name):
    """v, checked to be a JSON list of three finite numbers; JSON
    booleans, which math.isfinite would take as 0 and 1, are refused."""
    if len(v) != 3 or bool in map(type, v) or not all(map(math.isfinite, v)):
        raise ValueError(f"{name} must be a finite 3-vector")
    return v


def _cable_vector(by_key):
    """A cable record's lengths in CABLE_PAIRS order."""
    if not isinstance(by_key, dict):
        raise ValueError("cable lengths must be a JSON object")
    by_pair = {}
    for key, val in by_key.items():
        i, j = key.split("-")
        pair = int(i), int(j)
        if pair in by_pair:
            raise ValueError(f"cable pair {pair} named twice")
        by_pair[pair] = _number(val, "cable length")
    expected = set(CABLE_PAIRS)
    if by_pair.keys() != expected:
        raise ValueError(f"cable set mismatch: missing {sorted(expected - by_pair.keys())}, "
                         f"unexpected {sorted(by_pair.keys() - expected)}")
    return [by_pair[p] for p in CABLE_PAIRS]


def _stable_order(name, t):
    """Indices putting timestamps t in stable time order, or None when
    they are in order already.  A NaN or infinite timestamp raises
    ValueError naming the stream and the record's index."""
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"{name} record {k} has a non-finite timestamp "
                         f"({float(t[k])!r})")
    if np.all(t[1:] >= t[:-1]):
        return None
    return np.argsort(t, kind="stable")


def _time_ordered(name, records):
    """A tuple of timestamped records in stable time order."""
    records = tuple(records)
    order = _stable_order(name, [r.timestamp for r in records])
    return records if order is None else tuple(records[k] for k in order)


def _imu_time_ordered(imu):
    """imu, a Stream or an iterable of ImuSamples, as a Stream in stable
    time order; samples are stacked into its columns.  A NaN or infinite
    timestamp or reading raises ValueError naming the record's index."""
    if not isinstance(imu, Stream):
        imu = tuple(imu)
        imu = Stream(ImuSample._trusted,
                     np.array([s.timestamp for s in imu], dtype=float),
                     np.array([s.accel for s in imu]).reshape(-1, 3),
                     np.array([s.gyro for s in imu]).reshape(-1, 3))
    _, accel, gyro = imu.columns
    finite = np.isfinite(accel).all(axis=1) & np.isfinite(gyro).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"imu record {k} has a non-finite reading")
    order = _stable_order("imu", imu.columns[0])
    if order is None:
        return imu
    return Stream(ImuSample._trusted, *(a[order] for a in imu.columns))


def _merge_order(*timestamps):
    """Bytes giving, for each record of the merged file in order, the
    index of the time-ordered stream it comes from.  The stable sort of
    the concatenated timestamps puts equal ones in stream order."""
    kinds = np.repeat(np.arange(len(timestamps), dtype=np.uint8),
                      [len(t) for t in timestamps])
    order = np.argsort(np.concatenate(timestamps), kind="stable")
    return kinds[order].tobytes()


# One record's line as json.dumps writes it.  %r of a Python float is
# float.__repr__, json's form of a finite float; the non-finite ones are
# refused (IMU) or formatted by _json_float (cable), so a line costs one
# %-format.  The cable template's %s gives a float's repr as well.
_IMU_LINE = '{"t": %r, "type": "imu", "a": [%r, %r, %r], "w": [%r, %r, %r]}\n'
_CABLE_LINE = '{"t": %s, "type": "cable", "l": {' + ", ".join(
    f'"{i}-{j}": %s' for i, j in CABLE_PAIRS) + '}}\n'
# a read IMU record: t, accel, gyro
_IMU_ROW = struct.Struct("7d")


def write_sensor_log(path, imu, cables, contacts, seed, config=None):
    """Merge sensor streams into one time-ordered JSONL file.

    Records sharing a timestamp are ordered cable, contact, imu, which
    is the order a consumer should apply them in.  Each line is the
    bytes json.dumps writes for the record, with IMU timestamps as
    floats.  The streams are iterables (imu a Stream or ImuSamples); a
    stream out of time order is sorted first, stably.  Lines are written
    as they are made, none held for the whole file.  A NaN or infinite
    timestamp, or IMU reading, raises ValueError before the file is
    opened.
    """
    num = _json_float
    cables = _time_ordered("cable", cables)
    contacts = _time_ordered("contact", contacts)
    imu = _imu_time_ordered(imu)

    def cable_lines():
        for c in cables:
            lengths = c.lengths.tolist()
            if not math.isfinite(sum(lengths)):   # NaN/Infinity as json's
                lengths = map(num, lengths)
            yield _CABLE_LINE % (num(c.timestamp), *lengths)

    def contact_lines():
        for c in contacts:
            flags = ", ".join("true" if f else "false" for f in c.flags)
            yield (f'{{"t": {num(c.timestamp)}, '
                   f'"type": "contact", "c": [{flags}]}}\n')

    def imu_lines():
        t, accel, gyro = imu.columns
        for k in range(0, len(t), BLOCK):
            yield from _formatted(_IMU_LINE, t[k:k + BLOCK],
                                  accel[k:k + BLOCK], gyro[k:k + BLOCK])

    kinds = _merge_order([c.timestamp for c in cables],
                         [c.timestamp for c in contacts], imu.columns[0])
    header = {"type": "header", "version": __version__, "seed": seed,
              "config": dict(config or {})}
    lines = cable_lines(), contact_lines(), imu_lines()
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        f.writelines(map(next, map(lines.__getitem__, kinds)))


def _formatted(template, *columns):
    """template % row for each row of the side-by-side float columns, one
    (m,) or (m, j) array each, as an iterator of lines made one at a
    time.  The columns' floats are converted to Python floats first, so
    each %r is float.__repr__."""
    values = []
    for a in columns:
        values += [a.tolist()] if a.ndim == 1 else a.T.tolist()
    return map(template.__mod__, zip(*values))


class SensorEvents:
    """The records of a sensor log in file order: ImuSample,
    CableMeasurements and ContactVector instances, iterated afresh on
    each pass.  The IMU samples are the Stream imu over one (n, 7) float
    array of t, accel and gyro rows, each built when it is read; cable
    and contact records are kept as objects."""

    __slots__ = ("imu", "_others", "_is_imu")

    def __init__(self, imu, others, is_imu):
        self.imu = imu
        self._others = others      # cable and contact records, in order
        self._is_imu = is_imu      # one byte per record, 1 for an IMU one

    def __len__(self):
        return len(self._is_imu)

    def __iter__(self):
        imu, others = iter(self.imu), iter(self._others)
        return (next(imu) if k else next(others) for k in self._is_imu)

    def count_imu_after(self, t):
        """How many IMU records are stamped after t, counted on the
        timestamp column without building the samples."""
        return int(np.count_nonzero(self.imu.columns[0] > t))


def read_sensor_log(path):
    """Parse a sensor log; returns (header, events).

    Events are a SensorEvents: ImuSample / CableMeasurements /
    ContactVector instances in file order.  Timestamps must be finite,
    timestamps and cable lengths numbers (or numeric strings) rather
    than JSON booleans, IMU fields three finite numbers each (no JSON
    booleans either) and contact flags a list of six JSON booleans.
    Malformed lines and backwards timestamps raise LogFormatError with
    the offending line number.
    """
    header = None
    imu = bytearray()   # IMU records as rows of _IMU_ROW
    others = []
    is_imu = bytearray()
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
                t = _number(rec["t"], "timestamp")
                if not math.isfinite(t):
                    raise ValueError("timestamp must be finite")
                if t < last_t:
                    raise LogFormatError(
                        f"{path}:{lineno}: timestamp moved backwards")
                last_t = t
                if kind == "imu":
                    imu += _IMU_ROW.pack(t, *_finite3(rec["a"], "accel"),
                                         *_finite3(rec["w"], "gyro"))
                elif kind == "cable":
                    others.append(CableMeasurements(t, _cable_vector(rec["l"])))
                elif kind == "contact":
                    c = rec["c"]
                    if type(c) is not list or len(c) != 6 or \
                            not all(type(x) is bool for x in c):
                        raise ValueError("contact flags must be a list of "
                                         "six booleans")
                    others.append(ContactVector(t, c))
                else:
                    raise LogFormatError(
                        f"{path}:{lineno}: unknown record type {kind!r}")
                is_imu.append(kind == "imu")
            except LogFormatError:
                raise
            except (KeyError, ValueError, TypeError, OverflowError) as err:
                raise LogFormatError(f"{path}:{lineno}: invalid record ({err})")
    if header is None:
        raise LogFormatError(f"{path}: empty log")
    rows = np.frombuffer(imu, dtype=float).reshape(-1, 7)
    return header, SensorEvents(
        Stream(ImuSample._trusted, rows[:, 0], rows[:, 1:4], rows[:, 4:]),
        others, bytes(is_imu))


def _write_rows(f, n, rows, sep):
    """Write n rows of floats, each its floats' reprs joined by sep;
    rows(k, m) gives rows k to m as a 2-D array.  Rows are converted a
    block at a time, which bounds the memory the conversion adds to the
    caller's data, and each line is one %r row template."""
    for k in range(0, n, BLOCK):
        block = rows(k, k + BLOCK)
        f.writelines(_formatted(sep.join(["%r"] * block.shape[1]) + "\n",
                                block))


def write_trajectory(path, timestamps, positions, rotations):
    """TUM format: t x y z qx qy qz qw, repr-precision floats.

    The three sequences (lists or arrays) hold one entry per pose.
    """
    with open(path, "w") as f:
        _write_rows(f, len(timestamps), lambda k, m: np.column_stack((
            np.asarray(timestamps[k:m], dtype=float),
            np.asarray(positions[k:m], dtype=float),
            _quat_from_matrix(np.asarray(rotations[k:m], dtype=float)))), " ")


def write_errors(path, timestamps, errors):
    """CSV of per-sample position errors: a "t,ex,ey,ez" header, then one
    line of repr-precision floats per (N,) timestamp and (N, 3) error."""
    with open(path, "w") as f:
        f.write("t,ex,ey,ez\n")
        _write_rows(f, len(timestamps), lambda k, m: np.column_stack(
            (timestamps[k:m], errors[k:m])), ",")


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
    malformed line raises LogFormatError with its line number.  Lines
    are converted to arrays and rotations BLOCK lines at a time, so that
    no text of the whole file is held.
    """
    ts, ps, Rs = [], [], []
    tokens, linenos = [], []

    def convert(error=None):
        """Move the pending lines' values into ts, ps and Rs.  Raises the
        first bad number or quaternion among those lines, or else error,
        the fault of the line after them."""
        try:
            rows = np.array(list(map(float, tokens))).reshape(-1, 8)
        except ValueError:
            rows, error = _rows_before_bad_number(path, tokens, linenos)
        # a bad quaternion on a line before `error`'s is reported first
        Rs.append(_rotations(path, rows[:, 4:], linenos))
        if error is not None:
            raise error
        ts.append(rows[:, 0].copy())
        ps.append(rows[:, 1:4].copy())
        tokens.clear()
        linenos.clear()

    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != 8:   # raises, at an earlier line if need be
                convert(LogFormatError(
                    f"{path}:{lineno}: expected 8 fields, got {len(parts)}"))
            tokens += parts
            linenos.append(lineno)
            if len(linenos) == BLOCK:
                convert()
    convert()
    if sum(map(len, ts)) < 2:
        raise LogFormatError(f"{path}: trajectory needs at least two poses")
    return np.concatenate(ts), np.concatenate(ps), np.concatenate(Rs)


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
    """Typed lookup with default."""
    if key not in cfg:
        return default
    raw = cfg[key]
    try:
        return cast(raw)
    except (ValueError, TypeError):
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}")
