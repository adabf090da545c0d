"""Spans and counts around the public functions of each tenseg layer.

The tracer wraps module attributes and methods for the duration of one
traced round and restores them afterwards, so untraced rounds run the
program unchanged.  Spans are kept in memory as (name, parent, start,
end) and turned into per-layer metrics when the round ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from tenseg import cli, inekf, liegroup, logio, shape, simulator

# (owner, attribute, span name): calls recorded as timed spans.  Names
# imported into another module are patched where the caller looks them
# up, e.g. the CLI's own reference to read_sensor_log.
_SPANS = (
    (cli, "cmd_estimate", "cli.cmd_estimate"),
    (cli, "cmd_evaluate", "cli.cmd_evaluate"),
    (cli, "read_sensor_log", "logio.read_sensor_log"),
    (cli, "read_trajectory", "logio.read_trajectory"),
    (cli, "write_trajectory", "logio.write_trajectory"),
    (cli, "align_initial", "evaluate.align_initial"),
    (cli, "drift_metrics", "evaluate.drift_metrics"),
    (logio, "write_trajectory", "logio.write_trajectory"),
    (logio, "write_sensor_log", "logio.write_sensor_log"),
    (simulator, "generate", "simulator.generate"),
    (simulator, "corrupt", "simulator.corrupt"),
    (inekf.ContactAidedFilter, "process_imu", "inekf.process_imu"),
    (inekf.ContactAidedFilter, "process_cables", "inekf.process_cables"),
    (inekf.ContactAidedFilter, "process_contacts", "inekf.process_contacts"),
    (inekf, "propagate", "inekf.propagate"),
    (inekf, "correct_contact", "inekf.correct_contact"),
    (inekf, "augment_contact", "inekf.augment_contact"),
    (inekf, "marginalize_contact", "inekf.marginalize_contact"),
    (inekf, "sek3_exp", "liegroup.sek3_exp"),
    (liegroup, "sek3_exp", "liegroup.sek3_exp"),
    (shape, "reconstruct_shape", "shape.reconstruct_shape"),
    (shape, "J_p", "shape.J_p"),
)

# (owner, attribute, counter name): calls only counted, being too many
# or too short to time without distorting the round.
_COUNTS = (
    (inekf, "h_R", "shape.h_R.calls"),
    (liegroup.GroupElement, "__post_init__", "liegroup.GroupElement.created"),
)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, parent index or -1, start, end]
        self.counts = {name: 0 for _, _, name in _COUNTS}
        self.counts.update({"inekf.correct_contact.applied": 0,
                            "inekf.correct_contact.gated": 0})
        self._stack = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _correction(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, info = fn(*args, **kwargs)
            key = "applied" if info.applied else "gated"
            counts["inekf.correct_contact." + key] += 1
            return state, info
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced entry point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in _SPANS:
                orig = owner.__dict__[attr]
                fn = self._span(name, orig)
                if attr == "correct_contact":
                    fn = self._correction(fn)
                saved.append((owner, attr, orig))
                setattr(owner, attr, fn)
            for owner, attr, name in _COUNTS:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._count(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def layer_metrics(self):
        """Per-layer numbers of one traced round (names as in BENCHMARK.json)."""
        durations = {}
        child_time = [0.0] * len(self.spans)
        nested_solves = 0
        for name, parent, t0, t1 in self.spans:
            durations.setdefault(name, []).append(t1 - t0)
            if parent >= 0:
                child_time[parent] += t1 - t0
                if (name == "shape.reconstruct_shape"
                        and self.spans[parent][0] == "shape.J_p"):
                    nested_solves += 1
        estimate_self = sum(
            (t1 - t0) - child_time[i]
            for i, (name, _, t0, t1) in enumerate(self.spans)
            if name == "cli.cmd_estimate")

        def d(name):
            return np.asarray(durations.get(name, ()), dtype=float)

        def pct(name, q, scale):
            x = d(name)
            return float(np.percentile(x, q)) * scale if x.size else 0.0

        def total(name):
            return float(d(name).sum())

        def calls(name):
            return int(d(name).size)

        jp_calls = calls("shape.J_p")
        m = {
            "shape.reconstruct_shape.calls": calls("shape.reconstruct_shape"),
            "shape.reconstruct_shape.p50_us": pct("shape.reconstruct_shape", 50, 1e6),
            "shape.reconstruct_shape.p99_us": pct("shape.reconstruct_shape", 99, 1e6),
            "shape.reconstruct_shape.total_s": total("shape.reconstruct_shape"),
            "inekf.process_cables.p99_ms": pct("inekf.process_cables", 99, 1e3),
            "shape.J_p.calls": jp_calls,
            "shape.J_p.p50_ms": pct("shape.J_p", 50, 1e3),
            "shape.J_p.total_s": total("shape.J_p"),
            "shape.J_p.solves_per_call":
                nested_solves / jp_calls if jp_calls else 0.0,
            "inekf.process_imu.calls": calls("inekf.process_imu"),
            "inekf.process_imu.p50_us": pct("inekf.process_imu", 50, 1e6),
            "inekf.process_imu.p99_us": pct("inekf.process_imu", 99, 1e6),
            "inekf.process_imu.total_s": total("inekf.process_imu"),
            "inekf.propagate.p50_us": pct("inekf.propagate", 50, 1e6),
            "inekf.propagate.total_s": total("inekf.propagate"),
            "inekf.correct_contact.calls": calls("inekf.correct_contact"),
            "inekf.correct_contact.p50_us": pct("inekf.correct_contact", 50, 1e6),
            "inekf.correct_contact.total_s": total("inekf.correct_contact"),
            "inekf.augment_contact.calls": calls("inekf.augment_contact"),
            "inekf.marginalize_contact.calls": calls("inekf.marginalize_contact"),
            "liegroup.sek3_exp.total_s": total("liegroup.sek3_exp"),
            "logio.read_sensor_log_s": total("logio.read_sensor_log"),
            "logio.write_trajectory_s": total("logio.write_trajectory"),
            "logio.write_sensor_log_s": total("logio.write_sensor_log"),
            "logio.read_trajectory_s": total("logio.read_trajectory"),
            "simulator.generate_s": total("simulator.generate"),
            "simulator.corrupt_s": total("simulator.corrupt"),
            "evaluate.align_initial_s": total("evaluate.align_initial"),
            "evaluate.drift_metrics_s": total("evaluate.drift_metrics"),
            "cli.cmd_estimate.self_s": estimate_self,
        }
        m.update(self.counts)
        return m
