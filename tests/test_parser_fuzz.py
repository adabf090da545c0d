"""Fuzzed input files: each parser raises only its own typed error.

read_sensor_log and read_trajectory may raise only LogFormatError, and
read_config only ConfigError, whatever the file holds.  The lines are
drawn both as free text and as near-valid records, which reach the
checks behind a successful JSON or number parse.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from tenseg import __version__  # noqa: E402
from tenseg.logio import (  # noqa: E402
    ConfigError,
    LogFormatError,
    read_config,
    read_sensor_log,
    read_trajectory,
)
from tenseg.shape import CABLE_PAIRS  # noqa: E402

text_lines = st.lists(st.text(st.characters(codec="utf-8"), max_size=40),
                      max_size=8)

numbers = st.one_of(
    st.floats(), st.integers(min_value=-10**30, max_value=10**30),
    st.sampled_from([0, -0.0, 1e308, 5e-324, 10**400]))
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=7)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
vectors = st.one_of(st.lists(numbers, min_size=2, max_size=4), json_values)
records = st.one_of(
    st.fixed_dictionaries({"t": numbers, "type": st.just("imu"),
                           "a": vectors, "w": vectors}),
    st.fixed_dictionaries({"t": numbers | st.text(max_size=4),
                           "type": st.just("cable"),
                           "l": st.one_of(
                               st.fixed_dictionaries(
                                   {f"{i}-{j}": numbers | st.text(max_size=3)
                                    for i, j in CABLE_PAIRS}),
                               st.dictionaries(
                                   st.sampled_from(["0-4", "1-2", "0_4", "a-b",
                                                    "1-2-3", "١-٢"]),
                                   json_values, max_size=3),
                               json_values)}),
    st.fixed_dictionaries({"t": numbers, "type": st.just("contact"),
                           "c": st.one_of(
                               st.lists(st.booleans(), min_size=5, max_size=7),
                               json_values)}),
    st.dictionaries(st.sampled_from(["t", "type", "a", "w", "l", "c"]),
                    json_values, max_size=4),
    json_values)
HEADER = json.dumps({"type": "header", "version": __version__, "seed": 0,
                     "config": {}})
sensor_lines = st.lists(
    st.one_of(records.map(json.dumps), st.text(max_size=20)), max_size=8)

tokens = st.one_of(
    st.sampled_from(["0", "-0.0", "1", "1e308", "1e-320", "1e200", "nan",
                     "-inf", "inf", "1_0", "0x1", "#", "#1", "abc", "٣"]),
    st.floats().map(repr), st.text(max_size=5))
tum_lines = st.lists(
    st.lists(tokens, min_size=0, max_size=9).flatmap(
        lambda ts: st.sampled_from([" ", "\t", "  "]).map(
            lambda sep: sep.join(ts))) | st.text(max_size=30),
    max_size=8)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def write(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))


@given(lines=st.one_of(text_lines, sensor_lines,
                       sensor_lines.map(lambda ls: [HEADER, *ls])))
def test_read_sensor_log_raises_only_log_format_error(path, lines):
    write(path, lines)
    try:
        read_sensor_log(path)
    except LogFormatError:
        pass


@given(lines=st.one_of(text_lines, tum_lines))
def test_read_trajectory_raises_only_log_format_error(path, lines):
    write(path, lines)
    try:
        t, p, R = read_trajectory(path)
    except LogFormatError:
        return
    n = len(t)
    assert n >= 2 and p.shape == (n, 3) and R.shape == (n, 3, 3)
    assert np.all(np.isfinite(R))


config_lines = st.lists(
    st.one_of(st.text(max_size=20),
              st.tuples(st.sampled_from(["", "key", "a b", "#x"]),
                        st.sampled_from(["=", " = ", "==", ""]),
                        st.text(max_size=6)).map("".join)),
    max_size=8)


@given(lines=st.one_of(text_lines, config_lines))
def test_read_config_raises_only_config_error(path, lines):
    write(path, lines)
    try:
        read_config(path)
    except ConfigError:
        pass
