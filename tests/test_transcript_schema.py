"""``validate_transcript_record`` against a JSON Schema validator.

The package checks records with direct key, type and range checks;
``TRANSCRIPT_RECORD_SCHEMA`` stays the published contract.  ``jsonschema``
(a test dependency only) is the oracle: on every fuzzed record both must
accept or both must reject.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import slicemarket
from slicemarket.protocol import (
    FAIL,
    SKIP,
    SUCC,
    TRANSCRIPT_RECORD_SCHEMA,
    TranscriptSchemaError,
    parse_transcript_jsonl,
    validate_transcript_record,
)

ORACLE = Draft202012Validator(TRANSCRIPT_RECORD_SCHEMA)
KEYS = ("n", "quote", "x", "pi", "d", "outcome")
PRIVATE_FIELDS = ("v", "valuation", "subscribers", "qos", "pay_level", "N", "")

#: Values a fuzzed field or list item takes: bools posing as ints and
#: numbers, integral floats, NaN, infinities, negatives, wrong types.
SCALARS = (
    0, 1, 2, -1, 7, 2**70, True, False,
    0.0, -0.0, 1.0, 2.0, 0.5, -0.5, 3.25, math.nan, math.inf, -math.inf,
    np.float64(1.0), np.float64(-2.0), np.int64(1), np.float32(0.5),
    None, "1", "", SUCC, FAIL, SKIP, "succ", [], [1.0], (1.0,), {}, {"n": 1},
)


def oracle_accepts(record) -> bool:
    return ORACLE.is_valid(record)


def package_accepts(record) -> bool:
    try:
        validate_transcript_record(record)
    except TranscriptSchemaError:
        return False
    return True


def valid_record(rng) -> dict:
    quote_len, demand_len = int(rng.integers(0, 5)), int(rng.integers(0, 5))
    return {
        "n": int(rng.integers(1, 1000)),
        "quote": rng.uniform(0, 5, quote_len).tolist(),
        "x": int(rng.integers(0, 2)),
        "pi": float(rng.uniform(0, 3)),
        "d": rng.uniform(0, 0.2, demand_len).tolist(),
        "outcome": [SUCC, FAIL, SKIP][int(rng.integers(0, 3))],
    }


def mutate(record: dict, rng) -> None:
    kind = int(rng.integers(0, 5))
    scalar = SCALARS[int(rng.integers(0, len(SCALARS)))]
    if kind == 0:
        record[KEYS[int(rng.integers(0, len(KEYS)))]] = scalar
    elif kind == 1:
        key = ("quote", "d")[int(rng.integers(0, 2))]
        if isinstance(record.get(key), list) and record[key]:
            record[key][int(rng.integers(0, len(record[key])))] = scalar
        else:
            record[key] = [scalar]
    elif kind == 2:
        record.pop(KEYS[int(rng.integers(0, len(KEYS)))], None)
    elif kind == 3:
        record[PRIVATE_FIELDS[int(rng.integers(0, len(PRIVATE_FIELDS)))]] = scalar
    else:
        record[("quote", "d")[int(rng.integers(0, 2))]] = rng.uniform(0, 1, int(rng.integers(0, 6))).tolist()


def test_fuzzed_records_match_the_schema():
    rng = np.random.default_rng(1010)
    verdicts = {True: 0, False: 0}
    for _ in range(6000):
        record = valid_record(rng)
        for _ in range(int(rng.integers(0, 4))):
            mutate(record, rng)
        accepted = oracle_accepts(record)
        assert package_accepts(record) == accepted, record
        verdicts[accepted] += 1
    assert min(verdicts.values()) > 1000


# (record changes, accepted by the schema)
EDGE_CASES = [
    ({}, True),
    ({"v": 1.2}, False),
    ({"subscribers": 10**6}, False),
    ({"qos": [1, 2, 3]}, False),
    ({"pay_level": 4.0}, False),
    ({"n": True}, False),
    ({"x": True}, False),
    ({"x": False}, False),
    ({"pi": True}, False),
    ({"quote": [True]}, False),
    ({"d": [False, 0.1]}, False),
    ({"n": 1.0}, True),
    ({"x": 1.0}, True),
    ({"x": 0.0}, True),
    ({"x": 2}, False),
    ({"n": 0}, False),
    ({"n": 1.5}, False),
    ({"n": math.nan}, False),
    ({"n": math.inf}, False),
    ({"pi": -0.1}, False),
    ({"pi": -0.0}, True),
    ({"pi": math.nan}, True),
    ({"pi": math.inf}, True),
    ({"pi": -math.inf}, False),
    ({"quote": [math.nan]}, True),
    ({"quote": [math.inf, 1.0]}, True),
    ({"quote": [-math.inf]}, False),
    ({"d": [-0.01]}, False),
    ({"quote": [1.0, 2.0, 3.0], "d": [0.1]}, True),
    ({"quote": (1.0, 2.0)}, False),
    ({"quote": "1.0"}, False),
    ({"pi": "0.5"}, False),
    ({"outcome": "MAYBE"}, False),
    ({"outcome": 1}, False),
    ({"n": np.int64(3)}, False),
    ({"pi": np.float64(0.5)}, True),
]


@pytest.mark.parametrize("changes, accepted", EDGE_CASES)
def test_edge_cases(changes, accepted):
    record = {"n": 1, "quote": [1.0, 2.0], "x": 1, "pi": 0.5, "d": [0.1, 0.2], "outcome": SUCC}
    record.update(changes)
    assert oracle_accepts(record) == accepted
    assert package_accepts(record) == accepted


@pytest.mark.parametrize("key", KEYS)
def test_missing_key(key):
    record = {"n": 1, "quote": [1.0], "x": 0, "pi": 0.0, "d": [0.0], "outcome": SKIP}
    del record[key]
    assert not oracle_accepts(record)
    with pytest.raises(TranscriptSchemaError, match=key):
        validate_transcript_record(record)


@pytest.mark.parametrize("record", [None, [], "record", 1, ("n", 1)])
def test_non_objects(record):
    assert not oracle_accepts(record)
    assert not package_accepts(record)


GOOD_LINE = '{"n": 1, "quote": [1.0], "x": 0, "pi": 0.0, "d": [0.0], "outcome": "SKIP"}'


@pytest.mark.parametrize(
    "bad, line",
    [("n=2 SKIP", 3), (GOOD_LINE[:-9], 3), ("{", 1)],
    ids=["garbled line", "truncated object", "lone brace"],
)
def test_a_line_that_is_not_json_is_a_schema_error(bad, line):
    lines = [GOOD_LINE, "", bad, GOOD_LINE] if line == 3 else [bad]
    with pytest.raises(TranscriptSchemaError, match=f"^line {line} is not JSON"):
        parse_transcript_jsonl("\n".join(lines))
    assert parse_transcript_jsonl(f"{GOOD_LINE}\n\n{GOOD_LINE}\n") == [json.loads(GOOD_LINE)] * 2


def test_package_imports_without_jsonschema():
    src = Path(slicemarket.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "import slicemarket\n"
        "from slicemarket.protocol import validate_transcript_record\n"
        "validate_transcript_record({'n': 1, 'quote': [1.0], 'x': 0, 'pi': 0.0, 'd': [0.0], 'outcome': 'SKIP'})\n"
        "assert 'jsonschema' not in {m.split('.')[0] for m in sys.modules if sys.modules[m] is not None}\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
