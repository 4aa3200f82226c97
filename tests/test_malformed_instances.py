"""Malformed instances are refused at every boundary with ``WorkloadError``.

A valid instance document is drawn first, then exactly one defect is put
into it: a NaN or ±inf entry, a ragged demand matrix, an array of the wrong
shape, or a market without resources.  The ``Instance`` constructor,
``Instance.from_dict`` and ``slicemarket oracle --instance`` must each
refuse the result: the first two with ``WorkloadError``, the CLI with exit 2.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slicemarket.cli import main
from slicemarket.workload import Instance, WorkloadError

UNIT = st.floats(0.0, 1.0)
PER_RESOURCE = ("lower", "upper", "costs")


@st.composite
def valid_documents(draw):
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return {
        "demands": [[draw(UNIT) for _ in range(c)] for _ in range(n)],
        "valuations": [draw(UNIT) for _ in range(n)],
        "bounds": {"lower": [draw(UNIT) for _ in range(c)], "upper": [draw(UNIT) for _ in range(c)]},
        "costs": [draw(UNIT) for _ in range(c)],
    }


def _per_resource(document: dict, name: str) -> list:
    return document["costs"] if name == "costs" else document["bounds"][name]


@st.composite
def malformed_documents(draw):
    document = draw(valid_documents())
    n, c = len(document["valuations"]), len(document["costs"])
    defect = draw(st.sampled_from(["non-finite", "ragged", "wrong shape", "zero resources"]))
    if defect == "non-finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        target = draw(st.sampled_from(("demands", "valuations") + PER_RESOURCE))
        if target == "demands":
            document["demands"][draw(st.integers(0, n - 1))][draw(st.integers(0, c - 1))] = bad
        elif target == "valuations":
            document["valuations"][draw(st.integers(0, n - 1))] = bad
        else:
            _per_resource(document, target)[draw(st.integers(0, c - 1))] = bad
    elif defect == "ragged":
        width = c + draw(st.sampled_from([-1, 1]))
        document["demands"].append([0.5] * width)
        document["valuations"].append(0.5)
    elif defect == "wrong shape":
        change = draw(st.sampled_from(["flat demands", "3-D demands", "extra valuation", "scalar valuations",
                                       "short per-resource", "long per-resource"]))
        if change == "flat demands":
            document["demands"] = [d for row in document["demands"] for d in row]
        elif change == "3-D demands":
            document["demands"] = [[row] for row in document["demands"]]
        elif change == "extra valuation":
            document["valuations"].append(0.5)
        elif change == "scalar valuations":
            document["valuations"] = 0.5
        else:
            values = _per_resource(document, draw(st.sampled_from(PER_RESOURCE)))
            if change == "short per-resource":
                values.pop()
            else:
                values.append(0.5)
    else:
        document["demands"] = [[] for _ in range(n)]
        for name in PER_RESOURCE:
            _per_resource(document, name).clear()
    return document


def _construct(document: dict) -> Instance:
    return Instance(
        demands=document["demands"],
        valuations=document["valuations"],
        price_floors=document["bounds"]["lower"],
        price_caps=document["bounds"]["upper"],
        unit_costs=document["costs"],
    )


def _oracle_exit(document: dict) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(document))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["oracle", "--instance", str(path), "--method", "lp"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(valid_documents())
def test_the_undamaged_documents_load(document):
    # so that in the test below the defect, not the base document, is refused
    _construct(document)
    assert Instance.from_dict(document).tenant_count == len(document["valuations"])


@settings(max_examples=150, deadline=None)
@given(malformed_documents())
def test_every_boundary_refuses_a_malformed_instance(document):
    with pytest.raises(WorkloadError):
        _construct(document)
    with pytest.raises(WorkloadError):
        Instance.from_dict(document)
    code, out, err = _oracle_exit(document)
    assert code == 2
    assert out == ""
    assert "invalid instance file" in err
