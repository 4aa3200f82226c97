"""Malformed instances are refused at every boundary with ``WorkloadError``.

A valid instance document is drawn first, then exactly one defect is put
into it: a NaN or ±inf entry, a ragged demand matrix, an array of the wrong
shape, or a market without resources.  The ``Instance`` constructor,
``Instance.from_dict`` and ``slicemarket oracle --instance`` must each
refuse the result: the first two with ``WorkloadError``, the CLI with exit 2.
A JSON string or boolean in place of a number is a defect of the document
only, so ``Instance.from_dict`` and the CLI refuse it.

``_reference_checks`` is the ``Instance`` constructor's check as it was
before the one-pass test of clean data: every array checked on its own.  The
constructor must raise the same exception with the same message, or none,
on this file's corpus, on generated arrays doctored with NaN, ±inf and
negative entries, and on markets without tenants.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slicemarket.cli import main
from slicemarket.market import _readonly
from slicemarket.verify import _random_config
from slicemarket.workload import _ARRAY_AXES, Instance, WorkloadError, generate_instance

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


def _replace_entry(draw, document: dict, replace) -> None:
    """Replace one entry ``v`` of one of the document's arrays by ``replace(v)``."""
    n, c = len(document["valuations"]), len(document["costs"])
    target = draw(st.sampled_from(("demands", "valuations") + PER_RESOURCE))
    if target == "demands":
        values, index = document["demands"][draw(st.integers(0, n - 1))], draw(st.integers(0, c - 1))
    elif target == "valuations":
        values, index = document["valuations"], draw(st.integers(0, n - 1))
    else:
        values, index = _per_resource(document, target), draw(st.integers(0, c - 1))
    values[index] = replace(values[index])


#: Defects that only the JSON document can carry: numpy reads them as numbers.
JSON_ONLY_DEFECTS = ("string number", "bool number")


@st.composite
def malformed_documents(draw, defects=("non-finite", "ragged", "wrong shape", "zero resources")):
    document = draw(valid_documents())
    n, c = len(document["valuations"]), len(document["costs"])
    defect = draw(st.sampled_from(defects))
    if defect == "non-finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        _replace_entry(draw, document, lambda _: bad)
    elif defect == "string number":
        _replace_entry(draw, document, repr)
    elif defect == "bool number":
        flag = draw(st.booleans())
        _replace_entry(draw, document, lambda _: flag)
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


@settings(max_examples=60, deadline=None)
@given(malformed_documents(defects=JSON_ONLY_DEFECTS))
def test_the_json_boundary_refuses_strings_and_booleans(document):
    with pytest.raises(WorkloadError, match="not a number"):
        Instance.from_dict(document)
    code, out, err = _oracle_exit(document)
    assert code == 2
    assert out == ""
    assert "not a number" in err


def _reference_checks(arrays: dict) -> None:
    """The per-array checks of the ``Instance`` constructor on its five arrays."""
    arrays = dict(arrays)
    for name in _ARRAY_AXES:
        try:
            arrays[name] = _readonly(arrays[name])
        except (TypeError, ValueError) as exc:
            raise WorkloadError(f"{name} is not a numeric array: {exc}") from exc
    demands, valuations = arrays["demands"], arrays["valuations"]
    if demands.ndim != 2:
        raise WorkloadError("demands must be a 2-D tenant-by-resource matrix")
    n, c = demands.shape
    if c == 0:
        raise WorkloadError("an instance needs at least one resource")
    if valuations.shape != (n,):
        raise WorkloadError("valuations must have one entry per tenant")
    for name in ("price_floors", "price_caps", "unit_costs"):
        if arrays[name].shape != (c,):
            raise WorkloadError(f"{name} must have one entry per resource")
    for name, axes in _ARRAY_AXES.items():
        values = arrays[name]
        if np.isfinite(values).all():
            continue
        bad = np.argwhere(~np.isfinite(values))
        index = tuple(map(int, bad[0]))
        place = ", ".join(f"{axis} {i}" for axis, i in zip(axes, index))
        first = float(values[index])
        raise WorkloadError(f"{name}: {len(bad)} non-finite value(s), first {first!r} at {place}")
    if (valuations < 0).any():
        tenant = int(np.argmax(valuations < 0))
        raise WorkloadError(f"tenant {tenant} has negative valuation {float(valuations[tenant])!r}")
    if (demands < 0).any():
        tenant, resource = map(int, np.argwhere(demands < 0)[0])
        demand = float(demands[tenant, resource])
        raise WorkloadError(f"tenant {tenant} has negative demand {demand!r} of resource {resource}")


def _outcome(check, *args):
    """The exception type and message ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except Exception as exc:  # the comparison is the point: any type may show up
        return type(exc), str(exc)
    return None


def assert_same_refusal(arrays: dict):
    got = _outcome(lambda: Instance(**arrays))
    assert got == _outcome(_reference_checks, arrays)
    return got


def _document_arrays(document: dict) -> dict:
    return {
        "demands": document["demands"],
        "valuations": document["valuations"],
        "price_floors": document["bounds"]["lower"],
        "price_caps": document["bounds"]["upper"],
        "unit_costs": document["costs"],
    }


@settings(max_examples=150, deadline=None)
@given(st.one_of(valid_documents(), malformed_documents()))
def test_constructor_refuses_the_corpus_as_the_reference_does(document):
    assert_same_refusal(_document_arrays(document))


#: Entries put into generated arrays: non-finite, negative, and a negative
#: zero, which is no defect.
ENTRIES = (math.nan, math.inf, -math.inf, -1e-300, -0.5, -0.0)


def _doctored_arrays(rng: np.random.Generator) -> tuple[dict, int]:
    """A generated market's arrays with 0 to 4 of the ``ENTRIES`` put into them."""
    instance = generate_instance(_random_config(rng))
    arrays = {name: getattr(instance, name).copy() for name in _ARRAY_AXES}
    defects = int(rng.integers(0, 5))
    for _ in range(defects):
        values = arrays[list(_ARRAY_AXES)[int(rng.integers(0, len(_ARRAY_AXES)))]]
        values.flat[int(rng.integers(0, values.size))] = ENTRIES[int(rng.integers(0, len(ENTRIES)))]
    return arrays, defects


def test_constructor_refuses_doctored_arrays_as_the_reference_does():
    rng = np.random.default_rng(17)
    kinds = []
    for _ in range(2000):
        arrays, defects = _doctored_arrays(rng)
        got = assert_same_refusal(arrays)
        if defects == 0:
            assert got is None
        elif got is not None:
            # "<array>: k non-finite value(s), ..." or "tenant n has negative <demand|valuation> ..."
            message = got[1]
            kinds.append(message.split(":")[0] if "non-finite" in message else " ".join(message.split()[3:5]))
    assert len(kinds) > 1000
    # a non-finite entry in each array, and each kind of negative tenant data, was met
    assert set(kinds) == {*_ARRAY_AXES, "negative valuation", "negative demand"}


@pytest.mark.parametrize("resources", [1, 3])
@pytest.mark.parametrize("bad", [None, math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("target", ["price_floors", "price_caps", "unit_costs"])
def test_constructor_on_markets_without_tenants(resources, bad, target):
    arrays = {
        "demands": np.empty((0, resources)),
        "valuations": np.empty(0),
        "price_floors": np.ones(resources),
        "price_caps": np.full(resources, 2.0),
        "unit_costs": np.full(resources, 0.5),
    }
    if bad is not None:
        arrays[target][-1] = bad
    got = assert_same_refusal(arrays)
    assert (got is None) == (bad is None or bad == -1.0)  # a negative band value is validate_instance's
