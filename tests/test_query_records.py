"""A fuzz target for request records: one schema per query type.

Every query dataclass is the schema of its record, read by
:func:`repro.core.query.parse` at the web service's door and at a node
alike.  Valid queries must survive the JSON round trip unchanged; a
valid record with one field replaced by any JSON value must parse or
raise the one typed :class:`BadRequestError`, and the door must answer
that record instead of raising.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.cluster.webservice import WebService
from repro.core.query import BadRequestError, PdfQuery, ThresholdQuery, TopKQuery, parse, to_record
from repro.fields.finite_difference import SUPPORTED_ORDERS
from repro.grid import Box
from repro.simulation.datasets import mhd_dataset

SIDE = 16

names = st.text(max_size=12)
timesteps = st.integers(min_value=0, max_value=2**70)
orders = st.sampled_from(SUPPORTED_ORDERS)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    lo = draw(st.lists(st.integers(-(2**40), 2**40), min_size=3, max_size=3))
    extent = draw(st.lists(st.integers(0, 2**40), min_size=3, max_size=3))
    return Box(tuple(lo), tuple(a + b for a, b in zip(lo, extent)))


QUERIES = {
    ThresholdQuery: st.builds(
        ThresholdQuery, names, names, timesteps,
        st.floats(min_value=0.0, allow_infinity=False), st.none() | boxes(), orders,
    ),
    PdfQuery: st.builds(
        PdfQuery, names, names, timesteps,
        st.lists(finite, min_size=2, max_size=6).map(lambda edges: tuple(sorted(edges))),
        orders,
    ),
    TopKQuery: st.builds(
        TopKQuery, names, names, timesteps, st.integers(1, 2**70), orders,
    ),
}
METHODS = {ThresholdQuery: "GetThreshold", PdfQuery: "GetPdf", TopKQuery: "GetTopK"}

#: Any JSON value: deep nesting, huge integers, NaN, strings, bools, null.
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.integers(-(10**400), 10**400),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated(draw, cls, **fixed):
    """A valid record of ``cls`` (``fixed`` fields set) with one field
    dropped or replaced."""
    record = {**to_record(draw(QUERIES[cls])), **fixed}
    name = draw(st.sampled_from(sorted(record)))
    if draw(st.booleans()):
        del record[name]
    else:
        record[name] = draw(json_values)
    return record


@pytest.mark.parametrize("cls", sorted(QUERIES, key=lambda cls: cls.__name__))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_valid_query_round_trips_through_json(cls, data):
    query = data.draw(QUERIES[cls])
    assert parse(cls, json.loads(json.dumps(to_record(query)))) == query


@pytest.mark.parametrize("cls", sorted(QUERIES, key=lambda cls: cls.__name__))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_record_parses_or_is_a_bad_request(cls, data):
    record = data.draw(mutated(cls))
    try:
        query = parse(cls, record)
    except BadRequestError:
        return
    assert isinstance(query, cls)


@pytest.fixture(scope="module")
def service():
    mediator = build_cluster(mhd_dataset(side=SIDE, timesteps=1), nodes=2)
    yield WebService(mediator)
    mediator.close()


@pytest.mark.parametrize("cls", sorted(QUERIES, key=lambda cls: cls.__name__))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_door_answers_every_mutated_record(service, cls, data):
    # From a record the small cluster can serve, so a mutation that
    # still parses runs a real query.
    record = data.draw(mutated(cls, dataset="mhd", field="vorticity", timestep=0))
    response = service.handle({"method": METHODS[cls], **record})
    # A string naming no field is the service's own unknown_field.
    assert response["status"] == "ok" or response["code"] in (
        "bad_request", "unknown_field",
    ), response
