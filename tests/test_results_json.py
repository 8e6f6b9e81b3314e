"""Reading the SPARQL 1.1 query results JSON format
(https://www.w3.org/TR/sparql11-results-json/): a document that breaks it
is a TransportError, never fewer rows."""

import pytest

from kif.stores import TransportError, decode_results_json

URL = "http://example.org/sparql"
IRI = {"type": "uri", "value": "http://example.org/a"}


def test_a_document_without_head_vars_is_a_transport_error():
    with pytest.raises(TransportError, match="head.vars") as raised:
        decode_results_json({"head": {}, "results": {"bindings": [{"x": IRI}]}}, URL)
    assert raised.value.url == URL


def test_a_document_without_results_bindings_is_a_transport_error():
    for payload in ({"head": {"vars": ["x"]}},
                    {"head": {"vars": ["x"]}, "results": {}}):
        with pytest.raises(TransportError, match="results.bindings"):
            decode_results_json(payload, URL)


def test_a_binding_of_unknown_type_is_a_transport_error():
    payload = {"head": {"vars": ["x", "y"]},
               "results": {"bindings": [{"x": IRI, "y": {"type": "triple", "value": "t"}}]}}
    with pytest.raises(TransportError, match="a binding of type 'triple'"):
        decode_results_json(payload, URL)


def _bindings(*bindings) -> dict:
    return {"head": {"vars": ["x"]}, "results": {"bindings": list(bindings)}}


def test_a_document_that_is_not_an_object_is_a_transport_error():
    with pytest.raises(TransportError, match="no head.vars") as raised:
        decode_results_json([_bindings({"x": IRI})], URL)
    assert raised.value.url == URL


def test_bindings_that_are_not_an_array_are_a_transport_error():
    payload = {"head": {"vars": ["x"]}, "results": {"bindings": 5}}
    with pytest.raises(TransportError, match="no results.bindings array"):
        decode_results_json(payload, URL)


def test_a_binding_that_is_not_an_object_is_a_transport_error():
    with pytest.raises(TransportError, match="a binding that is not an object"):
        decode_results_json(_bindings({"x": IRI}, ["x", IRI]), URL)


@pytest.mark.parametrize("term", [
    "http://example.org/a",
    {"type": "uri"},
    {"type": "uri", "value": None},
    {"type": "literal", "value": 5},
    {"type": "literal", "value": "chat", "xml:lang": 5},
    {"type": "literal", "value": "5", "datatype": ["xsd:integer"]},
])
def test_a_term_not_an_object_of_string_members_is_a_transport_error(term):
    with pytest.raises(TransportError, match="the term of 'x' is not an object of string"):
        decode_results_json(_bindings({"x": term}), URL)
