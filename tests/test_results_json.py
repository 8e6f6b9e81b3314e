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
