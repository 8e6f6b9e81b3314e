"""Store composition surface: memory, embedded-graph, and endpoint stores."""

from .backed import (GraphBackend, HttpBackend, QueryBackedStore, RdfStore,
                     SparqlStore, decode_results_json)
from .base import (DEFAULT_PAGE_SIZE, PAGE_SIZE_ENV, Store, StoreError,
                   StoreOptions, TransportError)
from .memory import MemoryStore

__all__ = [
    "DEFAULT_PAGE_SIZE", "PAGE_SIZE_ENV", "GraphBackend", "HttpBackend",
    "MemoryStore", "QueryBackedStore", "RdfStore", "SparqlStore", "Store",
    "StoreError", "StoreOptions", "TransportError", "decode_results_json",
]
