"""A bounded least-recently-used map, internally synchronized.

It backs the per-handle page cache of the paging stores and the per-graph
solution memo of the BGP evaluator; both are read from several threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable


class Lru:
    def __init__(self, maxsize: int) -> None:
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._maxsize = maxsize
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        with self._lock:
            if key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)

    def pop(self, key: Hashable) -> None:
        with self._lock:
            self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)
