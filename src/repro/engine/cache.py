"""The LRU cache for evaluation results, keyed on structural identities.

One bounded least-recently-used map (:class:`EvaluationCache`) serves two
granularities:

* :class:`EvaluationCache` — whole :class:`~repro.core.report.LatencyReport`
  (or energy report) objects keyed on (kind, accelerator fingerprint,
  options fingerprint, :attr:`~repro.mapping.mapping.Mapping.cache_key`):
  a mapping seen twice is never re-evaluated. The mapping part is a plain
  str/int tuple, not a SHA-256 digest; ``Mapping.fingerprint()`` is left
  to the identities that leave the process (ledger rows, the verify
  corpus, the daemon's result store and wire labels).
* :class:`PartialResultCache` — the same LRU with hit/miss counters and
  :meth:`~PartialResultCache.get_or_compute`, for *sub-evaluation*
  intermediates keyed on their own closed-form inputs, currently the
  multi-window MUW unions of Step 2. Neighboring mappings in a DSE sweep
  (a hill-climb swap, a re-factorized loop) mostly re-derive identical
  window parameter sets, so the batch evaluator consults this cache before
  merging intervals — the incremental re-evaluation path that makes local
  search cheap.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional


class EvaluationCache:
    """A bounded least-recently-used map from fingerprint keys to results.

    Keys are the tuples the engine builds from (result kind, accelerator
    fingerprint, options fingerprint, ``Mapping.cache_key``) — see
    :class:`repro.engine.EvaluationEngine`. Values are the (immutable)
    report objects, so sharing one cache across engines and machines is
    safe by construction.
    """

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable, default: Optional[Any] = None) -> Optional[Any]:
        """The cached value for ``key`` (refreshing its recency), or default."""
        try:
            self._data.move_to_end(key)
        except KeyError:
            return default
        return self._data[key]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key`` -> ``value``, evicting the oldest entry if full."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop every entry."""
        self._data.clear()


class PartialResultCache(EvaluationCache):
    """Memo for sub-evaluation intermediates (MUW unions, ...) with counters.

    Values are pure functions of their keys, so sharing one instance
    across engines and accelerators is always sound — the key must
    encode *every* input of the computation (the batch
    evaluator uses ``("muw", window_params, horizon)``). ``hits`` and
    ``misses`` feed :class:`~repro.observability.stats.EngineStats` and
    the ``CacheStats`` progress event; :meth:`clear` keeps them.
    """

    def __init__(self, maxsize: int = 262144) -> None:
        super().__init__(maxsize)
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing and inserting on miss."""
        # Probes the storage directly rather than through get(), which is
        # the engine-level lookup (profilers count its calls).
        try:
            self._data.move_to_end(key)
        except KeyError:
            self.misses += 1
            value = compute()
            self.put(key, value)
            return value
        self.hits += 1
        return self._data[key]
