"""MQTT topic names, filters, and the broker's subscription trie.

Semantics follow the MQTT 3.1.1 specification:

* topic *names* (used when publishing) are ``/``-separated UTF-8 levels and
  may not contain wildcards;
* topic *filters* (used when subscribing) may use ``+`` (exactly one level)
  and ``#`` (any number of trailing levels, only as the last level);
* matching is per level; an empty level is legal (``a//b`` has three
  levels); ``#`` also matches its parent (``sport/#`` matches ``sport``).

:class:`TopicTree` stores values under filters in a trie and answers
"which values match this topic name" in time proportional to the topic
depth times the branching, independent of total subscription count.

The validators are on the publish hot path (every broker fan-out
re-validates), so successful results are memoized in small bounded
caches. Only *valid* strings are cached — error paths always re-run the
full check so messages stay exact.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

from repro.errors import TopicError

T = TypeVar("T")

__all__ = ["validate_topic", "validate_filter", "topic_matches", "TopicTree"]

_WILDCARDS = ("+", "#")

#: Bound on each memo cache; topics in a deployment are a small closed set,
#: so in practice these never fill. Caches stop admitting (rather than
#: evict) at the cap — correctness never depends on a hit.
_CACHE_CAP = 4096

_valid_topics: set[str] = set()
_valid_filters: set[str] = set()


def _split(topic: str) -> list[str]:
    if not topic:
        raise TopicError("topic must be non-empty")
    if "\x00" in topic:
        raise TopicError("topic may not contain NUL")
    return topic.split("/")


def validate_topic(topic: str) -> str:
    """Validate a publishable topic name; returns it unchanged."""
    if topic in _valid_topics:
        return topic
    for level in _split(topic):
        for wildcard in _WILDCARDS:
            if wildcard in level:
                raise TopicError(
                    f"wildcard {wildcard!r} not allowed in topic name {topic!r}"
                )
    if len(_valid_topics) < _CACHE_CAP:
        _valid_topics.add(topic)
    return topic


def validate_filter(topic_filter: str) -> str:
    """Validate a subscription filter; returns it unchanged."""
    if topic_filter in _valid_filters:
        return topic_filter
    levels = _split(topic_filter)
    for i, level in enumerate(levels):
        if level == "#":
            if i != len(levels) - 1:
                raise TopicError(f"'#' must be the last level in {topic_filter!r}")
        elif level == "+":
            continue
        elif "+" in level or "#" in level:
            raise TopicError(
                f"wildcard must occupy a whole level in {topic_filter!r}"
            )
    if len(_valid_filters) < _CACHE_CAP:
        _valid_filters.add(topic_filter)
    return topic_filter


def topic_matches(topic_filter: str, topic: str) -> bool:
    """Does ``topic_filter`` match the concrete ``topic``?

    >>> topic_matches("sensor/+/temp", "sensor/room1/temp")
    True
    >>> topic_matches("sensor/#", "sensor")
    True
    >>> topic_matches("sensor/+", "sensor/a/b")
    False
    """
    validate_filter(topic_filter)
    validate_topic(topic)
    return _matches(topic_filter.split("/"), topic.split("/"))


def _matches(filter_levels: list[str], topic_levels: list[str]) -> bool:
    for i, flevel in enumerate(filter_levels):
        if flevel == "#":
            return True
        if i >= len(topic_levels):
            return False
        if flevel == "+":
            continue
        if flevel != topic_levels[i]:
            return False
    return len(topic_levels) <= len(filter_levels)


class _TrieNode(Generic[T]):
    __slots__ = ("children", "values")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode[T]] = {}
        self.values: list[T] = []

    @property
    def empty(self) -> bool:
        return not self.children and not self.values


class TopicTree(Generic[T]):
    """Subscription trie mapping topic filters to lists of values."""

    def __init__(self) -> None:
        self._root: _TrieNode[T] = _TrieNode()
        self._count = 0

    def __len__(self) -> int:
        """Number of (filter, value) entries stored."""
        return self._count

    def insert(self, topic_filter: str, value: T) -> None:
        """Store ``value`` under ``topic_filter``. Duplicates are kept."""
        validate_filter(topic_filter)
        node = self._root
        for level in topic_filter.split("/"):
            node = node.children.setdefault(level, _TrieNode())
        node.values.append(value)
        self._count += 1

    def remove(self, topic_filter: str, value: T) -> bool:
        """Remove one occurrence of ``value`` under ``topic_filter``.

        Returns True if something was removed; prunes empty trie branches.
        """
        validate_filter(topic_filter)
        levels = topic_filter.split("/")
        path: list[tuple[_TrieNode[T], str]] = []
        node = self._root
        for level in levels:
            child = node.children.get(level)
            if child is None:
                return False
            path.append((node, level))
            node = child
        try:
            node.values.remove(value)
        except ValueError:
            return False
        self._count -= 1
        for parent, level in reversed(path):
            child = parent.children[level]
            if child.empty:
                del parent.children[level]
            else:
                break
        return True

    def match(self, topic: str) -> list[T]:
        """All values whose filter matches ``topic``, in insertion order
        within each filter (cross-filter order is traversal order)."""
        validate_topic(topic)
        levels = topic.split("/")
        results: list[T] = []
        self._collect(self._root, levels, 0, results)
        return results

    def _collect(
        self,
        node: _TrieNode[T],
        levels: list[str],
        depth: int,
        results: list[T],
    ) -> None:
        hash_child = node.children.get("#")
        if hash_child is not None:
            results.extend(hash_child.values)
        if depth == len(levels):
            results.extend(node.values)
            return
        level = levels[depth]
        exact = node.children.get(level)
        if exact is not None:
            self._collect(exact, levels, depth + 1, results)
        plus = node.children.get("+")
        if plus is not None:
            self._collect(plus, levels, depth + 1, results)

    def filters(self) -> Iterator[str]:
        """Yield every stored filter (once per filter with values)."""

        def walk(node: _TrieNode[T], prefix: list[str]) -> Iterator[str]:
            if node.values:
                yield "/".join(prefix)
            for level, child in node.children.items():
                yield from walk(child, prefix + [level])

        yield from walk(self._root, [])
