"""Property-based tests: the topic trie agrees with the matching predicate."""

from hypothesis import given
from hypothesis import strategies as st

from repro.mqtt.topics import TopicTree, topic_matches

level = st.text(alphabet="abcxyz", min_size=0, max_size=3)
topic_strategy = st.lists(level, min_size=1, max_size=5).map("/".join).filter(bool)


def filter_strategy():
    wild_level = st.one_of(level.filter(bool), st.just("+"))
    base = st.lists(wild_level, min_size=1, max_size=5).map("/".join)
    with_hash = st.tuples(
        st.lists(wild_level, min_size=0, max_size=4).map("/".join),
        st.just("#"),
    ).map(lambda pair: "/".join(p for p in pair if p))
    return st.one_of(base, with_hash).filter(bool)


@given(filters=st.lists(filter_strategy(), max_size=10), topic=topic_strategy)
def test_trie_matches_iff_predicate(filters, topic):
    """Asked after every insert, so a memoized answer that outlives an
    insert fails here."""
    tree = TopicTree()
    assert tree.match(topic) == []
    for i, f in enumerate(filters):
        tree.insert(f, (i, f))
        expected = sorted(
            (j, g) for j, g in enumerate(filters[: i + 1]) if topic_matches(g, topic)
        )
        assert sorted(tree.match(topic)) == expected


@given(filters=st.lists(filter_strategy(), min_size=1, max_size=10))
def test_insert_remove_leaves_tree_empty(filters):
    tree = TopicTree()
    for i, f in enumerate(filters):
        tree.insert(f, i)
    for i, f in enumerate(filters):
        assert tree.remove(f, i)
    assert len(tree) == 0
    assert list(tree.filters()) == []


@given(
    filters=st.lists(filter_strategy(), min_size=2, max_size=8),
    topic=topic_strategy,
)
def test_removal_only_affects_removed_entry(filters, topic):
    tree = TopicTree()
    for i, f in enumerate(filters):
        tree.insert(f, i)
    before = sorted(i for i, f in enumerate(filters) if topic_matches(f, topic))
    assert sorted(tree.match(topic)) == before  # memoized, then removed from
    tree.remove(filters[0], 0)
    survivors = sorted(
        i for i, f in enumerate(filters) if i != 0 and topic_matches(f, topic)
    )
    assert sorted(tree.match(topic)) == survivors


def test_mutating_a_match_result_leaves_the_next_match_alone():
    tree = TopicTree()
    tree.insert("a/+", "plus")
    tree.insert("a/b", "exact")
    first = tree.match("a/b")
    first.append("stray")
    first.remove("plus")
    assert tree.match("a/b") == ["exact", "plus"]
    assert tree.match("a/b") is not tree.match("a/b")


@given(topic=topic_strategy)
def test_exact_filter_always_matches_itself(topic):
    assert topic_matches(topic, topic)


@given(topic=topic_strategy)
def test_hash_matches_everything(topic):
    assert topic_matches("#", topic)
