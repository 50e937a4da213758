from repro.util.ids import IdGenerator


def test_sequential_per_namespace():
    gen = IdGenerator()
    assert gen.next("node") == "node-0"
    assert gen.next("node") == "node-1"
    assert gen.next("msg") == "msg-0"
    assert gen.next("node") == "node-2"


def test_next_int():
    gen = IdGenerator()
    assert gen.next_int("x") == 0
    assert gen.next_int("x") == 1
    assert gen.next("x") == "x-2"
