"""Unit tests for Resource / PriorityResource / Store."""

import pytest

from repro.sim import PriorityResource, Resource, Simulator, Store


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    granted = []

    def user(tag, hold):
        req = res.request()
        yield req
        granted.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    sim.process(user("a", 5.0))
    sim.process(user("b", 5.0))
    sim.process(user("c", 1.0))
    sim.run()
    assert granted == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_queue_is_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag):
        req = res.request()
        yield req
        order.append(tag)
        yield sim.timeout(1.0)
        res.release(req)

    for tag in "abcd":
        sim.process(user(tag))
    sim.run()
    assert order == list("abcd")


def test_resource_release_unqueued_pending_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(10.0)
        res.release(req)

    def impatient():
        req = res.request()
        result = yield sim.any_of([req, sim.timeout(1.0)])
        if req not in result:
            res.release(req)  # gave up: cancel from queue
        return sim.now

    sim.process(holder())
    p = sim.process(impatient())
    sim.run()
    assert p.value == 1.0
    assert res.queue_length == 0


def test_resource_rejects_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_release_foreign_request_rejected():
    sim = Simulator()
    res_a = Resource(sim)
    res_b = Resource(sim)
    req = res_a.request()
    with pytest.raises(ValueError):
        res_b.release(req)
    res_a.release(req)


def test_priority_resource_orders_by_priority():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5.0)
        res.release(req)

    def user(tag, prio, start):
        yield sim.timeout(start)
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        yield sim.timeout(1.0)
        res.release(req)

    sim.process(holder())
    sim.process(user("background", 10.0, 1.0))
    sim.process(user("foreground", 0.0, 2.0))
    sim.run()
    assert order == ["foreground", "background"]


def test_priority_resource_fifo_within_priority():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5.0)
        res.release(req)

    def user(tag):
        req = res.request(priority=1.0)
        yield req
        order.append(tag)
        res.release(req)

    sim.process(holder())
    for tag in "xyz":
        sim.process(user(tag))
    sim.run()
    assert order == list("xyz")


def test_priority_resource_cancel_waiter():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    held = res.request()
    waiting = res.request(priority=1.0)
    res.release(waiting)  # cancel before grant
    assert res.queue_length == 0
    res.release(held)
    assert res.in_use == 0


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    store.put("y")

    def consumer():
        a = yield store.get()
        b = yield store.get()
        return [a, b]

    p = sim.process(consumer())
    sim.run()
    assert p.value == ["x", "y"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (sim.now, item)

    def producer():
        yield sim.timeout(3.0)
        store.put("late")

    p = sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert p.value == (3.0, "late")


def test_store_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    results = []

    def consumer(tag):
        item = yield store.get()
        results.append((tag, item))

    sim.process(consumer("first"))
    sim.process(consumer("second"))

    def producer():
        yield sim.timeout(1.0)
        store.put(1)
        store.put(2)

    sim.process(producer())
    sim.run()
    assert results == [("first", 1), ("second", 2)]

