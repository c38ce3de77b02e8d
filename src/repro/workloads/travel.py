"""The travel-reservation workflow (Figure 11b), adapted from
DeathStarBench.

The §2.1 motivating example: a reservation books a flight *and* a hotel,
and the two updates must be consistent despite mid-workflow failures. The
workflow transactionally decrements both capacities (locks + exactly-once
writes in BokiFlow/Beldi; bare writes in the unsafe baseline), then invokes
a payment function.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.libs.bokiflow import WorkflowTxn

TABLE_FLIGHTS = "flights"
TABLE_HOTELS = "hotels"
TABLE_ORDERS = "orders"

DEFAULT_CAPACITY = 1_000_000


def register_travel_workflows(runtime, prefix: str = "travel") -> str:
    """Deploy the workflow functions; returns the frontend function name."""
    def payment(env, arg):
        yield from env.write(
            TABLE_ORDERS, f"order-{env.workflow_id}",
            {"flight": arg["flight"], "hotel": arg["hotel"], "user": arg["user"]},
        )
        return "charged"

    def reserve(env, arg):
        txn = WorkflowTxn(env)
        ok = yield from txn.acquire(
            [(TABLE_FLIGHTS, arg["flight"]), (TABLE_HOTELS, arg["hotel"])]
        )
        if not ok:
            return {"status": "retry-later"}
        flight_seats = yield from txn.read(TABLE_FLIGHTS, arg["flight"])
        hotel_rooms = yield from txn.read(TABLE_HOTELS, arg["hotel"])
        flight_seats = flight_seats if flight_seats is not None else DEFAULT_CAPACITY
        hotel_rooms = hotel_rooms if hotel_rooms is not None else DEFAULT_CAPACITY
        if flight_seats <= 0 or hotel_rooms <= 0:
            yield from txn.abort()
            return {"status": "sold-out"}
        txn.write(TABLE_FLIGHTS, arg["flight"], flight_seats - 1)
        txn.write(TABLE_HOTELS, arg["hotel"], hotel_rooms - 1)
        yield from txn.commit()
        receipt = yield from env.invoke(f"{prefix}-payment", arg)
        return {"status": "confirmed", "receipt": receipt}

    runtime.register_workflow(f"{prefix}-payment", payment)
    runtime.register_workflow(f"{prefix}-reserve", reserve)
    return f"{prefix}-reserve"


def reserve_request(rng, request_index: int) -> Dict[str, Any]:
    """Requests spread over many flights/hotels (low contention, like the
    paper's load tests)."""
    return {
        "user": f"user-{request_index}",
        "flight": f"flight-{rng.randrange(200)}",
        "hotel": f"hotel-{rng.randrange(200)}",
    }
