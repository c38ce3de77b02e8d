"""BokiFlow example: an exactly-once checkout workflow (§5.1).

Run:  python examples/checkout_workflow.py

The §2.1 motivating scenario: a checkout must decrement inventory, charge
the customer, and record the order — and a crash in the middle must not
double-charge or lose the order. The script runs the workflow, injects a
crash right after the payment step, re-executes with the same workflow id
(Beldi-style recovery), and shows that every effect applied exactly once.
"""

from repro.baselines.dynamodb import DynamoDBClient, DynamoDBService
from repro.core import BokiCluster
from repro.libs.bokiflow import BokiFlowRuntime, WorkflowTxn
from repro.libs.bokiflow.env import WorkflowCrash
from repro.libs.gc import gc_workflow


def main():
    cluster = BokiCluster(num_function_nodes=4, num_storage_nodes=3)
    DynamoDBService(cluster.env, cluster.net, cluster.streams)
    cluster.boot()
    runtime = BokiFlowRuntime(cluster)

    crash_once = {"armed": True}

    def charge_payment(env, arg):
        # Charging a card is the canonical "externally visible effect":
        # env.write's logged step makes it idempotent across re-executions.
        charges = (yield from env.read("payments", arg["customer"])) or 0
        yield from env.write("payments", arg["customer"], charges + arg["amount"])
        return f"charge-{env.workflow_id}"

    def notify_warehouse(env, arg):
        picks = (yield from env.read("pick-list", arg["item"])) or 0
        yield from env.write("pick-list", arg["item"], picks + 1)

    def checkout(env, arg):
        # Reserve inventory transactionally (locks over the LogBook).
        txn = WorkflowTxn(env)
        ok = yield from txn.acquire([("inventory", arg["item"])])
        if not ok:
            return {"status": "busy"}
        stock = yield from txn.read("inventory", arg["item"])
        if stock is None or stock <= 0:
            yield from txn.abort()
            return {"status": "out-of-stock"}
        txn.write("inventory", arg["item"], stock - 1)
        yield from txn.commit()

        # Independent services fan out as one step; each branch is still
        # exactly-once across re-executions.
        receipt, _ = yield from env.invoke_parallel(
            [("charge-payment", arg), ("notify-warehouse", arg)])

        if crash_once["armed"]:
            crash_once["armed"] = False
            raise WorkflowCrash("node died right after charging!")

        yield from env.write("orders", f"order-{env.workflow_id}",
                             {"item": arg["item"], "receipt": receipt})
        return {"status": "confirmed", "receipt": receipt}

    runtime.register_workflow("charge-payment", charge_payment)
    runtime.register_workflow("notify-warehouse", notify_warehouse)
    runtime.register_workflow("checkout", checkout)

    def scenario():
        db = DynamoDBClient(cluster.net, cluster.client_node)
        yield from db.update("inventory", "espresso-machine", set_attrs={"Value": 5})

        request = {"customer": "ada", "item": "espresso-machine", "amount": 499}
        wf_id = runtime.new_workflow_id("checkout")
        print(f"starting workflow {wf_id} ...")
        try:
            yield from runtime.start_workflow("checkout", request, book_id=7, workflow_id=wf_id)
        except WorkflowCrash as crash:
            print(f"CRASH mid-workflow: {crash}")

        print(f"re-executing workflow {wf_id} (same id -> exactly-once) ...")
        result = yield from runtime.start_workflow(
            "checkout", request, book_id=7, workflow_id=wf_id
        )
        print(f"result: {result}")

        stock = yield from db.get("inventory", "espresso-machine")
        charges = yield from db.get("payments", "ada")
        order = yield from db.get("orders", f"order-{wf_id}")
        print(f"inventory:    {stock['Value']}   (5 - exactly one reservation)")
        print(f"ada charged:  {charges['Value']} (exactly one charge of 499)")
        print(f"order stored: {order['Value']}")
        picks = yield from db.get("pick-list", "espresso-machine")
        assert stock["Value"] == 4
        assert charges["Value"] == 499
        assert picks["Value"] == 1

        # The workflow is done: its step records are garbage (§5.5).
        trimmed = yield from gc_workflow(cluster.logbook(7), wf_id, steps=8)
        print(f"GC trimmed the finished workflow's step log: {trimmed}")
        assert trimmed

    cluster.drive(scenario())
    print("exactly-once semantics held across the crash.")


if __name__ == "__main__":
    main()
