"""Quickstart: boot a Boki cluster and use the LogBook API (Figure 1).

Run:  python examples/quickstart.py

Boots a simulated Boki deployment (4 function nodes, 3 storage nodes,
3 sequencers), then walks through the LogBook API: appends, tag-selective
reads, bidirectional traversal, auxiliary data, and trims. Times shown are
*virtual* (simulated) seconds.
"""

from repro.core import BokiCluster


def main():
    cluster = BokiCluster(num_function_nodes=4, num_storage_nodes=3)
    term = cluster.boot()
    print(f"cluster up: term={term.term_id}, physical logs={list(term.logs)}")

    def demo():
        book = cluster.logbook(book_id=42)

        # -- logAppend: returns a unique, monotonically increasing seqnum.
        orders_tag, alerts_tag = 1, 2
        s1 = yield from book.append({"order": "espresso"}, tags=[orders_tag])
        s2 = yield from book.append({"order": "flat white"}, tags=[orders_tag])
        s3 = yield from book.append({"alert": "low on beans"}, tags=[alerts_tag])
        print(f"appended records at seqnums {s1:#x}, {s2:#x}, {s3:#x}")

        # -- logReadNext: seek forward, filtered by tag.
        first_order = yield from book.read_next(tag=orders_tag, min_seqnum=0)
        print(f"first order: {first_order.data}")

        # -- logCheckTail: the most recent record of a tag.
        last_order = yield from book.check_tail(tag=orders_tag)
        print(f"latest order: {last_order.data}")

        # -- tag 0 is the implicit every-record stream.
        everything = yield from book.read_range(tag=0)
        print(f"total records in the book: {len(everything)}")

        # -- logSetAuxData: per-record cache storage (never authoritative).
        yield from book.set_auxdata(s1, {"status": "served"})
        again = yield from book.read_next(tag=orders_tag, min_seqnum=0)
        print(f"aux data on first order: {again.auxdata}")

        # -- logTrim: drop the alert stream.
        yield from book.trim(s3, tag=alerts_tag)
        yield cluster.env.timeout(0.05)  # trim propagates via the metalog
        remaining = yield from book.read_next(tag=alerts_tag, min_seqnum=0)
        print(f"alerts after trim: {remaining}")

        return cluster.env.now

    elapsed = cluster.drive(demo())
    print(f"done in {elapsed * 1e3:.2f} virtual ms")


if __name__ == "__main__":
    main()
