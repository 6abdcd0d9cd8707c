"""Thread-safety of the transport's charge counters.

``repro aio``'s thread-pool baseline and the thread baseline of
``benchmarks/test_bench_async.py`` charge costs from several worker
threads at once; the counters must come out exact, and ``charges``
must hand back an immutable snapshot rather than the live record.
"""

import threading

from repro.services.transport import ChargeStats, SimTransport


class TestChargeStatsThreadSafety:
    def test_parallel_charges_are_exact(self):
        transport = SimTransport()
        workers, rounds = 8, 200
        barrier = threading.Barrier(workers)

        def worker():
            with transport.clock_branch():
                barrier.wait()
                for _ in range(rounds):
                    transport.charge_messages(1)
                    transport.charge_db(reads=2, writes=1, connect=True)
                    transport.charge_crypto(signs=1, verifies=3)
                    transport.charge_ui()
                    transport.charge_mail()

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = workers * rounds
        charges = transport.charges
        assert charges.messages == total
        assert charges.db_reads == 2 * total
        assert charges.db_writes == total
        assert charges.db_connects == total
        assert charges.crypto_signs == total
        assert charges.crypto_verifies == 3 * total
        assert charges.ui_interactions == total
        assert charges.mail_deliveries == total

    def test_charges_property_is_a_snapshot(self):
        transport = SimTransport()
        transport.charge_messages(3)
        snapshot = transport.charges
        transport.charge_messages(2)
        assert snapshot.messages == 3
        assert transport.charges.messages == 5

    def test_copy_is_independent(self):
        stats = ChargeStats(messages=1, db_reads=2)
        clone = stats.copy()
        clone.messages += 10
        assert stats.messages == 1
        assert clone.db_reads == 2
