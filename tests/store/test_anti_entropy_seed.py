"""Anti-entropy draws from the deployment's seeded streams, so a faulted
run with it on reproduces under any ``PYTHONHASHSEED``.

Its interval jitter and peer choice once came from a ``random.Random``
seeded with ``hash(node_id)``, a string hash Python salts per process:
the same seed then sent a different number of messages, and finished
its critical sections at different times, from one interpreter to the
next.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

# Two incrementers at two sites on one key while a store node crashes
# and recovers; prints a hash of the completion times and the traffic.
RUN = """
import hashlib
from repro.core import build_music

music = build_music(seed=1, anti_entropy=True)
sim = music.sim
faults = music.fault_schedule()
faults.restart_at(1_000.0, "store-1-0", down_ms=3_000.0)
faults.arm()
stamps = []

def worker(client):
    for i in range(6):
        cs = yield from client.critical_section("k")
        yield from cs.put(i)
        yield from cs.exit()
        stamps.append(sim.now)

for site in ("Ohio", "Oregon"):
    sim.process(worker(music.client(site)))
sim.run(until=20_000.0, strict=False)
stats = music.network.stats
print(len(stamps), hashlib.sha256(repr((stamps, stats.sent, stats.bytes_sent)).encode()).hexdigest())
"""


def _fingerprint(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", RUN], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return done.stdout.strip()


def test_an_anti_entropy_run_fingerprints_the_same_under_any_hash_seed():
    first, second = _fingerprint(1), _fingerprint(2)
    assert first.startswith("12 ")  # every critical section finished
    assert first == second
