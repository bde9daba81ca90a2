"""Seeded request plan of the serve-mixed workload.

The plan is a sequence of blocks of 24 requests in a fixed order:
three rounds of the six hot (accelerator, network) pairs of
HOT_ACCELS x HOT_NETS at the hot seed, with two extra requests in the
middle of each round. A round runs one hot network's three
accelerators back to back, so the daemon can coalesce them, and every
other round is reversed, so the last request of a round repeats as
the first of the next and the daemon can dedup it. The six extras of
a block are

- 4 compatible submits: each of COMPAT_ACCELS once, on a hot network
  at the hot seed, so the daemon may coalesce them with queued hot
  jobs;
- 2 fresh single-layer requests: a hot accelerator on one of
  FRESH_NETS at a seed no earlier request used, so each compiles cold.

Which hot network a compatible submit uses alternates with the block
parity, and the fresh (accelerator, network) pairs rotate with period
three, so any run of whole blocks has the same composition. The seed
decides the hot seed and the fresh seeds. The order stays fixed, so
which requests are in flight together, and so dedup and coalescing,
depends on timing alone and not on the seed.
"""

import random
from collections import namedtuple

HOT_ACCELS = ("loas", "sparten?fused=1", "gamma")
HOT_NETS = ("vgg16", "alexnet")
COMPAT_ACCELS = ("sparten", "gospa", "systolic", "stellar")
FRESH_NETS = ("vgg16-l8", "alexnet-l4", "resnet19-l19")

BLOCK = 24

Request = namedtuple("Request", "kind accel network seed")


def hot_seed(seed):
    """Workload seed of the hot set."""
    return random.Random("serve-mixed/hot/%d" % seed).randrange(1, 1 << 31)


def hot_set(seed):
    """The hot requests the daemon is warmed with at set-up."""
    hs = hot_seed(seed)
    return [Request("hot", a, n, hs) for a in HOT_ACCELS for n in HOT_NETS]


def serve_plan(seed, n):
    """The first n requests of the plan for `seed`."""
    rng = random.Random("serve-mixed/plan/%d" % seed)
    hs = hot_seed(seed)
    used = {hs}
    plan = []
    block_index = 0
    while len(plan) < n:
        compat = [Request("compat", accel,
                          HOT_NETS[(i + block_index) % len(HOT_NETS)], hs)
                  for i, accel in enumerate(COMPAT_ACCELS)]
        fresh = []
        for j in range(2):
            k = 2 * block_index + j
            seed_j = hs
            while seed_j in used:
                seed_j = rng.randrange(1, 1 << 31)
            used.add(seed_j)
            fresh.append(Request("fresh", HOT_ACCELS[k % len(HOT_ACCELS)],
                                 FRESH_NETS[k % len(FRESH_NETS)], seed_j))
        extras = [compat[0], compat[1], fresh[0], compat[2], fresh[1],
                  compat[3]]
        for r in range(3):
            hot = [Request("hot", a, net, hs)
                   for net in HOT_NETS for a in HOT_ACCELS]
            if r % 2:
                hot.reverse()
            plan.extend(hot[:3] + extras[2 * r:2 * r + 2] + hot[3:])
        block_index += 1
    return plan[:n]
