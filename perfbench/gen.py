"""Seeded request generators for the benchmark workloads.

Every request document the program sees is produced here from the
benchmark's ``--seed``: the same seed gives byte-identical documents.
Documents are compact one-line JSON in the `spec_version: 1` wire format
(see `crates/grid/src/wire.rs`).
"""

import json
import random

DAY = 86_400
MIB = 1 << 20
MIGRATION = {"rescue": True, "evacuate": True, "rescue_slack": 0.35, "hazard_threshold": 0.55}


def dumps(doc):
    return json.dumps(doc, separators=(",", ":"))


def _seed_hex(rng):
    return "0x%x" % rng.getrandbits(64)


def idle_month(seed, n, size="full"):
    """20k volunteers, 30 days, 200 long work units, no churn: almost all
    hosts hold no work while their availability flips about a million
    times."""
    rng = random.Random(seed * 7 + 1)
    tiny = size == "tiny"
    return [
        dumps({
            "spec_version": 1,
            "label": "idle-month-%d" % i,
            "seed": _seed_hex(rng),
            "horizon_secs": 30 * DAY,
            "project": {"workunits": 20 if tiny else 200, "wu_ref_secs": 1_440_000,
                        "replication": 1, "quorum": 1, "deadline_secs": 35 * DAY},
            "pool": {"volunteers": 200 if tiny else 20_000},
            "deploy": {"mode": "qemu", "image_bytes": 300 * MIB},
            "churn": {"level": 0},
        })
        for i in range(n)
    ]


def busy_churn(seed, n, size="full"):
    """10k volunteers, 20k four-hour work units with quorum 2, churn 1.0
    and migration with rescue and evacuation, over 14 days."""
    rng = random.Random(seed * 7 + 2)
    tiny = size == "tiny"
    return [
        dumps({
            "spec_version": 1,
            "label": "busy-churn-%d" % i,
            "seed": _seed_hex(rng),
            "horizon_secs": 14 * DAY,
            "project": {"workunits": 200 if tiny else 20_000, "wu_ref_secs": 14_400,
                        "replication": 2, "quorum": 2, "deadline_secs": 7 * DAY},
            "pool": {"volunteers": 100 if tiny else 10_000},
            "deploy": {"mode": "vmplayer", "image_bytes": 300 * MIB, "migration": MIGRATION},
            "churn": {"level": 1.0},
        })
        for i in range(n)
    ]


def with_substrate(body, substrate):
    """The same request run on another grid substrate (the oracle)."""
    doc = json.loads(body)
    doc["options"] = {"substrate": substrate}
    return dumps(doc)


# Share of serve-mix requests of each kind; the rest are fresh requests.
REPEAT_SHARE = 0.25
EXTEND_SHARE = 0.10
MALFORMED_SHARE = 0.03


class ServeClient:
    """One tenant's closed-loop request stream for the serve-mix workload.

    Repeats and horizon extensions only refer to this client's own
    earlier requests, so which requests find a warm cache does not
    depend on how the clients' threads interleave.
    """

    def __init__(self, seed, client, size="full"):
        self.rng = random.Random(seed * 1000 + client)
        self.scale = 10 if size == "tiny" else 1
        self.client = client
        self.sent = []  # valid documents sent so far
        self.n = 0

    def fresh(self):
        rng = self.rng
        mode = rng.choice(["native", "vmplayer", "qemu"])
        deploy = {"mode": mode}
        if mode != "native":
            deploy["image_bytes"] = 300 * MIB
        return {
            "spec_version": 1,
            "label": "tenant%d-%d" % (self.client, self.n),
            "seed": _seed_hex(rng),
            "horizon_secs": rng.randint(3, 7) * DAY,
            "project": {"workunits": rng.randint(50, 300) // self.scale, "wu_ref_secs": 14_400},
            "pool": {"volunteers": rng.randint(200, 2000) // self.scale},
            "deploy": deploy,
            "churn": {"level": self.churn_level()},
        }

    def churn_level(self):
        """Churn off, or a level in [0.25, 2].

        Levels in (0, 0.25) are left out on purpose: there the mean
        sandbox-kill interval (48 h / level) is long enough that some
        host draws an event past the ~213-day range of `SimTime`, and
        the campaign panics with "SimTime overflow" (in `vgrid serve`
        the panic takes the whole server down). That is a program
        defect for the serve-hardening work, not a load to time.
        """
        if self.rng.random() < 0.125:
            return 0
        return round(self.rng.uniform(0.25, 2.0), 2)

    def next(self):
        """Return ``(kind, body, expected_error_kind)``; kind is one of
        fresh, repeat, extend or malformed."""
        rng = self.rng
        self.n += 1
        u = rng.random()
        if u < MALFORMED_SHARE:
            doc = dumps(self.fresh())
            flavour = rng.randrange(3)
            if flavour == 0:
                return "malformed", doc[: len(doc) // 2], "json"
            if flavour == 1:
                return "malformed", doc[:-1] + ',"priority":1}', "invalid"
            return "malformed", doc.replace('"spec_version":1', '"spec_version":2'), "version"
        u -= MALFORMED_SHARE
        if self.sent and u < REPEAT_SHARE:
            return "repeat", dumps(rng.choice(self.sent)), None
        if self.sent and u < REPEAT_SHARE + EXTEND_SHARE:
            doc = dict(rng.choice(self.sent))
            doc["horizon_secs"] += rng.randint(1, 3) * DAY
            doc["label"] = "tenant%d-%d" % (self.client, self.n)
            self.sent.append(doc)
            return "extend", dumps(doc), None
        doc = self.fresh()
        self.sent.append(doc)
        return "fresh", dumps(doc), None
